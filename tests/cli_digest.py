"""Digest the output bytes of the herglotz commands, one sha256 per command.

    PYTHONPATH=src python tests/cli_digest.py 3 4 > digest.txt

runs ``simulate --out``, ``solve --out --mult-out``, ``verify --out``,
``charge --out``, ``check-derivs`` and ``reduce --out`` in-process on two
sets of specs: the benchmark tasks that ``perfbench/workloads.py`` seeds
with each seed given on the command line, and the problem-file fixtures of
``tests/test_cli.py``.  A benchmark task runs the commands its workload runs
(simulate for certify, solve for solve-delay, solve and charge for
solve-zcoupled), a fixture every command that its sections allow; every
trajectory CSV written is then verified, and every spec is audited by
``check-derivs`` and reduced by ``reduce``, whose file prints the reduced
expressions.

Each line is the digest of one command over its exit code, its stdout and
stderr (the temporary directory replaced by ``<tmp>``) and every file it
wrote, then the spec's label and the command.  A command that raises, which
the exit-code contract forbids, is digested over the exception and named on
stderr, and the script then exits 1.  Two checkouts print the
same lines exactly when their commands give the same bytes.  Each runs its
own script, which imports that checkout's test fixtures and workloads:

    (cd ../other && PYTHONPATH=src python tests/cli_digest.py 3 4) > other.txt
    diff digest.txt other.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "perfbench")]

from herglotz.cli import main  # noqa: E402

import test_cli  # noqa: E402
import workloads  # noqa: E402


RAISED = []  # (label, command, exception) of every command that raised


def run(argv, outs, tmp, label, command):
    """The sha256 of one in-process command: exit code, stdout, stderr and
    the bytes of each file in ``outs``.  A raised exception is digested in
    place of the exit code and recorded in ``RAISED``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception as err:  # a traceback is digested, then reported
            code = f"{type(err).__name__}: {err}"
            RAISED.append((label, command, code))
    digest = hashlib.sha256()
    for text in (str(code), stdout.getvalue(), stderr.getvalue()):
        digest.update(text.replace(tmp, "<tmp>").encode() + b"\0")
    for path in outs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def digest_spec(label, text, commands, grid, tol=()):
    """One line per command on the spec ``text``, then one per verify of a
    trajectory CSV that a command wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "problem.spec")
        with open(spec, "w") as fh:
            fh.write(text)

        def path(name):
            return os.path.join(tmp, name)

        argvs = {
            "simulate": (["simulate", spec, *grid, "--out", path("sim.csv")],
                         [path("sim.csv")]),
            "solve": (["solve", spec, *grid, *tol, "--out", path("sol.csv"),
                       "--mult-out", path("mult.csv")],
                      [path("sol.csv"), path("mult.csv")]),
            "charge": (["charge", spec, *grid, *tol, "--out", path("charge.csv")],
                       [path("charge.csv")]),
            "check-derivs": (["check-derivs", spec], []),
            "reduce": (["reduce", spec, "--out", path("reduced.spec")],
                       [path("reduced.spec")]),
        }
        for command in (*commands, "check-derivs", "reduce"):
            argv, outs = argvs[command]
            print(run(argv, outs, tmp, label, command), label, command)
        for csv in ("sim", "sol"):
            if os.path.exists(path(f"{csv}.csv")):
                out = path(f"{csv}.res.csv")
                command = f"verify {csv}"
                print(run(["verify", spec, path(f"{csv}.csv"), "--out", out], [out],
                          tmp, label, command), label, command)


WORKLOAD_COMMANDS = {"certify": ("simulate",), "solve": ("solve",),
                     "charge": ("solve", "charge")}


def main_digest(seeds):
    for seed in seeds:
        for workload in sorted(workloads.GENERATORS):
            for task in workloads.generate(workload, seed):
                digest_spec(f"{workload}:{seed}:{task.label}", task.spec_text(),
                            WORKLOAD_COMMANDS[task.command],
                            ["--M", str(task.M)], ["--tol", repr(task.tol)])
    for name, text in sorted(vars(test_cli).items()):
        if name.isupper() and isinstance(text, str) and "[problem]" in text:
            commands = [c for c, section in (("simulate", "[candidate]"),
                                             ("solve", "[problem]"),
                                             ("charge", "[family]"))
                        if section in text]
            digest_spec(f"test_cli:{name}", text, commands, ["--h", "1e-2"])


if __name__ == "__main__":
    main_digest([int(s) for s in sys.argv[1:]])
    for label, command, err in RAISED:
        print(f"raised: {label} {command}: {err}", file=sys.stderr)
    sys.exit(1 if RAISED else 0)
