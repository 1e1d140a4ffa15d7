"""Digest the output bytes of the herglotz commands, one sha256 per command.

    PYTHONPATH=src python tests/cli_digest.py 3 4 > digest.txt

runs ``simulate --out``, ``solve --out --mult-out``, ``verify --out`` and
``charge --out`` in-process on two sets of specs: the benchmark tasks that
``perfbench/workloads.py`` seeds with each seed given on the command line,
and the problem-file fixtures of ``tests/test_cli.py``.  A benchmark task
runs the commands its workload runs (simulate for certify, solve for
solve-delay, solve and charge for solve-zcoupled), a fixture every command
that its sections allow; every trajectory CSV written is then verified.

Each line is the digest of one command over its exit code, its stdout and
stderr (the temporary directory replaced by ``<tmp>``) and every file it
wrote, then the spec's label and the command.  Two checkouts print the
same lines exactly when their commands give the same bytes:

    PYTHONPATH=../other/src python tests/cli_digest.py 3 4 > other.txt
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


def run(argv, outs, tmp):
    """The sha256 of one in-process command: exit code, stdout, stderr and
    the bytes of each file in ``outs``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception as err:  # a traceback is digested, not raised
            code = f"{type(err).__name__}: {err}"
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
        }
        for command in commands:
            argv, outs = argvs[command]
            print(run(argv, outs, tmp), label, command)
        for csv in ("sim", "sol"):
            if os.path.exists(path(f"{csv}.csv")):
                out = path(f"{csv}.res.csv")
                print(run(["verify", spec, path(f"{csv}.csv"), "--out", out], [out],
                          tmp), label, f"verify {csv}")


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
