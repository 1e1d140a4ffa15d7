"""herglotz benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-delay --seed 1 --seconds 20 --trace 0

Runs in a single process against the package under ``src/`` of the same
checkout, calling ``herglotz.cli.main`` in-process the way the ``herglotz``
command does, plus the public reduction API for the Guinn check.

A run: cap the BLAS threads at the CPU count, warm BLAS up (untimed), set up
the workload five times (import of the package, then parse and build of
every generated problem, partials and their finite-difference audit
included), run whole rounds of the workload's tasks until ``--seconds`` of
task time have passed, checking each task's outputs right after it and
outside its time, and set up five times more; ``setup_s`` is the median of
the ten.  With ``--trace 1`` one more round runs with spans recorded around
each layer's public functions (see tracing.py), and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of standard
output is one JSON object; the lines before it say the same for a reader,
and a full record (the environment, every task, and the spans of a traced
run) is written to ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "conditions", "expr", "functional", "multipliers", "noether",
           "problem", "reduction", "solver", "specfile", "trajectory")
SETUP_REPEATS = 5
WARM_UP_SECONDS = 1.0


@dataclass
class Outcome:
    """What one executed task left behind for its checks."""

    task: workloads.Task
    spec_path: str
    csv_path: str
    seconds: float = 0.0
    commands: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    stdout: list = field(default_factory=list)
    result: object = None        # SolveResult of solve/charge
    traj: object = None          # certify: trajectory read back from the CSV
    equivalence: object = None   # certify: EquivalenceDefects
    error: str | None = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="task time to measure; whole rounds are run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=1,
                    help="divide every grid size M by this (self-test only)")
    return ap.parse_args(argv)


def cap_blas_threads():
    """At most one BLAS thread per CPU this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            wanted = nproc
        os.environ[var] = str(max(wanted, 1))
    return nproc


def import_herglotz():
    """A fresh import of every package module (numpy stays imported)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "herglotz"]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"herglotz.{m}")
                                    for m in MODULES})


def set_up(specs):
    t0 = perf_counter()
    hg = import_herglotz()
    for text in specs:
        hg.problem.build_problem(hg.specfile.parse_problem_file(text))
    return perf_counter() - t0, hg


class ResultTap:
    """Keeps the SolveResult of the latest solve for the output checks."""

    def __init__(self, solver):
        self.last = None
        self._solver, self._orig = solver, solver.solve_extremal

        def tapped(*args, **kwargs):
            self.last = self._orig(*args, **kwargs)
            return self.last

        solver.solve_extremal = tapped

    def remove(self):
        self._solver.solve_extremal = self._orig


def run_task(hg, task, stem, tap, run_cli):
    """One task, timed from its first call into the package to its last."""
    out = Outcome(task, f"{stem}.spec", f"{stem}.csv")
    Path(out.spec_path).write_text(task.spec_text())
    spec, csv = out.spec_path, out.csv_path
    grid = ["--M", str(task.M)]
    tol = ["--tol", repr(task.tol)]

    def cli(*argv):
        code, text, _ = run_cli(hg.cli.main, list(argv))
        out.commands.append(argv[0])
        out.codes.append(code)
        out.stdout.append(text)
        return code == 0

    tap.last = None
    t0 = perf_counter()
    try:
        if task.command == "solve":
            cli("solve", spec, *grid, *tol, "--out", csv)
        elif task.command == "charge":
            cli("charge", spec, *grid, *tol, "--out", f"{stem}.charge.csv")
        elif cli("simulate", spec, *grid, "--out", csv):
            with open(spec) as fh:  # the CSV read back through the API
                p = hg.problem.build_problem(hg.specfile.parse_problem_file(fh.read()))
            out.traj = hg.trajectory.read_trajectory_csv(p, csv)
            if cli("verify", spec, csv):
                out.equivalence = hg.reduction.verify_reduction_equivalence(p, out.traj)
    except Exception as err:  # a traceback is a failed task, not a crash
        out.error = f"{type(err).__name__}: {err}"
        traceback.print_exc(file=sys.stderr)
    out.seconds = perf_counter() - t0
    out.result = tap.last
    return out


def timed_phase(hg, tasks, seconds, workdir, tap, run_cli, recorder=None,
                rounds=None, on_done=None):
    """Whole rounds of the workload until ``seconds`` of task time (or a
    given number of rounds); ``on_done(out)`` runs after each task, outside
    its time.  Returns (outcomes, task seconds, rounds)."""
    outcomes, spent, done = [], 0.0, 0
    phase = "traced" if recorder else "plain"
    while (spent < seconds) if rounds is None else (done < rounds):
        for task in tasks:
            if recorder:
                recorder.task = len(outcomes)
            out = run_task(hg, task, str(workdir / f"{phase}{len(outcomes)}"), tap,
                           run_cli)
            outcomes.append(out)
            spent += out.seconds
            if on_done:
                on_done(out)
        done += 1
    return outcomes, spent, done


def warm_up_blas(np):
    """Untimed: the first BLAS calls of a process can run several times
    slower than later ones."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 1000)) + 30.0 * np.eye(1000)
    b = rng.standard_normal(1000)
    t0, calls = perf_counter(), 0
    while calls < 3 or perf_counter() - t0 < WARM_UP_SECONDS:
        np.linalg.solve(A, b)
        calls += 1


def environment(np, nproc):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_sha": git_sha()}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout, read without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rec, inst, n_tasks):
    """Per-layer metrics of a traced phase, per task unless a ratio."""
    tot, cnt = rec.totals(), rec.counts
    per = 1.0 / n_tasks

    def s(name):
        return tot.get(name, 0.0) * per

    iters = sum(i for i, _, _ in inst.solves)
    accepted = sum(a for _, a, _ in inst.solves)
    trials = sum(t for _, _, t in inst.solves)
    unknowns = cnt["solver.jacobian_unknowns"]
    m = {
        "solver.jacobian_s": (s("solver.residual_batched"), "s/task"),
        "solver.jacobian_columns": (cnt["solver.jacobian_columns"] * per, "count/task"),
        "solver.jacobian_cols_per_unknown": (
            cnt["solver.jacobian_columns"] / unknowns if unknowns else 0.0, "ratio"),
        "solver.linsolve_s": (s("solver.linsolve"), "s/task"),
        "solver.linsolve_gflop_computed": (cnt["solver.linsolve_flop"] * per / 1e9,
                                           "GFLOP/task"),
        "solver.newton_iters": (iters * per, "count/task"),
        "solver.residual_evals": (cnt["solver.residual_evals"] * per, "count/task"),
        "solver.linesearch_accept_ratio": (accepted / trials if trials else 0.0,
                                           "ratio"),
        "functional.rk4_batched_s": (s("functional.rk4_batched"), "s/task"),
        "functional.rk4_single_s": (s("functional.rk4_single"), "s/task"),
        "functional.rk4_batched_calls": (cnt["functional.rk4_batched_calls"] * per,
                                         "count/task"),
        "functional.rk4_single_calls": (cnt["functional.rk4_single_calls"] * per,
                                        "count/task"),
        "functional.rk4_py_steps_computed": (cnt["functional.rk4_py_steps"] * per,
                                             "count/task"),
        "functional.psi_s": (s("functional.psi"), "s/task"),
        "functional.eval_on_nodes_calls": (cnt["functional.eval_on_nodes_calls"] * per,
                                           "count/task"),
        "trajectory.build_series_s": (s("trajectory.build_series"), "s/task"),
        "trajectory.csv_write_s": (s("trajectory.csv_write"), "s/task"),
        "trajectory.csv_read_s": (s("trajectory.csv_read"), "s/task"),
        "trajectory.csv_bytes": (cnt["trajectory.csv_bytes"] * per, "B/task"),
        "multipliers.phi_s": (s("multipliers.phi"), "s/task"),
        "conditions.el_s": (s("conditions.el"), "s/task"),
        "conditions.tc_s": (s("conditions.tc"), "s/task"),
        "conditions.report_s": (s("conditions.report"), "s/task"),
        "reduction.equivalence_s": (s("reduction.equivalence"), "s/task"),
        "noether.defect_s": (s("noether.defect"), "s/task"),
        "noether.charge_s": (s("noether.charge"), "s/task"),
        "problem.build_s": (s("problem.build"), "s/task"),
        "problem.fd_audit_s": (s("problem.fd_audit"), "s/task"),
        "expr.evaluate_calls": (cnt["expr.evaluate_calls"] * per, "count/task"),
        "expr.compile_s": (s("expr.compile"), "s/task"),
        "specfile.parse_s": (s("specfile.parse"), "s/task"),
    }
    self_times = rec.self_times()
    for module in MODULES:
        m[f"{module}.self_s"] = (self_times.get(module, 0.0) * per, "s/task")
    m["trace.spans"] = (len(rec.spans) * per, "count/task")
    return m


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (ROOT / "src" / "herglotz" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'herglotz'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np  # only now: OpenBLAS reads the thread cap when loaded

    import checks

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, np, checks, nproc, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, np, checks, nproc, out_dir, workdir):
    env = environment(np, nproc)
    tasks = workloads.generate(args.workload, args.seed, args.scale)
    specs = [t.spec_text() for t in tasks]

    warm_up_blas(np)
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, hg = set_up(specs)
        setups.append(seconds)
    problems = []  # per task, in the order run

    def check(out):
        try:
            problems.append(checks.check(hg, out))
        except Exception as err:  # a check that cannot run fails the task
            problems.append([f"check raised {type(err).__name__}: {err}"])
        # keeps the peak memory independent of the number of rounds
        out.result = out.traj = out.equivalence = None

    tap = ResultTap(hg.solver)
    plain, spent, rounds = timed_phase(hg, tasks, args.seconds, workdir, tap,
                                       checks.run_cli, on_done=check)
    rss = peak_rss_mb()
    traced = []
    if args.trace:
        rec = tracing.SpanRecorder()
        inst = tracing.Instrumentation(rec)
        inst.install(hg)
        try:
            traced, _, _ = timed_phase(hg, tasks, args.seconds, workdir, tap,
                                       checks.run_cli, recorder=rec, rounds=1)
        finally:
            inst.remove()
        for out in traced:  # checked only now, so no check is traced
            check(out)
    tap.remove()

    outcomes = plain + traced
    failures = {i: p for i, p in enumerate(problems) if p}
    # the other half of the set-ups, some seconds after the first: the
    # machine's speed drifts on that scale, and the median spans both
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(specs)[0])

    passed = sum(1 for i in range(len(plain)) if i not in failures)
    p50 = statistics.median(o.seconds for o in plain)
    if args.trace:
        # against the last untraced round, which is as warm as the traced one
        untraced = statistics.median(o.seconds for o in plain[-len(tasks):])
        traced_p50 = statistics.median(o.seconds for o in traced)
        metrics = layer_metrics(rec, inst, len(traced))
        metrics["trace.task_s_p50"] = (traced_p50, "s")
        metrics["trace.untraced_task_s_p50"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced_p50 - untraced, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "task_s_p50": (p50, "s"),
            "tasks_per_s": (passed / spent, "1/s"),
            "pass_frac": (passed / len(plain), "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds} x "
          f"{len(tasks)} tasks  task time {spent:.2f} s")
    print("environment " + json.dumps(env))
    for i, problems in sorted(failures.items()):
        print(f"FAILED {outcomes[i].task.label}: {'; '.join(problems)}")
    print(f"  fail_frac = {1.0 - passed / len(plain):.6g} ratio "
          f"({len(plain) - passed} of {len(plain)} tasks)")
    print(f"  task_s_p50 over n = {len(plain)} tasks")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": workloads.WHY[args.workload], "environment": env,
              "setup_s_samples": setups, "rounds": rounds, "metrics": named,
              "tasks": [{"label": o.task.label, "seconds": o.seconds,
                         "traced": i >= len(plain), "problems": failures.get(i, [])}
                        for i, o in enumerate(outcomes)]}
    if args.trace:
        record["spans"] = rec.as_records()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))

    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
