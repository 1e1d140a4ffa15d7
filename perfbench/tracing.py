"""In-memory span recorder and the instrumentation of the herglotz layers.

Spans are recorded from the benchmark's side: each public function of a
layer is replaced, on its module object, by a wrapper that opens a span,
calls the original and closes the span.  Calls between modules go through
module attributes (``fn.rk4_z``, ``sv.solve_extremal``), and calls inside a
module through its globals, so both are seen.  ``numpy.linalg.solve`` is
wrapped only as the solver sees it.  Nothing in the package is edited.

A span is (name, start, end, parent index, task id); self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, task]
        self.counts = Counter()
        self.task = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.task])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def totals(self):
        """Total duration per span name."""
        out = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self):
        """Self time summed per module (the span name before the first dot)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start) - child[i]
        return out

    def as_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "task": t}
                for n, s, e, p, t in self.spans]


class _Delegate:
    """Attribute proxy: ``overrides`` first, then the wrapped object."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Instrumentation:
    """Installs span and count wrappers on the herglotz modules; ``remove``
    puts every original back."""

    def __init__(self, recorder):
        self.rec = recorder
        self._undo = []
        self.solves = []  # per solve: (newton iterations, accepted, trials)

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(self, owner, attr, name, on_call=None):
        """Wrap owner.attr; ``name`` is a string or a function of the call's
        positional arguments; ``on_call(args)`` records counts."""
        orig = getattr(owner, attr)
        rec = self.rec

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            rec.open(name if isinstance(name, str) else name(args))
            try:
                return orig(*args, **kwargs)
            finally:
                rec.close()

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr, key):
        orig = getattr(owner, attr)
        counts = self.rec.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def install(self, hg):
        """hg: namespace of the imported herglotz modules."""
        counts = self.rec.counts
        cli, sv, fn, tr = hg.cli, hg.solver, hg.functional, hg.trajectory
        np = sv.np

        self.span(cli, "main", "cli.main")
        self.span(hg.specfile, "parse_problem_file", "specfile.parse")
        self.span(hg.problem, "build_problem", "problem.build")
        self.span(hg.problem, "_check_partials_fd", "problem.fd_audit")
        self.span(hg.expr, "compile_expr", "expr.compile")
        self.span(hg.expr, "parse_expression", "expr.parse")
        self.span(hg.expr, "differentiate", "expr.differentiate")
        self.count(hg.expr, "evaluate", "expr.evaluate_calls")

        def residual_call(args):
            U = args[1]
            if np.ndim(U) > 1:
                counts["solver.jacobian_columns"] += U.shape[0]
            else:
                counts["solver.residual_evals"] += 1

        def jacobian_call(args):
            counts["solver.jacobian_unknowns"] += args[1].shape[0]

        self.span(sv._System, "residual",
                  lambda a: ("solver.residual_batched" if np.ndim(a[1]) > 1
                             else "solver.residual"), residual_call)
        self.span(sv._System, "jacobian", "solver.jacobian", jacobian_call)
        self._wrap_solve(sv)

        def linsolve_call(args):
            n = args[0].shape[0]
            counts["solver.linsolve_flop"] += 2.0 * n ** 3 / 3.0 + 2.0 * n ** 2

        traced = _Delegate(np.linalg)
        self._replace(sv, "np", _Delegate(np, linalg=traced))
        self.span(traced, "solve", "solver.linsolve", linsolve_call)

        def rk4_call(args):
            kind = "batched" if args[2].ndim > 3 else "single"
            counts[f"functional.rk4_{kind}_calls"] += 1
            counts["functional.rk4_py_steps"] += args[1].M

        self.span(fn, "rk4_z",
                  lambda a: ("functional.rk4_batched" if a[2].ndim > 3
                             else "functional.rk4_single"), rk4_call)
        self.span(fn, "psi_values", "functional.psi")
        self.span(fn, "simulate_z", "functional.simulate")
        self.count(fn, "eval_on_nodes", "functional.eval_on_nodes_calls")

        self.span(tr, "build_series", "trajectory.build_series")
        self.span(tr, "from_expressions", "trajectory.from_expressions")
        self.span(tr, "read_trajectory_csv", "trajectory.csv_read")
        self._wrap_csv_write(tr)

        self.span(hg.multipliers, "compute_phi", "multipliers.phi")
        self.span(hg.conditions, "el_blocks", "conditions.el")
        self.span(hg.conditions, "transversality_values", "conditions.tc")
        self.span(hg.conditions, "dbr_residual", "conditions.dbr")
        self.span(hg.conditions, "full_report", "conditions.report")
        self.span(hg.reduction, "verify_reduction_equivalence",
                  "reduction.equivalence")
        self.span(hg.reduction, "simulate_reduced", "reduction.simulate")
        self.span(hg.noether, "make_family", "noether.family")
        self.span(hg.noether, "invariance_defect", "noether.defect")
        self.span(hg.noether, "noether_charge", "noether.charge")

    def _wrap_solve(self, sv):
        """solve_extremal span plus the per-solve line-search record: every
        unbatched residual after the first is one line-search trial."""
        self.span(sv, "solve_extremal", "solver.solve")
        traced = sv.solve_extremal
        counts, solves = self.rec.counts, self.solves

        @functools.wraps(traced)
        def wrapper(*args, **kwargs):
            before = counts["solver.residual_evals"]
            result = traced(*args, **kwargs)
            trials = counts["solver.residual_evals"] - before - 1
            steps = result.iterations[1:]
            accepted = sum(1 for _, _, lam in steps if lam >= 1e-8)
            solves.append((len(steps), accepted, trials))
            return result

        self._replace(sv, "solve_extremal", wrapper)

    def _wrap_csv_write(self, tr):
        """csv_write span plus the bytes of every file written."""
        counts = self.rec.counts
        self.span(tr, "write_trajectory_csv", "trajectory.csv_write")
        traced = tr.write_trajectory_csv

        @functools.wraps(traced)
        def wrapper(traj, path):
            out = traced(traj, path)
            if isinstance(path, (str, os.PathLike)):
                counts["trajectory.csv_bytes"] += os.path.getsize(path)
            return out

        self._replace(tr, "write_trajectory_csv", wrapper)

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
