"""Pytest plugin: record every in-process ``solve_extremal`` call of a test run.

    PYTHONPATH=src:tests python -m pytest -q -p solve_record --solve-record=solves.json

For each call it writes the test that made it, M, m, n, tau, the converged
flag, the step count, the final residual and the side of every matrix the
solve factored to the JSON file (a list, in call order).  It loads only
when named with ``-p`` and changes no test's outcome.  A solver change keeps
every solve that converges:

    python tests/solve_record.py before.json after.json

lists the calls (the k-th of a test) that converged in the first record and
not in the second, and exits 1 if there is one.  Beside it, it counts the
factored matrices of each record by side: m*M (the positions alone: a
z-free L's Newton matrix, or the held one of a z-coupled L) or larger (the
augmented matrix of a z-coupled L).
"""

import functools
import json
import os
import sys


def pytest_addoption(parser):
    parser.addoption("--solve-record", default="solve_record.json",
                     help="JSON file of the recorded solve_extremal calls")


def pytest_load_initial_conftests(early_config, parser, args):
    # before any conftest or test module binds the name
    import herglotz
    from herglotz import solver

    solve, records = solver.solve_extremal, []

    @functools.wraps(solve)
    def recorded(p, opts=None):
        sides, factor = [], solver._factor

        def counted(J, size, n):
            sides.append(size)
            return factor(J, size, n)

        solver._factor = counted
        try:
            result = solve(p, opts)
        finally:
            solver._factor = factor
        records.append({
            "test": os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0],
            "M": result.trajectory.grid.M, "m": p.m, "n": p.n, "tau": p.tau,
            "converged": result.converged,
            "steps": len(result.iterations) - 1,
            "residual": result.iterations[-1][1],
            "sides": sides})
        return result

    solver.solve_extremal = herglotz.solve_extremal = recorded
    early_config._solve_records = records


def pytest_unconfigure(config):
    records = getattr(config, "_solve_records", None)
    if records is not None:
        with open(config.getoption("--solve-record"), "w") as fh:
            json.dump(records, fh, indent=1)


def _keyed(records):
    """The records by (test, k), the k-th call of that test."""
    seen = {}
    for r in records:
        k = seen[r["test"]] = seen.get(r["test"], -1) + 1
        yield (r["test"], k), r


def _lost(before, after):
    """Calls of tests in both records that converge in ``before`` only."""
    after = dict(_keyed(after))
    return [(key, b["M"]) for key, b in _keyed(before)
            if b["converged"] and not after.get(key, b)["converged"]]


def _sides(records):
    """The factored matrices of side m*M and of a larger side."""
    sides = [(s, r["m"] * r["M"]) for r in records for s in r.get("sides", [])]
    return (sum(s == mM for s, mM in sides), sum(s > mM for s, mM in sides))


if __name__ == "__main__":
    records = []
    for path in sys.argv[1:3]:
        with open(path) as fh:
            records.append(json.load(fh))
    lost = _lost(*records)
    for (test, k), M in lost:
        print(f"no longer converges: {test}, call {k} (M={M})")
    print(f"{len(records[0])} and {len(records[1])} calls, {len(lost)} lost")
    for name, r in zip(("before", "after"), records):
        positions, augmented = _sides(r)
        print(f"{name}: {positions} factored matrices of side m*M, "
              f"{augmented} augmented")
    sys.exit(1 if lost else 0)
