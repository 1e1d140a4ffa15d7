"""Batch front end.

Exit codes are a stable contract: 0 success, 2 validation failure,
3 numeric failure, 4 solver non-convergence (best iterate still written).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import conditions as cd
from . import functional as fn
from . import multipliers as ml
from . import noether as nt
from . import problem as pb
from . import reduction as rd
from . import solver as sv
from . import specfile
from . import trajectory as tr
from .errors import (DomainError, ExprSyntaxError, GridTooSmall, HerglotzError,
                     NonFiniteLagrangian, OutOfHistoryRange, SingularJacobian,
                     UnboundVariable, UnknownFunction, ValidationError, ZeroDelay)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4

_VALIDATION_ERRORS = (ValidationError, ExprSyntaxError, UnknownFunction,
                      FileNotFoundError, IsADirectoryError, NotADirectoryError,
                      UnicodeDecodeError)
_NUMERIC_ERRORS = (DomainError, NonFiniteLagrangian, UnboundVariable,
                   GridTooSmall, OutOfHistoryRange, SingularJacobian, ZeroDelay,
                   FloatingPointError, MemoryError)


def _load(args):
    """The spec's content, problem, grid and solve options, the last two
    None for a command without them.  The grid is checked from the spec's
    a, b, tau and n and the solve options next, so that neither fails after
    L is differentiated and audited."""
    with open(args.file) as fh:
        raw = specfile.parse_problem_file(fh.read())
    grid = opts = None
    if "M" in vars(args):
        h = args.h if args.M is None else None
        grid = tr.align_grid(raw.a, raw.b, raw.tau, n=raw.n, M=args.M, h=h)
        if "tol" in vars(args):
            opts = sv.SolveOptions(M=args.M, h=h, tol_r=args.tol,
                                   max_iters=args.max_iters)
            opts.validate()
    return raw, pb.build_problem(raw), grid, opts


def _fmt(v):
    return f"{v:.17g}"


def cmd_simulate(args):
    raw, p, grid, _ = _load(args)
    if raw.candidate is None:
        raise ValidationError("simulate needs a [candidate] section with x1..xm")
    traj = tr.from_expressions(p, grid, list(raw.candidate))
    slots = fn.slot_args(p, grid, traj.x)  # L's node arguments, built once
    traj = fn.simulate_z(p, traj, fn.rk4_z(p, grid, traj.x, slots))
    if args.out:
        tr.write_trajectory_csv(traj, args.out)
        print(f"wrote {args.out}")
    else:
        tr.write_trajectory_csv(traj, sys.stdout)
    defect = fn.admissibility_defect(p, traj, slots)
    print(f"z(b) = {_fmt(traj.z[-1])}")
    print(f"admissibility defect sup|dz/dt - L| = {_fmt(defect)}")
    return EXIT_OK


def _print_norms(report):
    """The sup and unflagged sup of each of the report's four blocks."""
    norms, unflagged = report.norms, report.norms_unflagged
    for key in ("el1", "el2", "tc", "dbr"):
        print(f"sup {key}: {_fmt(norms[key])} (unflagged {_fmt(unflagged[key])})")


def _print_report(result):
    print(f"iterations: {len(result.iterations) - 1}")
    for it, norm, lam in result.iterations:
        print(f"  iter {it:3d}  residual {norm:.6e}  damping {lam:.3g}")
    _print_norms(result.report)
    print(f"converged: {result.converged}")


def cmd_solve(args):
    _, p, _, opts = _load(args)
    result = sv.solve_extremal(p, opts)
    if args.out:
        tr.write_trajectory_csv(result.trajectory, args.out)
        print(f"wrote {args.out}")
    if args.mult_out:
        ml.write_multiplier_csv(result.trajectory.grid, result.multipliers,
                                args.mult_out)
        print(f"wrote {args.mult_out}")
    _print_report(result)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_verify(args):
    _, p, _, _ = _load(args)
    traj = tr.read_trajectory_csv(p, args.trajectory)
    problems = []
    if abs(traj.z[0] - p.gamma) > 1e-9 * (1 + abs(p.gamma)):
        problems.append(f"z(a)={traj.z[0]!r} does not match gamma={p.gamma!r}")
    for j in range(1, p.m + 1):
        mu_a = pb.history_derivative(p, j, 0, p.a)
        if abs(traj.x[j - 1, 0, 0] - mu_a) > 1e-9 * (1 + abs(mu_a)):
            problems.append(f"x{j}(a)={traj.x[j - 1, 0, 0]!r} does not match "
                            f"history value {mu_a!r}")
    if problems:
        raise ValidationError(problems)
    slots = fn.trajectory_args(p, traj)  # L's node arguments, built once
    psi = fn.psi_values(p, traj.grid, slots, traj.z)
    mult = ml.compute_phi(p, traj, psi, slots)
    report = cd.full_report(p, traj, mult, slots)
    if args.out:
        _write_residual_csv(report, args.out)
        print(f"wrote {args.out}")
    _print_norms(report)
    return EXIT_OK


def _write_residual_csv(report, path):
    """Rows t,block,r1..rm: el1 from a, el2 from b - tau, then dbr in the
    first residual column; a '# sup' footer holds the four norms."""
    t = report.grid.nodes()
    m = report.el1.shape[0]
    blocks = [[t[start:start + vals.shape[-1]], name, *vals]
              for name, start, vals in (("el1", 0, report.el1),
                                        ("el2", report.grid.junction, report.el2))]
    blocks.append([t, "dbr", report.dbr] + [""] * (m - 1))
    tr.write_table(path, ["t", "block"] + [f"r{j + 1}" for j in range(m)], blocks,
                   footer="# sup " + " ".join(f"{k}={_fmt(v)}"
                                              for k, v in report.norms.items()))


def cmd_reduce(args):
    _, p, _, _ = _load(args)
    rp = rd.guinn_reduce(p)
    if args.out:
        rd.write_reduced_file(rp, args.out)
        print(f"wrote {args.out}")
    else:
        rd.write_reduced_file(rp, sys.stdout)
    cut = "none" if rp.cut is None else _fmt(rp.cut)
    print(f"N = {rp.N}, tau = {_fmt(rp.tau)}, cut = {cut}")
    return EXIT_OK


def cmd_charge(args):
    if not (np.isfinite(args.defect_tol) and args.defect_tol >= 0):
        raise ValidationError(f"--defect-tol must be a non-negative finite "
                              f"number, got {args.defect_tol!r}")
    raw, p, _, opts = _load(args)
    fam_content = raw.family
    if args.family_file:
        with open(args.family_file) as fh:
            fam_sections = specfile.parse_sections(fh.read())
        if "family" not in fam_sections:
            raise ValidationError(f"{args.family_file} has no [family] section")
        problems = []
        fam_content = specfile.parse_family(fam_sections["family"], p.m, problems)
        if problems:
            raise ValidationError(problems)
    if fam_content is None:
        raise ValidationError("charge needs a [family] section (in the problem "
                              "file or a separate family file)")
    fam = nt.make_family(p, fam_content.T, fam_content.X, fam_content.Z,
                         fam_content.xi)
    nt.time_shift(p, fam)  # a delayed charge needs a constant T: check before solving
    result = sv.solve_extremal(p, opts)
    if not result.converged:
        _print_report(result)
        return EXIT_NO_CONVERGENCE
    traj = result.trajectory
    slots = fn.trajectory_args(p, traj)  # L's node arguments, built once
    gen = nt.lift_generators(p, fam, traj)  # one lift for the defect and the charge
    d1, d2 = nt.invariance_defect(p, traj, gen, slots)
    charge = nt.noether_charge(p, traj, result.multipliers, gen, slots)
    total = nt.drift(charge)
    interior = nt.drift(charge, mask=result.report.dbr_flags)
    if args.out:
        tr.write_table(args.out, ["t", "charge"], [[traj.grid.nodes(), charge]],
                       footer=f"# drift {_fmt(total)}")
        print(f"wrote {args.out}")
    print(f"invariance defect: condition1 {_fmt(d1)}, condition2 {_fmt(d2)}")
    print(f"charge drift: {_fmt(total)} (unflagged {_fmt(interior)})")
    if max(d1, d2) > args.defect_tol:
        print(f"family is NOT invariant at tolerance {args.defect_tol:g}; "
              "charge is not expected to be conserved")
    else:
        print(f"family invariant at tolerance {args.defect_tol:g}")
    return EXIT_OK


def cmd_check_derivs(args):
    _, p, _, _ = _load(args)
    rows = pb.check_derivatives(p)
    print(f"{'slot':<12} {'t':>12} {'symbolic':>16} {'fd':>16} {'rel_err':>12}")
    worst = 0.0
    for name, t, sym, fd, rel in rows:
        worst = max(worst, rel)
        print(f"{name:<12} {t:>12.6g} {sym:>16.9g} {fd:>16.9g} {rel:>12.3e}")
    print(f"worst relative error: {worst:.3e}")
    if worst > 1e-6:
        print("FAIL: symbolic partials disagree with finite differences")
        return EXIT_VALIDATION
    print("OK: all partials agree with finite differences (<= 1e-6)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="herglotz",
        description="Solve and certify delayed higher-order Herglotz "
                    "variational problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(sp):
        sp.add_argument("--h", type=float, default=1e-3,
                        help="target grid step (nudged so tau is a multiple)")
        sp.add_argument("--M", type=int, default=None,
                        help="exact node-count override")

    sp = sub.add_parser("simulate", help="integrate z for a candidate x")
    sp.add_argument("file")
    add_grid(sp)
    sp.add_argument("--out", default=None, help="trajectory CSV path")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("solve", help="solve for an extremal")
    sp.add_argument("file")
    add_grid(sp)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iters", type=int, default=25)
    sp.add_argument("--out", default=None, help="trajectory CSV path")
    sp.add_argument("--mult-out", default=None, help="multiplier CSV path")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="residual report for a trajectory CSV")
    sp.add_argument("file")
    sp.add_argument("trajectory")
    sp.add_argument("--out", default=None, help="residual CSV path")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("reduce", help="emit the stacked non-delayed problem")
    sp.add_argument("file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("charge", help="solve, check invariance, evaluate the "
                                       "conserved quantity")
    sp.add_argument("file")
    sp.add_argument("family_file", nargs="?", default=None,
                    help="optional separate file holding the [family] section")
    add_grid(sp)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iters", type=int, default=25)
    sp.add_argument("--defect-tol", type=float, default=1e-6)
    sp.add_argument("--out", default=None, help="charge CSV path")
    sp.set_defaults(fn=cmd_charge)

    sp = sub.add_parser("check-derivs", help="finite-difference audit of the "
                                             "Lagrangian partials")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check_derivs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a failure speaks through its exit code
            return args.fn(args)
    except _VALIDATION_ERRORS as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except HerglotzError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
