"""Output checks for every task, run after the timed phase.

Each check returns a list of failure messages; a task passes when the list
is empty.  The oracles here are independent of the package: they evaluate
the generated Lagrangians and candidates with numpy, from the coefficients
the generator drew.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

import numpy as np

EXIT_CODES = (0, 2, 3, 4)   # the CLI's exit-code contract
NORM_KEYS = ("el1", "el2", "tc", "dbr")
INVARIANCE_TOL = 1e-6       # the CLI's --defect-tol default
CHARGE_DRIFT_TOL = 1e-6     # tau = 0: the time-translation charge is conserved
SHOOTING_TOL = 1e-6         # tau = 0 extremal against the shooting oracle
Z_ORACLE_RTOL = 1e-6        # z(b) against the quadrature oracle
CSV_RTOL = 1e-10            # candidate series read back from the CSV
EQUIVALENCE_TOL = 1e-8      # Guinn objective |z_N(tau) - z(b)|

_NORM_RE = re.compile(r"^sup (\w+): (\S+) \(unflagged (\S+)\)$", re.M)


def run_cli(main, argv):
    """cli.main with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_norms(text):
    """{key: (sup, sup over unflagged nodes)} from solve/verify output."""
    return {k: (float(a), float(b)) for k, a, b in _NORM_RE.findall(text)}


def _close(a, b):
    return abs(a - b) <= 1e-6 * max(abs(a), abs(b)) + 1e-12


def _code_problems(codes, what):
    bad = []
    for name, code in zip(what, codes):
        if code not in EXIT_CODES:
            bad.append(f"{name}: exit code {code!r} outside the 0/2/3/4 contract")
        elif code != 0:
            bad.append(f"{name}: exit code {code}")
    return bad


def _tolerance_problems(norms_unflagged, tol, source):
    return [f"{source}: unflagged {k} = {norms_unflagged[k]:.3e} > tol {tol:g}"
            for k in ("el1", "el2", "tc") if not norms_unflagged[k] <= tol]


def _reproduced(reference, verify_text):
    """verify's printed norms against the reference {key: (sup, unflagged)}."""
    again = parse_norms(verify_text)
    if set(again) != set(NORM_KEYS):
        return [f"verify printed norms for {sorted(again)}"]
    return [f"verify {k}: {again[k]} does not reproduce {reference[k]}"
            for k in NORM_KEYS
            if not (_close(again[k][0], reference[k][0])
                    and _close(again[k][1], reference[k][1]))]


def check(hg, out):
    """All checks of one executed task (an ``Outcome`` from run.py)."""
    if out.error:
        return [out.error]
    problems = _code_problems(out.codes, out.commands)
    if problems:
        return problems
    kind = out.task.command
    if kind == "solve":
        return _check_solve(hg, out)
    if kind == "charge":
        return _check_charge(hg, out)
    return _check_certify(out)


def _check_solve(hg, out):
    task, text = out.task, out.stdout[0]
    norms = parse_norms(text)
    if "converged: True" not in text or set(norms) != set(NORM_KEYS):
        return ["solve did not report convergence and all four norms"]
    problems = _tolerance_problems({k: v[1] for k, v in norms.items()},
                                   task.tol, "solve")
    code, vtext, _ = run_cli(hg.cli.main, ["verify", out.spec_path, out.csv_path])
    problems += _code_problems([code], ["verify re-run"])
    if not code:
        problems += _reproduced(norms, vtext)
    return problems


def _check_charge(hg, out):
    task, text, result = out.task, out.stdout[0], out.result
    if result is None or not result.converged:
        return ["charge: solve did not converge"]
    problems = _tolerance_problems(result.report.norms_unflagged, task.tol,
                                   "charge")
    m = re.search(r"invariance defect: condition1 (\S+), condition2 (\S+)", text)
    if not m or max(float(m[1]), float(m[2])) > INVARIANCE_TOL:
        problems.append("charge: time translation not reported invariant")
    hg.trajectory.write_trajectory_csv(result.trajectory, out.csv_path)
    code, vtext, _ = run_cli(hg.cli.main, ["verify", out.spec_path, out.csv_path])
    problems += _code_problems([code], ["verify re-run"])
    if not code:
        report = result.report
        problems += _reproduced({k: (report.norms[k], report.norms_unflagged[k])
                                 for k in NORM_KEYS}, vtext)
    if task.tau_zero_oscillator:
        m = re.search(r"charge drift: \S+ \(unflagged (\S+)\)", text)
        if not m or not float(m[1]) <= CHARGE_DRIFT_TOL:
            problems.append("charge: tau = 0 charge drift above "
                            f"{CHARGE_DRIFT_TOL:g}")
        x = result.trajectory.x[0, 0]
        ref = shooting_extremal(task.k, task.c, task.history[0][0], task.M)
        err = float(np.max(np.abs(x - ref)))
        if not err <= SHOOTING_TOL:
            problems.append(f"charge: extremal differs from the shooting "
                            f"oracle by {err:.3e}")
    return problems


def _check_certify(out):
    task, traj = out.task, out.traj
    problems = []
    m = re.search(r"^z\(b\) = (\S+)$", out.stdout[0], re.M)
    if not m or float(m[1]) != traj.z[-1]:
        problems.append("simulate: printed z(b) differs from the CSV")
    t = traj.grid.nodes()
    for j, cand in enumerate(task.candidate):
        for k in range(task.n + 1):
            ref = candidate_derivative(cand, k, t)
            if not np.allclose(traj.x[j, k], ref, rtol=CSV_RTOL, atol=CSV_RTOL):
                problems.append(f"CSV: x{j + 1} derivative {k} does not "
                                "round-trip the candidate")
    zb, allowance = z_oracle(task)
    if not abs(traj.z[-1] - zb) <= Z_ORACLE_RTOL * (1.0 + abs(zb)) + allowance:
        problems.append(f"simulate: z(b) = {float(traj.z[-1])!r}, quadrature "
                        f"oracle {zb!r}, breakpoint allowance {allowance:.3e}")
    norms = parse_norms(out.stdout[1])
    if set(norms) != set(NORM_KEYS) or not all(
            math.isfinite(v) for pair in norms.values() for v in pair):
        problems.append("verify: missing or non-finite norms")
    eq = out.equivalence
    if not eq.objective <= EQUIVALENCE_TOL:
        problems.append(f"Guinn objective {eq.objective:.3e} > "
                        f"{EQUIVALENCE_TOL:g}")
    if eq.coupling != 0.0:
        problems.append(f"Guinn coupling defect {eq.coupling!r} is not 0")
    return problems


# --------------------------------------------------------------------------
# oracles

def candidate_derivative(cand, k, t):
    """k-th derivative of x0 + d t + e t^2 + f (sin(w t) - g t)."""
    x0, d, e, f, w, g = cand
    s, c = np.sin(w * t), np.cos(w * t)
    trig = (s, c, -s, -c)[k % 4] * f * w ** k
    poly = (x0 + (d - f * g) * t + e * t * t, d - f * g + 2 * e * t, 2 * e + 0 * t)
    return (poly[k] if k < 3 else 0 * t) + trig


def _history_derivative(hist, k, t):
    x0, d = hist
    return (x0 + d * t, d + 0 * t)[k] if k < 2 else 0 * t


def _slot(j, k):
    return f"x{j}" if k == 0 else f"x{'d' * k}{j}"


def z_oracle(task):
    """(z(b), breakpoint allowance) for L = f(t, slots) - r z, z(a) = 0 on
    [0, 1].  z(1) = integral of exp(-r (1 - s)) f(s) ds, by Gauss-Legendre
    on pieces split at the delay breaking points a + k tau, where delayed
    slots jump.

    The package's RK4 takes the right limit of a delayed slot at a breaking
    point for the whole last stage of the step that ends there, a known
    first-order error (h/6) |jump of L| exp(-r (b - t_k)) per point.  The
    allowance is 1.5 times their sum, so the check holds for that
    convention and for a scheme that treats the breaking points exactly."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    cuts = np.unique(np.concatenate([np.arange(0.0, 1.0, task.tau), [1.0]]))
    edges = np.concatenate([np.linspace(lo, hi, 41)[:-1]
                            for lo, hi in zip(cuts[:-1], cuts[1:])] + [[1.0]])
    lo, hi = edges[:-1, None], edges[1:, None]
    s = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * weights).ravel()
    zb = float(np.sum(w * np.exp(-task.z_rate * (1.0 - s)) * _f(task, s)))
    tk = cuts[1:-1]
    jumps = np.abs(_f(task, tk + 1e-13) - _f(task, tk - 1e-13))
    allowance = 1.5 * np.sum(jumps * np.exp(-task.z_rate * (1.0 - tk))) / (6 * task.M)
    return zb, float(allowance)


def _f(task, s):
    """The z-free part of L along the candidate, the history below a."""
    env = {"t": s, "z": 0.0}
    for j, (cand, hist) in enumerate(zip(task.candidate, task.history), 1):
        past = s - task.tau
        for k in range(task.n + 1):
            env[_slot(j, k)] = candidate_derivative(cand, k, s)
            env["tau_" + _slot(j, k)] = np.where(
                past < 0.0, _history_derivative(hist, k, past),
                candidate_derivative(cand, k, past))
    return eval(task.lagrangian.replace("^", "**"), {"__builtins__": {}}, env)


def shooting_extremal(k, c, x0, M):
    """Extremal of L = v^2/2 - k x^2/2 - c z x on [0, 1], x(0) = x0,
    z(0) = 0, with the transversality condition v(1) = 0.  The Herglotz
    Euler-Lagrange equation gives x'' = -k x - c z - c x x'; RK4 with 2M
    steps, secant iteration on x'(0); returns x on the M+1 grid nodes."""
    def rhs(x, v, z):
        return v, -k * x - c * z - c * x * v, 0.5 * v * v - 0.5 * k * x * x - c * z * x

    def shoot(s, keep=False):
        h = 0.5 / M
        x, v, z = x0, s, 0.0
        xs = [x]
        for i in range(2 * M):
            a1 = rhs(x, v, z)
            a2 = rhs(x + 0.5 * h * a1[0], v + 0.5 * h * a1[1], z + 0.5 * h * a1[2])
            a3 = rhs(x + 0.5 * h * a2[0], v + 0.5 * h * a2[1], z + 0.5 * h * a2[2])
            a4 = rhs(x + h * a3[0], v + h * a3[1], z + h * a3[2])
            x += h / 6 * (a1[0] + 2 * a2[0] + 2 * a3[0] + a4[0])
            v += h / 6 * (a1[1] + 2 * a2[1] + 2 * a3[1] + a4[1])
            z += h / 6 * (a1[2] + 2 * a2[2] + 2 * a3[2] + a4[2])
            if keep and i % 2:
                xs.append(x)
        return (v, np.array(xs)) if keep else v

    s0, s1 = 0.0, -0.5
    f0, f1 = shoot(s0), shoot(s1)
    for _ in range(50):
        if abs(f1) < 1e-14 or f1 == f0:
            break
        s0, s1, f0 = s1, s1 - f1 * (s1 - s0) / (f1 - f0), f1
        f1 = shoot(s1)
    return shoot(s1, keep=True)[1]
