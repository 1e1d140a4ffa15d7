"""Acceptance suite: one criterion per test, each printing a pass/fail line.

For a Lagrangian with genuine delayed dependence the pointwise quantity
E = sum_k phi_k . x^(k) + psi L is NOT constant along extremals: its
derivative telescopes across the delay comb,

    dE/dt - psi dL/dt = D(t) - D(t + tau)  (plus sum_j R_j x_j' off extremals),
    D(s) = psi(s) sum_{j,r} dL/dx_tau_j^(r)(s) x_j^(r+1)(s - tau),  D = 0 past b,

so the pointwise DuBois-Reymond residual and the pointwise time-translation
charge -E drift on the delayed fixture.  The library's ``dbr`` block and
charge are the comb-corrected ones, and the delayed criteria 4 and 6
certify the identity that holds: the residual vanishes, and the
time-translation charge -(E + int_t^min(t+tau, b) D) is constant.  The
pointwise forms are rebuilt here, the residual from the report and the comb
series and the charge -E from the first-order oracle, to show that the comb
term carries the whole gap.  test_criterion_6_conserved_counterparts
adds the stacked optimal-control view of the same fact: the stacked
Hamiltonian (the sum over all delay intervals) is conserved and the
pointwise charge returns to its initial value at b.
"""

import time

import numpy as np

from herglotz import conditions as cd
from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import noether as nt
from herglotz import reduction as rd
from herglotz import trajectory as tr
from herglotz.cli import main

from conftest import (make_problem, oscillator_closed_form,
                      oscillator_closed_form_src, oscillator_problem)
from oracles import (delay_free_el, delay_free_tc, first_order_comb_integral,
                     first_order_delayed_el, first_order_delayed_dbr,
                     first_order_delayed_charge, first_order_delayed_comb,
                     from_positions, map_multipliers, reduced_hamiltonian)


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1 -------------------------------------------------------------------

def test_criterion_1_closed_form_extremal(oscillator_solved):
    p, res = oscillator_solved
    t = res.trajectory.grid.nodes()
    err = float(np.max(np.abs(res.trajectory.x[0, 0] - oscillator_closed_form(t))))
    ok = res.converged and err <= 1e-4 and res.elapsed < 30.0
    report(1, ok, f"max pointwise error {err:.3e} (tol 1e-4), "
                  f"runtime {res.elapsed:.2f}s (< 30s), M=1000")
    assert res.converged
    assert err <= 1e-4
    assert res.elapsed < 30.0


# -- 2 -------------------------------------------------------------------

def test_criterion_2_psi_contract():
    p = make_problem("0.5*xd1^2 - z")  # dL/dz = -1
    sups, resids = [], []
    for h in (4e-3, 2e-3, 1e-3):
        g = tr.align_grid(0.0, 1.0, 0.0, n=1, h=h)
        traj = fn.simulate_z(p, tr.from_expressions(p, g, ["1"]))
        psi = fn.psi_values(p, g, fn.trajectory_args(p, traj), traj.z)
        sups.append(float(np.max(np.abs(psi - np.exp(g.nodes() - 1.0)))))
        gz = fn.eval_on_nodes(p, g, traj.x, traj.z, "z")
        r = tr.differentiate_values(psi, g.h, 1) + psi * gz
        resids.append(float(np.max(np.abs(r))))
        assert psi[-1] == 1.0  # exactly
    order = float(np.log2(resids[0] / resids[2]) / 2.0)
    ok = sups[-1] <= 1e-10 and order >= 2.0
    report(2, ok, f"sup|psi - exp(t-b)| {sups[-1]:.3e} (tol 1e-10), psi(b)=1 exact, "
                  f"adjoint-residual order {order:.2f} over h in (4e-3, 2e-3, 1e-3)")
    assert sups[-1] <= 1e-10
    assert order >= 2.0


# -- 3 -------------------------------------------------------------------

def test_criterion_3_transversality(oscillator_solved, quadratic_n2_solved_fine):
    worst = 0.0
    for _, res in (oscillator_solved, quadratic_n2_solved_fine):
        assert res.converged
        worst = max(worst, float(np.max(np.abs(res.report.tc))))

    # perturb the n=1 closed form so xd(b) = 0.1 while keeping x(a) = mu(a)
    p = oscillator_problem()
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, h=1e-3)
    src = oscillator_closed_form_src() + " + 0.05*t^2"
    traj = fn.simulate_z(p, tr.from_expressions(p, g, [src]))
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, g, args, traj.z)
    sums = ml.block_sums(p, g, args, traj.z, psi)
    tc = cd.full_report(p, traj, ml.compute_phi(psi, sums), args, sums).tc
    err = abs(float(tc[0, 0]) - 0.1)
    ok = worst <= 1e-4 and err <= 1e-5
    report(3, ok, f"worst TC on converged fixtures {worst:.3e} (tol 1e-4); "
                  f"perturbed xd(b)=0.1 read back within {err:.3e} (tol 1e-5)")
    assert worst <= 1e-4
    assert err <= 1e-5


# -- 4 -------------------------------------------------------------------

def test_criterion_4_dbr_delay_free(oscillator_solved, quadratic_n2_solved_fine):
    worst_dbr, worst_drift = 0.0, 0.0
    for p, res in (oscillator_solved, quadratic_n2_solved_fine):
        worst_dbr = max(worst_dbr, res.report.norms_unflagged["dbr"])
        inner = cd.dbr_inner(p, res.trajectory, res.multipliers,
                             fn.trajectory_args(p, res.trajectory))
        worst_drift = max(worst_drift, nt.drift(inner, res.report.dbr_flags))
    ok = worst_dbr <= 1e-3 and worst_drift <= 1e-4
    report("4 (delay-free)", ok,
           f"dbr sup {worst_dbr:.3e} (tol 1e-3), "
           f"inner drift {worst_drift:.3e} (tol 1e-4) on n=1 and n=2 extremals")
    assert worst_dbr <= 1e-3
    assert worst_drift <= 1e-4


def test_criterion_4_dbr_with_delay_strict(delayed_solved):
    """The delayed DuBois-Reymond identity at the stated tolerances: the
    residual dE/dt - psi dL/dt - [D(t) - D(t + tau)] vanishes away from the
    flagged zones (a + tau among them, where D jumps) and
    E + int_t^min(t+tau, b) D, minus the time-translation charge, is
    constant.  The library's D matches the first-order oracle, and the
    pointwise residual, which leaves the comb term out, stays large: the
    comb term carries the whole gap."""
    p, res = delayed_solved
    traj, mult = res.trajectory, res.multipliers
    args = fn.trajectory_args(p, traj)
    dbr = res.report.norms_unflagged["dbr"]
    D, _ = cd.comb_series(p, traj, mult, args)
    comb_gap = float(np.max(np.abs(
        D - first_order_delayed_comb(p, traj, mult.psi))))
    pointwise = res.report.dbr + (D - fn.ahead(D, traj.grid.p))
    pointwise_dbr = float(np.max(np.abs(pointwise[~res.report.dbr_flags])))
    inner = -nt.noether_charge(p, traj, mult, _time_lift(p, traj), args)
    drift = nt.drift(inner, res.report.dbr_flags)
    ok = (dbr <= 1e-3 and drift <= 1e-4 and comb_gap <= 1e-10
          and pointwise_dbr >= 1e-2)
    report("4 (delayed)", ok,
           f"dbr sup {dbr:.3e} (tol 1e-3), corrected inner drift {drift:.3e} "
           f"(tol 1e-4), comb against the oracle {comb_gap:.3e} (tol 1e-10); "
           f"pointwise dbr sup {pointwise_dbr:.3e} (>= 1e-2)")
    assert dbr <= 1e-3
    assert drift <= 1e-4
    assert comb_gap <= 1e-10
    assert pointwise_dbr >= 1e-2


# -- 5 -------------------------------------------------------------------

def test_criterion_5_reduction_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for tau in (0.25, 1.0 / 3.0, 0.3):  # 0.3 is the padding case
        p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - z",
                         mu=("1 + 0.5*t",), tau=tau, gamma=0.2)
        g = tr.align_grid(0.0, 1.0, tau, n=1, h=1e-3)
        for _ in range(7):
            c = rng.uniform(-1, 1, size=5)
            src = " + ".join(["1"] + [f"({float(c[i])!r})*t^{i + 1}"
                                      for i in range(5)])
            traj = fn.simulate_z(p, tr.from_expressions(p, g, [src]))
            eq = rd.verify_reduction_equivalence(p, traj)
            worst = max(worst, eq.objective, eq.coupling)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 10.0 and count >= 20
    report(5, ok, f"{count} random degree-5 trajectories, worst defect "
                  f"{worst:.3e} (tol 1e-7), runtime {elapsed:.2f}s (< 10s)")
    assert count >= 20
    assert worst <= 1e-7
    assert elapsed < 10.0


# -- 6 -------------------------------------------------------------------

def _time_translation(p):
    return nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)


def _time_lift(p, traj):
    return nt.lift_generators(p, _time_translation(p), traj)


def test_criterion_6_invariance_defect(delayed_solved):
    p, res = delayed_solved
    d1, d2 = nt.invariance_defect(p, res.trajectory, _time_lift(p, res.trajectory),
                                  fn.trajectory_args(p, res.trajectory))
    ok = max(d1, d2) <= 1e-6
    report("6 (defect)", ok, f"invariance defects {d1:.3e}, {d2:.3e} (tol 1e-6)")
    assert max(d1, d2) <= 1e-6


def test_criterion_6_charge_drift_strict(delayed_solved):
    """The delayed time-translation charge at the stated tolerance.  With
    T=1, X=0, Z=0 the pointwise charge is -E, which drifts with the comb
    term; the charge adds int_t^min(t+tau, b) of G = -D, matches the
    first-order oracles written out term by term and is constant along the
    extremal."""
    p, res = delayed_solved
    traj, mult = res.trajectory, res.multipliers
    args = fn.trajectory_args(p, traj)
    gen = _time_lift(p, traj)
    C = nt.noether_charge(p, traj, mult, gen, args)
    drift = nt.drift(C, res.report.dbr_flags)
    zero = np.zeros(traj.grid.p + 1)
    ref = (first_order_delayed_charge(p, traj, mult.psi, gen.T, gen.X[0, 0], gen.Z)
           + first_order_comb_integral(p, traj, mult.psi, 1.0, gen.X[0, 0],
                                       [zero, zero]))
    gap = float(np.max(np.abs(C - ref)))
    ok = drift <= 1e-3 and gap <= 1e-10
    report("6 (drift)", ok,
           f"delayed charge drift {drift:.3e} (tol 1e-3), "
           f"|charge - first-order oracle| {gap:.3e} (tol 1e-10)")
    assert drift <= 1e-3
    assert gap <= 1e-10


def test_criterion_6_conserved_counterparts(delayed_solved):
    """What the stacked optimal-control argument actually guarantees, on the
    same fixture: the stacked Hamiltonian is constant on [0, tau] and the
    charge returns to its initial value at b (constant history)."""
    p, res = delayed_solved
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, res.trajectory)
    mults = map_multipliers(rp, res.trajectory, res.multipliers)
    H = reduced_hamiltonian(rp, stacked, mults)
    h_drift = float(np.max(H) - np.min(H))
    gen = _time_lift(p, res.trajectory)  # the pointwise charge, -E
    C = first_order_delayed_charge(p, res.trajectory, res.multipliers.psi,
                                   gen.T, gen.X[0, 0], gen.Z)
    endpoint = abs(float(C[-1] - C[0]))
    ok = h_drift <= 1e-5 and endpoint <= 1e-5
    report("6 (conserved counterparts)", ok,
           f"stacked-Hamiltonian drift {h_drift:.3e}, "
           f"charge endpoint return {endpoint:.3e} (tol 1e-5)")
    assert h_drift <= 1e-5
    assert endpoint <= 1e-5


def test_criterion_6_perturbed_non_extremal(delayed_solved):
    p, res = delayed_solved
    g = res.trajectory.grid
    pos = res.trajectory.x[:, 0, :].copy()
    pos[0] += 1e-2 * np.sin(np.pi * g.nodes())
    pert = fn.simulate_z(p, from_positions(p, g, pos))
    args = fn.trajectory_args(p, pert)
    psi = fn.psi_values(p, g, args, pert.z)
    sums = ml.block_sums(p, g, args, pert.z, psi)
    mult = ml.compute_phi(psi, sums)
    rep = cd.full_report(p, pert, mult, args, sums)
    C = nt.noether_charge(p, pert, mult, _time_lift(p, pert), args)
    drift = nt.drift(C, rep.dbr_flags)
    dbr = rep.norms_unflagged["dbr"]
    ok = drift >= 1e-3 and dbr >= 1e-3
    report("6 (perturbed)", ok, f"non-extremal charge drift {drift:.3e} and "
                                f"dbr sup {dbr:.3e} (>= 1e-3)")
    assert drift >= 1e-3
    assert dbr >= 1e-3


# -- 7 -------------------------------------------------------------------

def test_criterion_7_special_case_equivalences():
    worst = 0.0

    # delay-free special case: tau=0, higher order, independent code path
    p = make_problem("0.5*xdd1^2 - 0.4*x1^2 - z", mu=("1",), n=2)
    g = tr.align_grid(0.0, 1.0, 0.0, n=2, M=200)
    traj = fn.simulate_z(p, tr.from_expressions(p, g, ["cos(t)"]))
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, g, args, traj.z)
    sums = ml.block_sums(p, g, args, traj.z, psi)
    rep = cd.full_report(p, traj, ml.compute_phi(psi, sums), args, sums)
    el1 = rep.el1
    worst = max(worst, float(np.max(np.abs(el1 - delay_free_el(p, traj, psi)))))
    tc = rep.tc
    worst = max(worst, float(np.max(np.abs(tc - delay_free_tc(p, traj, psi)))))

    # first-order delayed special cases: direct two-term formulas
    pd = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*x1*tau_xd1 - z", tau=0.25)
    gd = tr.align_grid(0.0, 1.0, 0.25, n=1, M=200)
    trajd = fn.simulate_z(pd, tr.from_expressions(pd, gd, ["1 - 0.3*t^2"]))
    argsd = fn.trajectory_args(pd, trajd)
    psid = fn.psi_values(pd, gd, argsd, trajd.z)
    sumsd = ml.block_sums(pd, gd, argsd, trajd.z, psid)
    multd = ml.compute_phi(psid, sumsd)
    repd = cd.full_report(pd, trajd, multd, argsd, sumsd)
    el1d, el2d = repd.el1, repd.el2
    ref1, ref2 = first_order_delayed_el(pd, trajd, psid)
    worst = max(worst, float(np.max(np.abs(el1d[0] - ref1))),
                float(np.max(np.abs(el2d[0] - ref2))))
    D = first_order_delayed_comb(pd, trajd, psid)
    D_ahead = np.zeros_like(D)
    D_ahead[:-gd.p] = D[gd.p:]
    worst = max(worst, float(np.max(np.abs(
        cd.dbr_residual(pd, trajd, multd, argsd)
        - (first_order_delayed_dbr(pd, trajd, psid) - (D - D_ahead))))))
    fam = nt.make_family(pd, "t + s", ["x1 + 0.5*s*x1"], "z + s*t")
    gen = nt.lift_generators(pd, fam, trajd)
    C = nt.noether_charge(pd, trajd, multd, gen, argsd)
    half = np.full(gd.p + 1, 0.5)  # X_0 = x1/2 along the history mu = 1
    ref5 = (first_order_delayed_charge(pd, trajd, psid, gen.T, gen.X[0, 0], gen.Z)
            + first_order_comb_integral(pd, trajd, psid, 1.0, gen.X[0, 0],
                                        [half, 0.0 * half]))
    worst = max(worst, float(np.max(np.abs(C - ref5))))

    ok = worst <= 1e-10
    report(7, ok, f"worst pointwise gap against the four special-case "
                  f"formulas {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


# -- 8 -------------------------------------------------------------------

def test_criterion_8_first_variation(oscillator_solved, quadratic_n2_solved_fine):
    ratios = []
    for p, res in (oscillator_solved, quadratic_n2_solved_fine):
        grid = res.trajectory.grid
        t = grid.nodes()
        z_b = res.trajectory.z[-1]

        def z_eps(eps):
            pos = res.trajectory.x[:, 0, :].copy()
            pos[0] += eps * (t - grid.a) ** 2  # vanishes with n-1 derivatives at a
            return fn.simulate_z(p, from_positions(p, grid, pos)).z[-1]

        d1 = z_eps(1e-2) - z_b
        d2 = z_eps(5e-3) - z_b
        ratios.append(float(d1 / d2))
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    report(8, ok, f"quadratic ratios {[f'{r:.3f}' for r in ratios]} "
                  "(target 4 +/- 25%)")
    for r in ratios:
        assert 3.0 <= r <= 5.0


# -- 9 -------------------------------------------------------------------

FIXTURE_SPECS = {
    "oscillator": ("0.5*xd1^2 - 0.5*x1^2 - z", 0.0, 1, "1"),
    "free": ("0.5*xd1^2 - z", 0.0, 1, "1"),
    "quadratic_n2": ("0.5*xdd1^2 - z", 0.0, 2, "1 + t"),
    "delayed": ("0.5*xd1^2 + 0.25*tau_x1^2 - z", 0.5, 1, "1"),
    "delayed_velocity": ("0.5*xd1^2 + 0.5*tau_xd1^2 - z", 0.25, 1, "1"),
    "reduction": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - z", 0.25, 1,
                  "1 + 0.5*t"),
}


def test_criterion_9_derivative_validation(tmp_path):
    failures = []
    for name, (L, tau, n, mu) in FIXTURE_SPECS.items():
        text = (f"[problem]\na = 0.0\nb = 1.0\ntau = {tau}\nn = {n}\nm = 1\n"
                f"gamma = 0.0\n\n[lagrangian]\nL = \"{L}\"\n\n"
                f"[history]\nmu1 = \"{mu}\"\n")
        spec = tmp_path / f"{name}.spec"
        spec.write_text(text)
        if main(["check-derivs", str(spec)]) != 0:
            failures.append(name)
    ok = not failures
    report(9, ok, f"check-derivs on {len(FIXTURE_SPECS)} fixture Lagrangians"
                  + (f"; failures: {failures}" if failures else ""))
    assert not failures
