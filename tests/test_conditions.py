import numpy as np
import pytest

from herglotz import conditions as cd
from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import noether as nt
from herglotz import trajectory as tr

from conftest import make_problem, oscillator_closed_form_src, oscillator_problem
from oracles import (delay_free_el, delay_free_tc, first_order_delayed_comb,
                     first_order_delayed_el, first_order_delayed_dbr, from_positions)


def certify(p, traj):
    """The multipliers along traj and L's node arguments there, built once."""
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, traj.grid, args, traj.z)
    return ml.compute_phi(p, traj, psi, args), args


def pipeline(p, src, h=1e-3, M=None):
    g = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M, h=None if M else h)
    traj = fn.simulate_z(p, tr.from_expressions(p, g, [src] * p.m))
    return (traj, *certify(p, traj))


def test_el_zero_when_L_ignores_x():
    p = make_problem("-z")
    traj, mult, args = pipeline(p, "sin(t)", M=100)
    rep = cd.full_report(p, traj, mult, args)
    el1, el2 = rep.el1, rep.el2
    assert np.max(np.abs(el1)) <= 1e-12
    assert np.max(np.abs(el2)) <= 1e-12


def test_el_small_on_closed_form_extremal():
    p = oscillator_problem()
    traj, mult, args = pipeline(p, oscillator_closed_form_src(), h=1e-3)
    el1 = cd.full_report(p, traj, mult, args).el1
    assert np.max(np.abs(el1)) <= 5e-5


def test_el_blocks_partition_at_junction():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1", M=100)
    rep = cd.full_report(p, traj, mult, args)
    assert rep.el1.shape == (1, traj.grid.junction + 1)
    assert rep.el2.shape == (1, traj.grid.p + 1)
    assert rep.dbr.shape == (traj.grid.M + 1,)


def test_el_perturbation_raises_norm():
    p = oscillator_problem()
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, h=1e-3)
    base = fn.simulate_z(p, tr.from_expressions(p, g, [oscillator_closed_form_src()]))
    rep0 = cd.full_report(p, base, *certify(p, base))

    pos = base.x[:, 0, :].copy()
    pos[0] += 1e-2 * np.sin(np.pi * g.nodes())
    pert = fn.simulate_z(p, from_positions(p, g, pos))
    rep1 = cd.full_report(p, pert, *certify(p, pert))

    assert rep1.norms_unflagged["el1"] >= 10 * max(rep0.norms_unflagged["el1"], 1e-6)
    assert rep1.norms_unflagged["dbr"] >= 1e-2


def test_tc_constant_extremal_n1():
    p = make_problem("0.5*xd1^2 - z")
    traj, mult, args = pipeline(p, "1", M=100)
    tc = cd.full_report(p, traj, mult, args).tc
    assert abs(tc[0, 0]) <= 1e-8


def test_tc_zero_when_L_has_no_derivative_slots():
    p = make_problem("0.5*x1^2 - z")
    traj, mult, args = pipeline(p, "cos(t)", M=100)
    tc = cd.full_report(p, traj, mult, args).tc
    assert np.all(tc == 0.0)


def test_tc_n2_reads_terminal_acceleration():
    # k=2 residual is psi(b)*xdd(b) = xdd(b); x = 0.05 t^2 has xdd = 0.1
    p = make_problem("0.5*xdd1^2 - z", mu=("0.05*t^2",), n=2)
    traj, mult, args = pipeline(p, "0.05*t^2", h=1e-3)
    tc = cd.full_report(p, traj, mult, args).tc
    assert abs(tc[1, 0] - 0.1) <= 1e-6


def test_dbr_explicit_time_only():
    p = make_problem("t + 0*x1")
    traj, mult, args = pipeline(p, "sin(t)", M=100)
    dbr = cd.dbr_residual(p, traj, mult, args)
    assert np.max(np.abs(dbr)) <= 1e-10


def test_dbr_small_on_closed_form_extremal():
    p = oscillator_problem()
    traj, mult, args = pipeline(p, oscillator_closed_form_src(), h=1e-3)
    dbr = cd.dbr_residual(p, traj, mult, args)
    assert np.max(np.abs(dbr)) <= 5e-5


def test_report_norms_are_exact_sups():
    p = oscillator_problem()
    traj, mult, args = pipeline(p, "1 - 0.2*t", M=100)
    rep = cd.full_report(p, traj, mult, args)
    assert rep.norms["el1"] == np.max(np.abs(rep.el1))
    assert rep.norms["dbr"] == np.max(np.abs(rep.dbr))
    assert rep.norms_unflagged["el1"] <= rep.norms["el1"]


def test_flags_mark_one_sided_zones():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1", M=100)
    rep = cd.full_report(p, traj, mult, args)
    w = cd.flag_width(1)
    assert np.all(rep.el1_flags[:w]) and np.all(rep.el1_flags[-w:])
    assert not rep.el1_flags[w:-w].any()


def test_delay_free_equivalence_tau0():
    # tau=0 residuals equal an independent delay-free implementation
    p = make_problem("0.5*xdd1^2 - 0.4*x1^2 - z", mu=("1",), n=2)
    traj, mult, args = pipeline(p, "cos(t)", M=200)
    rep = cd.full_report(p, traj, mult, args)
    el1 = rep.el1
    ref = delay_free_el(p, traj, mult.psi)
    assert np.max(np.abs(el1 - ref)) <= 1e-10
    tc = rep.tc
    ref_tc = delay_free_tc(p, traj, mult.psi)
    assert np.max(np.abs(tc - ref_tc)) <= 1e-10


def test_first_order_delayed_el_equivalence():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*x1*tau_xd1 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1 - 0.3*t^2", M=200)
    rep = cd.full_report(p, traj, mult, args)
    el1, el2 = rep.el1, rep.el2
    ref1, ref2 = first_order_delayed_el(p, traj, mult.psi)
    assert np.max(np.abs(el1[0] - ref1)) <= 1e-10
    assert np.max(np.abs(el2[0] - ref2)) <= 1e-10


def test_first_order_delayed_dbr_equivalence():
    # the pointwise first-order residual less the comb term D(t) - D(t + tau)
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1 - 0.3*t^2", M=200)
    dbr = cd.dbr_residual(p, traj, mult, args)
    D = first_order_delayed_comb(p, traj, mult.psi)
    D_ahead = np.zeros_like(D)
    D_ahead[:-traj.grid.p] = D[traj.grid.p:]
    ref = first_order_delayed_dbr(p, traj, mult.psi) - (D - D_ahead)
    assert np.max(np.abs(D - D_ahead)) >= 1e-2
    assert np.max(np.abs(dbr - ref)) <= 1e-10


def test_multicomponent_dimensions():
    p = make_problem("0.5*xd1^2 + 0.5*xd2^2 - x1*x2 - z", mu=("1", "2"), m=2)
    traj, mult, args = pipeline(p, "1", M=100)
    rep = cd.full_report(p, traj, mult, args)
    assert rep.el1.shape[0] == 2
    assert rep.tc.shape == (1, 2)


def test_delayed_velocity_extremal_and_perturbation(delayed_velocity_solved):
    # L = xd^2/2 + xd_tau^2/2 - z has the constant extremal; perturbing by
    # 1e-2 sin(pi t) must raise the Euler-Lagrange norm at least tenfold
    p, res = delayed_velocity_solved
    base = max(res.report.norms_unflagged["el1"], res.report.norms_unflagged["el2"])
    assert base <= 1e-4
    g = res.trajectory.grid
    pos = res.trajectory.x[:, 0, :].copy()
    pos[0] += 1e-2 * np.sin(np.pi * g.nodes())
    pert = fn.simulate_z(p, from_positions(p, g, pos))
    rep = cd.full_report(p, pert, *certify(p, pert))
    assert rep.norms_unflagged["el1"] >= 10 * max(base, 1e-5)


CROSS_DELAY = "0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - 0.2*z"


@pytest.mark.parametrize("L, n, src", [
    (CROSS_DELAY, 1, "1 - 0.4*t + 0.3*t^2 - 0.2*t^3"),
    ("0.5*xdd1^2 + 0.3*tau_xd1^2 + 0.2*x1*tau_xdd1 - 0.1*z", 2,
     "1 - 0.4*t + 0.3*t^2 - 0.2*t^3 + 0.1*t^4"),
])
@pytest.mark.parametrize("M", [200, 400])
def test_delayed_dbr_identity_off_extremal(L, n, src, M):
    # dE/dt - psi dL/dt - [D(t) - D(t + tau)] = sum_j R_j x_j' holds for every
    # admissible trajectory; the gap left is the stencils' O(h^4) error
    p = make_problem(L, mu=("1 + 0.5*t",), tau=0.25, n=n)
    traj, mult, args = pipeline(p, src, M=M)
    rep = cd.full_report(p, traj, mult, args)
    R = np.concatenate([rep.el1, rep.el2[:, 1:]], axis=1)
    work = np.sum(R * traj.x[:, 1, :], axis=0)
    q, w = traj.grid.p, cd.flag_width(n)
    assert rep.dbr_flags[q - w:q + w + 1].all()  # D jumps at a + tau
    keep = ~rep.dbr_flags
    assert np.max(np.abs(work[keep])) >= 1e-2  # not an extremal
    assert np.max(np.abs(rep.dbr - work)[keep]) <= 2e-9


@pytest.mark.parametrize("L, tau", [(CROSS_DELAY, 0.0),
                                    ("0.5*xd1^2 - 0.5*x1^2 - 0.2*z", 0.25)])
def test_delayed_dbr_is_pointwise_without_comb(L, tau):
    # tau = 0 or no tau_ slot: no comb term, so the dbr block is the
    # pointwise dE/dt - psi dL/dt bit for bit, and a + tau is not flagged
    p = make_problem(L, mu=("1 + 0.5*t",), tau=tau)
    traj, mult, args = pipeline(p, "1 - 0.4*t + 0.3*t^2", M=200)
    rep = cd.full_report(p, traj, mult, args)
    g = traj.grid
    inner = cd.dbr_inner(p, traj, mult, args)
    pointwise = (ml.blockwise_derivative(inner, g.h, g.junction)
                 - mult.psi * fn.eval_args(p, args, traj.z, "t"))
    assert np.array_equal(rep.dbr, pointwise)
    q, w = g.p, cd.flag_width(1)
    assert q == 0 or not rep.dbr_flags[q - w:q + w + 1].any()


def test_first_order_delayed_comb_equivalence():
    # the cross-delay L reads tau_xd1, so the x'' rate is exercised too
    p = make_problem(CROSS_DELAY, mu=("1 + 0.5*t",), tau=0.25)
    traj, mult, args = pipeline(p, "1 - 0.4*t + 0.3*t^2 - 0.2*t^3", M=200)
    D, left = cd.comb_series(p, traj, mult, args)
    assert np.max(np.abs(D - first_order_delayed_comb(p, traj, mult.psi))) <= 1e-10
    # left limit at a + tau reads the history at a: tau_x1 = mu(a) = 1 and
    # the past rates x' = mu'(a) = 0.5, x'' = mu''(a) = 0, so D = psi/4
    q = traj.grid.p
    assert abs(left - 0.25 * mult.psi[q]) <= 1e-14
    assert abs(D[q] - 0.25 * mult.psi[q]) >= 1e-3  # the right limit differs


def test_delayed_inner_carries_the_breakpoint_jump():
    # the cross-delay L reads the top-order slot tau_xd1 and x' jumps at a,
    # so psi L jumps at a + tau; the point mass of D there keeps the
    # corrected inner quantity E + int_t^min(t+tau, b) D, minus the
    # time-translation charge, level across a + tau
    from herglotz.solver import SolveOptions, solve_extremal
    p = make_problem(CROSS_DELAY, mu=("1 + 0.5*t",), tau=0.25)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    traj, mult = res.trajectory, res.multipliers
    args = fn.trajectory_args(p, traj)
    q, w = traj.grid.p, cd.flag_width(p.n)
    jump = cd.breakpoint_jump(p, traj, mult, args)
    gen = nt.lift_generators(p, nt.make_family(p, "t + s", ["x1"], "z"), traj)
    inner = -nt.noether_charge(p, traj, mult, gen, args)
    step = np.mean(inner[q + w:q + 3 * w]) - np.mean(inner[q - 3 * w:q - w])
    assert abs(jump) >= 0.1
    assert abs(step) <= 1e-3
