import numpy as np
import pytest

from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import trajectory as tr

import oracles
from conftest import make_problem


def pipeline(p, src, h=1e-3, M=None):
    g = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M, h=None if M else h)
    traj = fn.simulate_z(p, tr.from_expressions(p, g, [src] * p.m))
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, g, args, traj.z)
    return traj, psi, ml.compute_phi(p, traj, psi, args)


def test_phi_zero_on_constant_extremal():
    p = make_problem("0.5*xd1^2 - z")
    traj, psi, mult = pipeline(p, "1", M=100)
    assert np.max(np.abs(mult.phi)) <= 1e-12


def test_phi_zero_when_L_ignores_x():
    p = make_problem("t^2 - z")
    traj, psi, mult = pipeline(p, "sin(t)", M=100)
    assert np.all(mult.phi == 0.0)


def test_phi_top_order_value_n2():
    # phi_2 = -psi*xdd for L = xdd^2/2 - z; at t=1 on x=t^3 this is -6
    p = make_problem("0.5*xdd1^2 - z", mu=("t^3",), n=2)
    traj, psi, mult = pipeline(p, "t^3", h=1e-3)
    t = traj.grid.nodes()
    want = -np.exp(t - 1.0) * 6 * t
    assert abs(mult.phi[1, 0, -1] - (-6.0)) <= 1e-6
    assert np.max(np.abs(mult.phi[1, 0] - want)) <= 1e-8


def test_phi_top_order_identity():
    # the k=n sum has a single l=0 term: an exact algebraic identity
    p = make_problem("0.5*xdd1^2 + 0.2*tau_xdd1^2 - z", mu=("1",), n=2, tau=0.25)
    traj, psi, mult = pipeline(p, "1 + 0*t", M=200)
    [(C, D)] = ml.summand_terms(p, fn.trajectory_args(p, traj), traj.z, psi, [2])
    direct = -(C + fn.ahead(D, traj.grid.p))
    assert np.array_equal(mult.phi[1], direct)


@pytest.mark.parametrize("M", [200, 400, 800])
def test_phi_right_of_junction_differentiates_current_summands(M):
    # from b - tau on the delayed summand is null, so phi_1 there is the
    # alternating sum of the current summands over [b - tau, b] alone; the
    # weighted summand at the junction node carries D(b) and must not enter
    p = make_problem("0.5*xdd1^2 + 0.3*tau_xd1^2 + 0.2*tau_xdd1^2 - z",
                     mu=("1 + 0.5*t",), n=2, tau=0.25)
    traj, psi, mult = pipeline(p, "1 + 0.5*t + 0.3*t^2 + 0.1*sin(3*t)", M=M)
    g = traj.grid
    jn = g.junction
    (C1, _), (C2, _) = ml.summand_terms(p, fn.trajectory_args(p, traj), traj.z, psi,
                                         [1, 2])
    want = tr.differentiate_values(C2[..., jn:], g.h, 1) - C1[..., jn:]
    assert np.max(np.abs(mult.phi[0, :, jn + 1:] - want[..., 1:])) <= 1e-12


def test_phi_tau0_matches_delay_free_evaluation():
    from oracles import partial_on_nodes
    from herglotz import problem as pb
    p = make_problem("0.5*xdd1^2 - 0.3*x1*xd1 - z", mu=("1",), n=2)
    traj, psi, mult = pipeline(p, "cos(t)", M=200)
    g = traj.grid
    for k in (1, 2):
        acc = np.zeros(g.M + 1)
        for l in range(p.n - k + 1):
            series = psi * partial_on_nodes(p, traj, pb.slot_name(1, l + k))
            d = series if l == 0 else tr.differentiate_values(series, g.h, l)
            acc += d if (l + 1) % 2 == 0 else -d
        assert np.max(np.abs(mult.phi[k - 1, 0] - acc)) <= 1e-10


def test_phi_grid_refinement():
    p = make_problem("0.5*xdd1^2 - 0.5*x1^2 - z", mu=("1",), n=2)
    vals = {}
    for M in (200, 400):
        traj, psi, mult = pipeline(p, "cos(t)", M=M)
        vals[M] = mult.phi[0, 0, ::M // 200]
    diff = np.max(np.abs(vals[200] - vals[400][:len(vals[200])]))
    # observed order >= 2 means the 200-vs-400 difference is already tiny
    assert diff <= 1e-6


def test_phi_recursion_cross_check():
    # phi_{k-1} = -d/dt phi_k - W_{k-1} holds to O(h^2) away from the edges
    p = make_problem("0.5*xdd1^2 - 0.5*x1^2 - z", mu=("1",), n=2)
    traj, psi, mult = pipeline(p, "cos(t)", M=400)
    g = traj.grid
    [(_, W1)] = ml.weighted_terms(p, g, fn.trajectory_args(p, traj), traj.z, psi, [1])
    lhs = mult.phi[0]
    rhs = -tr.differentiate_values(mult.phi[1], g.h, 1) - W1
    err = np.max(np.abs((lhs - rhs)[0, 8:-8]))
    assert err <= 1e-7


def test_phi_history_shape_and_delay_only_content():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.5)
    traj, psi, mult = pipeline(p, "1", M=100)
    hist = oracles.compute_phi_history(p, traj, psi)
    assert hist.shape == (1, 1, traj.grid.p + 1)
    # n=1: history branch is -psi(t+tau) dL/dxd_tau(t+tau), and L has no
    # delayed-velocity dependence, so it vanishes identically
    assert np.all(hist == 0.0)


def test_blockwise_derivative_respects_junction():
    h = 0.01
    vals = np.concatenate([np.zeros(50), np.arange(51) * h])  # kink at node 50
    out = ml.blockwise_derivative(vals, h, 50)
    assert np.max(np.abs(out[:46])) <= 1e-12
    assert np.max(np.abs(out[55:] - 1.0)) <= 1e-12


def test_multiplier_csv_columns():
    import io
    p = make_problem("0.5*xdd1^2 - z", mu=("1",), n=2)
    traj, psi, mult = pipeline(p, "1", M=100)
    buf = io.StringIO()
    ml.write_multiplier_csv(traj.grid, mult, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,psi,phi1_1,phi2_1"
    assert len(lines) == traj.grid.M + 2


def test_alternating_sum_signs_and_zeros():
    a = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([4.0, 0.0])]
    assert np.array_equal(ml.alternating_sum(a, lambda s, l: s), [3.0, 0.0])
    assert np.array_equal(ml.alternating_sum(a[1:], lambda s, l: s, sign=-1),
                          [2.0, 0.0])
    # each term carries its own sign, so an exact zero stays +0.0
    assert not np.signbit(ml.alternating_sum(a, lambda s, l: s, sign=-1)[1])
    # diff receives the summand index l
    assert np.array_equal(ml.alternating_sum(a[1:], lambda s, l: s * 10 ** l),
                          [-38.0, 0.0])
