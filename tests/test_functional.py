import numpy as np
import pytest

from herglotz import functional as fn
from herglotz import problem as pb
from herglotz import trajectory as tr
from herglotz.errors import NonFiniteLagrangian

import oracles
from conftest import make_problem


def build(p, src, h=1e-3, M=None):
    g = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M, h=None if M else h)
    return tr.from_expressions(p, g, [src] * p.m)


def test_simulate_zero_lagrangian():
    p = make_problem("0*x1", gamma=0.7)
    traj = fn.simulate_z(p, build(p, "1", M=100))
    assert np.all(traj.z == 0.7)


def test_simulate_constant_lagrangian():
    p = make_problem("1 + 0*x1")
    traj = fn.simulate_z(p, build(p, "1", M=100))
    assert abs(traj.z[-1] - 1.0) <= 1e-12


def test_simulate_linear_ode():
    p = make_problem("-z", gamma=1.0)
    traj = fn.simulate_z(p, build(p, "1", h=1e-3))
    t = traj.grid.nodes()
    assert np.max(np.abs(traj.z - np.exp(-t))) <= 1e-9


def test_simulate_rk4_exact_for_cubic_time_polynomials():
    p = make_problem("t^3 - 2*t^2 + 0.5")
    traj = fn.simulate_z(p, build(p, "1", M=100))
    t = traj.grid.nodes()
    want = t ** 4 / 4 - 2 * t ** 3 / 3 + 0.5 * t
    assert np.max(np.abs(traj.z - want)) <= 1e-12


def test_simulate_nonfinite_reported():
    p = make_problem("1/x1")
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=100)
    traj = tr.from_expressions(p, g, ["t - 0.5"])  # crosses zero
    with pytest.raises(NonFiniteLagrangian):
        fn.simulate_z(p, traj)


def test_admissibility_defect_small_on_simulated():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj = fn.simulate_z(p, build(p, "cos(t)", h=1e-3))
    assert fn.admissibility_defect(p, traj, fn.trajectory_args(p, traj)) <= 1e-8


def test_psi_identity_when_z_free():
    p = make_problem("0.5*xd1^2")
    traj = fn.simulate_z(p, build(p, "sin(t)", M=100))
    psi = fn.psi_values(p, traj.grid, fn.trajectory_args(p, traj), traj.z)
    assert np.all(psi == 1.0)


def test_psi_constant_coefficient():
    p = make_problem("0.5*xd1^2 - z")
    traj = fn.simulate_z(p, build(p, "1", h=1e-3))
    psi = fn.psi_values(p, traj.grid, fn.trajectory_args(p, traj), traj.z)
    t = traj.grid.nodes()
    assert psi[-1] == 1.0
    assert np.max(np.abs(psi - np.exp(t - 1.0))) <= 1e-10
    assert abs(psi[0] - 0.36787944117) <= 1e-10


def test_psi_polynomial_coefficient():
    # dL/dz = -t: psi(t) = exp((t^2 - 1)/2)
    p = make_problem("-t*z")
    traj = fn.simulate_z(p, build(p, "1", h=1e-3))
    psi = fn.psi_values(p, traj.grid, fn.trajectory_args(p, traj), traj.z)
    t = traj.grid.nodes()
    assert np.max(np.abs(psi - np.exp((t ** 2 - 1.0) / 2.0))) <= 1e-9
    assert abs(psi[0] - 0.60653065971) <= 1e-9


def test_psi_positive_and_bounded_when_gz_nonpositive():
    p = make_problem("-z - 0.5*z*x1^2")
    traj = fn.simulate_z(p, build(p, "cos(t)", M=200))
    psi = fn.psi_values(p, traj.grid, fn.trajectory_args(p, traj), traj.z)
    assert np.all(psi > 0)
    assert np.all(psi <= 1.0 + 1e-15)


def test_adjoint_residual_refinement():
    # curved dL/dz so the quadrature error dominates: halving h must
    # roughly quarter the residual
    p = make_problem("-t^2*z")
    resids = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = fn.simulate_z(p, build(p, "1", h=h))
        psi = fn.psi_values(p, traj.grid, fn.trajectory_args(p, traj), traj.z)
        gz = fn.eval_on_nodes(p, traj.grid, traj.x, traj.z, "z")
        r = tr.differentiate_values(psi, traj.grid.h, 1) + psi * gz
        resids.append(np.max(np.abs(r)))
    assert resids[0] / resids[1] >= 3.0
    assert resids[1] / resids[2] >= 3.0


def test_delayed_slots_feed_simulation():
    # dz/dt = x(t - tau) with constant history 2 on [-0.5, 0]:
    # z(t) = 2t until the delayed argument enters [0, 1]
    p = make_problem("tau_x1 + 0*xd1", mu=("2",), tau=0.5)
    g = tr.align_grid(0.0, 1.0, 0.5, n=1, M=100)
    traj = fn.simulate_z(p, tr.from_expressions(p, g, ["2 + t"]))
    t = g.nodes()
    first = t <= 0.5
    assert np.max(np.abs(traj.z[first] - 2 * t[first])) <= 1e-12
    want_tail = 1.0 + 2 * (t - 0.5) + (t - 0.5) ** 2 / 2
    assert np.max(np.abs(traj.z[~first] - want_tail[~first])) <= 1e-10


def test_batch_rk4_matches_scalar():
    p = make_problem("0.5*xd1^2 - 0.3*x1*z - z", tau=0.25, mu=("1 - t",))
    g = tr.align_grid(0.0, 1.0, 0.25, n=1, M=80)
    rng = np.random.default_rng(8)
    batch = rng.uniform(0.5, 1.5, size=(4, 1, g.M + 1))
    batch[:, 0, 0] = 1.0
    xb = tr.build_series(batch, g.h, 1)
    zb = fn.rk4_z(p, g, xb, fn.slot_args(p, g, xb))
    for i in range(4):
        traj = oracles.from_positions(p, g, batch[i])
        zs = fn.rk4_z(p, g, traj.x, fn.slot_args(p, g, traj.x))
        assert np.array_equal(zb[i], zs)


# Lagrangians affine in z, which rk4_z marches by its step map, and a
# z-free one; x1 = 1 + 0.3*sin(3t) keeps 1/x1 finite
AFFINE = {
    "z-x1": ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1", {}),
    "z-tau_x1": ("0.5*xd1^2 + 0.2*z*tau_x1 - z",
                 {"tau": 0.25, "gamma": 0.5, "mu": ("1 + 0.5*t",)}),
    "n2": ("0.5*xdd1^2 + 0.1*tau_xd1^2 - 0.1*z*x1",
           {"tau": 0.25, "n": 2, "mu": ("1 + 0.5*t",)}),
    "m2": ("0.5*xd1^2 + 0.5*xd2^2 + 0.2*tau_x1*x2 - 0.1*z*x1 - 0.05*z*x2",
           {"tau": 0.25, "m": 2, "mu": ("1", "2 - t")}),
    "short-first-block": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*tau_xd1 - z",
                          {"tau": 0.9}),
    "reciprocal": ("1/x1 - z", {}),
    "z-free": ("0.5*xd1^2 + 0.25*tau_x1^2", {"tau": 0.5}),
}


def _march_input(L, kw, M):
    p = make_problem(L, **kw)
    g = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M)
    return p, g, tr.from_expressions(p, g, ["1 + 0.3*sin(3*t)"] * p.m).x


@pytest.mark.parametrize("M", [200, 4000])
@pytest.mark.parametrize("name", sorted(AFFINE))
def test_affine_march_matches_step_loop(name, M, monkeypatch):
    p, g, x = _march_input(*AFFINE[name], M)
    args = fn.slot_args(p, g, x)
    want = oracles.rk4_loop(p, g, x, args)
    monkeypatch.setattr(fn, "_step_loop", None)  # the step map must not loop
    z = fn.rk4_z(p, g, x, args)
    assert z[0] == p.gamma
    assert np.max(np.abs(z - want)) <= 1e-13 * np.max(np.abs(want))


def test_non_affine_march_is_the_step_loop():
    # dL/dz reads z: rk4_z runs the loop, equal bit for bit to one RK4 step
    # after another from the node and midpoint slot arrays
    p, g, x = _march_input("0.5*xd1^2 + 0.25*tau_x1^2 - 0.05*z^2",
                           {"tau": 0.25}, 200)
    cur, mid = fn.slot_args(p, g, x), fn.slot_args(p, g, x, mid=True)
    t, h, L = cur[0], g.h, p.lagrangian.compiled("body")
    want = np.empty(g.M + 1)
    want[0] = p.gamma
    for i in range(g.M):
        want[i + 1] = fn._rk4_step(
            L, t[i], t[i] + 0.5 * h, t[i + 1], h, [A[i] for A in cur[1:]],
            [A[i] for A in mid[1:]], [A[i + 1] for A in cur[1:]], want[i])
    assert np.array_equal(fn.rk4_z(p, g, x, cur), want)


def test_affine_march_reports_the_loop_node_when_not_finite():
    p = make_problem("1/x1 - z")
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=200)
    traj = tr.from_expressions(p, g, ["t - 0.5"])  # x1 = 0 at node 100
    args = fn.slot_args(p, g, traj.x)
    first = [int(np.argmax(~np.isfinite(march(p, g, traj.x, args))))
             for march in (fn.rk4_z, oracles.rk4_loop)]
    assert first == [100, 100]
    with pytest.raises(NonFiniteLagrangian) as err:
        fn.simulate_z(p, traj)
    assert err.value.t == g.a + g.h * 99


def _slot(p, args, name):
    return args[pb.arg_names(p.n, p.m).index(name)]


def test_slot_args_delayed_slot_is_shifted_sample():
    # t_i - tau lands on node i - p; below a the history mu = t^2 answers
    p = make_problem("0.5*xd1^2 - z", mu=("t^2",), tau=0.5)
    g = tr.align_grid(0.0, 1.0, 0.5, n=1, M=100)
    traj = tr.from_expressions(p, g, ["cos(t)"])
    args = fn.slot_args(p, g, traj.x)
    assert np.array_equal(args[0], g.nodes())
    for k, name in enumerate(("x1", "xd1")):
        cur, dly = _slot(p, args, name), _slot(p, args, "tau_" + name)
        assert np.array_equal(cur, traj.x[0, k])
        assert np.array_equal(dly[g.p:], cur[:-g.p])
    t = g.nodes()[:g.p] - 0.5
    assert np.max(np.abs(_slot(p, args, "tau_x1")[:g.p] - t ** 2)) <= 1e-14
    assert np.max(np.abs(_slot(p, args, "tau_xd1")[:g.p] - 2 * t)) <= 1e-14


def test_slot_args_zero_delay_reads_current_slots():
    p = make_problem("0.5*xd1^2 - z")
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=50)
    args = fn.slot_args(p, g, tr.from_expressions(p, g, ["sin(t)"]).x)
    assert np.array_equal(_slot(p, args, "tau_x1"), _slot(p, args, "x1"))
    assert np.array_equal(_slot(p, args, "tau_xd1"), _slot(p, args, "xd1"))


def test_slot_args_midpoints():
    # cubic Hermite values below the top order, a local cubic at the top;
    # the delayed midpoints below a are the history at t_i + h/2 - tau
    p = make_problem("0.5*xd1^2 - z", mu=("t^2",), tau=0.5)
    g = tr.align_grid(0.0, 1.0, 0.5, n=1, M=100)
    args = fn.slot_args(p, g, tr.from_expressions(p, g, ["sin(t)"]).x, mid=True)
    tm = g.nodes()[:-1] + 0.5 * g.h
    assert np.array_equal(args[0], tm)
    assert np.max(np.abs(_slot(p, args, "x1") - np.sin(tm))) <= 1e-9
    assert np.max(np.abs(_slot(p, args, "xd1") - np.cos(tm))) <= 1e-7
    dly = _slot(p, args, "tau_x1")
    assert np.array_equal(dly[g.p:], _slot(p, args, "x1")[:-g.p])
    assert np.max(np.abs(dly[:g.p] - (tm[:g.p] - 0.5) ** 2)) <= 1e-14
    lin = fn.slot_args(p, g, tr.from_expressions(p, g, ["2*t - 1"]).x, mid=True)
    assert np.max(np.abs(_slot(p, lin, "x1") - (2 * tm - 1))) <= 1e-13
    assert np.max(np.abs(_slot(p, lin, "xd1") - 2.0)) <= 1e-12
