import io

import numpy as np
import pytest

from herglotz import conditions as cd
from herglotz import expr as ex
from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import problem as pb
from herglotz import reduction as rd
from herglotz import trajectory as tr
from herglotz.errors import ZeroDelay
from herglotz.specfile import parse_sections

import oracles
from conftest import make_problem


def admissible(p, src, h=1e-3, M=None):
    g = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M, h=None if M else h)
    return fn.simulate_z(p, tr.from_expressions(p, g, [src] * p.m))


def test_reduce_requires_delay():
    p = make_problem("0.5*xd1^2 - z")
    with pytest.raises(ZeroDelay):
        rd.guinn_reduce(p)


def test_reduce_structure_two_intervals():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.5)
    rp = rd.guinn_reduce(p)
    assert rp.N == 2 and rp.cut is None
    v1 = ex.free_variables(rp.lagrangians[0])
    v2 = ex.free_variables(rp.lagrangians[1])
    assert v1 <= {"t", "x0_1", "x1_1", "x0_0", "x1_0", "z1"}
    assert "x0_0" in v1 and "x0_1" in v2 and "z2" in v2


def test_reduce_padding_case():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", b=0.8, tau=0.5)
    rp = rd.guinn_reduce(p)
    assert rp.N == 2
    assert rp.cut == pytest.approx(0.3, abs=1e-12)


def test_reduce_single_interval_structure():
    # b - a = tau is outside the problem invariant (tau < b - a), so the
    # smallest stacked case is exercised on a directly assembled spec
    lag = pb.make_lagrangian(1, 1, "0.5*xd1^2 + 0.1*tau_x1 - z")
    mu = ex.parse_expression("1")
    p = pb.ProblemSpec(a=0.0, b=1.0, tau=1.0, gamma=0.0, lagrangian=lag,
                       history=(mu,),
                       history_derivs=((mu, ex.differentiate(mu, "t")),))
    rp = rd.guinn_reduce(p)
    assert rp.N == 1
    v1 = ex.free_variables(rp.lagrangians[0])
    assert v1 <= {"t", "x0_1", "x1_1", "x0_0", "x1_0", "z1"}
    assert "x0_0" in v1  # couples to the history interval


def test_equivalence_smooth_polynomial():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25, mu=("1 + t",))
    traj = admissible(p, "1 + t - 0.4*t^2 + 0.1*t^5")
    eq = rd.verify_reduction_equivalence(p, traj)
    assert eq.objective <= 1e-8
    assert eq.coupling == 0.0


def test_equivalence_decoupled_lagrangian():
    p = make_problem("0.5*xd1^2 - 0.2*x1^2 - z", tau=0.25)
    traj = admissible(p, "1 - 0.5*t^2")
    eq = rd.verify_reduction_equivalence(p, traj)
    assert eq.objective <= 1e-8


def test_equivalence_padding():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", b=0.8, tau=0.5)
    traj = admissible(p, "1 - 0.3*t + 0.2*t^3", M=800)
    eq = rd.verify_reduction_equivalence(p, traj)
    assert eq.objective <= 1e-8


def test_roundtrip_unmap_exact():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj = admissible(p, "cos(t)", M=200)
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, traj)
    back = oracles.unmap_trajectory(rp, stacked, traj)
    assert np.array_equal(back.x, traj.x)
    assert np.array_equal(back.z, traj.z)


def test_reduced_psi_matches_delayed_psi():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - 0.4*x1*z - z", tau=0.25)
    traj = admissible(p, "1 - 0.2*t^2", M=400)
    psi = fn.psi_values(p, traj.grid, fn.trajectory_args(p, traj), traj.z)
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, traj)
    psij = oracles.reduced_psi(rp, stacked)
    P = stacked.P
    for j in range(1, rp.N + 1):
        want = psi[(j - 1) * P:(j - 1) * P + P + 1]
        assert np.max(np.abs(psij[j - 1] - want)) <= 1e-8
    assert np.all(psij[rp.N] == 1.0)


def test_coupling_exact_by_construction():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj = admissible(p, "1 - 0.2*t^2", M=200)
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, traj)
    zr = rd.simulate_reduced(rp, stacked)
    for j in range(1, rp.N):
        assert zr[j, 0] == zr[j - 1, -1]


def test_hamiltonian_zero_multipliers():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.5)
    traj = admissible(p, "1", M=100)
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, traj)
    mults = oracles.ReducedMultipliers(psi=np.zeros((rp.N + 1, stacked.P + 1)),
                                       phi=np.zeros((1, rp.N + 1, 1, stacked.P + 1)))
    H = oracles.reduced_hamiltonian(rp, stacked, mults)
    assert np.all(H == 0.0)


def test_hamiltonian_conservation_x_free_lagrangian():
    # L = -z: phi = 0 and H = sum_j psi_j L_j is constant for any admissible x
    p = make_problem("-z + 0*xd1", tau=0.5, gamma=1.0)
    traj = admissible(p, "1 + 0.2*t", M=200)
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, traj.grid, args, traj.z)
    mult = ml.compute_phi(psi, ml.block_sums(p, traj.grid, args, traj.z, psi))
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, traj)
    mults = oracles.map_multipliers(rp, traj, mult)
    H = oracles.reduced_hamiltonian(rp, stacked, mults)
    dH = tr.differentiate_values(H, stacked.h, 1)
    assert np.max(np.abs(dH[4:-4])) <= 1e-6


def test_hamiltonian_matches_delayed_reassembly():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj = admissible(p, "1 - 0.2*t^2", M=400)
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, traj.grid, args, traj.z)
    mult = ml.compute_phi(psi, ml.block_sums(p, traj.grid, args, traj.z, psi))
    rp = rd.guinn_reduce(p)
    stacked = rd.map_trajectory(rp, traj)
    mults = oracles.map_multipliers(rp, traj, mult)
    H = oracles.reduced_hamiltonian(rp, stacked, mults)

    inner = cd.dbr_inner(p, traj, mult, args)
    hist = oracles.compute_phi_history(p, traj, psi)
    P = stacked.P
    tloc = stacked.h * np.arange(P + 1)
    want = np.zeros(P + 1)
    for q in range(P + 1):
        # history interval: phi^hist . mu^(k) at local time
        for k in range(1, p.n + 1):
            mu_k = pb.history_derivative(p, 1, k, p.a - p.tau + tloc[q])
            want[q] += hist[k - 1, 0, q] * mu_k
        for i in range(1, rp.N + 1):
            want[q] += inner[(i - 1) * P + q]
    assert np.max(np.abs(H - want)) <= 1e-8


def test_reduced_file_roundtrip():
    for kwargs in ({"tau": 0.5}, {"tau": 0.5, "b": 0.8}, {"tau": 0.25}):
        p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", mu=("1 + t",), **kwargs)
        rp = rd.guinn_reduce(p)
        buf = io.StringIO()
        rd.write_reduced_file(rp, buf)
        sections = parse_sections(buf.getvalue())
        head, ivs = dict(sections["reduced"]), dict(sections["intervals"])
        assert (int(head["N"]), int(head["n"]), int(head["m"])) == (rp.N, rp.n, rp.m)
        assert ("cut" not in head) == (rp.cut is None)
        back = [ex.parse_expression(ivs[f"L{j}"]) for j in range(1, rp.N + 1)]
        assert len(ivs) == rp.N
        rng = np.random.default_rng(0)
        names = sorted(set().union(*(ex.free_variables(e) for e in rp.lagrangians)))
        for e1, e2 in zip(rp.lagrangians, back):
            b = {nm: rng.uniform(-1, 1) for nm in names}
            assert ex.evaluate(e1, b) == ex.evaluate(e2, b)


def _stacked_step_loop(rp, stacked):
    """The stacked z chain one ``oracles.rk4_step`` after another over the node
    and midpoint arrays of ``_stacked_args``, holding z past the cut."""
    zr = np.empty((rp.N, stacked.P + 1))
    z0 = rp.gamma
    for j in range(1, rp.N + 1):
        L = ex.compile_expr(rp.lagrangians[j - 1], rp.interval_args(j))
        (t, *nodes), (tm, *mids) = rd._stacked_args(rp, stacked, j)
        stop = stacked.cut_steps if j == rp.N else stacked.P
        zr[j - 1, 0] = z0
        for i in range(stacked.P):
            zr[j - 1, i + 1] = zr[j - 1, i] if i >= stop else oracles.rk4_step(
                L, t[i], tm[i], t[i + 1], stacked.h, [A[i] for A in nodes],
                [A[i] for A in mids], [A[i + 1] for A in nodes], zr[j - 1, i])
        z0 = zr[j - 1, -1]
    return zr


def _stacked(L, M, **kw):
    p = make_problem(L, **kw)
    traj = admissible(p, "1 + 0.3*sin(3*t)", M=M)
    rp = rd.guinn_reduce(p)
    return p, traj, rp, rd.map_trajectory(rp, traj)


# Lagrangians affine in z on the exact split, the padded split, n = 2 and m = 2
STACKED_AFFINE = {
    "exact": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*tau_x1 - z", {"tau": 0.25}),
    "padded": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*x1 - z",
               {"b": 0.8, "tau": 0.5}),
    "n2": ("0.5*xdd1^2 + 0.1*tau_xd1^2 - 0.1*z*x1",
           {"tau": 0.25, "n": 2, "mu": ("1 + 0.5*t",)}),
    "m2": ("0.5*xd1^2 + 0.5*xd2^2 + 0.2*tau_x1*x2 - 0.1*z*x1 - 0.05*z*x2",
           {"tau": 0.25, "m": 2, "mu": ("1", "2 - t")}),
}
NON_AFFINE = "0.5*xd1^2 + 0.25*tau_x1^2 - 0.05*z^2"
SPLITS = {"exact": {"tau": 0.25}, "padded": {"b": 0.8, "tau": 0.5}}


@pytest.mark.parametrize("name", sorted(STACKED_AFFINE))
def test_stacked_affine_march_matches_step_loop(name, monkeypatch):
    L, kw = STACKED_AFFINE[name]
    p, traj, rp, stacked = _stacked(L, 800, **kw)
    assert (stacked.cut_steps < stacked.P) == (name == "padded")
    want = _stacked_step_loop(rp, stacked)
    monkeypatch.setattr(fn, "_step_loop", None)  # the step map must not loop
    zr = rd.simulate_reduced(rp, stacked)
    assert zr[0, 0] == p.gamma
    assert np.max(np.abs(zr - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("split", sorted(SPLITS))
def test_stacked_non_affine_march_is_the_step_loop(split):
    p, traj, rp, stacked = _stacked(NON_AFFINE, 800, **SPLITS[split])
    assert (stacked.cut_steps < stacked.P) == (split == "padded")
    assert np.array_equal(rd.simulate_reduced(rp, stacked),
                          _stacked_step_loop(rp, stacked))


@pytest.mark.parametrize("split", sorted(SPLITS))
def test_equivalence_non_affine_lagrangian(split):
    # dL/dz reads z: both sides march step by step
    p, traj, rp, stacked = _stacked(NON_AFFINE, 800, **SPLITS[split])
    eq = rd.verify_reduction_equivalence(p, traj)
    assert eq.objective <= 1e-8
    assert eq.coupling == 0.0
