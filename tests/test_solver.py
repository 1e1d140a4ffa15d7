import sys

import numpy as np
import pytest

from herglotz import conditions as cd
from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import trajectory as tr
from herglotz.errors import SingularJacobian, ValidationError
from herglotz.reduction import verify_reduction_equivalence
from herglotz import solver as sv
from herglotz.cli import main
from herglotz.solver import SolveOptions, solve_extremal

import oracles
from conftest import (delayed_problem, make_problem, oscillator_closed_form,
                      oscillator_problem)
from test_cli import MUTABLE, write


def test_oscillator_matches_closed_form(oscillator_solved):
    p, res = oscillator_solved
    t = res.trajectory.grid.nodes()
    err = np.max(np.abs(res.trajectory.x[0, 0] - oscillator_closed_form(t)))
    assert res.converged
    assert err <= 1e-4
    assert err <= 1e-9  # the discrete solve is far tighter in practice


def test_free_particle_stays_constant():
    p = make_problem("0.5*xd1^2 - z", gamma=1.0)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    assert np.max(np.abs(res.trajectory.x[0, 0] - 1.0)) <= 1e-8
    t = res.trajectory.grid.nodes()
    assert np.max(np.abs(res.trajectory.z - np.exp(-t))) <= 1e-8


def test_delayed_fixture_with_reduction_cross_check(delayed_solved):
    p, res = delayed_solved
    assert res.converged
    assert res.report.norms_unflagged["el1"] <= 1e-4
    assert res.report.norms_unflagged["el2"] <= 1e-4
    eq = verify_reduction_equivalence(p, res.trajectory)
    assert eq.objective <= 1e-6


def test_delayed_velocity_fixture_constant(delayed_velocity_solved):
    p, res = delayed_velocity_solved
    assert res.converged
    assert np.max(np.abs(res.trajectory.x[0, 0] - 1.0)) <= 1e-7


def test_converged_implies_tolerances(delayed_solved):
    _, res = delayed_solved
    un = res.report.norms_unflagged
    assert un["el1"] <= 1e-6 and un["el2"] <= 1e-6 and un["tc"] <= 1e-6


def test_transversality_and_dbr_on_tau0_extremal(oscillator_solved):
    p, res = oscillator_solved
    assert res.report.norms_unflagged["tc"] <= 1e-6
    assert res.report.norms_unflagged["dbr"] <= 1e-3


def test_mesh_independence():
    p = oscillator_problem()
    r1 = solve_extremal(p, SolveOptions(M=500, h=None))
    r2 = solve_extremal(p, SolveOptions(M=1000, h=None))
    shared = r2.trajectory.x[0, 0, ::2]
    assert np.max(np.abs(r1.trajectory.x[0, 0] - shared)) <= 1e-8


def test_max_iters_returns_best_iterate():
    p = make_problem("0.5*xd1^2 + 0.25*x1^4 - z")
    res = solve_extremal(p, SolveOptions(M=100, h=None, max_iters=1, tol_r=1e-10))
    assert not res.converged
    assert res.trajectory.z is not None
    assert len(res.iterations) >= 2
    full = solve_extremal(p, SolveOptions(M=100, h=None, tol_r=1e-8))
    assert full.converged
    # the aborted solve's best iterate is no better than the full solve
    assert res.iterations[-1][1] >= full.iterations[-1][1]


def test_singular_jacobian_reported():
    # EL residual is psi(t) > 0 independent of x: the Jacobian vanishes
    p = make_problem("x1 - z")
    with pytest.raises(SingularJacobian):
        solve_extremal(p, SolveOptions(M=100, h=None))


def test_grid_alignment_validated():
    p = delayed_problem()
    with pytest.raises(ValidationError):
        solve_extremal(p, SolveOptions(M=333, h=None))


def test_options_validated():
    p = oscillator_problem()
    with pytest.raises(ValidationError):
        solve_extremal(p, SolveOptions(M=100, h=None, tol_r=-1.0))


def test_iteration_log_shape(oscillator_solved):
    _, res = oscillator_solved
    assert res.iterations[0][0] == 0
    for it, norm, lam in res.iterations:
        assert norm >= 0 and 0 < lam <= 1


def test_n2_fixture_straight_line(quadratic_n2_solved):
    p, res = quadratic_n2_solved
    t = res.trajectory.grid.nodes()
    assert res.converged
    assert np.max(np.abs(res.trajectory.x[0, 0] - (1 + t))) <= 1e-7


def test_multicomponent_solve():
    p = make_problem("0.5*xd1^2 + 0.5*xd2^2 - 0.5*x1^2 - 0.5*x2^2 - z",
                     mu=("1", "2"), m=2)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    t = res.trajectory.grid.nodes()
    want = oscillator_closed_form(t)
    assert np.max(np.abs(res.trajectory.x[0, 0] - want)) <= 1e-7
    assert np.max(np.abs(res.trajectory.x[1, 0] - 2 * want)) <= 1e-7


def test_objective_stationarity(oscillator_solved):
    p, res = oscillator_solved
    grid = res.trajectory.grid
    t = grid.nodes()
    z_b = res.trajectory.z[-1]

    def z_eps(eps):
        pos = res.trajectory.x[:, 0, :].copy()
        pos[0] += eps * t ** 2
        return fn.simulate_z(p, oracles.from_positions(p, grid, pos)).z[-1]

    d1 = z_eps(1e-2) - z_b
    d2 = z_eps(5e-3) - z_b
    assert 3.0 <= d1 / d2 <= 5.0


def test_third_order_quadratic_extremal():
    # only the l=3 summand survives, so the extremal continues the history
    # quadratically; exercises the deep l/k index paths
    p = make_problem("0.5*x1_d3^2 - z", mu=("1 + t + 0.5*t^2",), n=3)
    res = solve_extremal(p, SolveOptions(M=50, h=None, tol_r=1e-4))
    t = res.trajectory.grid.nodes()
    want = 1 + t + 0.5 * t ** 2
    assert res.converged
    assert np.max(np.abs(res.trajectory.x[0, 0] - want)) <= 1e-8


def test_second_order_delayed_solve():
    p = make_problem("0.5*xdd1^2 + 0.25*tau_x1^2 - z", mu=("1",), n=2, tau=0.5)
    res = solve_extremal(p, SolveOptions(M=200, h=None, tol_r=1e-5))
    assert res.converged
    assert res.report.norms_unflagged["el1"] <= 1e-5
    assert res.report.norms_unflagged["tc"] <= 1e-5


def test_multicomponent_delayed_solve_with_reduction():
    p = make_problem("0.5*xd1^2 + 0.5*xd2^2 + 0.25*tau_x1^2 + 0.25*tau_x2^2 - z",
                     mu=("1", "2"), m=2, tau=0.25)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    eq = verify_reduction_equivalence(p, res.trajectory)
    assert eq.objective <= 1e-6


def test_large_delay_short_first_block():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.9)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    assert res.report.norms_unflagged["el1"] <= 1e-6


# z-free Lagrangians: (L, make_problem keywords).  The cross terms put bands
# at +-p in the Jacobian; at tau = 0.9 the first block is short and the bands
# of the two blocks overlap.
Z_FREE = {
    "oscillator": ("0.5*xd1^2 - 0.5*x1^2 - z", {}),
    "delayed": ("0.5*xd1^2 + 0.25*tau_x1^2 - z", {"tau": 0.5}),
    "delayed-velocity": ("0.5*xd1^2 + 0.5*tau_xd1^2 - z", {"tau": 0.25}),
    "cross-delay": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - 0.2*z",
                    {"tau": 0.25, "mu": ("1 + 0.5*t",)}),
    "n2-cross": ("0.5*xdd1^2 + 0.3*tau_xd1^2 + 0.2*x1*tau_xdd1 - 0.1*z",
                 {"tau": 0.25, "n": 2, "mu": ("1 + 0.5*t",)}),
    "n3": ("0.5*x1_d3^2 + 0.2*tau_x1^2 - z",
           {"tau": 0.25, "n": 3, "mu": ("1 + t + 0.5*t^2",)}),
    "m2-cross": ("0.5*xd1^2 + 0.5*xd2^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd2"
                 " - 0.2*x2*tau_xd1 - 0.1*z",
                 {"tau": 0.25, "m": 2, "mu": ("1", "2 - t")}),
    "short-first-block": ("0.5*xd1^2 + 0.25*tau_x1^2 - z", {"tau": 0.9}),
    "short-first-block-cross": (
        "0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - z", {"tau": 0.9}),
    "tau0-delayed-slot": ("0.5*xd1^2 + 0.3*x1*tau_xd1 - 0.5*x1^2 - z", {}),
}


@pytest.mark.parametrize("name", sorted(Z_FREE))
def test_colored_jacobian_equals_dense(name):
    L, kw = Z_FREE[name]
    p = make_problem(L, **kw)
    grid = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200)
    system = sv._System(p, grid)
    marching = sv._System(p, grid)
    marching.z_free = False
    assert system.z_free
    assert system.n_colors < system.n_unknowns / 2
    inside = np.zeros((system.n_res, system.n_unknowns), dtype=bool)
    inside[system.pattern] = True
    U0 = system.pack(system.initial_positions())
    rng = np.random.default_rng(3)
    for U in (U0, U0 + 1e-2 * rng.standard_normal(U0.shape)):
        R, build = system.residual(U)
        assert np.array_equal(R, marching.residual(U)[0])
        dense = oracles.dense_jacobian(system, U, R, 1e-7)
        colored = _matrix(system, system.jacobian(U, R, build, False))
        held = _matrix(system, system.jacobian(U, R, build, True))
        assert np.array_equal(colored, held)
        assert colored.shape == dense.shape
        assert np.max(np.abs(colored - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert not np.any(dense[~inside])


def _matrix(system, J):
    """The Newton matrix from its COO triplets, as a dense array."""
    rows, cols, vals = J
    A = np.zeros((system.n_augmented, system.n_augmented))
    np.add.at(A, (rows, cols), vals)
    return A


def _dense_triplets(system, U, R0, build, held):
    """The dense oracle as a Newton matrix: held, that of the condition map
    at the build's z and psi; else that of R, with the identity on the
    augmented unknowns, so that the step's U part solves the oracle alone."""
    J = oracles.dense_jacobian(system, U, R0, sv._FD_STEP,
                               hold=build[2:] if held else None)
    if held:
        return (*np.nonzero(J), J[np.nonzero(J)])
    rows, cols = np.nonzero(J)
    aug = np.arange(system.n_unknowns, system.n_augmented)
    return (np.r_[rows, aug], np.r_[cols, aug], np.r_[J[rows, cols], np.ones(aug.size)])


def _dense_solve(monkeypatch, p, opts):
    with monkeypatch.context() as patch:
        patch.setattr(sv._System, "jacobian", _dense_triplets)
        return solve_extremal(p, opts)


@pytest.mark.parametrize("L, tau", [
    ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1", 0.0),
    ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1 + 0.15*tau_x1^2", 0.25),
], ids=["tau0", "tau0.25"])
def test_z_coupled_solve_avoids_dense_reference(monkeypatch, L, tau):
    # z enters dL/dx1, so the z and psi maps couple every node; the Jacobian
    # still evaluates no perturbed residual and marches z once per residual
    p = make_problem(L, tau=tau)
    grid = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=120)
    assert not sv._System(p, grid).z_free

    def refuse(*args):
        raise AssertionError("dense reference used by the solver")

    marches = []
    residual = sv._System.residual
    rk4_z = fn.rk4_z

    def held_residual(self, U, z=None, psi=None):
        assert np.ndim(U) == 1 or z is not None, "perturbed z re-simulated"
        return residual(self, U, z, psi)

    def counted_rk4_z(*args):
        marches.append(args[2].ndim)
        return rk4_z(*args)

    monkeypatch.setattr(oracles, "dense_jacobian", refuse)
    monkeypatch.setattr(sv._System, "residual", held_residual)
    monkeypatch.setattr(fn, "rk4_z", counted_rk4_z)
    res = solve_extremal(p, SolveOptions(M=120, h=None, tol_r=1e-6))
    assert res.converged
    assert len(res.iterations) > 1
    assert set(marches) == {3}  # the solve's residuals and the final z only
    un = res.report.norms_unflagged
    assert un["el1"] <= 1e-6 and un["el2"] <= 1e-6 and un["tc"] <= 1e-6


@pytest.mark.parametrize("L, tau, z_free", [
    ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1", 0.0, False),
    ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1 + 0.15*tau_x1^2", 0.25, False),
    ("0.5*xd1^2 + 0.25*tau_x1^2 - z", 0.5, True),
], ids=["zcoupled-tau0", "zcoupled-tau0.25", "z-free"])
def test_solve_marches_z_once_per_residual(monkeypatch, L, tau, z_free):
    # the returned z is the one the last residual marched at the returned
    # positions; a z-free residual marches none, so the solve marches once
    p = make_problem(L, tau=tau)
    residuals, marches = [], []
    residual, rk4_z = sv._System.residual, fn.rk4_z

    def counted_residual(self, U, z=None, psi=None):
        if np.ndim(U) == 1:
            residuals.append(z is None)
        return residual(self, U, z, psi)

    def counted_rk4_z(*args):
        marches.append(args[2].ndim)
        return rk4_z(*args)

    monkeypatch.setattr(sv._System, "residual", counted_residual)
    monkeypatch.setattr(fn, "rk4_z", counted_rk4_z)
    res = solve_extremal(p, SolveOptions(M=120, h=None, tol_r=1e-6))
    assert res.converged and len(res.iterations) > 1 and all(residuals)
    assert set(marches) == {3}
    assert len(marches) == (1 if z_free else len(residuals))
    traj = res.trajectory
    assert np.array_equal(traj.z, rk4_z(p, traj.grid, traj.x,
                                        fn.trajectory_args(p, traj)))


@pytest.mark.parametrize("L, tau", [
    ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1", 0.0),
    ("0.5*xd1^2 + 0.25*tau_x1^2 - z", 0.5),
], ids=["zcoupled", "z-free"])
def test_solve_takes_psi_from_last_residual(monkeypatch, L, tau):
    # each unbatched residual integrates psi once, and the solve reuses the
    # last one's psi; a z-free L's psi reads t alone, so it holds there too
    p = make_problem(L, tau=tau)
    before, integrals = [], []
    residual, psi_values = sv._System.residual, fn.psi_values

    def counted_residual(self, U, z=None, psi=None):
        if np.ndim(U) == 1:
            before.append(len(integrals))
        return residual(self, U, z, psi)

    def counted_psi_values(*args):
        integrals.append(args)
        return psi_values(*args)

    with monkeypatch.context() as patch:
        patch.setattr(sv._System, "residual", counted_residual)
        patch.setattr(fn, "psi_values", counted_psi_values)
        res = solve_extremal(p, SolveOptions(M=120, h=None, tol_r=1e-6))
    assert res.converged and len(res.iterations) > 1
    assert before == list(range(len(before)))
    assert len(integrals) == len(before)
    traj = res.trajectory
    assert np.array_equal(res.multipliers.psi, fn.psi_values(
        p, traj.grid, fn.trajectory_args(p, traj), traj.z))


@pytest.mark.parametrize("table, name, M", [
    ("free", "delayed", 400), ("free", "n2-cross", 200), ("coupled", "n2", 200),
])
def test_one_series_build_per_residual_and_jacobian(monkeypatch, table, name, M):
    # the kept iterate's build travels with it and a rejected trial's is
    # dropped, so neither the next Jacobian nor the end of the solve builds
    # the series at U again; the Jacobian builds only its perturbed series
    L, kw = (Z_FREE if table == "free" else Z_COUPLED)[name]
    counts = {"series": 0, "residuals": 0, "perturbed": 0}
    series, residual, jacobian = (tr.build_series, sv._System.residual,
                                  sv._System.jacobian)

    def counted_series(*args):
        counts["series"] += 1
        return series(*args)

    def counted_residual(self, U, z=None, psi=None):
        counts["residuals"] += np.ndim(U) == 1
        return residual(self, U, z, psi)

    def counted_jacobian(self, U, R0, build, held):
        # the augmented matrix perturbs U both ways for its step maps
        counts["perturbed"] += 1 if held or self.z_free else 2
        return jacobian(self, U, R0, build, held)

    monkeypatch.setattr(tr, "build_series", counted_series)
    monkeypatch.setattr(sv._System, "residual", counted_residual)
    monkeypatch.setattr(sv._System, "jacobian", counted_jacobian)
    res = solve_extremal(make_problem(L, **kw), SolveOptions(M=M, h=None))
    assert res.converged
    assert counts["series"] == counts["residuals"] + counts["perturbed"]


@pytest.mark.parametrize("name", ["delayed", "cross-delay", "m2-cross"])
def test_colored_solve_matches_dense_solve(monkeypatch, name):
    L, kw = Z_FREE[name]
    p = make_problem(L, **kw)
    opts = SolveOptions(M=200, h=None)
    colored = solve_extremal(p, opts)
    dense = _dense_solve(monkeypatch, p, opts)
    assert colored.converged and dense.converged
    assert np.max(np.abs(colored.trajectory.x - dense.trajectory.x)) <= 1e-10


# z-coupled Lagrangians: z enters a slot partial or dL/dz, so the Jacobian is
# dense and assembled as F_U + F_z Dz + F_psi Dpsi.  They cover tau = 0, a
# delayed slot, z inside a delayed-slot partial with a z^2 term, n = 2, m = 2
# with z in both components, the short first block at tau = 0.9 with z times
# tau_xd1, and a z^2 term alone: dL/dz reads only z, so no slot partial reads
# z and the G_U pattern is empty.
Z_COUPLED = {
    "oscillator": ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1", {}),
    "delayed": ("0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1 + 0.15*tau_x1^2",
                {"tau": 0.25}),
    "z-delayed-partial": ("0.5*xd1^2 + 0.2*z*tau_x1 - 0.05*z^2",
                          {"tau": 0.25, "gamma": 0.5, "mu": ("1 + 0.5*t",)}),
    "n2": ("0.5*xdd1^2 + 0.1*tau_xd1^2 - 0.1*z*x1",
           {"tau": 0.25, "n": 2, "mu": ("1 + 0.5*t",)}),
    "m2": ("0.5*xd1^2 + 0.5*xd2^2 + 0.2*tau_x1*x2 - 0.1*z*x1 - 0.05*z*x2",
           {"tau": 0.25, "m": 2, "mu": ("1", "2 - t")}),
    "short-first-block": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*tau_xd1 - z",
                          {"tau": 0.9}),
    "z-squared": ("0.5*xd1^2 + 0.25*tau_x1^2 - 0.05*z^2", {"tau": 0.25}),
}


def _z_coupled_system(name, M=200):
    L, kw = Z_COUPLED[name]
    p = make_problem(L, **kw)
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M))
    U0 = system.pack(system.initial_positions())
    U1 = U0 + 1e-2 * np.random.default_rng(5).standard_normal(U0.shape)
    return system, (U0, U1)


def _probe(f, base, step=1e-7):
    """Forward difference of f at base, one column per entry of base."""
    deltas = step * (1.0 + np.abs(base))
    batch = np.repeat(base[np.newaxis, :], base.size, axis=0)
    batch[np.arange(base.size), np.arange(base.size)] += deltas
    f0 = f(base)
    return ((np.broadcast_to(f(batch), (base.size,) + f0.shape) - f0)
            / deltas[:, np.newaxis]).T


def _outside(pattern, shape, probe):
    inside = np.zeros(shape, dtype=bool)
    inside[pattern] = True
    return np.count_nonzero(probe[~inside])


@pytest.mark.parametrize("name", sorted(Z_COUPLED))
def test_condensed_jacobian_equals_dense(name):
    # the condensed Jacobian is the Schur complement of the augmented Newton
    # matrix on its U block
    system, points = _z_coupled_system(name)
    assert not system.z_free
    nu = system.n_unknowns
    # condition rows with a z or psi node can read every unknown; the others
    # (continuity) only their position pattern
    inside = np.zeros((system.n_res, system.n_unknowns), dtype=bool)
    inside[system.pattern] = True
    inside[np.unique(system.augmented.node_pattern[0])] = True
    local = np.zeros_like(inside)
    local[system.pattern] = True
    for U in points:
        R, build = system.residual(U)
        # central: a forward oracle shares the step maps' truncation error
        dense = oracles.dense_jacobian(system, U, R, 1e-7, central=True)
        A = _matrix(system, system.jacobian(U, R, build, False))
        J = A[:nu, :nu] - A[:nu, nu:] @ np.linalg.solve(A[nu:, nu:], A[nu:, :nu])
        err = np.abs(J - dense)
        assert np.max(err) <= 1e-6 * np.max(np.abs(dense))
        # the condensed terms alone, off the position pattern
        assert np.max(err[~local]) <= 1e-3 * np.max(np.abs(dense[~local]))
        assert not np.any(dense[~inside])


@pytest.mark.parametrize("name", sorted(Z_COUPLED))
def test_condensed_local_patterns(name):
    # every local derivative, probed densely, lies inside its derived pattern
    system, points = _z_coupled_system(name)
    p, grid, aug = system.p, system.grid, system.augmented
    M, nu, nr = grid.M, system.n_unknowns, system.n_res

    def series(U):
        return tr.build_series(system.unpack(U), grid.h, p.n)

    def stage(x):
        return fn.stage_args(p, grid, x, fn.slot_args(p, grid, x))

    def at_U(U, w):
        return np.broadcast_to(U, w.shape[:-1] + U.shape)

    for U in points:
        _, (_, _, z, psi) = system.residual(U)
        F_U = _probe(lambda V: system.residual(V, z, psi)[0], U)
        assert _outside(system.pattern, (nr, nu), F_U) == 0
        F_z = _probe(lambda w: system.residual(at_U(U, w), w, psi)[0], z)
        F_psi = _probe(lambda w: system.residual(at_U(U, w), z, w)[0], psi)
        for probe in (F_z, F_psi):
            assert _outside(aug.node_pattern, (nr, M + 1), probe) == 0
        C = _probe(lambda V: fn.rk4_steps(p, stage(series(V)), z), U)
        assert _outside(aug.step_pattern, (M, nu), C) == 0
        G_U = _probe(lambda V: fn.eval_on_nodes(p, grid, series(V), z, "z"), U)
        assert _outside(aug.g_pattern, (M + 1, nu), G_U) == 0


# Pattern tightness at M = 200.  The tests above only check that every
# probed nonzero lies inside its pattern; these counts catch a reach that
# widens.  Per z-free fixture (colors, pattern entries); per z-coupled one
# (augmented colors, pattern entries, node colors, step, g and node pattern
# entries, then the colors of the held matrix, the condition rows' alone).
TIGHTNESS = {
    ("free", "oscillator"): (9, 1784),
    ("free", "delayed"): (9, 1784),
    ("free", "delayed-velocity"): (9, 1784),
    ("free", "cross-delay"): (37, 4472),
    ("free", "n2-cross"): (67, 8330),
    ("free", "n3"): (25, 4804),
    ("free", "m2-cross"): (74, 17888),
    ("free", "short-first-block"): (9, 1784),
    ("free", "short-first-block-cross"): (21, 2132),
    ("free", "tau0-delayed-slot"): (9, 1784),
    ("coupled", "oscillator"): (9, 1784, 5, 1586, 1002, 1000, 9),
    ("coupled", "delayed"): (20, 1784, 11, 2781, 1002, 1745, 9),
    ("coupled", "z-delayed-partial"): (20, 1784, 11, 2781, 752, 1745, 9),
    ("coupled", "n2"): (31, 3316, 20, 4152, 1790, 3093, 17),
    ("coupled", "m2"): (74, 17888, 11, 5562, 2004, 3490, 74),
    ("coupled", "short-first-block"): (19, 1784, 17, 1741, 102, 1095, 9),
    ("coupled", "z-squared"): (20, 1784, 11, 2781, 0, 1745, 9),
}


@pytest.mark.parametrize("table, name", sorted(TIGHTNESS))
def test_pattern_tightness(table, name):
    L, kw = (Z_FREE if table == "free" else Z_COUPLED)[name]
    p = make_problem(L, **kw)
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200))
    counts = (system.n_colors, system.pattern[0].size)
    if not system.z_free:
        aug = system.augmented
        counts = (aug.n_colors, system.pattern[0].size, aug.n_node_colors,
                  aug.step_pattern[0].size, aug.g_pattern[0].size,
                  aug.node_pattern[0].size, system.n_colors)
    assert counts == TIGHTNESS[table, name]


# A z-coupled L whose held steps stop contracting after the first: its solve
# factors the held matrix, then the augmented one.
HELD_STALLS = ("0.5*xd1^2 - 0.5*x1^2 - 0.3*z*x1", {"tau": 0.25})


def _factored_sides(monkeypatch, p, opts):
    """The solve of p and the side of every matrix it factored."""
    sides, factor = [], sv._factor

    def counted(J, size, n):
        sides.append(size)
        return factor(J, size, n)

    monkeypatch.setattr(sv, "_factor", counted)
    return solve_extremal(p, opts), sides


@pytest.mark.parametrize("name", sorted(Z_COUPLED) + ["held-stalls"])
def test_condensed_solve_matches_dense_solve(monkeypatch, name):
    # the n = 2 residual's rounding noise is amplified by h^-4, so its solve
    # stalls near 1e-7 on either matrix and stops at 1e-6, where the iterates
    # agree to about 5e-9.  The held steps contract to the end, except that
    # held-stalls takes the augmented matrix after its first
    tol_r, tol_x = (1e-6, 1e-8) if name == "n2" else (1e-9, 1e-10)
    L, kw = HELD_STALLS if name == "held-stalls" else Z_COUPLED[name]
    p = make_problem(L, **kw)
    opts = SolveOptions(M=120, h=None, tol_r=tol_r)
    condensed, sides = _factored_sides(monkeypatch, p, opts)
    assert (max(sides) > 120 * p.m) == (name == "held-stalls")
    dense = _dense_solve(monkeypatch, p, opts)
    assert condensed.converged and dense.converged
    assert len(condensed.iterations) == len(dense.iterations)
    assert np.max(np.abs(condensed.trajectory.x - dense.trajectory.x)) <= tol_x


@pytest.mark.parametrize("table, name", sorted(
    [("free", k) for k in Z_FREE] + [("coupled", k) for k in Z_COUPLED]))
def test_transversality_values_are_minus_phi_at_b(table, name):
    # tc_k = -phi_k(b): both come from the same block sums
    L, kw = (Z_FREE if table == "free" else Z_COUPLED)[name]
    p = make_problem(L, **kw)
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200))
    U0 = system.pack(system.initial_positions())
    U = U0 + 1e-2 * np.random.default_rng(7).standard_normal(U0.shape)
    traj = fn.simulate_z(p, oracles.from_positions(p, system.grid, system.unpack(U)))
    args = fn.trajectory_args(p, traj)
    mult = ml.compute_phi(p, traj, fn.psi_values(p, traj.grid, args, traj.z), args)
    assert np.array_equal(cd.full_report(p, traj, mult, args).tc,
                          -mult.phi[..., -1])


@pytest.mark.parametrize("delayed, plain", [
    ("0.5*xd1^2 + 0.3*x1*tau_xd1 - 0.5*x1^2 - z",
     "0.5*xd1^2 + 0.3*x1*xd1 - 0.5*x1^2 - z"),
    ("0.5*tau_xd1^2 - 0.5*x1^2 - z", "0.5*xd1^2 - 0.5*x1^2 - z"),
])
def test_tau0_delayed_slot_solves_like_its_current_slot(delayed, plain):
    # at tau = 0 a tau_ slot reads the current slot, so both Lagrangians have
    # one extremal; its transversality value keeps the delayed summand at b
    opts = SolveOptions(M=200, h=None)
    twin, ref = (solve_extremal(make_problem(L), opts) for L in (delayed, plain))
    assert twin.converged and ref.converged
    assert np.max(np.abs(twin.trajectory.x - ref.trajectory.x)) <= 1e-10


def test_one_summand_build_per_residual(monkeypatch):
    builds, per_call = [], []
    summand_terms, residual = ml.summand_terms, sv._System.residual

    def counted_terms(*args, **kwargs):
        builds.append(args)
        return summand_terms(*args, **kwargs)

    def counted_residual(self, U, z=None, psi=None):
        before = len(builds)
        R = residual(self, U, z, psi)
        per_call.append((np.ndim(U), len(builds) - before))
        return R

    monkeypatch.setattr(ml, "summand_terms", counted_terms)
    monkeypatch.setattr(sv._System, "residual", counted_residual)
    for L, kw in (Z_FREE["n2-cross"], Z_COUPLED["delayed"]):
        solve_extremal(make_problem(L, **kw), SolveOptions(M=120, h=None))
    assert {ndim for ndim, _ in per_call} == {1, 2}  # plain and batched calls
    assert {count for _, count in per_call} == {1}


@pytest.mark.parametrize("table, name, residual, jacobian", [
    ("coupled", "delayed", 2, 5), ("coupled", "oscillator", 2, 5),
    ("free", "delayed", 1, 1), ("free", "n2-cross", 1, 1),
])
def test_one_argument_build_per_series(monkeypatch, table, name, residual,
                                       jacobian):
    # a residual builds L's node arguments once, and a z-coupled one its
    # midpoint arguments once for the march; the Jacobian reuses the
    # residual's and builds the batched series and its arguments once.  The
    # augmented matrix builds a second batched series, at U - delta, and its
    # arguments, plus the midpoint arguments of all three series for the
    # central RK4 step maps
    L, kw = (Z_FREE if table == "free" else Z_COUPLED)[name]
    system = sv._System(make_problem(L, **kw), tr.align_grid(
        0.0, 1.0, kw.get("tau", 0.0), n=kw.get("n", 1), M=200))
    assert system.z_free == (table == "free")
    U = system.pack(system.initial_positions())
    counts = {"args": 0, "series": 0}
    slot_args, build_series = fn.slot_args, tr.build_series

    def counted_args(*args, **kwargs):
        counts["args"] += 1
        return slot_args(*args, **kwargs)

    def counted_series(*args, **kwargs):
        counts["series"] += 1
        return build_series(*args, **kwargs)

    monkeypatch.setattr(fn, "slot_args", counted_args)
    monkeypatch.setattr(tr, "build_series", counted_series)
    R, build = system.residual(U)
    assert counts == {"args": residual, "series": 1}
    system.jacobian(U, R, build, True)
    assert counts == {"args": residual + 1, "series": 2}
    system.jacobian(U, R, build, False)
    assert counts == {"args": residual + 1 + jacobian,
                      "series": 3 if system.z_free else 4}


@pytest.mark.parametrize("M", [9, 10])
def test_panel_rows_match_integral_to_b(M):
    # the w rows of the Newton matrix, solved for w at a random g
    g = np.random.default_rng(M).standard_normal((M + 1, 4))
    rows, cols, vals = sv._panel_rows(M, 0.1)
    A = np.zeros((M + 1, 2 * (M + 1)))
    A[rows, cols] = vals
    w = np.linalg.solve(A[:, M + 1:], -A[:, :M + 1] @ g)
    assert np.max(np.abs(w - fn.integral_to_b(g.T, 0.1).T)) <= 1e-14


@pytest.mark.parametrize("L", [
    "0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - 0.2*z",
    "0.5*xd1^2 - 0.5*x1^2 - 0.1*z*x1 + 0.15*tau_x1^2",
], ids=["z-free", "zcoupled"])
def test_dense_fallback_step_equals_splu_step(monkeypatch, L):
    # without scipy the same Newton matrix is solved by the dense LU; each
    # kept factor also solves a second right-hand side, as a chord step does
    p = make_problem(L, tau=0.25, mu=("1 + 0.5*t",))
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200))
    U = system.pack(system.initial_positions())
    R, build = system.residual(U)
    J = system.jacobian(U, R, build, False)
    splu_solve = sv._factor(J, system.n_augmented, R.size)
    monkeypatch.setitem(sys.modules, "scipy.sparse.linalg", None)
    dense_solve = sv._factor(J, system.n_augmented, R.size)
    R2, _ = system.residual(U + splu_solve(R))
    for rhs in (R, R2):
        splu_step, dense_step = splu_solve(rhs), dense_solve(rhs)
        assert (np.max(np.abs(dense_step - splu_step))
                <= 1e-10 * np.max(np.abs(dense_step)))
    with pytest.raises(SingularJacobian):
        solve_extremal(make_problem("x1 - z"), SolveOptions(M=100, h=None))


# chord steps: the kept factor is reused while the residual contracts

def test_chord_steps_reuse_one_matrix(monkeypatch):
    p = make_problem("0.5*xd1^2 + 0.15*tau_x1^2 - 0.5*x1^2 - 0.1*z*x1", tau=0.25)
    matrices = []
    jacobian = sv._System.jacobian

    def counted(self, U, R, build, held):
        matrices.append(U)
        return jacobian(self, U, R, build, held)

    monkeypatch.setattr(sv._System, "jacobian", counted)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    assert len(matrices) == 1
    steps = res.iterations[1:]
    assert len(steps) > len(matrices)
    assert [lam for _, _, lam in steps] == [1.0] * len(steps)
    norms = [norm for _, norm, _ in res.iterations]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_budget_of_two_keeps_the_mutable_spec_converged(tmp_path, capsys):
    # with a budget of 2 the z-coupled solve takes one chord step on the held
    # matrix, then the Newton step that the budget's last step always is
    spec = write(tmp_path, "mutable.spec", MUTABLE)
    assert main(["solve", spec, "--M", "40", "--max-iters", "2"]) == 0
    assert "converged: True" in capsys.readouterr().out


def test_budget_of_one_is_one_newton_step():
    p = make_problem("0.5*xd1^2 + 0.25*x1^4 - z")
    res = solve_extremal(p, SolveOptions(M=100, h=None, max_iters=1, tol_r=1e-10))
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=100))
    U = system.pack(system.initial_positions())
    R, build = system.residual(U)
    U1 = U + sv._factor(system.jacobian(U, R, build, False), system.n_augmented,
                        R.size)(R)
    assert [lam for _, _, lam in res.iterations] == [1.0, 1.0]
    assert res.iterations[-1][1] == sv._sup(system.residual(U1)[0])
    assert np.array_equal(system.pack(res.trajectory.x[:, 0]), U1)


# the held matrix: z and psi held while the positions move

@pytest.mark.parametrize("name", ["oscillator", "delayed"])
def test_z_coupled_solve_factors_the_held_matrix_alone(monkeypatch, name):
    # weak couplings contract on F_U, side m*M, to the end
    L, kw = Z_COUPLED[name]
    p = make_problem(L, **kw)
    res, sides = _factored_sides(monkeypatch, p, SolveOptions(M=200, h=None))
    assert res.converged
    assert sides == [p.m * 200]
    assert [lam for _, _, lam in res.iterations] == [1.0] * len(res.iterations)


def test_stalled_held_steps_build_the_augmented_matrix(monkeypatch):
    L, kw = HELD_STALLS
    p = make_problem(L, **kw)
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200))
    res, sides = _factored_sides(monkeypatch, p,
                                 SolveOptions(M=200, h=None, tol_r=1e-8))
    assert res.converged
    assert sides == [system.n_unknowns, system.n_augmented]


def test_extremal_start_factors_nothing(monkeypatch):
    # x = 1 with z = 0 solves 0.5*xd1^2 + 0.5*z*xd1 exactly
    res, sides = _factored_sides(monkeypatch, make_problem("0.5*xd1^2 + 0.5*z*xd1"),
                                 SolveOptions(M=200, h=None))
    assert res.converged and len(res.iterations) == 1
    assert sides == []


def test_z_coupled_budget_of_one_takes_the_augmented_newton_step(monkeypatch):
    L, kw = Z_COUPLED["oscillator"]
    p = make_problem(L, **kw)
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200))
    res, sides = _factored_sides(monkeypatch, p,
                                 SolveOptions(M=200, h=None, max_iters=1))
    assert len(res.iterations) == 2
    assert sides == [system.n_augmented]


def test_singular_held_matrix_falls_back_to_the_augmented_one(monkeypatch):
    # xd1*x1 is a total derivative, so with z and psi held the Euler-Lagrange
    # rows read the positions only through psi' x1, and psi' = 0.13 psi xd1
    # vanishes at the constant start: F_U is singular, and the augmented
    # matrix takes the step
    p = make_problem("xd1*x1 - 0.13*z*xd1", tau=0.25)
    system = sv._System(p, tr.align_grid(p.a, p.b, p.tau, n=p.n, M=200))
    res, sides = _factored_sides(monkeypatch, p,
                                 SolveOptions(M=200, h=None, max_iters=2))
    assert sides == [system.n_unknowns, system.n_augmented, system.n_augmented]
    assert res.iterations[1][1] < 0.1 * res.iterations[0][1]


def test_fresh_augmented_newton_steps_converge_on_n2():
    # the step maps' second derivative grows like 1/h through the xd^2
    # terms: with their central difference, Newton steps on a fresh
    # augmented matrix take the n = 2 residual from 1.7e-2 to under 1e-5,
    # where a forward difference left them near 2e-2
    system, (U, _) = _z_coupled_system("n2")
    R, build = system.residual(U)
    norms = [sv._sup(R)]
    for _ in range(3):
        J = system.jacobian(U, R, build, False)
        U = U + sv._factor(J, system.n_augmented, R.size)(R)
        R, build = system.residual(U)
        norms.append(sv._sup(R))
    assert min(norms) <= 1e-5 < norms[0]
