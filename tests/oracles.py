"""Independent reference implementations used as test oracles.

These deliberately bypass the library's summand builders: partials are
evaluated directly from the Lagrangian's symbolic derivatives and the
special-case formulas (no-delay, first-order) are written out term by term,
so agreement with the main code paths is meaningful.

The optimal-control view of the delayed problem is here too, since only the
tests compare against it: the inverse of the Guinn change of variables, the
stacked psi_j integrated interval by interval, the delayed multipliers
restricted to the stacked intervals with the costates of the history
interval [a - tau, a], and the stacked Hamiltonian.  These read the
library's summands and the stacked slot arrays of ``reduction``; what they
check is the reduced view itself.  ``rk4_loop`` is the z march one RK4 step
at a time, the reference for the affine step map, and ``from_positions``
builds a trajectory from position samples as a solve builds its series.
"""

from dataclasses import dataclass

import numpy as np

from herglotz import expr as ex
from herglotz import problem as pb
from herglotz import reduction as rd
from herglotz.functional import integral_to_b, march_z, stage_args, trajectory_args
from herglotz.multipliers import alternating_sum, summand_terms
from herglotz.trajectory import StateTrajectory, build_series, differentiate_values


def central_fd(e, binding, var, h=1e-6):
    hi = dict(binding)
    lo = dict(binding)
    hi[var] += h
    lo[var] -= h
    return (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)


def partial_on_nodes(p, traj, which, shift=0):
    """Evaluate one symbolic partial along the trajectory with an optional
    forward index shift (values beyond b are zero)."""
    grid = traj.grid
    M = grid.M
    lag = p.lagrangian
    fn = ex.compile_expr(lag.partials[which], lag.args)
    args = [grid.nodes()]
    for j in range(1, p.m + 1):
        for k in range(p.n + 1):
            args.append(traj.x[j - 1, k])
    for j in range(1, p.m + 1):
        for k in range(p.n + 1):
            vals = np.empty(M + 1)
            q = grid.p
            for i in range(M + 1):
                if i >= q:
                    vals[i] = traj.x[j - 1, k, i - q]
                else:
                    vals[i] = pb.history_derivative(p, j, k, grid.a + (i - q) * grid.h)
            args.append(vals)
    args.append(traj.z)
    with np.errstate(all="ignore"):
        out = np.broadcast_to(np.asarray(fn(*args), dtype=float), (M + 1,)).copy()
    if shift:
        shifted = np.zeros(M + 1)
        shifted[:M + 1 - shift] = out[shift:]
        return shifted
    return out


def delay_free_el(p, traj, psi):
    """No-delay Euler-Lagrange residual: sum_l (-1)^l d^l/dt^l (psi dL/dx^(l)),
    built without any delayed-slot machinery."""
    assert p.tau == 0.0
    grid = traj.grid
    out = np.zeros((p.m, grid.M + 1))
    for j in range(1, p.m + 1):
        for l in range(p.n + 1):
            series = psi * partial_on_nodes(p, traj, pb.slot_name(j, l))
            d = series if l == 0 else differentiate_values(series, grid.h, l)
            out[j - 1] += d if l % 2 == 0 else -d
    return out


def delay_free_tc(p, traj, psi):
    """No-delay transversality values at b for k = 1..n."""
    assert p.tau == 0.0
    grid = traj.grid
    out = np.zeros((p.n, p.m))
    for k in range(1, p.n + 1):
        for j in range(1, p.m + 1):
            acc = 0.0
            for l in range(p.n - k + 1):
                series = psi * partial_on_nodes(p, traj, pb.slot_name(j, l + k))
                d = series if l == 0 else differentiate_values(series, grid.h, l)
                acc += d[-1] if l % 2 == 0 else -d[-1]
            out[k - 1, j - 1] = acc
    return out


def _first_order_momentum(p, traj, psi):
    """psi dL/dxd + psi(t+tau) dL/dxd_tau(t+tau) for n = 1, m = 1."""
    grid = traj.grid
    q = grid.p
    cur = psi * partial_on_nodes(p, traj, pb.slot_name(1, 1))
    dlag = psi * partial_on_nodes(p, traj, pb.delayed_slot_name(1, 1))
    shifted = np.zeros(grid.M + 1)
    shifted[:grid.M + 1 - q] = dlag[q:]
    return cur, shifted


def first_order_delayed_el(p, traj, psi):
    """First-order delayed Euler-Lagrange written out directly: the two-term
    expression on [a, b - tau] and the current-only one on [b - tau, b]."""
    assert p.n == 1 and p.m == 1
    grid = traj.grid
    q = grid.p
    jn = grid.junction
    cur0 = psi * partial_on_nodes(p, traj, pb.slot_name(1, 0))
    dlag0 = psi * partial_on_nodes(p, traj, pb.delayed_slot_name(1, 0))
    shifted0 = np.zeros(grid.M + 1)
    shifted0[:grid.M + 1 - q] = dlag0[q:]
    cur1, shifted1 = _first_order_momentum(p, traj, psi)
    el1 = (cur0 + shifted0)[:jn + 1] - differentiate_values(
        (cur1 + shifted1)[:jn + 1], grid.h, 1)
    if q == 0:
        el2 = el1[-1:]
    else:
        el2 = cur0[jn:] - differentiate_values(cur1[jn:], grid.h, 1)
    return el1, el2


def first_order_delayed_dbr(p, traj, psi):
    """First-order delayed DuBois-Reymond: d/dt(psi L - momentum xd) - psi dL/dt."""
    assert p.n == 1 and p.m == 1
    grid = traj.grid
    jn = grid.junction
    lag = p.lagrangian
    fn = ex.compile_expr(lag.body, lag.args)
    args = [grid.nodes()]
    for j in range(1, 2):
        for k in range(2):
            args.append(traj.x[0, k])
    q = grid.p
    for k in range(2):
        vals = np.empty(grid.M + 1)
        for i in range(grid.M + 1):
            if i >= q:
                vals[i] = traj.x[0, k, i - q]
            else:
                vals[i] = pb.history_derivative(p, 1, k, grid.a + (i - q) * grid.h)
        args.append(vals)
    args.append(traj.z)
    with np.errstate(all="ignore"):
        L = np.broadcast_to(np.asarray(fn(*args), dtype=float), (grid.M + 1,)).copy()
    cur1, shifted1 = _first_order_momentum(p, traj, psi)
    inner = psi * L - (cur1 + shifted1) * traj.x[0, 1]
    d = np.empty(grid.M + 1)
    d[:jn + 1] = differentiate_values(inner[:jn + 1], grid.h, 1)
    if jn < grid.M:
        d[jn + 1:] = differentiate_values(inner[jn:], grid.h, 1)[1:]
    return d - psi * partial_on_nodes(p, traj, "t")


def first_order_delayed_charge(p, traj, psi, T, X0, Z):
    """First-order delayed Noether charge with phi_1 substituted explicitly."""
    assert p.n == 1 and p.m == 1
    cur1, shifted1 = _first_order_momentum(p, traj, psi)
    phi1 = -(cur1 + shifted1)
    lag = p.lagrangian
    L = np.zeros(traj.grid.M + 1)
    # reuse the dbr assembly for L along the trajectory
    fn = ex.compile_expr(lag.body, lag.args)
    grid = traj.grid
    q = grid.p
    args = [grid.nodes(), traj.x[0, 0], traj.x[0, 1]]
    for k in range(2):
        vals = np.empty(grid.M + 1)
        for i in range(grid.M + 1):
            if i >= q:
                vals[i] = traj.x[0, k, i - q]
            else:
                vals[i] = pb.history_derivative(p, 1, k, grid.a + (i - q) * grid.h)
        args.append(vals)
    args.append(traj.z)
    with np.errstate(all="ignore"):
        L = np.broadcast_to(np.asarray(fn(*args), dtype=float), (grid.M + 1,)).copy()
    return phi1 * X0 + psi * Z - (phi1 * traj.x[0, 1] + psi * L) * T


def first_order_delayed_comb(p, traj, psi):
    """First-order comb series D(s) = psi(s) [dL/dx_tau(s) x'(s - tau)
    + dL/dxd_tau(s) x''(s - tau)], with x'' the stencil derivative of x'
    split at b - tau and the trajectory's side taken at s = a + tau."""
    assert p.n == 1 and p.m == 1
    grid = traj.grid
    q = grid.p
    jn = grid.junction
    xdd = np.empty(grid.M + 1)
    xdd[:jn + 1] = differentiate_values(traj.x[0, 1, :jn + 1], grid.h, 1)
    if jn < grid.M:
        xdd[jn + 1:] = differentiate_values(traj.x[0, 1, jn:], grid.h, 1)[1:]
    rates = (traj.x[0, 1], xdd)
    D = np.zeros(grid.M + 1)
    for k in range(2):
        past = np.empty(grid.M + 1)
        for i in range(grid.M + 1):
            if i >= q:
                past[i] = rates[k][i - q]
            else:
                past[i] = pb.history_derivative(p, 1, k + 1, grid.a + (i - q) * grid.h)
        D += psi * partial_on_nodes(p, traj, pb.delayed_slot_name(1, k)) * past
    return D


def dense_jacobian(system, U, R0, fd_step, chunk=256, central=False, hold=None):
    """Finite difference of the full residual map of a solver system, one
    column per unknown, with z and psi re-simulated for every perturbed U,
    or held at ``hold`` = (z, psi); the residual is evaluated in batches of
    ``chunk`` columns.  The difference is forward from R0 = R(U), or central
    when ``central``."""
    nu = U.shape[0]
    J = np.empty((system.n_res, nu))
    deltas = fd_step * (1.0 + np.abs(U))
    for lo in range(0, nu, chunk):
        cols = np.arange(lo, min(lo + chunk, nu))
        d = deltas[cols]
        Rb, _ = system.residual(_moved(U, cols, d), *(hold or ()))
        if central:
            Rm, _ = system.residual(_moved(U, cols, -d), *(hold or ()))
            J[:, cols] = ((Rb - Rm) / (2.0 * d[:, np.newaxis])).T
        else:
            J[:, cols] = ((Rb - R0) / d[:, np.newaxis]).T
    return J


def _moved(U, cols, deltas):
    """One copy of U per column in ``cols``, that column moved by its delta."""
    Ub = np.repeat(U[np.newaxis, :], cols.size, axis=0)
    Ub[np.arange(cols.size), cols] += deltas
    return Ub


def rk4_loop(p, grid, x, args):
    """The z march of ``functional.rk4_z`` one RK4 step at a time, for any
    L; ``args`` are the node arguments of x."""
    return march_z(p.lagrangian.compiled("body"), None, stage_args(p, grid, x, args),
                   p.gamma, grid.M)


# ---------------------------------------------------------------------------
# the stacked (Guinn-reduced) problem

def unmap_trajectory(rp, stacked, traj):
    """Inverse change of variables back onto the original grid (exact)."""
    g = traj.grid
    P = stacked.P
    x = np.empty_like(traj.x)
    for i in range(1, rp.N + 1):
        lo = (i - 1) * P
        hi = min(lo + P, g.M)
        x[:, :, lo:hi + 1] = stacked.x[i, :, :, :hi - lo + 1]
    z = None
    if stacked.z is not None:
        z = np.empty(g.M + 1)
        for j in range(1, rp.N + 1):
            lo = (j - 1) * P
            hi = min(lo + P, g.M)
            z[lo:hi + 1] = stacked.z[j - 1, :hi - lo + 1]
    return StateTrajectory(grid=g, x=x, z=z)


def reduced_psi(rp, stacked):
    """Per-interval psi_j on [0, tau] with the coupling terminal conditions
    (psi_N(tau) = 1, psi_j(tau) = psi_{j+1}(0)); shape (N+1, P+1), the last
    row being the closing interval's constant 1."""
    P, h = stacked.P, stacked.h
    psi = np.ones((rp.N + 1, P + 1))
    terminal = 1.0
    for j in range(rp.N, 0, -1):
        fnz = rd._interval_callable(rp, j, rd.z_name(j))
        nodes, _ = rd._stacked_args(rp, stacked, j)
        with np.errstate(all="ignore"):
            g = fnz(*nodes, stacked.z[j - 1])
        g = np.broadcast_to(np.asarray(g, dtype=float), (P + 1,)).copy()
        c = stacked.live_steps(j)
        J = np.zeros(P + 1)
        J[:c + 1] = integral_to_b(g[:c + 1], h)
        psi[j - 1] = terminal * np.exp(J)
        terminal = psi[j - 1, 0]
    return psi


def from_positions(p, grid, positions):
    """A trajectory from position samples on the grid, its derivative series
    by repeated stencil differentiation of the samples, as a solve builds
    them."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    return StateTrajectory(grid=grid, x=build_series(pos, grid.h, p.n))


def compute_phi_history(p, traj, psi):
    """phi_k on [a - tau, a] (delayed-term-only branch of the closed form):
    shape (n, m, p+1)."""
    grid = traj.grid
    q = grid.p
    # the t-argument shift makes this the delayed term's generator series
    # evaluated on [a, a + tau]
    S = [None] + [D for _, D in summand_terms(p, trajectory_args(p, traj),
                                              traj.z, psi, range(1, p.n + 1))]
    phi = np.zeros((p.n, p.m, q + 1))
    for k in range(1, p.n + 1):
        phi[k - 1] = alternating_sum(
            S[k:], lambda s, l: differentiate_values(s, grid.h, l)[..., :q + 1],
            sign=-1)
    return phi


@dataclass(frozen=True)
class ReducedMultipliers:
    psi: np.ndarray  # (N+1, P+1)
    phi: np.ndarray  # (n, N+1, m, P+1); interval index 0 is the history block


def map_multipliers(rp, traj, mult):
    """Restrict the delayed-problem multipliers to the stacked intervals,
    including the history-interval costates."""
    g = traj.grid
    P = g.p
    phi_hist = compute_phi_history(rp.problem, traj, mult.psi)
    phi = np.zeros((rp.n, rp.N + 1, rp.m, P + 1))
    psi = np.ones((rp.N + 1, P + 1))
    phi[:, 0, :, :] = phi_hist
    for i in range(1, rp.N + 1):
        lo = (i - 1) * P
        hi = min(lo + P, g.M)
        phi[:, i, :, :hi - lo + 1] = mult.phi[:, :, lo:hi + 1]
        psi[i - 1, :hi - lo + 1] = mult.psi[lo:hi + 1]
    return ReducedMultipliers(psi=psi, phi=phi)


def reduced_hamiltonian(rp, stacked, mults):
    """H(t) = sum_l sum_i phi_{l;i} . x^{l;i} + sum_j psi_j L_j per node of
    [0, tau]; the closing interval contributes nothing (L_{N+1} = 0)."""
    P = stacked.P
    H = np.zeros(P + 1)
    for l in range(1, rp.n + 1):
        for i in range(rp.N + 1):
            H += np.sum(mults.phi[l - 1, i] * stacked.x[i, :, l, :], axis=0)
    for j in range(1, rp.N + 1):
        L = rd._interval_callable(rp, j)
        nodes, _ = rd._stacked_args(rp, stacked, j)
        with np.errstate(all="ignore"):
            lv = L(*nodes, stacked.z[j - 1])
        lv = np.broadcast_to(np.asarray(lv, dtype=float), (P + 1,)).copy()
        lv[stacked.live_steps(j) + 1:] = 0.0
        H += mults.psi[j - 1] * lv
    return H
