"""Independent reference implementations used as test oracles.

These deliberately bypass the library's summand builders: partials are
evaluated directly from the Lagrangian's symbolic derivatives and the
special-case formulas (no-delay, first-order) are written out term by term,
so agreement with the main code paths is meaningful.  ``alternating_sum`` is
the closed form sum_l (-1)^l d^l/dt^l of the costates and the
Euler-Lagrange residual, term by term, against which the library's one
backward pass (``multipliers.block_sums``) is checked and from which
``compute_phi_history`` takes the costates of [a - tau, a].

The optimal-control view of the delayed problem is here too, since only the
tests compare against it: the inverse of the Guinn change of variables, the
stacked psi_j integrated interval by interval, the delayed multipliers
restricted to the stacked intervals with the costates of the history
interval [a - tau, a], and the stacked Hamiltonian.  These read the
library's summands and the stacked slot arrays of ``reduction``; what they
check is the reduced view itself.  ``rk4_loop`` is the z march one RK4 step
at a time, the reference for the affine step map, and ``from_positions``
builds a trajectory from position samples as a solve builds its series.
``savetxt_residual_csv`` is the residual CSV of ``verify --out`` as
``np.savetxt`` writes it, the reference for the bytes of the one table
writer.
"""

from dataclasses import dataclass

import numpy as np

from herglotz import expr as ex
from herglotz import problem as pb
from herglotz import reduction as rd
from herglotz.functional import (integral_to_b, march_z, ordered_args, stage_args,
                                 trajectory_args)
from herglotz.multipliers import summand_terms
from herglotz.trajectory import StateTrajectory, build_series, differentiate_values


def alternating_sum(terms, diff, sign=1):
    """sign * sum_l (-1)^l diff(terms[l], l), added term by term with its own
    sign so that exact zeros keep theirs."""
    acc = 0.0
    for l, term in enumerate(terms):
        d = diff(term, l)
        acc = acc + d if sign * (-1) ** l > 0 else acc - d
    return acc


def central_fd(e, binding, var, h=1e-6):
    hi = dict(binding)
    lo = dict(binding)
    hi[var] += h
    lo[var] -= h
    return (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)


def fd_samples_by_scalar(lag, a, b, rng, points=10, h=1e-6):
    """The finite-difference audit's samples taken one scalar evaluation at a
    time: ``problem._fd_samples`` as it was before it evaluated whole batches
    of points in one pass, which must keep its draws, redraws and values."""
    names, free = lag.args, ex.free_variables(lag.body)
    samples = []
    attempts = 0
    while len(samples) < points and attempts < 40 * points:
        attempts += 1
        binding = dict(zip(names, rng.uniform(0.6, 1.4, len(names)).tolist()))
        binding["t"] = rng.uniform(a, b)
        try:
            if not np.isfinite(ex.evaluate(lag.body, binding)):
                raise ArithmeticError
            sample = []
            for name in names:
                if name not in free:
                    sample.append((name, binding["t"], 0.0, 0.0))
                    continue
                sym = ex.evaluate(lag.partials[name], binding)
                lo, hi = dict(binding), dict(binding)
                lo[name] -= h
                hi[name] += h
                fd = (ex.evaluate(lag.body, hi) - ex.evaluate(lag.body, lo)) / (2 * h)
                if not (np.isfinite(sym) and np.isfinite(fd)):
                    raise ArithmeticError
                sample.append((name, binding["t"], sym, fd))
        except Exception:
            continue
        samples.append(sample)
    return samples


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


def _split_derivative(vals, grid):
    """Stencil derivative of a node series split at b - tau."""
    jn = grid.junction
    out = np.empty(grid.M + 1)
    out[:jn + 1] = differentiate_values(vals[:jn + 1], grid.h, 1)
    if jn < grid.M:
        out[jn + 1:] = differentiate_values(vals[jn:], grid.h, 1)[1:]
    return out


def first_order_comb_integral(p, traj, psi, T, X0, X_hist):
    """int_t^min(t+tau, b) G per node for n = 1, m = 1 and a constant T,
    written out: the part the delayed Noether charge adds to
    ``first_order_delayed_charge``, with

        G(s) = psi(s) [dL/dx_tau(s) V_0(s - tau) + dL/dxd_tau(s) V_1(s - tau)],
        V_0 = X_0 - T x',  V_1 = X_0' - T x'',  G = 0 past b.

    Along the trajectory X_0' and x'' are stencil derivatives split at
    b - tau; along the history V_r reads ``X_hist`` = (X_0, X_0') on the
    nodes of [a - tau, a] and mu^(r+1).  Each step is a trapezoid; the step
    that ends at a + tau takes G's left limit there (the delayed slots at the
    history's values at a) and adds the point mass -T psi [L(+) - L(-)] of
    the jump of x' at a."""
    assert p.n == 1 and p.m == 1
    grid = traj.grid
    q, M, h = grid.p, grid.M, grid.h
    lag = p.lagrangian
    x, xd = traj.x[0, 0], traj.x[0, 1]
    V = (X0 - T * xd, _split_derivative(X0, grid) - T * _split_derivative(xd, grid))

    def mu(k, i):  # mu^(k) at the history node a + (i - q) h
        return pb.history_derivative(p, 1, k, grid.a + (i - q) * h)

    past = [np.array([V[r][i - q] if i >= q else X_hist[r][i] - T * mu(r + 1, i)
                      for i in range(M + 1)]) for r in range(2)]
    G = psi * sum(partial_on_nodes(p, traj, pb.delayed_slot_name(1, r)) * past[r]
                  for r in range(2))
    G_left = point = 0.0
    if q:
        def at_a_plus_tau(tau_x, tau_xd):
            return {"t": grid.a + q * h, "x1": x[q], "xd1": xd[q], "tau_x1": tau_x,
                    "tau_xd1": tau_xd, "z": traj.z[q]}
        left = at_a_plus_tau(mu(0, q), mu(1, q))
        G_left = psi[q] * sum(ex.evaluate(lag.partials[pb.delayed_slot_name(1, r)], left)
                              * (X_hist[r][q] - T * mu(r + 1, q)) for r in range(2))
        right = at_a_plus_tau(x[0], xd[0])
        point = -T * psi[q] * (ex.evaluate(lag.body, right) - ex.evaluate(lag.body, left))
    out = np.zeros(M + 1)
    for i in range(M + 1):
        for k in range(i, min(i + q, M)):
            if k + 1 == q:
                out[i] += 0.5 * h * (G[k] + G_left) + point
            else:
                out[i] += 0.5 * h * (G[k] + G[k + 1])
    return out


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


def finite_s_invariance(p, traj, fam, ds=1e-3):
    """The two invariance conditions of ``fam`` evaluated at s = +/-ds and
    differenced, (c(ds) - c(-ds)) / (2 ds) per node of [a, b]: the reference
    for the first-order rates of ``noether._invariance_rates``.  The family
    is evaluated on the grid extended below a (x from the history, z frozen
    at gamma), and d^k X^s / d(T^s)^k by the quotient recursion of stencils,
    which cross the kink at a: the two agree away from a + k tau and
    b - tau."""
    g = traj.grid
    q, h = g.p, g.h
    t = g.a + h * np.arange(-q, g.M + 1)
    xe = [np.concatenate([np.broadcast_to(p.history_fn(j, 0)(t[:q]), (q,)),
                          traj.x[j - 1, 0]]) for j in range(1, p.m + 1)]
    ze = np.concatenate([np.full(q, p.gamma), traj.z])
    names = ["s", "t"] + [f"x{j}" for j in range(1, p.m + 1)] + ["z"]
    now = slice(q, None)

    def sides(s):
        def run(e):
            with np.errstate(all="ignore"):
                out = ex.compile_expr(e, names)(np.float64(s), t, *xe, ze)
            return np.broadcast_to(np.asarray(out, dtype=float), t.shape)

        T, Z = run(fam.Tmap), run(fam.Zmap)
        dT = differentiate_values(T, h, 1)
        chain = [np.stack([run(e) for e in fam.Xmap])]
        for _ in range(p.n):
            chain.append(differentiate_values(chain[-1], h, 1) / dT)
        series = np.stack(chain, axis=1)  # (m, n+1, q+M+1)
        args = ordered_args(T[now], series[..., now], series[..., :g.M + 1])
        with np.errstate(all="ignore"):
            L = p.lagrangian.compiled("body")(*args, Z[now])
        c1 = (traj.z[-1] / (g.b - g.a) + fam.xi * s) * dT[now]
        return c1, differentiate_values(Z[now], h, 1) - dT[now] * L

    return tuple((hi - lo) / (2 * ds) for hi, lo in zip(sides(ds), sides(-ds)))


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
                                              traj.z, psi)[1:]]
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


def savetxt_residual_csv(report, fh):
    """The residual CSV of ``verify --out`` written to the open text file
    ``fh`` by ``np.savetxt``, one call per block: rows t,el1,r1..rm from a,
    t,el2,r1..rm from b - tau, t,dbr,r1 with m - 1 empty cells, and the
    '# sup' footer of the four norms."""
    grid = report.grid
    t = grid.nodes()
    m = report.el1.shape[0]
    cells = ",%.17g" * m
    fh.write("t,block," + ",".join(f"r{j + 1}" for j in range(m)) + "\n")
    for name, start, vals in (("el1", 0, report.el1),
                              ("el2", grid.junction, report.el2)):
        np.savetxt(fh, np.column_stack([t[start:start + vals.shape[-1]], vals.T]),
                   fmt=f"%.17g,{name}" + cells)
    np.savetxt(fh, np.column_stack([t, report.dbr]),
               fmt="%.17g,dbr,%.17g" + "," * (m - 1), comments="",
               footer="# sup " + " ".join(f"{k}={v:.17g}"
                                          for k, v in report.norms.items()))
