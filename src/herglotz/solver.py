"""Compute extremals: find position samples x(t_i) such that the discretized
Euler-Lagrange equations and transversality conditions hold, with z and psi
re-simulated from scratch for every candidate.

Unknowns are the positions at nodes 1..M (node 0 is pinned to the history
value); all derivative series come from the differentiation stencils, so the
derivative-consistency invariants hold by construction.  The residual vector
stacks one Euler-Lagrange equation per interior node (the delayed-sum block
left of b - tau, the current-only block from there on), the n transversality
values, and the continuity constraints x^(k)(a) = mu^(k)(a) for k = 1..n-1,
which makes the system square.  Junction and end zones stay in the root
system but are excluded from the acceptance sup-norms of the final report.

The Jacobian is a forward finite difference of the full residual map.  When
no symbolic partial of L reads z, dL/dz is a constant, psi does not depend on
x, and the residual is assembled without marching z at all.  Each residual
row then reads the positions of a few stencil-neighbouring nodes only, plus
the nodes one delay away when a current-slot partial reads a delayed slot or
the reverse, so the Jacobian is assembled by Curtis-Powell-Reid column
coloring: the structural pattern is derived from the stencil reach and the
partials' free variables, columns that share no row get one color, and one
batched residual per color replaces one per unknown.  For a z-coupled L the
z map and the psi map couple every node, and the Jacobian is a dense forward
difference evaluated in vectorized column chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import conditions as cd
from . import expr as ex
from . import functional as fn
from . import multipliers as ml
from . import problem as pb
from . import trajectory as tr
from .errors import SingularJacobian, ValidationError

_CHUNK = 256


@dataclass(frozen=True)
class SolveOptions:
    M: int | None = None          # grid resolution; None = derive from h
    h: float | None = 1e-3
    damping: float = 1.0          # initial Newton damping in (0, 1]
    max_iters: int = 25
    tol_r: float = 1e-6
    tol_x: float = 1e-12
    jacobian_fd_step: float = 1e-7

    def validate(self):
        problems = []
        if not self.tol_r > 0:
            problems.append(f"tol_r must be positive, got {self.tol_r!r}")
        if not 0 < self.damping <= 1:
            problems.append(f"damping must lie in (0, 1], got {self.damping!r}")
        if self.M is None and self.h is None:
            problems.append("one of M or h must be given")
        if self.h is not None and not (np.isfinite(self.h) and self.h > 0):
            problems.append(f"h must be a positive finite step, got {self.h!r}")
        if problems:
            raise ValidationError(problems)


@dataclass
class SolveResult:
    trajectory: tr.StateTrajectory
    multipliers: ml.MultiplierSet
    report: cd.ResidualReport
    iterations: list = field(default_factory=list)  # (iter, residual, damping)
    converged: bool = False
    elapsed: float = 0.0


class _System:
    """Residual map R(U) for one problem on one grid, with batch support."""

    def __init__(self, p, grid):
        self.p = p
        self.grid = grid
        n, m, M = p.n, p.m, grid.M
        if grid.p == 0:
            self.sel1 = np.arange(n, M - n + 1)
            self.sel2 = np.arange(0)
        else:
            # Every interior node contributes one equation; left of the
            # junction it is the delayed-sum equation, from the junction on
            # the current-only one.  Dropping the junction-zone rows instead
            # leaves a few unknowns unconstrained and the Newton step parks a
            # parasitic wiggle there, so the zone stays in the root system
            # and is only excluded from the acceptance sup-norms.
            j = grid.junction
            self.sel1 = np.arange(n, j)
            self.sel2 = np.arange(0, M - n - j + 1)  # junction node uses el2
            if self.sel1.size == 0 or self.sel2.size == 0:
                raise ValidationError(
                    "grid too coarse for the delay: the Euler-Lagrange blocks "
                    "have no interior nodes")
        self.pinned = np.array([[pb.history_derivative(p, j_, 0, p.a)]
                                for j_ in range(1, m + 1)])
        self.mu_at_a = np.array([[pb.history_derivative(p, j_, k, p.a)
                                  for k in range(1, n)]
                                 for j_ in range(1, m + 1)])  # (m, n-1)
        self.n_res = m * (self.sel1.size + self.sel2.size) + n * m + (n - 1) * m
        self.n_unknowns = m * M
        assert self.n_res == self.n_unknowns  # square by construction
        self.z_free = not any("z" in ex.free_variables(e)
                              for e in p.lagrangian.partials.values())
        if self.z_free:
            lo, hi = _row_intervals(p, grid, self.sel1, self.sel2)
            self.pattern = _expand_pattern(lo, hi, m, M)
            self.color, self.n_colors = _modular_coloring(lo, hi, m, M)

    def initial_positions(self):
        """Taylor extension of the history from a."""
        p, grid = self.p, self.grid
        t = grid.nodes() - grid.a
        pos = np.zeros((p.m, grid.M + 1))
        for j in range(1, p.m + 1):
            acc = np.zeros_like(t)
            fact = 1.0
            for k in range(p.n):
                if k:
                    fact *= k
                acc += pb.history_derivative(p, j, k, p.a) * t ** k / fact
            pos[j - 1] = acc
        return pos

    def pack(self, positions):
        return np.asarray(positions)[..., :, 1:].reshape(
            positions.shape[:-2] + (-1,))

    def unpack(self, U):
        batch = U.shape[:-1]
        m, M = self.p.m, self.grid.M
        pos = np.empty(batch + (m, M + 1))
        pos[..., :, 0] = self.pinned[:, 0]
        pos[..., :, 1:] = U.reshape(batch + (m, M))
        return pos

    def residual(self, U):
        """R(U), batched over leading axes of U."""
        p, grid = self.p, self.grid
        pos = self.unpack(np.asarray(U, dtype=float))
        x = tr.build_series(pos, grid.h, p.n)
        if self.z_free:
            # psi and every summand ignore the z argument
            z = np.zeros(grid.M + 1)
        else:
            z = fn.rk4_z(p, grid, x, p.gamma)
        psi = fn.psi_values(p, grid, x, z)
        el1, el2 = cd.el_blocks(p, grid, x, z, psi)
        tc = cd.transversality_values(p, grid, x, z, psi)
        parts = [el1[..., self.sel1].reshape(U.shape[:-1] + (-1,))]
        if self.sel2.size:
            parts.append(el2[..., self.sel2].reshape(U.shape[:-1] + (-1,)))
        parts.append(tc.reshape(U.shape[:-1] + (-1,)))
        if p.n > 1:
            cont = x[..., :, 1:p.n, 0] - self.mu_at_a
            parts.append(cont.reshape(U.shape[:-1] + (-1,)))
        return np.concatenate(parts, axis=-1)

    def jacobian(self, U, R0, fd_step):
        """Forward-difference Jacobian at U, where R0 = R(U): by column
        coloring for a z-free L, column by column otherwise."""
        if self.z_free:
            return self._colored_jacobian(U, R0, fd_step)
        return self._dense_jacobian(U, R0, fd_step)

    def _dense_jacobian(self, U, R0, fd_step):
        nu = U.shape[0]
        J = np.empty((self.n_res, nu))
        deltas = fd_step * (1.0 + np.abs(U))
        for lo in range(0, nu, _CHUNK):
            cols = np.arange(lo, min(lo + _CHUNK, nu))
            Ub = np.repeat(U[np.newaxis, :], cols.size, axis=0)
            Ub[np.arange(cols.size), cols] += deltas[cols]
            Rb = self.residual(Ub)
            J[:, cols] = ((Rb - R0) / deltas[cols, np.newaxis]).T
        return J

    def _colored_jacobian(self, U, R0, fd_step):
        """Perturb every column of one color at once; no two of them share a
        row of the structural pattern, so each row of that residual sees a
        single perturbed column, and the entries off the pattern are zero."""
        nu = U.shape[0]
        deltas = fd_step * (1.0 + np.abs(U))
        Ub = np.repeat(U[np.newaxis, :], self.n_colors, axis=0)
        Ub[self.color, np.arange(nu)] += deltas
        Rb = np.empty((self.n_colors, self.n_res))
        for lo in range(0, self.n_colors, _CHUNK):
            Rb[lo:lo + _CHUNK] = self.residual(Ub[lo:lo + _CHUNK])
        rows, cols = self.pattern
        J = np.zeros((self.n_res, nu))
        J[rows, cols] = (Rb[self.color[cols], rows] - R0[rows]) / deltas[cols]
        return J


# ---------------------------------------------------------------------------
# structural Jacobian pattern and its coloring (z-free Lagrangians)

def _stencil_reach(b0, b1, passes):
    """First and last input node read by ``passes`` applications of the
    5-point stencil over the nodes b0..b1, per output node b0..b1.  One pass
    reads i-2..i+2, and the two nodes at each end read the five end nodes;
    both bounds are non-decreasing in i, so a composition of passes reads an
    interval whose ends compose index by index."""
    i = np.arange(b0, b1 + 1)
    lo1 = np.maximum(np.minimum(i - 2, b1 - 4), b0) - b0
    hi1 = np.minimum(np.maximum(i + 2, b0 + 4), b1) - b0
    lo, hi = i, i
    for _ in range(passes):
        lo, hi = lo[lo1], hi[hi1]
    return lo, hi


def _row_intervals(p, grid, sel1, sel2):
    """Position nodes each residual row can read, as up to three intervals
    per row (columns 0..2 of ``lo``/``hi``; empty where lo > hi), in the row
    order of ``_System.residual``; every component of a node shares them.

    A summand series at node s reads the derivative series at s (current
    slots); at s - p when a current-slot partial reads a delayed slot; at
    s + p when a delayed-slot partial reads a current slot, through the
    shifted delayed term psi(t + tau) dL/dx_tau(t + tau).  Each block takes
    up to n stencil passes of those series, which take up to n passes of the
    positions."""
    lag, n, m, M, q = p.lagrangian, p.n, p.m, grid.M, grid.p
    cur = {pb.slot_name(j, k) for j in range(1, m + 1) for k in range(n + 1)}
    tau = {pb.delayed_slot_name(j, k) for j in range(1, m + 1)
           for k in range(n + 1)}
    reads = {s: ex.free_variables(lag.partials[s]) for s in cur | tau}
    back = q > 0 and any(reads[s] & tau for s in cur)
    fwd = q > 0 and any(reads[s] & cur for s in tau)
    xl, xh = _stencil_reach(0, M, n)
    empty = (np.full(1, M + 1), np.full(1, 0))

    def block(s0, s1, weighted):
        # positions read by the summand series over the node ranges s0..s1;
        # weighted blocks lie left of b - tau, where s + p stays on the grid
        ivs = [(xl[s0], xh[s1])]
        ivs.append((xl[np.maximum(s0, q) - q], xh[np.maximum(s1 - q, 0)])
                   if back else empty)
        ivs.append((xl[s0 + q], xh[s1 + q]) if fwd and weighted else empty)
        lo = np.stack([np.broadcast_to(a, s0.shape) for a, _ in ivs], axis=-1)
        hi = np.stack([np.broadcast_to(b, s0.shape) for _, b in ivs], axis=-1)
        if back:  # the history answers below a: no unknown is read
            hi[s1 < q, 1] = 0
        return lo, hi

    jn = grid.junction
    l1, h1 = _stencil_reach(0, jn, n)
    parts = [block(l1[sel1], h1[sel1], True)]
    if sel2.size:
        l2, h2 = _stencil_reach(jn, M, n)
        parts.append(block(l2[sel2], h2[sel2], False))
    parts = [(np.tile(lo, (m, 1)), np.tile(hi, (m, 1))) for lo, hi in parts]
    # n*m transversality rows at b, differentiated over the whole grid, and
    # (n-1)*m continuity rows x^(k)(a)
    tc = block(xl[-1:], xh[-1:], False)
    parts.append(tuple(np.repeat(a, n * m, axis=0) for a in tc))
    cont = (np.array([[xl[0], M + 1, M + 1]]), np.array([[xh[0], 0, 0]]))
    parts.append(tuple(np.repeat(a, (n - 1) * m, axis=0) for a in cont))
    lo, hi = (np.concatenate(a) for a in zip(*parts))
    # node 0 is pinned: unknowns are the nodes 1..M
    return np.maximum(lo, 1), np.minimum(hi, M)


def _expand_pattern(lo, hi, m, M):
    """(rows, columns) of every structurally non-zero Jacobian entry; an
    unknown is component j's position at node c, column j*M + c - 1."""
    count = np.maximum(hi - lo + 1, 0).ravel()
    rows = np.repeat(np.repeat(np.arange(lo.shape[0]), lo.shape[1]), count)
    first = np.repeat(lo.ravel() - np.cumsum(count) + count, count)
    nodes = first + np.arange(count.sum())
    cols = (np.arange(m)[:, np.newaxis] * M + nodes - 1).ravel()
    return np.tile(rows, m), cols


def _modular_coloring(lo, hi, m, M):
    """Color c mod P (and component) for the least period P such that no two
    same-colored columns share a row: a node difference d conflicts when some
    row reads one node in its interval a and the other in interval b, i.e.
    d lies in [lo_b - hi_a, hi_b - lo_a], and P must have no multiple there.
    Returns the color per unknown and the color count."""
    K = lo.shape[1]
    full = hi >= lo
    a, b = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
    both = full[:, a] & full[:, b]
    dlo = np.maximum(lo[:, b] - hi[:, a], 1)[both]
    dhi = np.minimum(hi[:, b] - lo[:, a], M - 1)[both]
    keep = dlo <= dhi
    mark = np.zeros(M + 1, dtype=np.int64)
    np.add.at(mark, dlo[keep], 1)
    np.add.at(mark, dhi[keep] + 1, -1)
    conflict = np.cumsum(mark) > 0  # indexed by the node difference d
    P = next(P for P in range(1, M + 1) if not conflict[P::P].any())
    nodes = np.arange(1, M + 1)
    color = (np.arange(m)[:, np.newaxis] * P + nodes % P).ravel()
    return color, m * P


def solve_extremal(p: pb.ProblemSpec, opts: SolveOptions | None = None,
                   guess: tr.StateTrajectory | None = None) -> SolveResult:
    """Damped Newton iteration on the discretized necessary conditions.

    Returns the best iterate with converged=False when the iteration budget
    runs out; raises SingularJacobian when the linearized system degenerates.
    """
    opts = opts or SolveOptions()
    opts.validate()
    t0 = time.perf_counter()
    grid = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=opts.M, h=opts.h)
    sys = _System(p, grid)

    if guess is not None:
        if guess.grid.M != grid.M:
            raise ValidationError("guess grid does not match the solve grid")
        U = sys.pack(guess.x[:, 0, :]).astype(float)
    else:
        U = sys.pack(sys.initial_positions()).astype(float)

    R = sys.residual(U)
    norm = _sup(R)
    lam = opts.damping
    log = [(0, norm, lam)]
    best_U, best_norm = U.copy(), norm

    for it in range(1, opts.max_iters + 1):
        if norm <= opts.tol_r:
            break
        J = sys.jacobian(U, R, opts.jacobian_fd_step)
        step = _newton_step(J, R)
        lam = opts.damping
        accepted = False
        while lam >= 1e-8:
            U_try = U + lam * step
            R_try = sys.residual(U_try)
            norm_try = _sup(R_try)
            if norm_try < norm:
                U, R, norm = U_try, R_try, norm_try
                accepted = True
                break
            lam *= 0.5
        log.append((it, norm, lam))
        if norm < best_norm:
            best_U, best_norm = U.copy(), norm
        if not accepted:
            break
        if lam * _sup(step) <= opts.tol_x * (1.0 + _sup(U)):
            break

    if best_norm < norm:
        U = best_U
    traj = tr.from_positions(p, grid, sys.unpack(U))
    traj = fn.simulate_z(p, traj)
    psi = fn.compute_psi(p, traj)
    mult = ml.compute_phi(p, traj, psi)
    report = cd.full_report(p, traj, mult)
    sup_ok = report.norms_unflagged
    converged = (sup_ok["el1"] <= opts.tol_r and sup_ok["el2"] <= opts.tol_r
                 and sup_ok["tc"] <= opts.tol_r)
    return SolveResult(trajectory=traj, multipliers=mult, report=report,
                       iterations=log, converged=converged,
                       elapsed=time.perf_counter() - t0)


def _sup(v):
    m = np.max(np.abs(v))
    return float(m) if np.isfinite(m) else float("inf")


def _newton_step(J, R):
    if not np.all(np.isfinite(J)):
        raise SingularJacobian(float("inf"))
    try:
        return np.linalg.solve(J, -R)
    except np.linalg.LinAlgError:
        raise SingularJacobian(_cond_estimate(J)) from None


def _cond_estimate(J):
    sv = np.linalg.svd(J, compute_uv=False)
    return float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
