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

The Newton matrix is a forward finite difference assembled from local
pieces as sparse COO triplets, one path for every Lagrangian.  With F(U, z,
psi) the condition map (the residual with z and psi held), each row of F
reads the positions of a few stencil-neighbouring nodes, plus the nodes one
delay away when a current-slot partial reads a delayed slot or the reverse,
and the z and psi values at its summands' nodes, plus one delay ahead in the
delayed-sum block.  So F_U, F_z and F_psi are assembled by Curtis-Powell-Reid
column coloring: the structural patterns are derived from the stencil reach
and the partials' free variables, columns that share no row get one color,
and one batched condition map per color replaces one per unknown.  One flag
sorts the Lagrangians: L is z-free when no slot partial reads z and dL/dz
reads neither z nor a slot.  Then F_z is zero and psi depends on t alone, so
the residual is assembled without marching z at all and the matrix is F_U.
Any other L takes z, g = dL/dz and w = log psi on the nodes as augmented
unknowns, as the state and the multiplier of the optimal-control view: their
rows are the linearized RK4 steps z_{i+1} = Phi_i(z_i; positions near i),
the g nodes and the panel recurrences of the integral psi = exp(integral_t^b
g), each local, so the matrix stays sparse.  Every iterate re-simulates z
and psi, so those rows have a zero right-hand side and the U part of the
step is the step of the condensed Jacobian, the matrix's Schur complement.
The matrix is factored by scipy's splu after its exact zeros are dropped;
without scipy the dense LU of the same matrix gives the columns of its
inverse that a step reads.

One residual builds the derivative series at U and L's arguments once.
The Jacobian reuses the last residual's build, z and psi at U, and the
build of its batched condition map for the step maps and dL/dz.

Each Newton matrix is factored once and the factor is kept: the next step
is a chord step with it, kept when it cuts the sup residual by the factor
_RHO.  Otherwise the matrix is built and factored at the current positions
and the line search halves the full Newton step until the residual falls;
after a damped step the factor is dropped.  The budget's last step is always
a Newton step, and once a chord step reaches tol_r one more chord step is
kept if it lowers the residual at all.  The damping, the contraction factor,
the step tolerance and the difference step are module constants.  The
returned trajectory keeps z, and the multipliers psi, from the last residual
at its positions.
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


_DAMPING = 1.0   # initial Newton damping: the full step, halved on failure
_TOL_X = 1e-12   # stop once a step moves U by less, relative to 1 + |U|
_FD_STEP = 1e-7  # relative forward-difference step of the Jacobian
_RHO = 0.5       # a chord step is kept when it cuts the sup residual by this


@dataclass(frozen=True)
class SolveOptions:
    M: int | None = None          # grid resolution; None = derive from h
    h: float | None = 1e-3
    max_iters: int = 25
    tol_r: float = 1e-6

    def validate(self):
        problems = []
        if not (np.isfinite(self.tol_r) and self.tol_r > 0):
            problems.append(f"tol_r must be positive and finite, got {self.tol_r!r}")
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            problems.append(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
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
    # (step, residual, damping) per step; a chord step logs damping 1
    iterations: list = field(default_factory=list)
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
        slots = set.union(*_slot_sets(p))
        partials = p.lagrangian.partials
        g_reads = ex.free_variables(partials["z"])
        self.z_free = not (g_reads & (slots | {"z"}) or any(
            "z" in ex.free_variables(partials[s]) for s in slots))
        self._last = self._built = None
        # position patterns: the condition rows and, for a z-coupled L, the
        # RK4 steps of z and the dL/dz nodes; one coloring serves all three
        lo, hi = _row_intervals(p, grid, self.sel1, self.sel2)
        self.pattern = _expand_pattern(lo, hi, m, M)
        parts = [(lo, hi)]
        if not self.z_free:
            parts += [_step_intervals(p, grid), _node_intervals(p, grid, g_reads)]
            self.step_pattern = _expand_pattern(*parts[1], m, M)
            self.g_pattern = _expand_pattern(*parts[2], m, M)
        self.color, self.n_colors = _modular_coloring(parts, m, M)
        if not self.z_free:
            lo, hi = _row_intervals(p, grid, self.sel1, self.sel2, nodes=True)
            self.node_pattern = _expand_pattern(lo, hi, 1, M, first=0)
            self.node_color, self.n_node_colors = _modular_coloring(
                [(lo, hi)], 1, M, first=0)
            self.panels = _panel_rows(M, grid.h)
        # the Newton matrix appends z, g = dL/dz and w = log psi on the nodes
        self.n_augmented = self.n_unknowns + (0 if self.z_free else 3 * (M + 1))

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

    def residual(self, U, z=None, psi=None):
        """R(U), batched over leading axes of U.  Given z and psi (node
        values, broadcast against the batch), they are held instead of
        simulated: that is the condition map F(U, z, psi)."""
        U = np.asarray(U, dtype=float)
        # the Jacobian reads the build of its batched condition map here
        x, args = self._built = self._series(U)
        if z is None:
            z, psi = self._simulate(x, args)
            if U.ndim == 1:  # the Jacobian at U reuses all of them
                self._last = (U.copy(), x, args, z, psi)
        terms = ml.weighted_terms(self.p, self.grid, args, z, psi, range(self.p.n + 1))
        if self.z_free:  # read by no Jacobian: dropped before the block sums' peak
            self._built = args = None
        return self._conditions(x, terms)

    def _series(self, U):
        """The derivative series x at U and its node arguments, built once."""
        x = tr.build_series(self.unpack(U), self.grid.h, self.p.n)
        return x, fn.slot_args(self.p, self.grid, x)

    def _state(self, U):
        """x, its node arguments, z and psi at one U, as a residual there left them."""
        if self._last is None or not np.array_equal(self._last[0], U):
            x, args = self._series(U)
            self._last = (U.copy(), x, args, *self._simulate(x, args))
        return self._last[1:]

    def _simulate(self, x, args):
        """z and psi along x; a z-free L's psi and summands ignore z."""
        p, grid = self.p, self.grid
        z = np.zeros(grid.M + 1) if self.z_free else fn.rk4_z(p, grid, x, args)
        return z, fn.psi_values(p, grid, args, z)

    def _conditions(self, x, terms):
        """The condition rows at the series x from its ``ml.weighted_terms``
        of the orders 0..n; the batch is that of both."""
        p = self.p
        el1, el2 = cd.el_blocks(self.grid, terms)
        tc = cd.transversality_values(self.grid, terms)
        batch = el1.shape[:-2]
        parts = [el1[..., self.sel1].reshape(batch + (-1,))]
        if self.sel2.size:
            parts.append(el2[..., self.sel2].reshape(batch + (-1,)))
        parts.append(tc.reshape(batch + (-1,)))
        if p.n > 1:
            cont = x[..., :, 1:p.n, 0] - self.mu_at_a
            parts.append(np.broadcast_to(cont, batch + cont.shape[-2:])
                         .reshape(batch + (-1,)))
        return np.concatenate(parts, axis=-1)

    def jacobian(self, U, R0):
        """Forward-difference Newton matrix at U, where R0 = R(U), as COO
        triplets (rows, cols, vals) of a square matrix of side n_augmented.

        For a z-free L it is F_U.  Any other L appends the unknowns z, g =
        dL/dz and w = log psi on the nodes 0..M, in that order, with the rows
        dz_0 = 0, dz_{i+1} - a_i dz_i - C_i dU = 0 (the RK4 steps),
        dg_i - G_z,i dz_i - G_U,i dU = 0 (the g nodes) and the panel
        recurrences of ``fn.integral_to_b``; the condition rows become
        F_U dU + F_z dz + (F_psi psi) dw.  Every block is a colored
        difference of F, of the step maps or of dL/dz, the other inputs
        held."""
        p, grid = self.p, self.grid
        x, args, z, psi = self._state(U)
        nu = U.shape[0]
        deltas = _FD_STEP * (1.0 + np.abs(U))
        Ub = np.repeat(U[np.newaxis, :], self.n_colors, axis=0)
        Ub[self.color, np.arange(nu)] += deltas
        Rb = self.residual(Ub, z, psi)
        blocks = [(*self.pattern, _diff(self.pattern, self.color, Rb, R0, deltas))]
        if self.z_free:
            return _stack(blocks)
        # released here, so that the linear solve does not hold the batch
        (xb, argsb), self._built = self._built, None
        dz = _FD_STEP * (1.0 + np.abs(z))
        F_z, F_psi = self._node_derivatives(x, args, z, psi, R0, dz)
        stage = fn.stage_args(p, grid, x, args)
        phi0 = fn.rk4_steps(p, stage, z)
        a = (fn.rk4_steps(p, stage, z + dz) - phi0) / dz[:-1]
        C = _diff(self.step_pattern, self.color,
                  fn.rk4_steps(p, fn.stage_args(p, grid, xb, argsb), z), phi0, deltas)
        g0 = fn.eval_args(p, args, z, "z")
        G_z = (fn.eval_args(p, args, z + dz, "z") - g0) / dz
        G_U = _diff(self.g_pattern, self.color, fn.eval_args(p, argsb, z, "z"),
                    g0, deltas)
        Z, G, W = nu + np.arange(3 * (grid.M + 1)).reshape(3, -1)
        one = np.ones(grid.M + 1)
        nr, nc = self.node_pattern
        sr, sc = self.step_pattern
        gr, gc = self.g_pattern
        pr, pc, pv = self.panels
        blocks += [(nr, Z[nc], F_z), (nr, W[nc], F_psi * psi[nc]),
                   (Z, Z, one), (Z[1:], Z[:-1], -a), (Z[1:][sr], sc, -C),
                   (G, G, one), (G, Z, -G_z), (G[gr], gc, -G_U),
                   (W[pr], G[0] + pc, pv)]
        return _stack(blocks)

    def _node_derivatives(self, x, args, z, psi, R0, dz):
        """F_z and F_psi on the node pattern, from one batched condition map
        at x that perturbs the z (by dz) or the psi values of one node color
        at a time."""
        K, color = self.n_node_colors, self.node_color
        nodes = np.arange(self.grid.M + 1)
        dpsi = _FD_STEP * (1.0 + np.abs(psi))
        Zb = np.repeat(z[np.newaxis, :], 2 * K, axis=0)
        Pb = np.repeat(psi[np.newaxis, :], 2 * K, axis=0)
        Zb[color, nodes] += dz
        Pb[K + color, nodes] += dpsi
        Fb = self._conditions(x, ml.weighted_terms(self.p, self.grid, args, Zb, Pb,
                                                   range(self.p.n + 1)))
        pattern = self.node_pattern
        return (_diff(pattern, color, Fb, R0, dz),
                _diff(pattern, K + color, Fb, R0, dpsi))


def _diff(pattern, color, Fb, F0, deltas):
    """The colored forward differences (Fb[color] - F0) / delta on the
    structural pattern (rows, columns); no two columns of one color share a
    row."""
    rows, cols = pattern
    return (Fb[color[cols], rows] - F0[rows]) / deltas[cols]


def _stack(blocks):
    """One (rows, cols, vals) triplet from blocks of them."""
    return tuple(np.concatenate(a) for a in zip(*blocks))


def _panel_rows(M, h):
    """The rows whose solution w is ``fn.integral_to_b(g, h)``: w_M = 0, and
    from each node i < M one panel to the right, the trapezoid
    w_i - w_{i+1} - h/2 (g_i + g_{i+1}) when M - i is odd, else the Simpson
    panel w_i - w_{i+2} - h/3 (g_i + 4 g_{i+1} + g_{i+2}).  Triplets with g
    in columns 0..M and w in columns M+1..2M+1."""
    i = np.arange(M)
    t, s = i[(M - i) % 2 == 1], i[(M - i) % 2 == 0]
    w = M + 1
    parts = [(np.arange(M + 1), w + np.arange(M + 1), 1.0),
             (t, w + t + 1, -1.0), (t, t, -h / 2), (t, t + 1, -h / 2),
             (s, w + s + 2, -1.0), (s, s, -h / 3), (s, s + 1, -4 * h / 3),
             (s, s + 2, -h / 3)]
    rows, cols, vals = zip(*parts)
    return (np.concatenate(rows), np.concatenate(cols),
            np.repeat(vals, [r.size for r in rows]))


# ---------------------------------------------------------------------------
# structural Jacobian patterns and their coloring

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


def _slot_sets(p):
    """The current and the delayed slot names of L."""
    js, ks = range(1, p.m + 1), range(p.n + 1)
    return ({pb.slot_name(j, k) for j in js for k in ks},
            {pb.delayed_slot_name(j, k) for j in js for k in ks})


def _reads_delayed(p):
    return bool(ex.free_variables(p.lagrangian.body) & _slot_sets(p)[1])


def _row_intervals(p, grid, sel1, sel2, nodes=False):
    """Position nodes each residual row can read, as up to three intervals
    per row (columns 0..2 of ``lo``/``hi``; empty where lo > hi), in the row
    order of ``_System.residual``; every component of a node shares them.

    A summand series at node s reads the derivative series at s (current
    slots); at s - p when a current-slot partial reads a delayed slot; at
    s + p when a delayed-slot partial reads a current slot, through the
    shifted delayed term psi(t + tau) dL/dx_tau(t + tau).  Each block takes
    up to n stencil passes of those series, which take up to n passes of the
    positions.

    With ``nodes`` the intervals are those of the z and psi node values
    (nodes 0..M) instead: the identity reach replaces the position stencil
    reach, a summand at s reads them at s and, in the weighted block when L
    reads a delayed slot, at s + p; the continuity rows read none."""
    cur, tau = _slot_sets(p)
    n, m, M, q = p.n, p.m, grid.M, grid.p
    if nodes:
        back = False
        fwd = q > 0 and _reads_delayed(p)
        xl = xh = np.arange(M + 1)
    else:
        reads = {s: ex.free_variables(p.lagrangian.partials[s])
                 for s in cur | tau}
        back = q > 0 and any(reads[s] & tau for s in cur)
        fwd = q > 0 and any(reads[s] & cur for s in tau)
        xl, xh = _stencil_reach(0, M, n)
    empty = (np.full(1, M + 1), np.full(1, -1))

    def block(s0, s1, weighted):
        # input nodes read by the summand series over the node ranges s0..s1;
        # weighted blocks lie left of b - tau, where s + p stays on the grid
        ivs = [(xl[s0], xh[s1])]
        ivs.append((xl[np.maximum(s0, q) - q], xh[np.maximum(s1 - q, 0)])
                   if back else empty)
        ivs.append((xl[s0 + q], xh[s1 + q]) if fwd and weighted else empty)
        lo = np.stack([np.broadcast_to(a, s0.shape) for a, _ in ivs], axis=-1)
        hi = np.stack([np.broadcast_to(b, s0.shape) for _, b in ivs], axis=-1)
        if back:  # the history answers below a: no unknown is read
            hi[s1 < q, 1] = -1
        return lo, hi

    jn = grid.junction
    l1, h1 = _stencil_reach(0, jn, n)
    parts = [block(l1[sel1], h1[sel1], True)]
    if sel2.size:
        l2, h2 = _stencil_reach(jn, M, n)
        parts.append(block(l2[sel2], h2[sel2], False))
    parts = [(np.tile(lo, (m, 1)), np.tile(hi, (m, 1))) for lo, hi in parts]
    # n*m transversality rows at b, differentiated on [b - tau, b] (on the
    # whole grid at tau = 0), within the whole-grid reach taken here, and
    # (n-1)*m continuity rows x^(k)(a)
    sl, sh = _stencil_reach(0, M, n)
    tc = block(sl[-1:], sh[-1:], False)
    parts.append(tuple(np.repeat(a, n * m, axis=0) for a in tc))
    cont = ((np.array([[M + 1] * 3]), np.array([[-1] * 3])) if nodes else
            (np.array([[xl[0], M + 1, M + 1]]), np.array([[xh[0], -1, -1]])))
    parts.append(tuple(np.repeat(a, (n - 1) * m, axis=0) for a in cont))
    lo, hi = (np.concatenate(a) for a in zip(*parts))
    # positions: node 0 is pinned, the unknowns are the nodes 1..M
    return np.maximum(lo, 0 if nodes else 1), np.minimum(hi, M)


def _step_intervals(p, grid):
    """Position nodes RK4 step i (z_i to z_{i+1}) reads, i = 0..M-1, as two
    intervals per step.  It reads the derivative series at i and i + 1 and
    at the Hermite midpoint, whose top order takes i-1..i+2 (0..3 and
    M-3..M at the ends); when L reads a delayed slot, the same at i - p,
    where step p - 1 reads node 0 only and earlier steps the history."""
    M, q = grid.M, grid.p
    xl, xh = _stencil_reach(0, M, p.n)
    i = np.arange(M)
    s0 = np.minimum(np.maximum(i - 1, 0), M - 3)
    s1 = np.maximum(np.minimum(i + 2, M), 3)
    lo = np.full((M, 2), M + 1)
    hi = np.full((M, 2), -1)
    lo[:, 0], hi[:, 0] = xl[s0], xh[s1]
    if q > 0 and _reads_delayed(p):
        d = i[q:] - q
        lo[q:, 1], hi[q:, 1] = xl[s0[d]], xh[s1[d]]
        lo[q - 1, 1], hi[q - 1, 1] = xl[0], xh[0]
    return np.maximum(lo, 1), np.minimum(hi, M)


def _node_intervals(p, grid, g_reads):
    """Position nodes dL/dz at node i = 0..M reads, as two intervals per
    node: the derivative series at i and, when it reads a delayed slot, at
    i - p (the history below a)."""
    cur, tau = _slot_sets(p)
    M, q = grid.M, grid.p
    xl, xh = _stencil_reach(0, M, p.n)
    lo = np.full((M + 1, 2), M + 1)
    hi = np.full((M + 1, 2), -1)
    if g_reads & cur:
        lo[:, 0], hi[:, 0] = xl, xh
    if g_reads & tau:
        lo[q:, 1], hi[q:, 1] = xl[:M + 1 - q], xh[:M + 1 - q]
    return np.maximum(lo, 1), np.minimum(hi, M)


def _expand_pattern(lo, hi, m, M, first=1):
    """(rows, columns) of every structurally non-zero entry, each once and
    sorted by row, then column; column j*N + c - first is component j at
    node c, with N = M + 1 - first nodes first..M per component."""
    N = M + 1 - first
    count = np.maximum(hi - lo + 1, 0).ravel()
    rows = np.repeat(np.repeat(np.arange(lo.shape[0]), lo.shape[1]), count)
    start = np.repeat(lo.ravel() - np.cumsum(count) + count, count)
    nodes = start + np.arange(count.sum()) - first
    flat = np.sort(rows * m * N + (np.arange(m)[:, np.newaxis] * N + nodes),
                   axis=None)
    return np.divmod(flat[np.diff(flat, prepend=-1) != 0], m * N)


def _modular_coloring(parts, m, M, first=1):
    """Color c mod P (and component) for the least period P such that no two
    same-colored columns share a row of any of the ``parts``, each a (lo, hi)
    pair of row intervals: a node difference d conflicts when some row reads
    one node in its interval a and the other in interval b, i.e. d lies in
    [lo_b - hi_a, hi_b - lo_a], and P must have no multiple there.  Returns
    the color per column (nodes first..M per component) and the color
    count."""
    N = M + 1 - first
    mark = np.zeros(N + 1, dtype=np.int64)
    for lo, hi in parts:
        K = lo.shape[1]
        full = hi >= lo
        a, b = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
        both = full[:, a] & full[:, b]
        dlo = np.maximum(lo[:, b] - hi[:, a], 1)[both]
        dhi = np.minimum(hi[:, b] - lo[:, a], N - 1)[both]
        keep = dlo <= dhi
        np.add.at(mark, dlo[keep], 1)
        np.add.at(mark, dhi[keep] + 1, -1)
    conflict = np.cumsum(mark) > 0  # indexed by the node difference d
    P = next(P for P in range(1, N + 1) if not conflict[P::P].any())
    nodes = np.arange(first, M + 1)
    color = (np.arange(m)[:, np.newaxis] * P + nodes % P).ravel()
    return color, m * P


def solve_extremal(p: pb.ProblemSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Damped Newton iteration, with chord steps on a kept factor, on the
    discretized necessary conditions.

    Returns the last iterate, the best one since every step is kept only
    when it lowers the residual, with converged=False when the iteration
    budget runs out; raises SingularJacobian when the linearized system
    degenerates.
    """
    opts = opts or SolveOptions()
    opts.validate()
    t0 = time.perf_counter()
    grid = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=opts.M, h=opts.h)
    sys = _System(p, grid)
    U = sys.pack(sys.initial_positions()).astype(float)
    R = sys.residual(U)
    norm = _sup(R)
    log = [(0, norm, _DAMPING)]

    def trial(U_try):
        R_try = sys.residual(U_try)
        return U_try, R_try, _sup(R_try)

    solve = None  # the kept factor, reused by chord steps while R contracts
    it = 0
    while it < opts.max_iters and norm > opts.tol_r:
        it += 1
        # a chord step: the kept factor applied to R, never the budget's last
        if solve is not None and it < opts.max_iters:
            step = solve(R)
            U_try, R_try, norm_try = trial(U + step)
            if norm_try <= _RHO * norm:
                U, R, norm = U_try, R_try, norm_try
                log.append((it, norm, 1.0))
                if norm <= opts.tol_r and it + 1 < opts.max_iters:
                    # chord steps converge linearly and stop just under
                    # tol_r: one more, kept if it lowers R at all
                    U_try, R_try, norm_try = trial(U + solve(R))
                    if norm_try < norm:
                        it += 1
                        U, R, norm = U_try, R_try, norm_try
                        log.append((it, norm, 1.0))
                elif _sup(step) <= _TOL_X * (1.0 + _sup(U)):
                    break
                continue
        solve = None  # dropped before the next matrix is built
        solve = _factor(sys.jacobian(U, R), sys.n_augmented, R.size)
        step = solve(R)
        lam = _DAMPING
        accepted = False
        while lam >= 1e-8:
            U_try, R_try, norm_try = trial(U + lam * step)
            if norm_try < norm:
                U, R, norm = U_try, R_try, norm_try
                accepted = True
                break
            lam *= 0.5
        log.append((it, norm, lam))
        if not accepted:
            break
        if lam < _DAMPING:  # a damped step: the matrix is refactored next
            solve = None
        if lam * _sup(step) <= _TOL_X * (1.0 + _sup(U)):
            break

    # z and psi as the last residual at U had them; a z-free residual holds
    # z = 0, but its psi reads t alone
    _, _, z, psi = sys._state(U)
    traj = fn.simulate_z(p, tr.from_positions(p, grid, sys.unpack(U)),
                         None if sys.z_free else z)
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


def _factor(J, size, n):
    """The Newton matrix J, COO triplets of a size x size matrix, factored
    once: returns solve(R), the first n entries of the solution d of
    J d = [-R, 0, ...] for an R of n entries.  Its exact zeros are dropped
    and it is factored by scipy's splu (COLAMD ordering).  numpy has no
    reusable LU, so without scipy the dense LU of the same matrix gives once
    the n columns of J^-1 that such a right-hand side reaches, and each solve
    is a product with their first n rows."""
    rows, cols, vals = J
    if not np.all(np.isfinite(vals)):
        raise SingularJacobian()
    nz = vals != 0.0
    rows, cols, vals = rows[nz], cols[nz], vals[nz]
    try:
        try:  # imported here: a module-level import would cost every command
            from scipy.sparse.linalg import splu
            from scipy.sparse import csc_array
        except ImportError:  # numpy only: the dense LU of the same matrix
            A = np.bincount(rows * size + cols, vals, size * size).reshape(size, size)
            inv = np.linalg.solve(A, np.eye(size, n))[:n].copy()
            return lambda R: -(inv @ R)
        lu = splu(csc_array((vals, (rows, cols)), shape=(size, size)))
    except (RuntimeError, np.linalg.LinAlgError):  # an exactly singular factor
        raise SingularJacobian() from None
    rhs = np.zeros(size)

    def solve(R):
        rhs[:n] = -R
        return lu.solve(rhs)[:n]

    return solve
