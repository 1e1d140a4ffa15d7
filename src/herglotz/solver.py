"""Compute extremals: find position samples x(t_i) such that the discretized
Euler-Lagrange equations and transversality conditions hold, with z and psi
re-simulated from scratch for every candidate.

Unknowns are the positions at nodes 1..M (node 0 is pinned to the history
value); all derivative series come from the differentiation stencils, so the
derivative-consistency invariants hold by construction.  The residual vector
stacks one Euler-Lagrange equation per interior node (the delayed-sum block
el1 left of b - tau, the current-only block el2 from there on), the n
transversality values tc, and the continuity constraints cont, x^(k)(a) =
mu^(k)(a) for k = 1..n-1, which makes the system square.  The row blocks
are declared once, as data in ``_System`` (row count, value and reach); the
residual's order, its length and the condition rows' patterns are derived
from them.  Junction and end zones stay in the root system but are
excluded from the acceptance sup-norms of the final report.

The Newton matrix is a finite difference assembled from local pieces as
sparse COO triplets, one path for every Lagrangian.  With F(U, z,
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
Any other L has two matrices.  The held matrix is F_U alone, z and psi held
while the positions move, as a forward-backward sweep of optimal control
holds the state and its multiplier: it has the side, the pattern and the
coloring of a z-free L's matrix.  The augmented matrix takes z, g = dL/dz
and w = log psi on the nodes as augmented unknowns: their rows are the
linearized RK4 steps z_{i+1} = Phi_i(z_i; positions near i), the g nodes
and the panel recurrences of the integral psi = exp(integral_t^b g), each
local, so the matrix stays sparse.  Every iterate re-simulates z and psi, so
those rows have a zero right-hand side and the U part of the step is the
step of the condensed Jacobian, the matrix's Schur complement, whose
structure is built with the first augmented matrix.  Its step maps' z
derivative is exact; their U derivative is a central difference, as their
second derivative in U grows like 1/h.  A matrix is factored after its
exact zeros are dropped: F_U by LAPACK's band LU (scipy's dgbtrf) in the
order of its rows and columns with the smaller band, node order or, at
tau > 0, the folded method-of-steps order, in which F_U's band does not grow
with M; the augmented matrix by scipy's splu.  Without scipy the dense LU of
the same matrix gives the columns of its inverse that a step reads.

One residual builds the derivative series at U, L's arguments and the block
sums once and returns that build, with z and psi, next to R.  The iteration
keeps it with the iterate: the Jacobian reads the kept iterate's build and
that of its batched condition map for the step maps and dL/dz, and no trial
puts anything back.  The returned trajectory, costates and report read the
last iterate's build, its block sums the trajectory's one adjoint pass.

Each matrix is factored once and the factor is kept: the next step is a
chord step with it, kept when it cuts the sup residual by the factor _RHO.
A z-coupled solve starts on the held matrix, whose steps are chord steps
only; its first rejected step, a singular held matrix or the budget's last
step hands the solve to the augmented matrix for good.  Otherwise the
Newton matrix (the augmented one for a z-coupled L) is built and factored
at the current positions and the line search halves the full Newton step
until the residual falls; after a damped step the factor is dropped.  The
budget's last step is always a Newton step, and once a chord step reaches
tol_r one more chord step is kept if it lowers the residual at all.  No
matrix is built before a step needs one, so a start under tol_r factors
nothing.  The damping, the contraction factor, the step tolerance and the
difference step are module constants.
"""

import functools
import time
from typing import NamedTuple

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
_FD_STEP = 1e-7  # relative difference step of the Jacobian
_RHO = 0.5       # a chord step is kept when it cuts the sup residual by this


class SolveOptions(NamedTuple):
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


class SolveResult(NamedTuple):
    trajectory: tr.StateTrajectory
    multipliers: ml.MultiplierSet
    report: cd.ResidualReport
    # (step, residual, damping) per step; a chord step logs damping 1
    iterations: tuple = ()
    converged: bool = False
    elapsed: float = 0.0


class _RowBlock(NamedTuple):
    """A block of condition rows: ``copies`` rows per output node in
    ``nodes``, the copies outermost in the row order.  Its summands are
    differentiated on the node range ``span``; a block without a span reads
    the derivative series at its nodes and no summand.  A ``weighted``
    block's summands add the delayed sum psi(t + tau) dL/dx_tau(t + tau).
    ``value(x, (el1, el2), tc)`` gives its rows, last two axes in row order."""
    name: str
    nodes: np.ndarray
    copies: int
    span: tuple | None
    weighted: bool
    value: object


class _Augmented(NamedTuple):
    """The structure of the augmented Newton matrix: the joint coloring of
    the position columns over the condition rows, the RK4 steps of z and the
    dL/dz nodes; the step and g patterns; the node pattern of the z and psi
    columns of the condition rows and its coloring; the panel rows of w."""
    color: np.ndarray
    n_colors: int
    step_pattern: tuple
    g_pattern: tuple
    node_pattern: tuple
    node_color: np.ndarray
    n_node_colors: int
    panels: tuple


class _System:
    """Residual map R(U) for one problem on one grid, with batch support."""

    def __init__(self, p, grid):
        self.p = p
        self.grid = grid
        n, m, M, q, jn = p.n, p.m, grid.M, grid.p, grid.junction
        self.pinned = np.array([[pb.history_derivative(p, j_, 0, p.a)]
                                for j_ in range(1, m + 1)])
        self.mu_at_a = np.array([[pb.history_derivative(p, j_, k, p.a)
                                  for k in range(1, n)]
                                 for j_ in range(1, m + 1)])  # (m, n-1)
        # The condition rows, block by block in the residual's order.  Every
        # interior node has one Euler-Lagrange equation, the delayed-sum one
        # left of the junction and the current-only one from it on: dropping
        # the junction-zone rows leaves a few unknowns unconstrained and the
        # Newton step parks a parasitic wiggle there, so the zone is only
        # excluded from the acceptance sup-norms.  The transversality rows,
        # differentiated on [b - tau, b] (the whole grid at tau = 0), are
        # declared with the whole-grid reach.
        e1 = np.arange(n, jn if q else M - n + 1)
        e2 = np.arange(jn, M - n + 1)  # empty at tau = 0
        if q and not (e1.size and e2.size):
            raise ValidationError(
                "grid too coarse for the delay: the Euler-Lagrange blocks "
                "have no interior nodes")
        mu = self.mu_at_a
        self.row_blocks = [b for b in (
            _RowBlock("el1", e1, m, (0, jn), True, lambda x, el, tc: el[0][..., e1]),
            _RowBlock("el2", e2, m, (jn, M), False,
                      lambda x, el, tc: el[1][..., e2 - jn]),
            _RowBlock("tc", np.array([M]), n * m, (0, M), False, lambda x, el, tc: tc),
            _RowBlock("cont", np.array([0]), (n - 1) * m, None, False,
                      lambda x, el, tc: x[..., :, 1:n, 0] - mu),
        ) if b.copies * b.nodes.size]
        self.n_res = sum(b.copies * b.nodes.size for b in self.row_blocks)
        self.n_unknowns = m * M
        assert self.n_res == self.n_unknowns  # square by construction
        cur, tau = map(set, pb.slot_names(n, m))
        partials = p.lagrangian.partials
        reads = {s: ex.free_variables(partials[s]) for s in cur | tau}
        g_reads = ex.free_variables(partials["z"])
        self.z_free = not (g_reads & (cur | tau | {"z"})
                           or any("z" in reads[s] for s in cur | tau))
        # the condition rows' position pattern and its coloring: a summand at
        # s reads the series at s, at s - p when a current-slot partial reads
        # a delayed slot, and in the delayed sum at s + p when a delayed-slot
        # partial reads a current slot
        back = -q if any(reads[s] & tau for s in cur) else None
        ahead = q if any(reads[s] & cur for s in tau) else None
        self.rows_read = _row_intervals(
            self.row_blocks, n, _stencil_reach(0, M, n), 1, M,
            lambda b: (0, back, ahead if b.weighted else None))
        self.pattern = _expand_pattern(*self.rows_read, m, M)
        self.color, self.n_colors = _modular_coloring([self.rows_read], m, M)
        # F_U's band order: rows and columns sorted by their node in node
        # order, or at tau > 0 in the folded method-of-steps order, node c at
        # position s = c mod p of interval c div p, the positions folded as
        # 0, p-1, 1, p-2, ... and the intervals interleaved at each; the
        # smaller band wins
        nodes = (np.concatenate([np.tile(b.nodes, b.copies) for b in self.row_blocks]),
                 np.tile(np.arange(1, M + 1), m))
        orders = [nodes]
        if q:
            orders.append([np.minimum(2 * (c % q), 2 * (q - 1 - c % q) + 1)
                           * (M // q + 1) + c // q for c in nodes])
        self.band = min((_band_order(self.pattern, *keys) for keys in orders),
                        key=lambda b: b.kl + b.ku)
        # the Newton matrix appends z, g = dL/dz and w = log psi on the nodes
        self.n_augmented = self.n_unknowns + (0 if self.z_free else 3 * (M + 1))

    @functools.cached_property
    def augmented(self):
        """The structure of a z-coupled L's augmented Newton matrix, built
        with its first matrix: the step and g patterns, the node pattern,
        their colorings and the panel rows."""
        p, grid = self.p, self.grid
        n, m, M, q = p.n, p.m, grid.M, grid.p
        cur, tau = map(set, pb.slot_names(n, m))
        g_reads = ex.free_variables(p.lagrangian.partials["z"])
        delayed = bool(ex.free_variables(p.lagrangian.body) & tau)
        # the RK4 steps of z and the dL/dz nodes, one coloring with the
        # condition rows; dL/dz at node i reads the series at i (current
        # slots) and at i - p (delayed slots)
        reach = _stencil_reach(0, M, n)
        nodes = np.arange(M + 1)
        g_back = _reach(nodes, nodes, -q, *reach)
        steps = _step_intervals(grid, reach, delayed)
        g = _intervals([reach if g_reads & cur else None,
                        g_back if g_reads & tau else None], M + 1, 1, M)
        color, n_colors = _modular_coloring([self.rows_read, steps, g], m, M)
        # z and psi: a summand at s reads them at s and, in the delayed sum,
        # at s + p; rows without summands read none
        lo, hi = _row_intervals(
            self.row_blocks, n, (nodes, nodes), 0, M,
            lambda b: (None if b.span is None else 0,
                       q if delayed and b.weighted else None))
        node_color, n_node_colors = _modular_coloring([(lo, hi)], 1, M, first=0)
        return _Augmented(color, n_colors, _expand_pattern(*steps, m, M),
                          _expand_pattern(*g, m, M),
                          _expand_pattern(lo, hi, 1, M, first=0), node_color,
                          n_node_colors, _panel_rows(M, grid.h))

    def initial_positions(self):
        """Taylor extension of the history from a, its coefficients the
        history's derivatives at a held in ``pinned`` and ``mu_at_a``."""
        t = self.grid.nodes() - self.grid.a
        mu = np.concatenate([self.pinned, self.mu_at_a], axis=1)  # (m, n)
        pos = np.zeros((self.p.m, self.grid.M + 1))
        fact = 1.0
        for k in range(self.p.n):
            if k:
                fact *= k
            pos += mu[:, k:k + 1] * t ** k / fact
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
        """R(U), batched over leading axes of U, and the build it read: the
        derivative series x at U, its node arguments, z, psi and their block
        sums.  Given z and psi (node values, broadcast against the batch),
        they are held instead of simulated: the condition map F(U, z, psi)."""
        p, grid = self.p, self.grid
        x = tr.build_series(self.unpack(np.asarray(U, dtype=float)), grid.h, p.n)
        args = fn.slot_args(p, grid, x)
        if z is None:  # a z-free L's psi and summands ignore z
            z = np.zeros(grid.M + 1) if self.z_free else fn.rk4_z(p, grid, x, args)
            psi = fn.psi_values(p, grid, args, z)
        sums = ml.block_sums(p, grid, args, z, psi)
        return self._conditions(x, sums), (x, args, z, psi, sums)

    def _conditions(self, x, sums):
        """The condition rows at the series x, block by block from its
        ``ml.block_sums``; the batch is that of both."""
        el = cd.el_blocks(sums)
        tc = cd.transversality_values(sums)
        batch = el[0].shape[:-2]
        rows = [b.value(x, el, tc) for b in self.row_blocks]
        return np.concatenate([np.broadcast_to(v, batch + v.shape[-2:])
                               .reshape(batch + (-1,)) for v in rows], axis=-1)

    def jacobian(self, U, R0, build, held):
        """Forward-difference Newton matrix at U, where R0 and ``build`` are
        R(U) and the build it read, as COO triplets (rows, cols, vals).

        For a z-free L, or ``held``, it is F_U, side n_unknowns: the
        condition map's derivative in the positions with z and psi held,
        colored by the condition rows alone.  Otherwise it is the augmented
        matrix of side n_augmented, which appends the unknowns z, g = dL/dz
        and w = log psi on the nodes 0..M, in that order, with the rows
        dz_0 = 0, dz_{i+1} - a_i dz_i - C_i dU = 0 (the RK4 steps),
        dg_i - G_z,i dz_i - G_U,i dU = 0 (the g nodes) and the panel
        recurrences of ``fn.integral_to_b``; the condition rows become
        F_U dU + F_z dz + (F_psi psi) dw.  a_i is exact, 1 + delta_i of
        ``fn.step_maps``; every other block is a colored difference of F,
        of the step maps or of dL/dz, the other inputs held; the step maps
        C take a central one, since their second derivative in U grows like
        1/h."""
        p, grid = self.p, self.grid
        x, args, z, psi, _ = build
        deltas = _FD_STEP * (1.0 + np.abs(U))
        if held or self.z_free:
            Rb, _ = self.residual(_colored(U, deltas, self.color, self.n_colors),
                                  z, psi)
            return (*self.pattern, _diff(self.pattern, self.color, Rb, R0, deltas))
        s = self.augmented
        Rb, (xb, argsb, *_) = self.residual(_colored(U, deltas, s.color, s.n_colors),
                                            z, psi)
        xm = tr.build_series(self.unpack(_colored(U, -deltas, s.color, s.n_colors)),
                             grid.h, p.n)
        dz = _FD_STEP * (1.0 + np.abs(z))
        F_z, F_psi = self._node_derivatives(x, args, z, psi, R0, dz)
        stage = fn.stage_args(p, grid, x, args)
        _, delta = fn.step_maps(p.lagrangian.compiled("body"), p.lagrangian.compiled("z"),
                                stage, z[:-1])
        sr, sc = s.step_pattern
        C = ((fn.rk4_steps(p, fn.stage_args(p, grid, xb, argsb), z)
              - fn.rk4_steps(p, fn.stage_args(p, grid, xm, fn.slot_args(p, grid, xm)),
                             z))[s.color[sc], sr] / (2.0 * deltas[sc]))
        g0 = fn.eval_args(p, args, z, "z")
        G_z = (fn.eval_args(p, args, z + dz, "z") - g0) / dz
        G_U = _diff(s.g_pattern, s.color, fn.eval_args(p, argsb, z, "z"), g0, deltas)
        Z, G, W = U.shape[0] + np.arange(3 * (grid.M + 1)).reshape(3, -1)
        one = np.ones(grid.M + 1)
        nr, nc = s.node_pattern
        gr, gc = s.g_pattern
        pr, pc, pv = s.panels
        return _stack([(*self.pattern, _diff(self.pattern, s.color, Rb, R0, deltas)),
                       (nr, Z[nc], F_z), (nr, W[nc], F_psi * psi[nc]),
                       (Z, Z, one), (Z[1:], Z[:-1], -1.0 - delta), (Z[1:][sr], sc, -C),
                       (G, G, one), (G, Z, -G_z), (G[gr], gc, -G_U),
                       (W[pr], G[0] + pc, pv)])

    def _node_derivatives(self, x, args, z, psi, R0, dz):
        """F_z and F_psi on the node pattern, from one batched condition map
        at x that perturbs the z (by dz) or the psi values of one node color
        at a time."""
        s = self.augmented
        K, color = s.n_node_colors, s.node_color
        nodes = np.arange(self.grid.M + 1)
        dpsi = _FD_STEP * (1.0 + np.abs(psi))
        Zb = np.repeat(z[np.newaxis, :], 2 * K, axis=0)
        Pb = np.repeat(psi[np.newaxis, :], 2 * K, axis=0)
        Zb[color, nodes] += dz
        Pb[K + color, nodes] += dpsi
        Fb = self._conditions(x, ml.block_sums(self.p, self.grid, args, Zb, Pb))
        return (_diff(s.node_pattern, color, Fb, R0, dz),
                _diff(s.node_pattern, K + color, Fb, R0, dpsi))


def _colored(U, deltas, color, n_colors):
    """One copy of U per color, each with the columns of its color moved by
    their deltas."""
    Ub = np.repeat(U[np.newaxis, :], n_colors, axis=0)
    Ub[color, np.arange(U.shape[0])] += deltas
    return Ub


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
    from each node i < M one panel to the right, the 3-point rule
    w_i - w_{i+1} - h/12 (-g_{i-1} + 8 g_i + 5 g_{i+1}) when M - i is odd
    (5 g_0 + 8 g_1 - g_2 at i = 0), else the Simpson panel
    w_i - w_{i+2} - h/3 (g_i + 4 g_{i+1} + g_{i+2}).  Rows i and i - 1 read
    the same g nodes, which keeps the factor's fill near the trapezoid's.
    Triplets with g in columns 0..M and w in columns M+1..2M+1."""
    i = np.arange(M)
    t, s = i[(M - i) % 2 == 1], i[(M - i) % 2 == 0]
    c = np.maximum(t - 1, 0)
    back = c < t  # the parabola through g_{i-1}, g_i, g_{i+1}
    w = M + 1
    parts = [(np.arange(M + 1), w + np.arange(M + 1), 1.0),
             (t, w + t + 1, -1.0), (t, c, np.where(back, 1, -5) * h / 12),
             (t, c + 1, -8 * h / 12), (t, c + 2, np.where(back, -5, 1) * h / 12),
             (s, w + s + 2, -1.0), (s, s, -h / 3), (s, s + 1, -4 * h / 3),
             (s, s + 2, -h / 3)]
    rows, cols, vals = zip(*parts)
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate([np.broadcast_to(v, r.shape) for r, v in zip(rows, vals)]))


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


def _reach(s0, s1, shift, lo, hi):
    """The inputs read through the reach (lo, hi) per index by the indices
    s0..s1 moved by ``shift``: one delay back, the history answers below
    index 0, where nothing is read."""
    s0, s1 = s0 + shift, s1 + shift
    return lo[np.maximum(s0, 0)], np.where(s1 < 0, -1, hi[np.maximum(s1, 0)])


def _intervals(ivs, size, first, M):
    """Intervals (lo, hi) as columns over ``size`` rows, None for a column
    that reads nothing, clipped to the nodes first..M."""
    ivs = [(0, -1) if iv is None else iv for iv in ivs]
    lo, hi = (np.stack([np.broadcast_to(iv[k], size) for iv in ivs], axis=-1)
              for k in (0, 1))
    return np.maximum(lo, first), np.minimum(hi, M)


def _row_intervals(blocks, n, reach, first, M, moves):
    """Input nodes each condition row reads through ``reach``, one interval
    per entry of ``moves(block)``, in the row order of the blocks, clipped
    to first..M.  A block's row at node o reads its summands at the nodes
    s0..s1 that n stencil passes over the block's span reach from o (o alone
    without a span), each entry moving them by a delay or, if None, reading
    nothing."""
    parts = []
    for b in blocks:
        s0 = s1 = b.nodes
        if b.span:
            lo, hi = _stencil_reach(*b.span, n)
            s0, s1 = lo[b.nodes - b.span[0]], hi[b.nodes - b.span[0]]
        ivs = [None if d is None else _reach(s0, s1, d, *reach) for d in moves(b)]
        parts.append([np.tile(a, (b.copies, 1))
                      for a in _intervals(ivs, s0.size, first, M)])
    return tuple(np.concatenate(a) for a in zip(*parts))


def _step_intervals(grid, reach, delayed):
    """Position nodes RK4 step i (z_i to z_{i+1}) reads, i = 0..M-1, through
    the series ``reach``: the series at i and i + 1 and at the Hermite
    midpoint, whose top order takes i-1..i+2 (0..3 and M-3..M at the ends);
    when L reads a delayed slot, also at i - p, i + 1 - p and the midpoint
    of step i - p."""
    M, q = grid.M, grid.p
    xl, xh = reach
    i = np.arange(M)
    mid = (xl[np.minimum(np.maximum(i - 1, 0), M - 3)],
           xh[np.maximum(np.minimum(i + 2, M), 3)])
    ivs = [mid]
    if delayed:
        ivs += [_reach(i, i, -q, *mid), _reach(i, i + 1, -q, xl, xh)]
    return _intervals(ivs, M, 1, M)


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


class _Band(NamedTuple):
    """A row and column permutation, ``rows[i]`` and ``cols[j]`` the
    positions of row i and column j, and the lower and upper half-bandwidths
    kl and ku of the pattern it permutes."""
    rows: np.ndarray
    cols: np.ndarray
    kl: int
    ku: int


def _band_order(pattern, row_keys, col_keys):
    """The rows and the columns each sorted by their keys, ties kept in
    index order, and the half-bandwidths of the pattern in that order."""
    perm = [np.empty(k.size, dtype=np.int64) for k in (row_keys, col_keys)]
    for p, k in zip(perm, (row_keys, col_keys)):
        p[np.argsort(k, kind="stable")] = np.arange(k.size)
    d = perm[0][pattern[0]] - perm[1][pattern[1]]
    return _Band(*perm, max(int(d.max()), 0), max(int(-d.min()), 0))


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
    discretized necessary conditions; a z-coupled L's chord steps start on
    the held matrix.

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
    R, build = sys.residual(U)
    norm = _sup(R)
    log = [(0, norm, _DAMPING)]

    def trial(U_try, keep):
        # U_try, its residual, sup and build when keep(sup), else None; a
        # trial that overflows has an infinite sup, so it warns of nothing
        with np.errstate(all="ignore"):
            R_try, build_try = sys.residual(U_try)
        norm_try = _sup(R_try)
        return (U_try, R_try, norm_try, build_try) if keep(norm_try) else None

    def factor(held):
        # the matrix at the iterate, factored: F_U alone, in its band order,
        # when held or z-free
        F_U = held or sys.z_free
        return _factor(sys.jacobian(U, R, build, held),
                       sys.n_unknowns if F_U else sys.n_augmented, R.size,
                       sys.band if F_U else None)

    held = not sys.z_free  # z and psi held until a held step fails to contract
    solve = None  # the kept factor, reused by chord steps while R contracts
    it = 0
    while it < opts.max_iters and norm > opts.tol_r:
        it += 1
        last = it == opts.max_iters
        if held and solve is None and not last:
            try:
                solve = factor(True)
            except SingularJacobian:  # some rows read U through z and psi alone
                held = False
        # a chord step: the kept factor applied to R, never the budget's last
        if solve is not None and not last:
            step = solve(R)
            new = trial(U + step, lambda v: v <= _RHO * norm)
            if new:
                U, R, norm, build = new
                log.append((it, norm, 1.0))
                if norm <= opts.tol_r and it + 1 < opts.max_iters:
                    # chord steps converge linearly and stop just under
                    # tol_r: one more, kept if it lowers R at all
                    new = trial(U + solve(R), lambda v: v < norm)
                    if new:
                        it += 1
                        U, R, norm, build = new
                        log.append((it, norm, 1.0))
                elif _sup(step) <= _TOL_X * (1.0 + _sup(U)):
                    break
                continue
        held = False  # the Newton matrix from here on
        solve = None  # dropped before the next matrix is built
        solve = factor(False)
        step = solve(R)
        lam = _DAMPING
        while lam >= 1e-8:
            new = trial(U + lam * step, lambda v: v < norm)
            if new:
                U, R, norm, build = new
                break
            lam *= 0.5
        log.append((it, norm, lam))
        if not new:
            break
        if lam < _DAMPING:  # a damped step: the matrix is refactored next
            solve = None
        if lam * _sup(step) <= _TOL_X * (1.0 + _sup(U)):
            break

    # the last residual's build at U; a z-free residual holds z = 0, so z is
    # marched here on its arguments, but its psi and its block sums read no z
    x, args, z, psi, sums = build
    if sys.z_free:
        z = fn.rk4_z(p, grid, x, args)
    traj = fn.simulate_z(p, tr.StateTrajectory(grid, x), z)
    mult = ml.compute_phi(psi, sums)
    report = cd.full_report(p, traj, mult, args, sums)
    sup_ok = report.norms_unflagged
    converged = (sup_ok["el1"] <= opts.tol_r and sup_ok["el2"] <= opts.tol_r
                 and sup_ok["tc"] <= opts.tol_r)
    return SolveResult(trajectory=traj, multipliers=mult, report=report,
                       iterations=tuple(log), converged=converged,
                       elapsed=time.perf_counter() - t0)


def _sup(v):
    m = np.max(np.abs(v))
    return float(m) if np.isfinite(m) else float("inf")


def _factor(J, size, n, band=None):
    """The Newton matrix J, COO triplets of a size x size matrix, factored
    once: returns solve(R), the first n entries of the solution d of
    J d = [-R, 0, ...] for an R of n entries.  Its exact zeros are dropped;
    a row or column left empty, or a non-finite entry, makes J singular.
    Given its ``band`` order (F_U, whose pattern holds each entry once), J
    is scattered in that order into LAPACK band storage and factored by
    scipy's dgbtrf, each solve a dgbtrs; otherwise by scipy's splu (COLAMD
    ordering).  A zero pivot makes J singular.  numpy has no reusable LU, so
    without scipy the dense LU of the same matrix gives once the n columns
    of J^-1 that such a right-hand side reaches, and each solve is a product
    with their first n rows."""
    rows, cols, vals = J
    if not np.all(np.isfinite(vals)):
        raise SingularJacobian()
    nz = vals != 0.0
    rows, cols, vals = rows[nz], cols[nz], vals[nz]
    if not (np.bincount(rows, minlength=size).all()
            and np.bincount(cols, minlength=size).all()):
        raise SingularJacobian()
    try:
        try:  # imported here: a module-level import would cost every command
            if band is None:
                from scipy.sparse.linalg import splu
                from scipy.sparse import csc_array
            else:
                from scipy.linalg.lapack import dgbtrf, dgbtrs
        except ImportError:  # numpy only: the dense LU of the same matrix
            A = np.bincount(rows * size + cols, vals, size * size).reshape(size, size)
            inv = np.linalg.solve(A, np.eye(size, n))[:n].copy()
            return lambda R: -(inv @ R)
        if band is None:
            lu = splu(csc_array((vals, (rows, cols)), shape=(size, size)))
        else:
            kl, ku = band.kl, band.ku
            ab = np.zeros((2 * kl + ku + 1, size), order="F")
            c = band.cols[cols]
            ab[kl + ku + band.rows[rows] - c, c] = vals
            ab, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
            if info > 0:  # a zero pivot
                raise SingularJacobian()
    except (RuntimeError, np.linalg.LinAlgError):  # an exactly singular factor
        raise SingularJacobian() from None
    rhs = np.zeros(size)

    def solve(R):
        if band is None:
            rhs[:n] = -R
            return lu.solve(rhs)[:n]
        rhs[band.rows[:n]] = -R
        return dgbtrs(ab, kl, ku, rhs, piv)[0][band.cols[:n]]

    return solve
