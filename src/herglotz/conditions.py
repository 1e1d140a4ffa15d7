"""Necessary-condition residuals: the two Euler-Lagrange equations, the n
transversality values at b, and the DuBois-Reymond identity.

The first Euler-Lagrange block lives on [a, b - tau] and carries both the
current and the (index-shifted) delayed summand; the second block lives on
[b - tau, b] where the delayed summand is null by convention.  Both are the
k = 0 sums of the backward pass ``multipliers.block_sums`` over one build of
the summands, made once per trajectory and read by the costates too; its
orders k = 1..n at b are the transversality values tc_k = -phi_k(b), which
the report reads off the costates.  Node ranges near a differentiated
block's edges use one-sided stencils and are flagged; flagged entries stay
in the report but are excluded from acceptance sup-norms.

With E = sum_k phi_k . x^(k) + psi L (``dbr_inner``) and the comb series

    D(s) = psi(s) sum_{j,r} dL/dx_tau_j^(r)(s) x_j^(r+1)(s - tau),  D = 0 past b,

every admissible trajectory satisfies

    dE/dt - psi dL/dt - [D(t) - D(t + tau)] = sum_j R_j x_j',

R being the Euler-Lagrange residual (el1 on [a, b - tau], el2 on
[b - tau, b]).  The ``dbr`` block is the left side, so it vanishes along
every extremal, and E + int_t^min(t+tau, b) D is then constant for
autonomous L (minus the time-translation charge of ``noether``).  D is zero
when tau = 0 or L reads no ``tau_`` slot (``has_comb``), and the block is
then dE/dt - psi dL/dt bit for bit.  D jumps at a + tau, where the history
meets the trajectory; its nodes are flagged when the comb is on.
"""

from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import functional as fn
from . import multipliers as ml
from . import problem as pb
from . import trajectory as tr


def flag_width(n):
    # 5-point stencil reaches 2 nodes; up to 2n passes touch a block edge
    return 4 * n


def edge_flags(length, width):
    flags = np.zeros(length, dtype=bool)
    w = min(width, length)
    flags[:w] = True
    flags[length - w:] = True
    return flags


def _masked_sup(vals, flags):
    keep = np.abs(vals[..., ~flags])
    return float(np.max(keep)) if keep.size else 0.0


class ResidualReport(NamedTuple):
    grid: tr.Grid
    el1: np.ndarray        # (m, junction+1) on nodes 0..M-p
    el2: np.ndarray        # (m, p+1) on nodes M-p..M
    tc: np.ndarray         # (n, m)
    dbr: np.ndarray        # (M+1,)
    el1_flags: np.ndarray  # per-node one-sided-stencil flags
    el2_flags: np.ndarray
    dbr_flags: np.ndarray  # with the zone around a + tau when the comb is on

    @property
    def norms(self):
        """Exact sup over every stored entry per block."""
        return {"el1": float(np.max(np.abs(self.el1))),
                "el2": float(np.max(np.abs(self.el2))),
                "tc": float(np.max(np.abs(self.tc))),
                "dbr": float(np.max(np.abs(self.dbr)))}

    @property
    def norms_unflagged(self):
        """Sup over the nodes away from one-sided stencil zones (acceptance)."""
        return {"el1": _masked_sup(self.el1, self.el1_flags),
                "el2": _masked_sup(self.el2, self.el2_flags),
                "tc": float(np.max(np.abs(self.tc))),
                "dbr": _masked_sup(self.dbr, self.dbr_flags)}


def el_blocks(sums):
    """Euler-Lagrange residual arrays (el1, el2), batched like ``sums``, the
    ``ml.block_sums`` of a trajectory: their k = 0 slices."""
    return sums[0][..., 0, :, :], sums[1][..., 0, :, :]


def transversality_values(sums):
    """tc_k = -phi_k(b) for k = 1..n, shape (..., n, m): the value at b of
    the right block of ``sums``, the ``ml.block_sums`` of a trajectory,
    which holds the delayed summand at tau = 0 and only the current one for
    tau > 0."""
    return sums[1][..., 1:, :, -1]


def dbr_inner(p, traj, mult, args):
    """sum_k phi_k . x^(k) + psi * L, the quantity whose total derivative the
    DuBois-Reymond identity pins down.  Here and below ``args`` are the node
    arguments of ``fn.slot_args`` along traj, built once by the caller."""
    inner = mult.psi * fn.eval_args(p, args, traj.z, "body")
    for k in range(1, p.n + 1):
        inner = inner + np.sum(mult.phi[..., k - 1, :, :] * traj.x[..., :, k, :],
                               axis=-2)
    return inner


def dbr_residual(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                 mult: ml.MultiplierSet, args) -> np.ndarray:
    """d/dt(inner) - psi dL/dt - [D(t) - D(t + tau)] per node, the comb
    term only when ``has_comb``; the time derivative honors the junction
    split because phi switches its delayed term off at b - tau."""
    grid = traj.grid
    dinner = ml.blockwise_derivative(dbr_inner(p, traj, mult, args), grid.h,
                                     grid.junction)
    dbr = dinner - mult.psi * fn.eval_args(p, args, traj.z, "t")
    if has_comb(p):
        D, _ = comb_series(p, traj, mult, args)
        dbr = dbr - (D - fn.ahead(D, grid.p))
    return dbr


# ---------------------------------------------------------------------------
# the delay comb

def has_comb(p: pb.ProblemSpec) -> bool:
    """Whether the comb terms can be non-zero: tau > 0 and L reads a
    ``tau_`` slot."""
    return p.tau > 0.0 and any(v.startswith("tau_")
                               for v in ex.free_variables(p.lagrangian.body))


def delayed_rates(p, grid, x):
    """x_j^(r+1) for r = 0..n as the pair (history, trajectory): mu^(r+1) on
    the nodes of [a - tau, a], shape (m, n+1, p+1), and x^(r+1) on [a, b],
    shape (m, n+1, M+1), whose top order is a stencil derivative of x^(n)
    taken blockwise at b - tau."""
    hist = fn.history_block(p, grid, range(1, p.n + 2), np.arange(-grid.p, 1))
    top = ml.blockwise_derivative(x[:, p.n:, :], grid.h, grid.junction)
    return hist, np.concatenate([x[:, 1:, :], top], axis=1)


def comb_terms(p, traj, mult, args, hist, cur):
    """psi(s) sum_{j,r} dL/dx_tau_j^(r)(s) V_j^r(s - tau) on the nodes of
    [a, b], for a series V given like ``delayed_rates`` by its history and
    trajectory parts.  V and the delayed slots jump at a + tau: the node
    series takes the right limit there and the left limit is returned as
    the second value."""
    grid, z, psi = traj.grid, traj.z, mult.psi
    q = grid.p
    left = fn.left_limit_args(p, grid, args) + [z[q]]
    V = fn.behind(hist, cur, q)
    vals = np.zeros(grid.M + 1)
    vleft = 0.0
    with np.errstate(all="ignore"):
        for name, v, v_left in zip(pb.slot_names(p.n, p.m)[1],
                                   V.reshape(-1, grid.M + 1), hist[..., q].reshape(-1)):
            f = p.lagrangian.compiled(name)
            vals = vals + f(*args, z) * v
            vleft = vleft + f(*left) * v_left
    return psi * vals, float(psi[q] * vleft)


def breakpoint_jump(p, traj, mult, args):
    """psi [L(right) - L(left)] at a + tau.  Where x^(n) jumps at a, the
    rate x^(n+1)(s - tau) of D carries a point mass at a + tau; summed over
    the jumping slot it is this jump of psi L, and zero when L reads no
    top-order delayed slot."""
    grid, z = traj.grid, traj.z
    q = grid.p
    body = p.lagrangian.compiled("body")
    with np.errstate(all="ignore"):
        right = np.broadcast_to(body(*args, z), (grid.M + 1,))[q]
        left = body(*fn.left_limit_args(p, grid, args), z[q])
        return float(mult.psi[q] * (right - left))


def comb_series(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                mult: ml.MultiplierSet, args):
    """The comb series D on the nodes of [a, b] (right limit at a + tau) and
    its left limit at a + tau."""
    return comb_terms(p, traj, mult, args, *delayed_rates(p, traj.grid, traj.x))


def comb_integral(vals, left, grid, point):
    """int_t^min(t + tau, b) of a comb series per node: the trapezoid rule,
    split at a + tau with ``left`` the left limit there, plus a point mass
    at a + tau for the nodes t < a + tau."""
    q, M = grid.p, grid.M
    seg = 0.5 * grid.h * (vals[:-1] + vals[1:])
    if q:
        seg[q - 1] = 0.5 * grid.h * (vals[q - 1] + left) + point
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return cum[np.minimum(np.arange(M + 1) + q, M)] - cum


def full_report(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                mult: ml.MultiplierSet, args, sums) -> ResidualReport:
    """Every block of the report at the node arguments ``args`` along traj;
    el1 and el2 are read off ``sums``, the ``ml.block_sums`` of ``mult``."""
    grid = traj.grid
    el1, el2 = el_blocks(sums)
    tc = -mult.phi[..., -1]  # the condition phi_k(b) = 0
    dbr = dbr_residual(p, traj, mult, args)
    w = flag_width(p.n)
    el1_flags = edge_flags(el1.shape[-1], w)
    el2_flags = edge_flags(el2.shape[-1], w)
    dbr_flags = np.zeros(grid.M + 1, dtype=bool)
    dbr_flags[:grid.junction + 1] |= edge_flags(grid.junction + 1, w)
    dbr_flags[grid.junction:] |= edge_flags(grid.M - grid.junction + 1, w)
    if has_comb(p):  # D jumps at a + tau
        dbr_flags[max(grid.p - w, 0):grid.p + w + 1] = True
    return ResidualReport(grid=grid, el1=el1, el2=el2, tc=tc, dbr=dbr,
                          el1_flags=el1_flags, el2_flags=el2_flags,
                          dbr_flags=dbr_flags)
