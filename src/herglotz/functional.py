"""Forward simulation of the Herglotz functional z and the multiplier psi.

z is driven by dz/dt = L(t, x(t), ..., x(t - tau), ..., z(t)) with classical
fixed-step RK4.  When L is affine in z, every step is an affine map of z
whose coefficients are computed for all steps at once, and only the scalar
recurrence runs step by step; any other L is stepped one RK4 step at a
time.  psi(t) = exp(integral_t^b dL/dz) via composite Simpson taken
cumulatively from b (an odd leftover interval closed with the 3-point rule,
so psi stays fourth order).

L's arguments along a derivative series are built once by ``slot_args``
(``trajectory_args`` along a trajectory with z): the series and its copy
one delay back, which reads the history below a from ``history_block``,
put by ``ordered_args`` in the slot order that ``problem.slot_names``
names.  Every evaluation along the series reads that build: the march,
psi, and the summands, reports and charges of ``multipliers``,
``conditions`` and ``noether``, which take it from their caller.

The low-level helpers accept leading batch axes on the sample arrays; the
solver uses them to evaluate whole Jacobian chunks in one sweep.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import problem as pb
from . import trajectory as tr
from .errors import NonFiniteLagrangian, ValidationError


def history_block(p: pb.ProblemSpec, grid: tr.Grid, orders, idx):
    """mu_j^(k) at the history nodes a + idx*h, idx in [-p, 0], for every
    component j and each k in ``orders``: shape (m, len(orders), len(idx))."""
    t = grid.a + grid.h * np.asarray(idx, dtype=float)
    return np.array([[np.broadcast_to(np.asarray(p.history_fn(j, k)(t), dtype=float),
                                      t.shape) for k in orders]
                     for j in range(1, p.m + 1)])


def slot_args(p: pb.ProblemSpec, grid: tr.Grid, x, mid=False):
    """Value arrays of every Lagrangian argument except z, in the canonical
    order of problem.arg_names, on the nodes or, with ``mid``, at the
    interval midpoints t_i + h/2.  The delayed series is x shifted by the
    delay offset, with the history block answering below a."""
    h, q = grid.h, grid.p
    t = grid.nodes()
    off = 0.0
    if mid:
        x, t, off = tr.midpoint_values(x, h), t[:-1] + 0.5 * h, 0.5
    N = x.shape[-1]
    delayed = np.empty(x.shape)
    if q:
        delayed[..., :q] = history_block(p, grid, range(p.n + 1), np.arange(-q, 0) + off)
    delayed[..., q:] = x[..., :N - q]
    return ordered_args(t, x, delayed)


def ordered_args(t, cur, delayed):
    """t and the slot values of the current and of the delayed series, each
    of shape (..., m, n+1, N), as L's arguments except z in the order of
    problem.slot_names: the one place the arrays take that order."""
    return [t] + [S[..., j, k, :] for S in (cur, delayed)
                  for j, k in np.ndindex(cur.shape[-3:-1])]


def trajectory_args(p: pb.ProblemSpec, traj: tr.StateTrajectory):
    """``slot_args`` on the nodes of a trajectory with z, built once by a
    command for every evaluation along it."""
    if traj.z is None:
        raise ValidationError("trajectory has no z series; simulate it first")
    return slot_args(p, traj.grid, traj.x)


def left_limit_args(p: pb.ProblemSpec, grid: tr.Grid, args):
    """The node arguments ``args`` of ``slot_args`` at the left limit of
    a + tau: t and the current slots at that node, the delayed slots at the
    history's values at a."""
    cur = [np.asarray(A)[..., grid.p] for A in args[:(len(args) + 1) // 2]]
    return cur + [p.history_fn(j, k)(grid.a)
                  for j in range(1, p.m + 1) for k in range(p.n + 1)]


def ahead(values, q):
    """A node series q steps ahead, values(t_i + tau), and 0 past b."""
    out = np.zeros_like(values)
    out[..., :values.shape[-1] - q] = values[..., q:]
    return out


def behind(hist, values, q):
    """A node series q steps behind, values(t_i - tau), read below a from
    ``hist``, its values on the nodes of [a - tau, a]."""
    return np.concatenate([hist[..., :q], values[..., :values.shape[-1] - q]],
                          axis=-1)


def eval_args(p: pb.ProblemSpec, args, z, which="body"):
    """The Lagrangian body or one partial at the arguments ``args`` of
    ``slot_args`` and z, broadcast to the shape of all of them (a read-only
    view)."""
    with np.errstate(all="ignore"):
        out = p.lagrangian.compiled(which)(*args, z)
    shape = np.broadcast_shapes(np.shape(out), np.shape(z), *map(np.shape, args))
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


def eval_on_nodes(p: pb.ProblemSpec, grid: tr.Grid, x, z, which="body"):
    """Evaluate the Lagrangian body or one partial along the trajectory, for
    a caller that evaluates nothing else along x."""
    return eval_args(p, slot_args(p, grid, x), z, which).copy()


def _rk4_step(L, t0, tm, t1, h, a0, am, a1, z0):
    """One classical RK4 step of z' = L from z0 at t0 to t1 = t0 + h, with
    the slot arguments a0, am, a1 at t0, the midpoint tm and t1."""
    k1 = L(t0, *a0, z0)
    k2 = L(tm, *am, z0 + 0.5 * h * k1)
    k3 = L(tm, *am, z0 + 0.5 * h * k2)
    k4 = L(t1, *a1, z0 + h * k3)
    return z0 + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def stage_args(p: pb.ProblemSpec, grid: tr.Grid, x, args):
    """The arguments of ``_rk4_step`` before z0 for every step at once, from
    the node arguments ``args`` of x and its midpoint arguments, built here:
    the times and slot values at t_i, t_i + h/2 and t_{i+1}, step axis
    last."""
    mid = slot_args(p, grid, x, mid=True)
    return (args[0][:-1], mid[0], args[0][1:], grid.h,
            [A[..., :-1] for A in args[1:]], mid[1:], [A[..., 1:] for A in args[1:]])


def march_z(L, g, stage, gamma, steps):
    """March z' = L by RK4 from z = gamma over ``steps`` steps and return
    z on the steps + 1 nodes; leading batch axes are carried through.

    ``stage`` holds the arguments ``(t0, tm, t1, h, a0, am, a1)`` of
    ``_rk4_step`` before z0 for the first steps, step axis last; z holds
    its value on the steps past their end.  ``g`` is the compiled dL/dz of
    an L affine in z (dL/dz does not read z), or None.  With g one RK4 step
    is exactly z_{i+1} = (1 + delta_i) z_i + beta_i: beta is the step map
    at z = 0 and delta the same stage expansion applied to g, both taken
    for every step at once, so only that scalar recurrence runs step by
    step.  delta is kept apart from the 1 so that none of its digits are
    rounded away.  Without g, ``_step_loop`` takes one RK4 step at a time."""
    t0, tm, t1, h, a0, am, a1 = stage
    shape = np.broadcast_shapes(np.shape(t0), *map(np.shape, a0))
    live = shape[-1]
    z = np.empty(shape[:-1] + (steps + 1,))
    if g is None:
        z[..., 0] = gamma
        _step_loop(L, stage, z)
    else:
        with np.errstate(all="ignore"):
            beta = _rk4_step(L, *stage, 0.0)
            d1 = g(t0, *a0, 0.0)
            gm = g(tm, *am, 0.0)
            d2 = gm * (1.0 + 0.5 * h * d1)
            d3 = gm * (1.0 + 0.5 * h * d2)
            d4 = g(t1, *a1, 0.0) * (1.0 + h * d3)
            delta = (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)
        delta = np.broadcast_to(delta, shape).reshape(-1, live).tolist()
        beta = np.broadcast_to(beta, shape).reshape(-1, live).tolist()
        for row, de, be in zip(z.reshape(-1, steps + 1), delta, beta):
            zi = float(gamma)
            out = [zi]
            for d, b in zip(de, be):
                zi += d * zi + b
                out.append(zi)
            row[:live + 1] = out
    z[..., live + 1:] = z[..., live, None]
    return z


def _step_loop(L, stage, z):
    """Fill z after z[..., 0] one RK4 step at a time, for every step of
    ``stage``."""
    t0, tm, t1, h, a0, am, a1 = stage
    with np.errstate(all="ignore"):
        for i in range(len(t0)):
            z[..., i + 1] = _rk4_step(
                L, t0[i], tm[i], t1[i], h, [A[..., i] for A in a0],
                [A[..., i] for A in am], [A[..., i] for A in a1], z[..., i])


def rk4_z(p: pb.ProblemSpec, grid: tr.Grid, x, args):
    """March z along x from z(a) = gamma by ``march_z``, with its affine step
    map when dL/dz does not read z; ``args`` are the node arguments of x.
    Batch axes of x are carried through."""
    lag = p.lagrangian
    g = None if "z" in ex.free_variables(lag.partials["z"]) else lag.compiled("z")
    return march_z(lag.compiled("body"), g, stage_args(p, grid, x, args), p.gamma,
                   grid.M)


def rk4_steps(p: pb.ProblemSpec, stage, z):
    """The RK4 step maps of ``rk4_z`` at every step at once, with no march:
    entry i is the value one step takes z[..., i] to, shape (..., M), for
    the ``stage_args`` of a series."""
    with np.errstate(all="ignore"):
        out = _rk4_step(p.lagrangian.compiled("body"), *stage, z[..., :-1])
    return np.broadcast_to(out, np.broadcast_shapes(np.shape(out),
                                                    *map(np.shape, stage[4])))


def simulate_z(p: pb.ProblemSpec, traj: tr.StateTrajectory,
               z=None) -> tr.StateTrajectory:
    """Fill z on a trajectory by RK4 with z(a) = gamma; a given ``z``, the
    RK4 march along traj.x already done, is taken as it is.

    Raises NonFiniteLagrangian at the first node where the right-hand side
    stopped being finite.
    """
    if z is None:
        z = rk4_z(p, traj.grid, traj.x, slot_args(p, traj.grid, traj.x))
    bad = ~np.isfinite(z)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteLagrangian(traj.grid.a + traj.grid.h * max(i - 1, 0))
    return traj.with_z(z)


def admissibility_defect(p: pb.ProblemSpec, traj: tr.StateTrajectory, args) -> float:
    """sup |dz/dt - L| over the nodes (stencil derivative of the z series);
    ``args`` are the node arguments of ``slot_args`` along traj.x."""
    if traj.z is None:
        raise ValidationError("trajectory has no z series")
    zdot = tr.differentiate_values(traj.z, traj.grid.h, 1)
    return float(np.max(np.abs(zdot - eval_args(p, args, traj.z, "body"))))


# ---------------------------------------------------------------------------
# psi

def integral_to_b(g, h):
    """J_i = integral from t_i to b of a node series, composite Simpson from
    the right; nodes an odd number of steps from b close their first
    interval with the 3-point rule, the trapezoid less h/12 (g_c - 2 g_{c+1}
    + g_{c+2}) with c = max(i - 1, 0), which keeps the rule fourth order.
    Its parabola is that of the Simpson panel on c..c+2."""
    g = np.asarray(g, dtype=float)
    M = g.shape[-1] - 1
    J = np.zeros_like(g)
    if M == 0:
        return J
    if M >= 2:
        panel = (h / 3.0) * (g[..., :-2] + 4.0 * g[..., 1:-1] + g[..., 2:])
        idx_even = np.arange(M - 2, -1, -2)
        if idx_even.size:
            J[..., idx_even] = np.cumsum(panel[..., idx_even], axis=-1)
    idx_odd = np.arange(M - 1, -1, -2)
    J[..., idx_odd] = (0.5 * h * (g[..., idx_odd] + g[..., idx_odd + 1])
                       + J[..., idx_odd + 1])
    if M >= 2:  # the end correction; exactly 0.0 for a constant series
        c = np.maximum(idx_odd - 1, 0)
        J[..., idx_odd] -= (h / 12.0) * (g[..., c] - 2.0 * g[..., c + 1]
                                         + g[..., c + 2])
    return J


def psi_values(p: pb.ProblemSpec, grid: tr.Grid, args, z):
    """psi(t) = exp(integral_t^b dL/dz) on the nodes from the node arguments
    ``args`` of a series and z; psi(b) = 1 exactly."""
    J = integral_to_b(eval_args(p, args, z, "z"), grid.h)
    with np.errstate(all="ignore"):
        return np.exp(J)
