"""Reduction of the delayed problem to a stacked non-delayed optimal control
problem on one delay interval.

With the origin shifted to the left endpoint and b - a = N tau (after
padding), interval i carries the states x^{k;i}(t) = x^(k)(a + t + (i-1)tau)
and z_j(t) = z(a + t + (j-1)tau) for local t in [0, tau]; the control of
interval i is the top derivative x^{n;i}.  When b - a is not an integer
multiple of tau, the last interval's dynamics are truncated at
cut = b - a - (N-1) tau and its states are null beyond the cut.

Used as a verification oracle: the direct solve path never goes through the
reduced form.  The reduced multipliers and Hamiltonian, which only the tests
compare against, live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import functional as fn
from . import problem as pb
from . import trajectory as tr
from .errors import ValidationError, ZeroDelay

_EXACT = 1e-9


def state_name(k: int, i: int, j: int = 1, m: int = 1) -> str:
    return f"x{k}_{i}" if m == 1 else f"x{k}_{i}_{j}"


def z_name(j: int) -> str:
    return f"z{j}"


@dataclass(frozen=True)
class ReducedProblem:
    problem: pb.ProblemSpec
    N: int
    tau: float
    n: int
    m: int
    gamma: float
    cut: float | None  # local truncation time of interval N, None when exact
    lagrangians: tuple  # L_1 .. L_N as expressions over the stacked names
    stacked_history: tuple  # [j][k] expressions of local t for the i=0 states

    def interval_args(self, j: int):
        """Positional argument names of L_j, mirroring the delayed problem's
        canonical order: t, interval-j slots, interval-(j-1) slots, z_j."""
        cur = [state_name(k, j, jc, self.m)
               for jc in range(1, self.m + 1) for k in range(self.n + 1)]
        prev = [state_name(k, j - 1, jc, self.m)
                for jc in range(1, self.m + 1) for k in range(self.n + 1)]
        return ["t"] + cur + prev + [z_name(j)]


def guinn_reduce(p: pb.ProblemSpec) -> ReducedProblem:
    """Build the stacked problem; raises ZeroDelay when tau = 0."""
    if p.tau == 0.0:
        raise ZeroDelay("the reduction is defined for tau > 0")
    span = p.b - p.a
    ratio = span / p.tau
    if abs(ratio - round(ratio)) <= _EXACT:
        N = int(round(ratio))
        cut = None
    else:
        N = int(np.ceil(ratio))
        cut = span - (N - 1) * p.tau
    lags = []
    for j in range(1, N + 1):
        mapping = {}
        offset = p.a + (j - 1) * p.tau
        mapping["t"] = ex.BinOp("+", ex.Var("t"), ex.Num(offset)) if offset else ex.Var("t")
        for jc in range(1, p.m + 1):
            for k in range(p.n + 1):
                mapping[pb.slot_name(jc, k)] = ex.Var(state_name(k, j, jc, p.m))
                mapping[pb.delayed_slot_name(jc, k)] = ex.Var(state_name(k, j - 1, jc, p.m))
        mapping["z"] = ex.Var(z_name(j))
        lags.append(ex.simplify(ex.substitute(p.lagrangian.body, mapping)))
    hist = []
    for jc in range(1, p.m + 1):
        row = []
        for k in range(p.n + 1):
            # x^{k;0}(t) = mu^(k)(a - tau + t) on local t in [0, tau]
            shift = ex.BinOp("+", ex.Var("t"), ex.Num(p.a - p.tau))
            row.append(ex.simplify(ex.substitute(p.history_derivs[jc - 1][k],
                                                 {"t": shift})))
        hist.append(tuple(row))
    return ReducedProblem(problem=p, N=N, tau=p.tau, n=p.n, m=p.m,
                          gamma=p.gamma, cut=cut, lagrangians=tuple(lags),
                          stacked_history=tuple(hist))


# ---------------------------------------------------------------------------
# change of variables

@dataclass(frozen=True)
class StackedTrajectory:
    rp: ReducedProblem
    h: float
    P: int  # steps per delay interval
    cut_steps: int  # = P when not padded
    x: np.ndarray  # (N+1, m, n+1, P+1); index 0 is the history interval
    z: np.ndarray | None  # (N, P+1)

    def live_steps(self, j: int) -> int:
        """Steps of interval j that carry dynamics: the cut on the last."""
        return self.cut_steps if j == self.rp.N else self.P


def _history_block(rp: ReducedProblem, t):
    """The history-interval states x^{k;0} at local times t from the exact
    history expressions, shape (m, n+1, len(t))."""
    return np.array([[np.broadcast_to(np.asarray(ex.compile_expr(e, ["t"])(t),
                                                 dtype=float), t.shape)
                      for e in row] for row in rp.stacked_history])


def map_trajectory(rp: ReducedProblem, traj: tr.StateTrajectory) -> StackedTrajectory:
    """Push a delayed-problem trajectory through the change of variables.
    Exact index bookkeeping, no interpolation."""
    g = traj.grid
    P = g.p
    if P == 0:
        raise ZeroDelay("trajectory grid has no delay offset")
    cut_steps = g.M - (rp.N - 1) * P
    if not 0 < cut_steps <= P:
        raise ValidationError(
            f"grid M={g.M} inconsistent with N={rp.N} intervals of {P} steps")
    m, n = rp.m, rp.n
    x = np.zeros((rp.N + 1, m, n + 1, P + 1))
    x[0] = _history_block(rp, g.h * np.arange(P + 1))
    # at local tau the history interval touches t = a, where the top
    # derivative (the control) may jump; use the trajectory's right limit
    # there to match the delayed-slot convention of the direct simulation
    x[0, :, n, P] = traj.x[:, n, 0]
    for i in range(1, rp.N + 1):
        lo = (i - 1) * P
        hi = min(lo + P, g.M)
        x[i, :, :, :hi - lo + 1] = traj.x[:, :, lo:hi + 1]
        # padded tail of the last interval stays zero per the construction
    z = None
    if traj.z is not None:
        z = np.zeros((rp.N, P + 1))
        for j in range(1, rp.N + 1):
            lo = (j - 1) * P
            hi = min(lo + P, g.M)
            z[j - 1, :hi - lo + 1] = traj.z[lo:hi + 1]
            z[j - 1, hi - lo + 1:] = traj.z[g.M]  # dz_N/dt = 0 past the cut
    return StackedTrajectory(rp=rp, h=g.h, P=P, cut_steps=cut_steps, x=x, z=z)


# ---------------------------------------------------------------------------
# forward simulation of the stacked system

def _interval_callable(rp, j, wrt=None):
    """L_j, or with ``wrt`` its partial by that name, as a callable of
    ``rp.interval_args(j)``."""
    e = rp.lagrangians[j - 1]
    return ex.compile_expr(e if wrt is None else ex.differentiate(e, wrt),
                           rp.interval_args(j))


def _stacked_args(rp, stacked, j):
    """Node and midpoint argument arrays of L_j (z excluded).

    Two conventions keep this bit-compatible with the direct simulation:
    the history interval's midpoints come from the exact history
    expressions, and a padded last interval interpolates only over its
    live range instead of reaching into the zeroed tail."""
    cur, prev = stacked.x[j], stacked.x[j - 1]
    h = stacked.h
    P = stacked.P
    tloc = h * np.arange(P + 1)
    tmid = tloc[:-1] + 0.5 * h
    c = stacked.live_steps(j)
    mid_cur = np.zeros(cur.shape[:-1] + (P,))
    mid_cur[..., :c] = tr.midpoint_values(cur[..., :c + 1], h)
    mid_prev = _history_block(rp, tmid) if j == 1 else tr.midpoint_values(prev, h)
    return fn.ordered_args(tloc, cur, prev), fn.ordered_args(tmid, mid_cur, mid_prev)


def simulate_reduced(rp: ReducedProblem, stacked: StackedTrajectory) -> np.ndarray:
    """March z_j across [0, tau] for j = 1..N with the coupling conditions
    z_j(0) = z_{j-1}(tau), by ``functional.march_z`` on the stacked slot
    arrays: with the affine step map when dL_j/dz_j does not read z_j, else
    step by step.  The padded interval integrates only to the cut and holds
    z_N past it.  Returns the (N, P+1) stacked z array."""
    zr = np.empty((rp.N, stacked.P + 1))
    z0 = rp.gamma
    for j in range(1, rp.N + 1):
        g = ex.differentiate(rp.lagrangians[j - 1], z_name(j))
        g = None if z_name(j) in ex.free_variables(g) else ex.compile_expr(
            g, rp.interval_args(j))
        (t, *nodes), (tm, *mids) = _stacked_args(rp, stacked, j)
        c = stacked.live_steps(j)
        stage = (t[:c], tm[:c], t[1:c + 1], stacked.h, [A[:c] for A in nodes],
                 [A[:c] for A in mids], [A[1:c + 1] for A in nodes])
        zr[j - 1] = fn.march_z(_interval_callable(rp, j), g, stage, z0, stacked.P)
        z0 = zr[j - 1, -1]
    return zr


@dataclass(frozen=True)
class EquivalenceDefects:
    objective: float  # |z_N(tau) - z(b)|
    coupling: float   # sup state mismatch at the coupling nodes


def verify_reduction_equivalence(p: pb.ProblemSpec,
                                 traj: tr.StateTrajectory) -> EquivalenceDefects:
    """Map the trajectory through the reduction, re-integrate the stacked z
    chain, and compare its terminal value with the direct z(b)."""
    if traj.z is None:
        raise ValidationError("trajectory has no z series; simulate it first")
    rp = guinn_reduce(p)
    stacked = map_trajectory(rp, traj)
    zr = simulate_reduced(rp, stacked)
    objective = abs(float(zr[-1, -1]) - float(traj.z[-1]))
    coupling = 0.0
    # the coupling conditions bind the states x^{k;i}, k = 0..n-1; the top
    # order is the control and may jump between intervals
    for i in range(1, rp.N + 1):
        mismatch = np.max(np.abs(stacked.x[i, :, :rp.n, 0]
                                 - stacked.x[i - 1, :, :rp.n, -1]))
        coupling = max(coupling, float(mismatch))
    return EquivalenceDefects(objective=objective, coupling=coupling)


# ---------------------------------------------------------------------------
# reduced spec file

def write_reduced_file(rp: ReducedProblem, path):
    """Emit the stacked problem in the bracket-section key=value format so
    third-party tools can consume it (``specfile.parse_sections`` reads
    it back)."""
    lines = ["[reduced]",
             f"tau = {rp.tau!r}",
             f"N = {rp.N}",
             f"n = {rp.n}",
             f"m = {rp.m}",
             f"gamma = {rp.gamma!r}"]
    if rp.cut is not None:
        lines.append(f"cut = {rp.cut!r}")
    lines.append("")
    lines.append("[intervals]")
    for j, e in enumerate(rp.lagrangians, start=1):
        lines.append(f'L{j} = "{ex.unparse(e)}"')
    lines.append("")
    lines.append("[stacked_history]")
    for jc in range(1, rp.m + 1):
        for k in range(rp.n + 1):
            name = state_name(k, 0, jc, rp.m)
            lines.append(f'{name} = "{ex.unparse(rp.stacked_history[jc - 1][k])}"')
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
