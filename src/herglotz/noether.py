"""One-parameter symmetry families: generator lifting, first-order invariance
check, and the conserved charge

    C(t) = sum_k phi_k . X_{k-1} + psi Z - [sum_k phi_k . x^(k) + psi L] T.

Generators may depend on (s, t, x_j, z) but not on derivatives of x.  The
lifted series follow the recursion X_k = d/dt X_{k-1} - x^(k) d/dt T.

C is conserved along extremals when tau = 0 or L reads no ``tau_`` slot.
For a delayed L invariant under a family with a constant T generator,

    dC/dt = sum_j R_j (X_0j - T x_j') + G(t) - G(t + tau),
    G(s) = psi(s) sum_{j,r} dL/dx_tau_j^(r)(s) [X_r(s - tau) - T x_j^(r+1)(s - tau)],

with R the Euler-Lagrange residual and G = 0 past b, so the conserved
quantity is C + int_t^min(t+tau, b) G (``noether_charge_delayed``).  Below a
the delayed argument is the history with z frozen at gamma, as in the
invariance check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditions as cd
from . import expr as ex
from . import functional as fn
from . import multipliers as ml
from . import problem as pb
from . import trajectory as tr
from .errors import DegenerateFamily, ValidationError

_GEN_VARS_OK = {"s", "t", "z"}


@dataclass(frozen=True)
class InvarianceFamily:
    Tmap: ex.Expr
    Xmap: tuple  # m component expressions
    Zmap: ex.Expr
    xi: float = 0.0


def make_family(p: pb.ProblemSpec, Tmap, Xmaps, Zmap, xi=0.0) -> InvarianceFamily:
    """Parse and validate a family: identity at s=0, variables restricted to
    (s, t, x_j, z)."""
    def as_expr(src):
        return ex.parse_expression(src) if isinstance(src, str) else src

    Tmap = as_expr(Tmap)
    Zmap = as_expr(Zmap)
    Xmaps = tuple(as_expr(x) for x in Xmaps)
    if len(Xmaps) != p.m:
        raise ValidationError(f"family needs {p.m} X components, got {len(Xmaps)}")

    problems = []
    allowed = _GEN_VARS_OK | {f"x{j}" for j in range(1, p.m + 1)}
    for label, e in [("T", Tmap), ("Z", Zmap)] + [
            (f"X{j + 1}", Xmaps[j]) for j in range(p.m)]:
        extra = ex.free_variables(e) - allowed
        if extra:
            problems.append(f"family {label} uses disallowed variables {sorted(extra)}")

    # identity at s=0, checked numerically at random points
    rng = np.random.default_rng(99)
    at0 = {"T": (ex.substitute(Tmap, {"s": ex.Num(0.0)}), "t"),
           "Z": (ex.substitute(Zmap, {"s": ex.Num(0.0)}), "z")}
    for j in range(p.m):
        at0[f"X{j + 1}"] = (ex.substitute(Xmaps[j], {"s": ex.Num(0.0)}), f"x{j + 1}")
    for _ in range(20):
        binding = {"t": rng.uniform(p.a, p.b), "z": rng.uniform(-2, 2)}
        for j in range(1, p.m + 1):
            binding[f"x{j}"] = rng.uniform(-2, 2)
        for label, (e, target) in at0.items():
            try:
                got = ex.evaluate(e, binding)
            except Exception as err:
                problems.append(f"family {label} fails to evaluate at s=0: {err}")
                break
            if abs(got - binding[target]) > 1e-12 * (1 + abs(binding[target])):
                problems.append(
                    f"family {label} is not the identity at s=0 "
                    f"(got {got!r} for {target}={binding[target]!r})")
                break
    if problems:
        raise ValidationError(sorted(set(problems)))
    return InvarianceFamily(Tmap=Tmap, Xmap=Xmaps, Zmap=Zmap, xi=float(xi))


@dataclass(frozen=True)
class GeneratorSeries:
    T: np.ndarray  # (M+1,)
    X: np.ndarray  # (n, m, M+1): X_0 .. X_{n-1}
    Z: np.ndarray  # (M+1,)


def _gen_expr(e):
    """d/ds at s=0 of a family map, as an expression of (t, x_j, z)."""
    return ex.simplify(ex.substitute(ex.differentiate(e, "s"), {"s": ex.Num(0.0)}))


def _along(e, traj):
    """Evaluate an expression of (t, x_j, z) along the trajectory nodes."""
    names = ["t"] + [f"x{j}" for j in range(1, traj.m + 1)] + ["z"]
    args = [traj.grid.nodes()] + [traj.x[j, 0] for j in range(traj.m)] + [traj.z]
    with np.errstate(all="ignore"):
        out = ex.compile_expr(e, names)(*args)
    return np.broadcast_to(np.asarray(out, dtype=float),
                           (traj.grid.M + 1,)).copy()


def lift_generators(fam: InvarianceFamily, traj: tr.StateTrajectory) -> GeneratorSeries:
    """T, X_0, Z from the symbolic s-derivative at s=0, then the X_k
    recursion along the trajectory."""
    if traj.z is None:
        raise ValidationError("trajectory has no z series; simulate it first")
    n, m = traj.n, traj.m
    h = traj.grid.h
    T = _along(_gen_expr(fam.Tmap), traj)
    Z = _along(_gen_expr(fam.Zmap), traj)
    X = np.empty((max(n, 1), m, traj.grid.M + 1))
    for j in range(m):
        X[0, j] = _along(_gen_expr(fam.Xmap[j]), traj)
    dT = tr.differentiate_values(T, h, 1)
    for k in range(1, n):
        X[k] = tr.differentiate_values(X[k - 1], h, 1) - traj.x[:, k, :] * dT
    return GeneratorSeries(T=T, X=X, Z=Z)


def _family_series(fam, p, traj, s):
    """T^s, X^s, Z^s evaluated along the trajectory extended over
    [a - tau, b]; x below a comes from the history expressions and z is
    frozen at gamma there."""
    g = traj.grid
    q = g.p
    text = g.a + g.h * np.arange(-q, g.M + 1)
    xe = np.empty((traj.m, g.M + q + 1))
    for j in range(1, traj.m + 1):
        if q:
            xe[j - 1, :q] = fn.history_node_values(p, g, j, 0, np.arange(-q, 0))
        xe[j - 1, q:] = traj.x[j - 1, 0]
    ze = np.empty(g.M + q + 1)
    ze[:q] = p.gamma
    ze[q:] = traj.z
    names = ["s", "t"] + [f"x{j}" for j in range(1, traj.m + 1)] + ["z"]

    def run(e):
        with np.errstate(all="ignore"):
            out = ex.compile_expr(e, names)(np.float64(s), text, *xe, ze)
        return np.broadcast_to(np.asarray(out, dtype=float), text.shape).copy()

    Ts = run(fam.Tmap)
    Xs = np.stack([run(fam.Xmap[j]) for j in range(traj.m)])
    Zs = run(fam.Zmap)
    return Ts, Xs, Zs


def _invariance_sides(fam, p, traj, s):
    """The two Definition-style conditions evaluated at parameter value s;
    both vanish identically at s=0."""
    g = traj.grid
    q, h, n = g.p, g.h, p.n
    Ts, Xs, Zs = _family_series(fam, p, traj, s)
    dTdt = tr.differentiate_values(Ts, h, 1)
    if np.min(np.abs(dTdt)) < 1e-8:
        raise DegenerateFamily(
            f"dT^s/dt vanishes on the grid for s={s!r}")
    # chain derivatives d^k X^s / d(T^s)^k via the quotient recursion
    chain = np.empty((n + 1, traj.m, Ts.shape[0]))
    chain[0] = Xs
    for k in range(1, n + 1):
        chain[k] = tr.differentiate_values(chain[k - 1], h, 1) / dTdt
    zslice = slice(q, None)
    dZdt = tr.differentiate_values(Zs[zslice], h, 1)

    zb_avg = traj.z[-1] / (g.b - g.a)
    cond1 = (zb_avg + fam.xi * s) * dTdt[zslice] - zb_avg

    # extended index i covers time a + (i - p)h, so the delayed slot on
    # [a, b] is the leading M+1 entries
    series = np.swapaxes(chain, 0, 1)
    args = fn.ordered_args(Ts[zslice], series[..., zslice],
                           series[..., :g.M + 1]) + [Zs[zslice]]
    with np.errstate(all="ignore"):
        lvals = p.lagrangian.compiled("body")(*args)
    lvals = np.broadcast_to(np.asarray(lvals, dtype=float), dZdt.shape)
    cond2 = dZdt - dTdt[zslice] * lvals
    return cond1, cond2


def invariance_defect(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                      fam: InvarianceFamily, ds: float = 1e-3):
    """First-order defects of the two invariance conditions: the central
    s-difference of each condition at +/-ds, sup over the nodes of [a, b]."""
    if not 0.0 < ds <= 1e-2:
        raise ValidationError(f"ds must lie in (0, 1e-2], got {ds!r}")
    if traj.z is None:
        raise ValidationError("trajectory has no z series; simulate it first")
    c1p, c2p = _invariance_sides(fam, p, traj, +ds)
    c1m, c2m = _invariance_sides(fam, p, traj, -ds)
    d1 = float(np.max(np.abs((c1p - c1m) / (2 * ds))))
    d2 = float(np.max(np.abs((c2p - c2m) / (2 * ds))))
    return d1, d2


def noether_charge(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                   mult: ml.MultiplierSet, fam: InvarianceFamily,
                   args) -> np.ndarray:
    """The pointwise charge C per node, at the node arguments ``args`` of
    ``fn.slot_args`` along traj; constant along extremals when tau = 0 or L
    reads no ``tau_`` slot (see ``noether_charge_delayed``)."""
    return _charge(p, traj, mult, lift_generators(fam, traj), args)


def _charge(p, traj, mult, gen, args):
    """C from the lifted generators and the node arguments along traj."""
    inner = cd.dbr_inner(p, traj, mult, args)
    C = mult.psi * gen.Z - inner * gen.T
    for k in range(1, p.n + 1):
        C = C + np.sum(mult.phi[k - 1] * gen.X[k - 1], axis=0)
    return C


def _history_generators(fam, p, grid):
    """X_r, r = 0..n, along the history on the nodes of [a - tau, a] with z
    frozen at gamma: shape (m, n+1, p+1), by symbolic t-derivatives."""
    along = {f"x{j}": p.history[j - 1] for j in range(1, p.m + 1)}
    along["z"] = ex.Num(p.gamma)
    t = grid.a + grid.h * np.arange(-grid.p, 1)
    out = np.empty((p.m, p.n + 1, t.size))
    for j in range(p.m):
        e = ex.substitute(_gen_expr(fam.Xmap[j]), along)
        for r in range(p.n + 1):
            with np.errstate(all="ignore"):
                out[j, r] = np.broadcast_to(np.asarray(
                    ex.compile_expr(e, ["t"])(t), dtype=float), t.shape)
            e = ex.differentiate(e, "t")
    return out


def noether_charge_delayed(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                           mult: ml.MultiplierSet, fam: InvarianceFamily,
                           args) -> np.ndarray:
    """C + int_t^min(t+tau, b) G per node, at the node arguments ``args``
    along traj, constant along the extremals of a delayed problem invariant
    under ``fam``; equal to ``noether_charge`` when tau = 0 or L reads no
    ``tau_`` slot.  With tau > 0 the T generator must be a constant, the
    only time shift a constant delay admits."""
    gen = lift_generators(fam, traj)
    C = _charge(p, traj, mult, gen, args)
    if not cd.has_comb(p):
        return C
    gT = _gen_expr(fam.Tmap)
    if ex.free_variables(gT):
        raise ValidationError(
            "the delayed charge needs a constant T generator, got "
            f"{ex.unparse(gT)!r} depending on {sorted(ex.free_variables(gT))}")
    T = ex.evaluate(gT, {})
    g = traj.grid
    X = np.swapaxes(gen.X, 0, 1)  # (m, n, M+1): X_0 .. X_{n-1}
    top = ml.blockwise_derivative(X[:, -1:, :], g.h, g.junction)
    rates_hist, rates = cd.delayed_rates(p, g, traj.x)
    hist = _history_generators(fam, p, g) - T * rates_hist
    cur = np.concatenate([X, top], axis=1) - T * rates
    G, G_left = cd.comb_terms(p, traj, mult, args, hist, cur)
    point = -T * cd.breakpoint_jump(p, traj, mult, args)
    return C + cd.comb_integral(G, G_left, g, point)


def drift(values, mask=None) -> float:
    """Total drift max - min, optionally over an unmasked subset."""
    vals = np.asarray(values)
    if mask is not None:
        vals = vals[~np.asarray(mask)]
    return float(np.max(vals) - np.min(vals))
