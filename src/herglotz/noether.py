"""One-parameter symmetry families: generator lifting, first-order invariance
check, and the conserved charge

    C(t) = C_0(t) + int_t^min(t+tau, b) G,
    C_0 = sum_k phi_k . X_{k-1} + psi Z - [sum_k phi_k . x^(k) + psi L] T.

Generators may depend on (s, t, x_j, z) but not on derivatives of x.  The
lifted series follow the recursion X_k = d/dt X_{k-1} - x^(k) d/dt T.

For an L invariant under a family with a constant T generator,

    dC_0/dt = sum_j R_j (X_0j - T x_j') + G(t) - G(t + tau),
    G(s) = psi(s) sum_{j,r} dL/dx_tau_j^(r)(s) [X_r(s - tau) - T x_j^(r+1)(s - tau)],

with R the Euler-Lagrange residual and G = 0 past b, so C is constant along
extremals.  G is zero when tau = 0 or L reads no ``tau_`` slot
(``conditions.has_comb``), and C is then the pointwise C_0 bit for bit, for
any T generator; with the comb on, the T generator must be a constant
(``time_shift``).  Below a the delayed argument is the history with z
frozen at gamma, as in the invariance check.
"""

from typing import NamedTuple

import numpy as np

from . import conditions as cd
from . import expr as ex
from . import functional as fn
from . import multipliers as ml
from . import problem as pb
from . import trajectory as tr
from .errors import ValidationError

_GEN_VARS_OK = {"s", "t", "z"}


class InvarianceFamily(NamedTuple):
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


class GeneratorSeries(NamedTuple):
    T: np.ndarray  # (M+1,)
    X: np.ndarray  # (n, m, M+1): X_0 .. X_{n-1}
    Z: np.ndarray  # (M+1,)
    fam: InvarianceFamily  # the family lifted, whose xi the defect reads
    hist: np.ndarray | None  # (m, n+1, p+1) when L's comb is on, else None


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


def lift_generators(p: pb.ProblemSpec, fam: InvarianceFamily,
                    traj: tr.StateTrajectory) -> GeneratorSeries:
    """T, X_0, Z from the symbolic s-derivative at s=0, then the X_k
    recursion along the trajectory.  When L's comb is on
    (``cd.has_comb``), also X_0 .. X_n prolonged along the history
    (``_history_generators``), which a delayed slot below a reads."""
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
    hist = _history_generators(fam, p, traj.grid) if cd.has_comb(p) else None
    return GeneratorSeries(T=T, X=X, Z=Z, fam=fam, hist=hist)


def _invariance_rates(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                      gen: GeneratorSeries, args):
    """The s-derivatives at s = 0 of the two invariance conditions

        (z(b)/(b - a) + xi s) dT^s/dt - z(b)/(b - a),
        dZ^s/dt - dT^s/dt L(T^s, X^s_k, Z^s),

    per node of [a, b], at the node arguments ``args`` along traj.  X^s_k is
    the k-th derivative of X^s with respect to T^s, whose s-derivative at
    s = 0 is X_k = X_{k-1}' - x^(k) T' (X_0 .. X_{n-1} of the lifted
    generators ``gen``).  A delayed slot below a reads their prolongation
    along the history."""
    g, n, z = traj.grid, p.n, traj.z
    reads = ex.free_variables(p.lagrangian.body)
    with np.errstate(all="ignore"):
        dT = tr.differentiate_values(gen.T, g.h, 1)
        top = tr.differentiate_values(gen.X[n - 1], g.h, 1) - traj.x[:, n, :] * dT
        X = np.concatenate([gen.X, top[None]])  # (n+1, m, M+1)
        Xd = X
        if gen.hist is not None:
            Xd = fn.behind(np.swapaxes(gen.hist, 0, 1), X, g.p)
        dL = 0.0
        for name, V in [("t", gen.T), ("z", gen.Z)] + [
                (slot(j + 1, k), S[k, j]) for k, j in np.ndindex(n + 1, p.m)
                for slot, S in ((pb.slot_name, X), (pb.delayed_slot_name, Xd))]:
            if name in reads:
                dL = dL + fn.eval_args(p, args, z, name) * V
        c1 = z[-1] / (g.b - g.a) * dT + gen.fam.xi
        c2 = (tr.differentiate_values(gen.Z, g.h, 1)
              - dT * fn.eval_args(p, args, z, "body") - dL)
    return c1, c2


def invariance_defect(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                      gen: GeneratorSeries, args):
    """First-order defects of the two invariance conditions, for the
    generators ``gen`` lifted along traj, at the node arguments ``args``: the
    sup over the nodes of [a, b] of each of ``_invariance_rates``."""
    c1, c2 = _invariance_rates(p, traj, gen, args)
    return float(np.max(np.abs(c1))), float(np.max(np.abs(c2)))


def time_shift(p: pb.ProblemSpec, fam: InvarianceFamily):
    """The T generator of ``fam``, a constant, when L's comb is on
    (``cd.has_comb``), else None: the charge of a delayed L holds for a
    time shift only, the one time map a constant delay admits.  Raises
    ValidationError naming a T generator that is not a constant."""
    if not cd.has_comb(p):
        return None
    gT = _gen_expr(fam.Tmap)
    if ex.free_variables(gT):
        raise ValidationError(
            "the charge of an L that reads a tau_ slot needs a constant T "
            f"generator, got {ex.unparse(gT)!r} depending on "
            f"{sorted(ex.free_variables(gT))}")
    return ex.evaluate(gT, {})


def noether_charge(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                   mult: ml.MultiplierSet, gen: GeneratorSeries,
                   args) -> np.ndarray:
    """The charge C per node, for the generators ``gen`` lifted along traj,
    at the node arguments ``args`` of ``fn.slot_args``: constant along the
    extremals of a problem invariant under the family.  The comb integral
    is added when L's comb is on, which needs a constant T generator."""
    inner = cd.dbr_inner(p, traj, mult, args)
    C = mult.psi * gen.Z - inner * gen.T
    for k in range(1, p.n + 1):
        C = C + np.sum(mult.phi[k - 1] * gen.X[k - 1], axis=0)
    if gen.hist is None:
        return C
    T = time_shift(p, gen.fam)
    g = traj.grid
    X = np.swapaxes(gen.X, 0, 1)  # (m, n, M+1): X_0 .. X_{n-1}
    top = ml.blockwise_derivative(X[:, -1:, :], g.h, g.junction)
    rates_hist, rates = cd.delayed_rates(p, g, traj.x)
    hist = gen.hist - T * rates_hist
    cur = np.concatenate([X, top], axis=1) - T * rates
    G, G_left = cd.comb_terms(p, traj, mult, args, hist, cur)
    point = -T * cd.breakpoint_jump(p, traj, mult, args)
    return C + cd.comb_integral(G, G_left, g, point)


def _history_generators(fam, p, grid):
    """X_r, r = 0..n, prolonged along the history on the nodes of
    [a - tau, a] with z frozen at gamma: shape (m, n+1, p+1), by the
    symbolic recursion X_r = d/dt X_{r-1} - mu^(r) d/dt T."""
    along = {f"x{j}": p.history[j - 1] for j in range(1, p.m + 1)}
    along["z"] = ex.Num(p.gamma)
    dT = ex.differentiate(ex.substitute(_gen_expr(fam.Tmap), along), "t")
    t = grid.a + grid.h * np.arange(-grid.p, 1)
    out = np.empty((p.m, p.n + 1, t.size))
    for j in range(p.m):
        e = ex.substitute(_gen_expr(fam.Xmap[j]), along)
        for r in range(p.n + 1):
            with np.errstate(all="ignore"):
                out[j, r] = np.broadcast_to(np.asarray(
                    ex.compile_expr(e, ["t"])(t), dtype=float), t.shape)
            e = ex.simplify(ex.BinOp("-", ex.differentiate(e, "t"), ex.BinOp(
                "*", p.history_derivs[j][r + 1], dT)))
    return out


def drift(values, mask=None) -> float:
    """Total drift max - min, optionally over an unmasked subset."""
    vals = np.asarray(values)
    if mask is not None:
        vals = vals[~np.asarray(mask)]
    return float(np.max(vals) - np.min(vals))
