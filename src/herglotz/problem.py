"""Problem instances: Lagrangian with precomputed partials, interval, delay,
order, dimension, history and initial value.

Slot naming convention (flat variable names for the expression engine):

* ``t`` and ``z``
* component j, derivative order k: ``x{j}`` (k=0), ``xd{j}`` (k=1),
  ``xdd{j}`` (k=2), ``x{j}_d{k}`` (k >= 3)
* the same quantity evaluated at t - tau carries a ``tau_`` prefix,
  e.g. ``tau_xd1`` for the delayed first derivative of component 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import OutOfHistoryRange, ValidationError

_FD_POINTS = 10  # evaluation points of a finite-difference audit of L's partials
_FD_RELTOL = 1e-6
_AUDIT_SEED = 12345  # the points of build_problem's audit
_CHECK_SEED = 4242  # the points of check_derivatives


def slot_name(j: int, k: int) -> str:
    if k == 0:
        return f"x{j}"
    if k == 1:
        return f"xd{j}"
    if k == 2:
        return f"xdd{j}"
    return f"x{j}_d{k}"


def delayed_slot_name(j: int, k: int) -> str:
    return "tau_" + slot_name(j, k)


def arg_names(n: int, m: int) -> list[str]:
    """Canonical argument order used by every compiled Lagrangian callable:
    t, current slots (j outer, k inner), delayed slots, z."""
    cur = [slot_name(j, k) for j in range(1, m + 1) for k in range(n + 1)]
    tau = [delayed_slot_name(j, k) for j in range(1, m + 1) for k in range(n + 1)]
    return ["t"] + cur + tau + ["z"]


@dataclass(frozen=True)
class LagrangianSpec:
    """L plus its symbolic partial derivative w.r.t. every argument slot."""

    n: int
    m: int
    body: ex.Expr
    partials: dict  # keyed by slot name ('t', 'z', x-slots, tau_ slots)
    _compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def args(self):
        return arg_names(self.n, self.m)

    def compiled(self, which="body"):
        """Positional numpy callable for the body or a partial ('t', 'z',
        a slot name).  Cached per spec instance."""
        fn = self._compiled.get(which)
        if fn is None:
            e = self.body if which == "body" else self.partials[which]
            fn = ex.compile_expr(e, self.args)
            self._compiled[which] = fn
        return fn


def make_lagrangian(n: int, m: int, body) -> LagrangianSpec:
    """Differentiate the body w.r.t. every slot it reads; every other slot
    gets the partial 0.  Rejects free variables outside the slot set."""
    if isinstance(body, str):
        body = ex.parse_expression(body)
    names = arg_names(n, m)
    free = ex.free_variables(body)
    extra = free - set(names)
    if extra:
        raise ValidationError(
            [f"Lagrangian uses unknown variable '{v}'" for v in sorted(extra)])
    partials = {name: ex.differentiate(body, name) if name in free else ex.Num(0.0)
                for name in names}
    # 2 + 2*m*(n+1) entries: t, z, and current+delayed per (j, k)
    return LagrangianSpec(n=n, m=m, body=body, partials=partials)


@dataclass(frozen=True)
class ProblemSpec:
    a: float
    b: float
    tau: float
    gamma: float
    lagrangian: LagrangianSpec
    history: tuple  # m expressions of t
    history_derivs: tuple  # [j][k] = k-th symbolic derivative, k = 0..n+1
    _compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self):
        return self.lagrangian.n

    @property
    def m(self):
        return self.lagrangian.m

    def history_fn(self, j, k):
        """Compiled mu_j^(k), callable on arrays of t."""
        key = (j, k)
        fn = self._compiled.get(key)
        if fn is None:
            fn = ex.compile_expr(self.history_derivs[j - 1][k], ["t"])
            self._compiled[key] = fn
        return fn


def history_derivative(p: ProblemSpec, j: int, k: int, t: float) -> float:
    """mu_j^(k)(t) for t in [a - tau, a]; k up to n + 1 (the delayed slots
    need the n-th derivative of the history, the delayed DuBois-Reymond comb
    one order more)."""
    slack = 1e-9 * max(1.0, abs(p.b - p.a))
    if t < p.a - p.tau - slack or t > p.a + slack:
        raise OutOfHistoryRange(
            f"t={t!r} outside history interval [{p.a - p.tau!r}, {p.a!r}]")
    return ex.evaluate(p.history_derivs[j - 1][k], {"t": t})


def build_problem(raw) -> ProblemSpec:
    """Construct and validate a ProblemSpec from parsed file content (or any
    object with the same attributes).  Collects every violated invariant
    into a single ValidationError."""
    problems = []

    n, m = raw.n, raw.m
    if not (isinstance(n, int) and n >= 1):
        problems.append(f"order n must be an integer >= 1, got {n!r}")
    if not (isinstance(m, int) and m >= 1):
        problems.append(f"dimension m must be an integer >= 1, got {m!r}")
    if problems:
        raise ValidationError(problems)

    a, b, tau = float(raw.a), float(raw.b), float(raw.tau)
    if not b > a:
        problems.append(f"interval endpoints must satisfy b > a, got a={a!r}, b={b!r}")
    if not (0.0 <= tau < b - a):
        problems.append(f"delay must satisfy 0 <= tau < b - a, got tau={tau!r}")

    lag = None
    try:
        lag = make_lagrangian(n, m, raw.lagrangian_src)
    except ValidationError as err:
        problems.extend(f"lagrangian: {msg}" for msg in err.problems)
    except Exception as err:  # syntax errors, unknown functions
        problems.append(f"lagrangian: {err}")

    if len(raw.history_src) != m:
        problems.append(f"need {m} history expressions, got {len(raw.history_src)}")
        raise ValidationError(problems)

    history = []
    history_derivs = []
    for j in range(1, m + 1):
        try:
            mu = ex.parse_expression(raw.history_src[j - 1])
            extra = ex.free_variables(mu) - {"t"}
            if extra:
                problems.append(
                    f"history mu{j} may only depend on t, found {sorted(extra)}")
                continue
            derivs = [mu]
            for _ in range(n + 1):
                derivs.append(ex.differentiate(derivs[-1], "t"))
            history.append(mu)
            history_derivs.append(tuple(derivs))
        except Exception as err:
            problems.append(f"history mu{j}: {err}")

    if lag is not None and not problems:
        problems.extend(_check_partials_fd(lag, a, b))

    if problems:
        raise ValidationError(problems)

    return ProblemSpec(a=a, b=b, tau=tau, gamma=float(raw.gamma),
                       lagrangian=lag, history=tuple(history),
                       history_derivs=tuple(history_derivs))


def _check_partials_fd(lag, a, b):
    """Compare each symbolic partial with a central finite difference at
    random interior points.  Returns a list of failure descriptions."""
    samples = _fd_samples(lag, a, b, np.random.default_rng(_AUDIT_SEED))
    failures = [f"partial d/d{name} disagrees with finite differences at "
                f"t={t:.6g}: symbolic {sym:.9g} vs fd {fd:.9g}"
                for sample in samples for name, t, sym, fd in sample
                if abs(sym - fd) > _FD_RELTOL * (1.0 + abs(sym))]
    if len(samples) < _FD_POINTS:
        failures.append("could not find enough finite evaluation points for the "
                        "finite-difference validation of the partials")
    return failures


def check_derivatives(p: ProblemSpec):
    """Finite-difference audit of every partial; returns a list of rows
    (slot, t, symbolic, fd, rel_err).  Used by the check-derivs command."""
    samples = _fd_samples(p.lagrangian, p.a, p.b, np.random.default_rng(_CHECK_SEED))
    return [(name, t, sym, fd, abs(sym - fd) / (1.0 + abs(sym)))
            for sample in samples for name, t, sym, fd in sample]


def _fd_samples(lag, a, b, rng, h=1e-6):
    """Up to ``_FD_POINTS`` random evaluation points (slots in [0.6, 1.4], t in
    [a, b]), each a list of (slot, t, symbolic partial, central difference)
    over every slot.  A point where L or a value is non-finite or raises is
    redrawn, within 40 * _FD_POINTS draws in all.  A slot L does not read gets
    the row (slot, t, 0, 0) without an evaluation, so the work scales with
    the slots L reads, not with n and m."""
    names, free = lag.args, ex.free_variables(lag.body)
    samples = []
    attempts = 0
    while len(samples) < _FD_POINTS and attempts < 40 * _FD_POINTS:
        attempts += 1
        # one array draw gives the same values as one scalar draw per slot
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
