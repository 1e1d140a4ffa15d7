"""Seeded problem generators for the three benchmark workloads.

A workload is one fixed round of task shapes (family, tau, grid size M,
order n, dimension m).  The seed draws only the coefficients, histories and
candidates, so every seed gives the same mix of sizes and the medians of two
runs compare like with like.  The program under test receives nothing but
the problem-file text written from a task.

Every coefficient range below was checked to converge on many seeds; a draw
that does not converge is reported as a failed task, never redrawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# one sentence per workload on why it is in the benchmark (as in BENCHMARK.json)
WHY = {
    "solve-delay": (
        "solve on z-decoupled delayed Lagrangians, M 600-2000: the dense "
        "finite-difference Jacobian (about 1% nonzero) dominates, so "
        "coloring and banded LU act here"),
    "solve-zcoupled": (
        "charge on z-coupled autonomous Lagrangians, M 800-1500: z enters "
        "dL/dx so the Jacobian stays dense; 4 Newton steps weight the line "
        "search; adds noether"),
    "certify": (
        "simulate, CSV round trip, verify and Guinn equivalence at M=10000 "
        "with no Newton solve: the single-trajectory RK4 loop and CSV text "
        "I/O dominate"),
}

TIME_TRANSLATION = ("t + s", "x1", "z", 0.0)  # (T, X1, Z, xi)


@dataclass(frozen=True)
class Task:
    """One unit of user work and what its output checks need to know."""

    label: str
    command: str          # "solve", "charge" or "certify"
    M: int
    tau: float
    n: int
    m: int
    lagrangian: str       # L in the program's expression syntax
    history: tuple        # per component (x0, d): mu_j(t) = x0 + d*t
    candidate: tuple = ()  # certify only, per component (x0, d, e, f, w, g):
                           # x_j = x0 + d t + e t^2 + f (sin(w t) - g t)
    z_rate: float = 0.0   # certify: L = f(t, slots) - z_rate*z
    k: float = 0.0        # tau = 0 z-coupled items: L = xd^2/2 - k x^2/2 - c z x
    c: float = 0.0
    tol: float = 1e-6     # the --tol handed to solve/charge

    @property
    def tau_zero_oscillator(self):
        return self.command == "charge" and self.tau == 0.0

    def spec_text(self):
        """The problem file handed to the program."""
        lines = ["[problem]", "a = 0.0", "b = 1.0", f"tau = {self.tau!r}",
                 f"n = {self.n}", f"m = {self.m}", "gamma = 0.0", "",
                 "[lagrangian]", f'L = "{self.lagrangian}"', "", "[history]"]
        for j, (x0, d) in enumerate(self.history, start=1):
            lines.append(f'mu{j} = "{x0!r} + {d!r}*t"')
        if self.command == "charge":
            T, X1, Z, xi = TIME_TRANSLATION
            lines += ["", "[family]", f'T = "{T}"', f'X1 = "{X1}"',
                      f'Z = "{Z}"', f"xi = {xi!r}"]
        if self.candidate:
            lines += ["", "[candidate]"]
            for j, cand in enumerate(self.candidate, start=1):
                lines.append(f'x{j} = "{candidate_source(cand)}"')
        return "\n".join(lines) + "\n"


def candidate_source(cand):
    x0, d, e, f, w, g = cand
    wave = f"(sin({w!r}*t) - {g!r}*t)" if g else f"sin({w!r}*t)"
    return f"{x0!r} + {d!r}*t + {e!r}*t^2 + {f!r}*{wave}"


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _signed(rng, lo, hi):
    return _u(rng, lo, hi) * rng.choice((-1.0, 1.0))


# --------------------------------------------------------------------------
# solve-delay: z-decoupled delayed families, n = 1

def _delayed(rng):
    c = _u(rng, 0.15, 0.35)
    return f"0.5*xd1^2 + {c!r}*tau_x1^2 - z", ((1.0, _u(rng, -0.3, 0.3)),)


def _delayed_velocity(rng):
    # without the load term e*x1 the constant x = mu(a) is an extremal and
    # the solve would take no Newton step
    c, e = _u(rng, 0.3, 0.6), _u(rng, 0.2, 0.5)
    L = f"0.5*xd1^2 + {c!r}*tau_xd1^2 - {e!r}*x1 - z"
    return L, ((1.0, _signed(rng, 0.2, 0.5)),)


def _cross_delay(rng):
    c1, c2, c3 = _u(rng, 0.15, 0.35), _u(rng, 0.2, 0.4), _u(rng, 0.1, 0.3)
    L = f"0.5*xd1^2 + {c1!r}*tau_x1^2 - {c2!r}*x1*tau_xd1 - {c3!r}*z"
    return L, ((1.0, _u(rng, 0.3, 0.7)),)


def _cross_delay_m2(rng):
    c1, c2, c3, c4 = (_u(rng, 0.15, 0.35), _u(rng, 0.2, 0.4),
                      _u(rng, 0.1, 0.3), _u(rng, 0.1, 0.3))
    L = (f"0.5*xd1^2 + 0.5*xd2^2 + {c1!r}*tau_x1^2 - {c2!r}*x1*tau_xd2"
         f" - {c3!r}*x2*tau_xd1 - {c4!r}*z")
    return L, ((1.0, _u(rng, 0.3, 0.7)), (1.0, _u(rng, -0.5, -0.1)))


# (family, builder, tau, M, m).  An odd number of shapes whose middle one
# (m = 2 at M = 600) is well apart in cost from its neighbours, so the
# median task is that shape's and not the mean of two unlike tasks.
_SOLVE_DELAY = (
    ("delayed", _delayed, 0.5, 2000, 1),
    ("delayed-velocity", _delayed_velocity, 0.25, 1000, 1),
    ("cross-delay", _cross_delay, 0.25, 1000, 1),
    ("cross-delay", _cross_delay, 0.5, 2000, 1),
    ("cross-delay-m2", _cross_delay_m2, 0.25, 600, 2),
)


def _solve_delay(seed, scale):
    tasks = []
    for i, (family, build, tau, M, m) in enumerate(_SOLVE_DELAY):
        rng = random.Random(f"solve-delay:{seed}:{i}")
        L, hist = build(rng)
        tasks.append(Task(label=f"{i}-{family}-tau{tau}-M{M // scale}",
                          command="solve", M=M // scale, tau=tau, n=1, m=m,
                          lagrangian=L, history=hist))
    return tasks


# --------------------------------------------------------------------------
# solve-zcoupled: autonomous, z enters dL/dx through -c*z*x1

# (tau, M, tol): the tolerance sits between the third and fourth Newton
# residual of every draw in range, so each item takes exactly 4 iterations.
# The odd middle shape (M = 1100) makes the median task that shape's.
_SOLVE_ZCOUPLED = ((0.0, 800, 1.5e-6), (0.25, 800, 5e-8), (0.25, 1100, 5e-8),
                   (0.0, 1500, 1.5e-6), (0.25, 1500, 5e-8))


def _solve_zcoupled(seed, scale):
    tasks = []
    for i, (tau, M, tol) in enumerate(_SOLVE_ZCOUPLED):
        rng = random.Random(f"solve-zcoupled:{seed}:{i}")
        k, c = _u(rng, 1.0, 1.1), _u(rng, 0.09, 0.12)
        if tau == 0.0:
            L = f"0.5*xd1^2 - {0.5 * k!r}*x1^2 - {c!r}*z*x1"
            hist = ((_u(rng, 0.95, 1.05), 0.0),)
        else:
            c1 = _u(rng, 0.15, 0.2)
            L = f"0.5*xd1^2 + {c1!r}*tau_x1^2 - {0.5 * k!r}*x1^2 - {c!r}*z*x1"
            hist = ((1.0, _u(rng, -0.1, 0.1)),)
        tasks.append(Task(label=f"{i}-zcoupled-tau{tau}-M{M // scale}",
                          command="charge", M=M // scale, tau=tau, n=1, m=1,
                          lagrangian=L, history=hist, k=k, c=c, tol=tol))
    return tasks


# --------------------------------------------------------------------------
# certify: simulate a seeded candidate and certify it, n and m in {1, 2}

_CERTIFY = (  # (n, m, tau, L template with {c1} {c2} {c3})
    (1, 1, 0.5, "0.5*xd1^2 + {c1}*tau_x1^2 - {c2}*x1*tau_xd1 - {c3}*z"),
    (1, 2, 0.25, "0.5*xd1^2 + 0.5*xd2^2 + {c1}*tau_x1*x2 + {c2}*tau_xd2^2 - {c3}*z"),
    (2, 1, 0.25, "0.5*xdd1^2 + {c1}*tau_x1^2 + {c2}*xd1*tau_xd1 - {c3}*z"),
    (2, 2, 0.5, "0.5*xdd1^2 + 0.5*xdd2^2 + {c1}*tau_x1*x2 + {c2}*tau_xd2*xd1 - {c3}*z"),
)
_CERTIFY_M = 10000


def _certify(seed, scale):
    tasks = []
    for i, (n, m, tau, template) in enumerate(_CERTIFY):
        rng = random.Random(f"certify:{seed}:{i}")
        c1, c2, c3 = _u(rng, 0.1, 0.4), _u(rng, 0.1, 0.4), _u(rng, 0.1, 1.0)
        hist, cand = [], []
        for _ in range(m):
            x0, d = _u(rng, 0.5, 1.5), _u(rng, -0.5, 0.5)
            e, f, w = _u(rng, -0.5, 0.5), _u(rng, 0.1, 0.5), _u(rng, 1.0, 4.0)
            # admissible: x^(k)(a) = mu^(k)(a) for k < n, so for n = 2 the
            # sine's slope at a is cancelled; for n = 1 the slope jumps at
            # a, as it does for an extremal
            if n > 1:
                cand.append((x0, d, e, f, w, w))
            else:
                cand.append((x0, _u(rng, -0.5, 0.5), e, f, w, 0.0))
            hist.append((x0, d))
        M = _CERTIFY_M // scale
        tasks.append(Task(label=f"{i}-certify-n{n}-m{m}-tau{tau}-M{M}",
                          command="certify", M=M, tau=tau, n=n, m=m,
                          lagrangian=template.format(c1=repr(c1), c2=repr(c2),
                                                     c3=repr(c3)),
                          history=tuple(hist), candidate=tuple(cand), z_rate=c3))
    return tasks


GENERATORS = {"solve-delay": _solve_delay, "solve-zcoupled": _solve_zcoupled,
              "certify": _certify}


def generate(workload, seed, scale=1):
    """The round of tasks for a workload; ``scale`` divides every M (the
    self-test uses 5, which keeps every delay aligned with the grid)."""
    return GENERATORS[workload](seed, scale)
