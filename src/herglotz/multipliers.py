"""Costate series phi_k, k = 1..n, from the closed-form sum

    phi_k(t) = sum_{l=0}^{n-k} (-1)^(l+1) d^l/dt^l [ psi(t) dL/dx^(l+k)(t)
               + psi(t+tau) dL/dx_tau^(l+k)(t+tau) ]

with the delayed term null once t + tau passes b.  The delayed factor is an
index shift by the delay offset; time derivatives are taken separately on
[a, b-tau] and [b-tau, b] because the delayed term switches off at b-tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as fn
from . import problem as pb
from . import trajectory as tr
from .errors import ValidationError


@dataclass(frozen=True)
class MultiplierSet:
    psi: np.ndarray  # (M+1,)
    phi: np.ndarray  # (n, m, M+1)


def summand_terms(p, grid, x, z, psi, orders,
                  kinds=(pb.slot_name, pb.delayed_slot_name)):
    """psi(t) dL/ds_j^(r)(t), shape (..., m, M+1), per order r in ``orders``
    (a list) and slot kind s (a tuple: current, then delayed slots), from
    one build of L's arguments."""
    args = fn.slot_args(p, grid, x) + [z]
    batch = np.broadcast_shapes(x.shape[:-3], psi.shape[:-1])
    nodes = x.shape[:-3] + (grid.M + 1,)
    terms = []
    for r in orders:
        row = []
        for kind in kinds:
            S = np.empty(batch + (p.m, grid.M + 1))
            for j in range(1, p.m + 1):
                S[..., j - 1, :] = psi * fn.eval_args(p, args, kind(j, r), nodes)
            row.append(S)
        terms.append(tuple(row))
    return terms


def weighted_terms(p, grid, x, z, psi, orders):
    """(C_r, W_r) per order: W_r adds psi(t+tau) dL/dx_tau^(r)(t+tau) to C_r,
    the delayed summand being null once t + tau > b."""
    return [(C, C + fn.ahead(D, grid.p))
            for C, D in summand_terms(p, grid, x, z, psi, orders)]


def alternating_sum(terms, k, diff, sign=1):
    """sign * sum_{l=0}^{len(terms)-1-k} (-1)^l diff(terms[l + k], l), added
    term by term with its own sign so that exact zeros keep theirs."""
    acc = 0.0
    for l in range(len(terms) - k):
        d = diff(terms[l + k], l)
        acc = acc + d if sign * (-1) ** l > 0 else acc - d
    return acc


def blockwise_derivative(vals, h, l, junction):
    """d^l/dt^l taken independently on the node ranges [0, junction] and
    [junction, M]; the junction node keeps the left-range value."""
    if l == 0:
        return np.array(vals, dtype=float, copy=True)
    M = vals.shape[-1] - 1
    if junction >= M:
        return tr.differentiate_values(vals, h, l)
    out = np.empty_like(np.asarray(vals, dtype=float))
    out[..., :junction + 1] = tr.differentiate_values(vals[..., :junction + 1], h, l)
    out[..., junction + 1:] = tr.differentiate_values(vals[..., junction:], h, l)[..., 1:]
    return out


def compute_phi(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                psi: np.ndarray) -> MultiplierSet:
    """Evaluate the closed form for every k; no backward integration."""
    if traj.z is None:
        raise ValidationError("trajectory has no z series; simulate it first")
    grid = traj.grid
    W = [None] + [W for _, W in weighted_terms(p, grid, traj.x, traj.z,
                                               psi, range(1, p.n + 1))]
    phi = np.zeros((p.n, p.m, grid.M + 1))
    for k in range(1, p.n + 1):
        phi[k - 1] = alternating_sum(
            W, k, lambda s, l: blockwise_derivative(s, grid.h, l, grid.junction),
            sign=-1)
    return MultiplierSet(psi=psi, phi=phi)


def write_multiplier_csv(grid, mult: MultiplierSet, path):
    """One row per node: t, psi, phi{k}_{j} (17 significant digits)."""
    n, m = mult.phi.shape[0], mult.phi.shape[1]
    header = ["t", "psi"] + [f"phi{k}_{j}" for k in range(1, n + 1)
                             for j in range(1, m + 1)]
    cols = [grid.nodes(), mult.psi] + [mult.phi[k, j]
                                       for k in range(n) for j in range(m)]
    tr._write_csv(path, header, cols)


def compute_phi_history(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                        psi: np.ndarray) -> np.ndarray:
    """phi_k on [a - tau, a] (delayed-term-only branch of the closed form):
    shape (n, m, p+1).  Only the reduction cross-checks need this."""
    grid = traj.grid
    q = grid.p
    # the t-argument shift makes this the delayed term's generator series
    # evaluated on [a, a + tau]
    S = [None] + [D for D, in summand_terms(p, grid, traj.x, traj.z, psi,
                                            range(1, p.n + 1),
                                            kinds=(pb.delayed_slot_name,))]
    phi = np.zeros((p.n, p.m, q + 1))
    for k in range(1, p.n + 1):
        phi[k - 1] = alternating_sum(
            S, k, lambda s, l: tr.differentiate_values(s, grid.h, l)[..., :q + 1],
            sign=-1)
    return phi
