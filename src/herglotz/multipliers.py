"""Costate series phi_k, k = 1..n, from the closed-form sum

    phi_k(t) = sum_{l=0}^{n-k} (-1)^(l+1) d^l/dt^l [ psi(t) dL/dx^(l+k)(t)
               + psi(t+tau) dL/dx_tau^(l+k)(t+tau) ]

with the delayed term null once t + tau passes b.  The delayed factor is an
index shift by the delay offset.  One block rule (``block_sums``) serves
the costates, the Euler-Lagrange rows (k = 0) and the transversality values
(-phi_k(b)): left of b - tau the weighted summands are differentiated on
[a, b - tau], from there on the current ones on [b - tau, b], each block by
itself, because the delayed term switches off at b - tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as fn
from . import problem as pb
from . import trajectory as tr


@dataclass(frozen=True)
class MultiplierSet:
    psi: np.ndarray  # (M+1,)
    phi: np.ndarray  # (n, m, M+1)


def summand_terms(p, args, z, psi, orders):
    """(C_r, D_r) per order r in ``orders`` (a list): psi(t) dL/dx_j^(r)(t)
    and psi(t) dL/dx_tau_j^(r)(t), shape (..., m, M+1), at the node
    arguments ``args`` of ``fn.slot_args``."""
    *batch, N = np.broadcast_shapes(np.shape(psi), np.shape(z), *map(np.shape, args))
    terms = [tuple(np.empty((*batch, p.m, N)) for _ in range(2)) for _ in orders]
    for (C, D), r in zip(terms, orders):
        for j in range(1, p.m + 1):
            C[..., j - 1, :] = psi * fn.eval_args(p, args, z, pb.slot_name(j, r))
            D[..., j - 1, :] = psi * fn.eval_args(p, args, z, pb.delayed_slot_name(j, r))
    return terms


def weighted_terms(p, grid, args, z, psi, orders):
    """(C_r, W_r) per order: W_r adds psi(t+tau) dL/dx_tau^(r)(t+tau) to C_r,
    the delayed summand being null once t + tau > b."""
    return [(C, C + fn.ahead(D, grid.p))
            for C, D in summand_terms(p, args, z, psi, orders)]


def alternating_sum(terms, diff, sign=1):
    """sign * sum_l (-1)^l diff(terms[l], l), added term by term with its own
    sign so that exact zeros keep theirs."""
    acc = 0.0
    for l, term in enumerate(terms):
        d = diff(term, l)
        acc = acc + d if sign * (-1) ** l > 0 else acc - d
    return acc


def blockwise_derivative(vals, h, junction):
    """d/dt taken independently on the node ranges [0, junction] and
    [junction, M]; the junction node keeps the left-range value."""
    M = vals.shape[-1] - 1
    if junction >= M:
        return tr.differentiate_values(vals, h)
    out = np.empty_like(np.asarray(vals, dtype=float))
    out[..., :junction + 1] = tr.differentiate_values(vals[..., :junction + 1], h)
    out[..., junction + 1:] = tr.differentiate_values(vals[..., junction:], h)[..., 1:]
    return out


def block_sums(terms, k, grid, sign=1):
    """The alternating sum sign * sum_l (-1)^l d^l/dt^l of the summands of
    order l + k from one ``weighted_terms`` build, as the pair (left, right)
    of its blocks: left of b - tau, on the nodes 0..junction, it
    differentiates the weighted summands W; from b - tau on, the nodes
    junction..M, the current summands C, each block by itself.  At tau = 0
    W spans the grid and ``right`` is the last node of ``left``."""
    def block(side, nodes):
        return alternating_sum(
            [t[side][..., nodes] for t in terms[k:]],
            lambda s, l: s if l == 0 else tr.differentiate_values(s, grid.h, l),
            sign)

    jn = grid.junction
    left = block(1, slice(jn + 1))
    if grid.p == 0:
        return left, left[..., -1:]
    return left, block(0, slice(jn, None))


def compute_phi(p: pb.ProblemSpec, traj: tr.StateTrajectory,
                psi: np.ndarray, args) -> MultiplierSet:
    """Evaluate the closed form for every k at the node arguments ``args``
    of ``fn.slot_args`` along traj; no backward integration.  The node at
    b - tau keeps the left block's value."""
    grid = traj.grid
    jn = grid.junction
    terms = [None] + weighted_terms(p, grid, args, traj.z, psi, range(1, p.n + 1))
    phi = np.zeros((p.n, p.m, grid.M + 1))
    for k in range(1, p.n + 1):
        left, right = block_sums(terms, k, grid, sign=-1)
        phi[k - 1, :, :jn + 1] = left
        phi[k - 1, :, jn + 1:] = right[..., 1:]
    return MultiplierSet(psi=psi, phi=phi)


def write_multiplier_csv(grid, mult: MultiplierSet, path):
    """One row per node: t, psi, phi{k}_{j} (17 significant digits)."""
    n, m = mult.phi.shape[0], mult.phi.shape[1]
    header = ["t", "psi"] + [f"phi{k}_{j}" for k in range(1, n + 1)
                             for j in range(1, m + 1)]
    cols = [grid.nodes(), mult.psi] + [mult.phi[k, j]
                                       for k in range(n) for j in range(m)]
    tr._write_csv(path, header, cols)
