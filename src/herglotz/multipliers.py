"""Costate series phi_k, k = 1..n, from the paper's adjoint equations

    phi_1' = -W_0,  phi_{k+1}' = -W_k - phi_k,  W_n + phi_n = 0,

W_r(t) = psi(t) dL/dx^(r)(t) + psi(t+tau) dL/dx_tau^(r)(t+tau) being the
order-r weighted summand, with the delayed term null once t + tau passes b.
The delayed factor is an index shift by the delay offset.  Read backwards
the equations are Horner's rule for the sums S_k = -phi_k:

    S_n = W_n,  S_k = W_k - S_{k+1}',

and S_0 is the Euler-Lagrange residual.  One backward pass per block
(``block_sums``, the only code that builds the summands) gives every order
at once, one stencil pass per order below the top, once per trajectory:
the costates, the Euler-Lagrange rows (k = 0) and the transversality
values (-phi_k(b)) all read it.  Left of b - tau the weighted summands are
differentiated on [a, b - tau], from there on the current ones on
[b - tau, b], each block by itself, because the delayed term switches off
at b - tau.
"""

from typing import NamedTuple

import numpy as np

from . import functional as fn
from . import problem as pb
from . import trajectory as tr


class MultiplierSet(NamedTuple):
    psi: np.ndarray  # (M+1,)
    phi: np.ndarray  # (n, m, M+1)


def summand_terms(p, args, z, psi):
    """(C_r, D_r) per order r = 0..n: psi(t) dL/dx_j^(r)(t) and
    psi(t) dL/dx_tau_j^(r)(t), shape (..., m, M+1), at the node arguments
    ``args`` of ``fn.slot_args``."""
    *batch, N = np.broadcast_shapes(np.shape(psi), np.shape(z), *map(np.shape, args))
    terms = [tuple(np.empty((*batch, p.m, N)) for _ in range(2)) for _ in range(p.n + 1)]
    for r, (C, D) in enumerate(terms):
        for j in range(1, p.m + 1):
            C[..., j - 1, :] = psi * fn.eval_args(p, args, z, pb.slot_name(j, r))
            D[..., j - 1, :] = psi * fn.eval_args(p, args, z, pb.delayed_slot_name(j, r))
    return terms


def weighted_terms(p, grid, args, z, psi):
    """(C_r, W_r) per order r = 0..n: W_r adds psi(t+tau) dL/dx_tau^(r)(t+tau)
    to C_r, the delayed summand being null once t + tau > b."""
    return [(C, C + fn.ahead(D, grid.p)) for C, D in summand_terms(p, args, z, psi)]


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


def block_sums(p, grid, args, z, psi):
    """The sums S_k, k = 0..n, at the node arguments ``args`` of
    ``fn.slot_args``, z and psi, by one backward pass per block: S_n = W_n
    and S_k = W_k - S_{k+1}', as the pair (left, right) of shape
    (..., n+1, m, nodes).  Left of b - tau, on the nodes 0..junction, it
    differentiates the weighted summands W; from b - tau on, the nodes
    junction..M, the current summands C, each block by itself.  At tau = 0
    W spans the grid and ``right`` is the last node of ``left``.  Each
    summand enters as 0.0 + W, so an exact zero is +0.0."""
    terms = weighted_terms(p, grid, args, z, psi)

    def block(side, nodes):
        top = terms[-1][side][..., nodes]
        S = np.empty(top.shape[:-2] + (len(terms),) + top.shape[-2:])
        S[..., -1, :, :] = 0.0 + top
        for k in range(len(terms) - 2, -1, -1):
            S[..., k, :, :] = ((0.0 + terms[k][side][..., nodes])
                               - tr.differentiate_values(S[..., k + 1, :, :], grid.h))
        return S

    jn = grid.junction
    left = block(1, slice(jn + 1))
    if grid.p == 0:
        return left, left[..., -1:]
    return left, block(0, slice(jn, None))


def compute_phi(psi, sums) -> MultiplierSet:
    """phi_k = -S_k for k = 1..n, read off ``sums``, the ``block_sums`` at
    psi; the node at b - tau keeps the left block's value."""
    left, right = sums
    return MultiplierSet(psi=psi, phi=0.0 - np.concatenate(
        [left[..., 1:, :, :], right[..., 1:, :, 1:]], axis=-1))


def write_multiplier_csv(grid, mult: MultiplierSet, path):
    """One row per node: t, psi, phi{k}_{j} (17 significant digits)."""
    n, m, N = mult.phi.shape
    header = ["t", "psi"] + [f"phi{k}_{j}" for k in range(1, n + 1)
                             for j in range(1, m + 1)]
    tr.write_table(path, header, [[grid.nodes(), mult.psi, *mult.phi.reshape(-1, N)]])
