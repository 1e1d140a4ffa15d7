"""Observed order of the solver in h, an oracle independent of closed forms:
q = log2 of the ratio of successive sup|x_M - x_2M| on the common nodes.

At tau = 0 the stencils, the RK4 march of z and the quadrature of psi are
all fourth order, so q is near 4 whether or not dL/dz varies along the
solution.  The delayed rows are left out: with a delay the solves converge
at order 2 in x (1 with a corner at b - tau) until the series are split at
the breakpoints, and they are asserted once they reach fourth order.
"""

import numpy as np
import pytest

from herglotz.solver import SolveOptions, solve_extremal

from conftest import make_problem
from test_solver import Z_COUPLED, Z_FREE

# (L, grid sizes, tol_r): tol_r lies below the differences it resolves and
# above the rounding floor of the residual at the finest grid
ORDER = {
    "z-free oscillator": (Z_FREE["oscillator"][0], (100, 200, 400), 1e-6),
    "z-coupled oscillator": (Z_COUPLED["oscillator"][0], (50, 100, 200), 1e-10),
}


@pytest.mark.parametrize("name", sorted(ORDER))
def test_tau0_observed_order_is_four(name):
    L, Ms, tol_r = ORDER[name]
    p = make_problem(L)
    x = []
    for M in Ms:
        res = solve_extremal(p, SolveOptions(M=M, h=None, tol_r=tol_r))
        assert res.converged
        x.append(res.trajectory.x[:, 0, :])
    err = [np.max(np.abs(a - b[:, ::2])) for a, b in zip(x, x[1:])]
    assert np.log2(err[0] / err[1]) >= 3.8
