"""Delayed higher-order Herglotz variational problems: necessary-condition
residuals, extremal solver, Noether charges, and the Guinn-style reduction."""

from .conditions import ResidualReport, dbr_residual, full_report
from .errors import (DomainError, ExprSyntaxError, GridTooSmall, HerglotzError,
                     NonFiniteLagrangian, OutOfHistoryRange, SingularJacobian,
                     UnboundVariable, UnknownFunction, ValidationError, ZeroDelay)
from .expr import differentiate, evaluate, free_variables, parse_expression, simplify, substitute, unparse
from .functional import admissibility_defect, simulate_z
from .multipliers import MultiplierSet, block_sums, compute_phi
from .noether import InvarianceFamily, drift, invariance_defect, lift_generators, make_family, noether_charge
from .problem import LagrangianSpec, ProblemSpec, build_problem, history_derivative, make_lagrangian
from .reduction import (ReducedProblem, guinn_reduce, map_trajectory, simulate_reduced,
                        verify_reduction_equivalence, write_reduced_file)
from .solver import SolveOptions, SolveResult, solve_extremal
from .specfile import ProblemFileContent, parse_problem_file
from .trajectory import (Grid, StateTrajectory, align_grid, from_expressions,
                         read_trajectory_csv, write_trajectory_csv)

__version__ = "0.1.0"
