import numpy as np
import pytest

from herglotz import conditions as cd
from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import noether as nt
from herglotz import problem as pb
from herglotz import trajectory as tr
from herglotz.errors import ValidationError

from conftest import make_problem
from oracles import (finite_s_invariance, first_order_comb_integral,
                     first_order_delayed_charge)


def pipeline(p, src, M=200):
    g = tr.align_grid(p.a, p.b, p.tau, n=p.n, M=M)
    traj = fn.simulate_z(p, tr.from_expressions(p, g, [src] * p.m))
    args = fn.trajectory_args(p, traj)
    psi = fn.psi_values(p, g, args, traj.z)
    return traj, ml.compute_phi(p, traj, psi, args), args


def test_family_identity_validation():
    p = make_problem("0.5*xd1^2 - z")
    with pytest.raises(ValidationError):
        nt.make_family(p, "t + 1", ["x1"], "z")
    with pytest.raises(ValidationError):
        nt.make_family(p, "t", ["x1 + s*xd1"], "z")  # derivatives not allowed
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)
    assert fam.xi == 0.0


def test_lift_time_translation():
    p = make_problem("0.5*xd1^2 - z")
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z")
    gen = nt.lift_generators(p, fam, traj)
    assert np.all(gen.T == 1.0)
    assert np.all(gen.X == 0.0)
    assert np.all(gen.Z == 0.0)


def test_lift_scaling_family_n2():
    p = make_problem("0.5*xdd1^2 - z", mu=("1",), n=2)
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t", ["exp(s)*x1"], "z")
    gen = nt.lift_generators(p, fam, traj)
    assert np.max(np.abs(gen.X[0] - traj.x[:, 0, :])) <= 1e-12
    # X_1 = d/dt X_0 - xd * d/dt(T) = d/dt x (stencil) since T = 0
    assert np.max(np.abs(gen.X[1] - traj.x[:, 1, :])) <= 1e-8


def test_lift_dilation_on_parabola():
    p = make_problem("0.5*xdd1^2 - z", mu=("t^2",), n=2)
    traj, _, _ = pipeline(p, "t^2")
    fam = nt.make_family(p, "t + s*t", ["x1"], "z")
    gen = nt.lift_generators(p, fam, traj)
    t = traj.grid.nodes()
    assert np.max(np.abs(gen.T - t)) <= 1e-12
    assert np.all(gen.X[0] == 0.0)
    assert np.max(np.abs(gen.X[1] + 2 * t)) <= 1e-8


def test_defect_autonomous_time_translation():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj, _, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)
    gen = nt.lift_generators(p, fam, traj)
    assert nt.invariance_defect(p, traj, gen, args) == (0.0, 0.0)


def test_defect_delayed_autonomous_time_translation_is_exactly_zero():
    p = make_problem("0.5*xdd1^2 + 0.25*tau_xd1^2 - 0.1*z*tau_xdd1",
                     mu=("cos(t)",), tau=0.25, n=2)
    traj, _, args = pipeline(p, "1 + t^2")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)
    gen = nt.lift_generators(p, fam, traj)
    assert nt.invariance_defect(p, traj, gen, args) == (0.0, 0.0)


# delayed L, families whose T generator is not constant; L read a delayed
# derivative slot, so below a the rates need the generators prolonged
# along the history
_FIRST_ORDER_CASES = [
    ("0.5*xd1^2 + 0.3*tau_xd1^2 - 0.1*x1*tau_xd1 - z", ("cos(t)",), 0.25, 1,
     "t + s*t^2", ["x1 + s*x1"], "z + s*t*z"),
    ("0.5*xd1^2 + 0.25*(x1 - tau_x1)^2 - z", ("1 + t",), 0.5, 1,
     "t + s*t", ["x1 + s*t*x1"], "z + s*z"),
    ("0.5*xdd1^2 + 0.2*tau_xdd1*x1 + 0.1*tau_xd1^2 - z", ("1 + t^2",), 0.25, 2,
     "t + s*t", ["x1 + s*t"], "z + s*z"),
    ("0.5*xdd1^2 + 0.2*tau_xd1*xd1 - 0.1*z*x1", ("exp(t)",), 0.5, 2,
     "t + s*sin(t)", ["x1 + s*x1*t"], "z"),
]


@pytest.mark.parametrize("L, mu, tau, n, T, X, Z", _FIRST_ORDER_CASES,
                         ids=["n1-tau_xd1", "n1-difference", "n2-tau_xdd1", "n2-z"])
def test_first_order_rates_match_the_finite_s_difference(L, mu, tau, n, T, X, Z):
    p = make_problem(L, mu=mu, tau=tau, n=n)
    traj, _, args = pipeline(p, "1 - 0.3*t^2 + 0.2*t^3", M=400)
    fam = nt.make_family(p, T, X, Z, xi=0.1)
    g = traj.grid
    # the reference's stencils cross the kinks at a + k tau and b - tau
    away = np.ones(g.M + 1, dtype=bool)
    w = 4 * (n + 1)
    for c in [*range(0, g.M + 1, g.p), g.junction]:
        away[max(c - w, 0):c + w + 1] = False
    gen = nt.lift_generators(p, fam, traj)
    for new, ref in zip(nt._invariance_rates(p, traj, gen, args),
                        finite_s_invariance(p, traj, fam)):
        assert np.max(np.abs(new - ref)[away]) <= 1e-4 * np.max(np.abs(ref[away]))


def test_defect_identity_family_exactly_zero():
    p = make_problem("0.5*xd1^2 - z")
    traj, _, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t", ["x1"], "z")
    d1, d2 = nt.invariance_defect(p, traj, nt.lift_generators(p, fam, traj), args)
    assert d1 == 0.0 and d2 == 0.0


def test_defect_detects_explicit_time():
    p = make_problem("t + 0.5*xd1^2")
    traj, _, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)
    d1, d2 = nt.invariance_defect(p, traj, nt.lift_generators(p, fam, traj), args)
    assert d2 >= 0.5  # equals sup|dL/dt| = 1 to first order
    assert abs(d2 - 1.0) <= 1e-6


def test_defect_reads_xi():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj, _, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.3)
    d1, _ = nt.invariance_defect(p, traj, nt.lift_generators(p, fam, traj), args)
    assert abs(d1 - 0.3) <= 1e-9


def test_charge_zero_family():
    p = make_problem("0.5*xd1^2 - z")
    traj, mult, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t", ["x1 - s*x1 + s*x1"], "z")
    # T, X0, Z generators all vanish
    C = nt.noether_charge(p, traj, mult, nt.lift_generators(p, fam, traj), args)
    assert np.all(C == 0.0)


def test_charge_time_translation_equals_minus_inner():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj, mult, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z")
    C = nt.noether_charge(p, traj, mult, nt.lift_generators(p, fam, traj), args)
    inner = cd.dbr_inner(p, traj, mult, args)
    assert np.array_equal(C, -inner)
    assert abs(nt.drift(C) - nt.drift(inner)) <= 1e-8


def history_rates(p, traj, scale):
    """(X_0, X_0') on the nodes of [a - tau, a] for the generator X_0 =
    scale * x1, read from the history."""
    g = traj.grid
    t = g.a + g.h * np.arange(-g.p, 1)
    return [scale * np.array([pb.history_derivative(p, 1, k, ti) for ti in t])
            for k in range(2)]


def test_first_order_delayed_charge_equivalence():
    # the family of acceptance criterion 7; with mu = 1 + 0.5 t the history
    # rates are non-zero and x' jumps at a, from 0.5 to 0, so the comb
    # integral carries a point mass at a + tau
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*x1*tau_xd1 - z",
                     mu=("1 + 0.5*t",), tau=0.25)
    traj, mult, args = pipeline(p, "1 - 0.3*t^2")
    assert abs(cd.breakpoint_jump(p, traj, mult, args)) >= 1e-2
    fam = nt.make_family(p, "t + s", ["x1 + 0.5*s*x1"], "z + s*t")
    gen = nt.lift_generators(p, fam, traj)
    C = nt.noether_charge(p, traj, mult, gen, args)
    pointwise = first_order_delayed_charge(p, traj, mult.psi, gen.T, gen.X[0, 0], gen.Z)
    comb = first_order_comb_integral(p, traj, mult.psi, 1.0, gen.X[0, 0],
                                     history_rates(p, traj, 0.5))
    assert np.max(np.abs(comb)) >= 1e-2
    assert np.max(np.abs(C - (pointwise + comb))) <= 1e-10


def test_drift_masked():
    vals = np.array([0.0, 1.0, 0.5, 10.0])
    assert nt.drift(vals) == 10.0
    assert nt.drift(vals, mask=np.array([False, False, False, True])) == 1.0


def test_charge_drift_refines_at_order_two_or_better():
    from conftest import oscillator_problem
    from herglotz.solver import SolveOptions, solve_extremal
    p = oscillator_problem()
    drifts = []
    for M in (125, 250):
        res = solve_extremal(p, SolveOptions(M=M, h=None))
        fam = nt.make_family(p, "t + s", ["x1"], "z")
        C = nt.noether_charge(p, res.trajectory, res.multipliers,
                              nt.lift_generators(p, fam, res.trajectory),
                              fn.trajectory_args(p, res.trajectory))
        drifts.append(nt.drift(C, res.report.dbr_flags))
    assert drifts[1] <= drifts[0] / 3.5


def test_defect_z_dependent_family_on_delayed_problem():
    # exercises the extended-history path (x from mu, z frozen at gamma)
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25, gamma=0.5)
    traj, _, args = pipeline(p, "1")
    fam = nt.make_family(p, "t + s", ["x1 + s*t*x1"], "z + s*z")
    d1, d2 = nt.invariance_defect(p, traj, nt.lift_generators(p, fam, traj), args)
    assert np.isfinite(d1) and np.isfinite(d2)
    assert d2 > 1e-3  # this family is not a symmetry of the fixture


def test_delayed_charge_shift_family():
    # L depends on x only through x - x_tau, so x -> x + s is a symmetry with
    # X = 1 on the trajectory and the history alike; the comb correction
    # int_t^min(t+tau, b) psi dL/dx_tau is non-zero on this extremal
    from herglotz.solver import SolveOptions, solve_extremal
    p = make_problem("0.5*xd1^2 + 0.25*(x1 - tau_x1)^2 - z", mu=("1 + t",),
                     tau=0.5)
    res = solve_extremal(p, SolveOptions(M=200, h=None))
    assert res.converged
    fam = nt.make_family(p, "t", ["x1 + s"], "z")
    args = fn.trajectory_args(p, res.trajectory)
    gen = nt.lift_generators(p, fam, res.trajectory)
    d1, d2 = nt.invariance_defect(p, res.trajectory, gen, args)
    assert max(d1, d2) <= 1e-8
    traj, psi = res.trajectory, res.multipliers.psi
    Cd = nt.noether_charge(p, traj, res.multipliers, gen, args)
    C = first_order_delayed_charge(p, traj, psi, gen.T, gen.X[0, 0], gen.Z)
    comb = first_order_comb_integral(p, traj, psi, 0.0, gen.X[0, 0],
                                     [np.ones(traj.grid.p + 1), np.zeros(traj.grid.p + 1)])
    flags = res.report.dbr_flags
    assert np.max(np.abs(Cd - C)) >= 1e-2
    assert nt.drift(C, flags) >= 1e-2  # the pointwise charge drifts
    assert nt.drift(Cd, flags) <= 1e-5
    assert np.max(np.abs(Cd - (C + comb))) <= 1e-10


def test_delayed_charge_is_pointwise_at_tau0():
    # tau = 0, or tau > 0 and no tau_ slot: the comb is off, the charge is
    # the pointwise one bit for bit and any T generator is allowed
    for L, tau in (("0.5*xd1^2 + 0.25*tau_x1^2 - z", 0.0),
                   ("0.5*xd1^2 + 0.25*x1^2 - z", 0.25)):
        p = make_problem(L, tau=tau)
        traj, mult, args = pipeline(p, "cos(t)")
        fam = nt.make_family(p, "t + s*t", ["x1 + s*t*x1"], "z + s*z")
        gen = nt.lift_generators(p, fam, traj)
        assert gen.hist is None and nt.time_shift(p, fam) is None
        C = mult.psi * gen.Z - cd.dbr_inner(p, traj, mult, args) * gen.T
        C = C + np.sum(mult.phi[0] * gen.X[0], axis=0)
        assert np.array_equal(nt.noether_charge(p, traj, mult, gen, args), C)


@pytest.mark.parametrize("Tmap", ["t + s*t", "t + s*x1", "t + s*z"])
def test_delayed_charge_rejects_varying_time_generator(Tmap):
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1")
    fam = nt.make_family(p, Tmap, ["x1"], "z")
    gen = nt.lift_generators(p, fam, traj)  # the defect still reads the lift
    assert all(np.isfinite(nt.invariance_defect(p, traj, gen, args)))
    for charge in (lambda: nt.time_shift(p, fam),
                   lambda: nt.noether_charge(p, traj, mult, gen, args)):
        with pytest.raises(ValidationError, match="constant T generator"):
            charge()
    assert nt.time_shift(p, nt.make_family(p, "t + 2*s", ["x1"], "z")) == 2.0
