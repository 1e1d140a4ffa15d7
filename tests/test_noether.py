import numpy as np
import pytest

from herglotz import conditions as cd
from herglotz import functional as fn
from herglotz import multipliers as ml
from herglotz import noether as nt
from herglotz import trajectory as tr
from herglotz.errors import DegenerateFamily, ValidationError

from conftest import make_problem
from oracles import first_order_delayed_charge


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
    gen = nt.lift_generators(fam, traj)
    assert np.all(gen.T == 1.0)
    assert np.all(gen.X == 0.0)
    assert np.all(gen.Z == 0.0)


def test_lift_scaling_family_n2():
    p = make_problem("0.5*xdd1^2 - z", mu=("1",), n=2)
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t", ["exp(s)*x1"], "z")
    gen = nt.lift_generators(fam, traj)
    assert np.max(np.abs(gen.X[0] - traj.x[:, 0, :])) <= 1e-12
    # X_1 = d/dt X_0 - xd * d/dt(T) = d/dt x (stencil) since T = 0
    assert np.max(np.abs(gen.X[1] - traj.x[:, 1, :])) <= 1e-8


def test_lift_dilation_on_parabola():
    p = make_problem("0.5*xdd1^2 - z", mu=("t^2",), n=2)
    traj, _, _ = pipeline(p, "t^2")
    fam = nt.make_family(p, "t + s*t", ["x1"], "z")
    gen = nt.lift_generators(fam, traj)
    t = traj.grid.nodes()
    assert np.max(np.abs(gen.T - t)) <= 1e-12
    assert np.all(gen.X[0] == 0.0)
    assert np.max(np.abs(gen.X[1] + 2 * t)) <= 1e-8


def test_defect_autonomous_time_translation():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)
    d1, d2 = nt.invariance_defect(p, traj, fam)
    assert d1 <= 1e-8 and d2 <= 1e-8


def test_defect_identity_family_exactly_zero():
    p = make_problem("0.5*xd1^2 - z")
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t", ["x1"], "z")
    d1, d2 = nt.invariance_defect(p, traj, fam)
    assert d1 == 0.0 and d2 == 0.0


def test_defect_detects_explicit_time():
    p = make_problem("t + 0.5*xd1^2")
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.0)
    d1, d2 = nt.invariance_defect(p, traj, fam)
    assert d2 >= 0.5  # equals sup|dL/dt| = 1 to first order
    assert abs(d2 - 1.0) <= 1e-6


def test_defect_reads_xi():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj, _, _ = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z", xi=0.3)
    d1, _ = nt.invariance_defect(p, traj, fam)
    assert abs(d1 - 0.3) <= 1e-9


def test_defect_degenerate_family():
    p = make_problem("0.5*xd1^2 - z", a=1.0, b=2.0)
    traj, _, _ = pipeline(p, "1")
    fam = nt.make_family(p, "t - 100*s*t", ["x1"], "z")
    with pytest.raises(DegenerateFamily):
        nt.invariance_defect(p, traj, fam, ds=1e-2)


def test_defect_ds_validation():
    p = make_problem("0.5*xd1^2 - z")
    traj, _, _ = pipeline(p, "1")
    fam = nt.make_family(p, "t + s", ["x1"], "z")
    with pytest.raises(ValidationError):
        nt.invariance_defect(p, traj, fam, ds=0.5)


def test_charge_zero_family():
    p = make_problem("0.5*xd1^2 - z")
    traj, mult, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t", ["x1 - s*x1 + s*x1"], "z")
    # T, X0, Z generators all vanish
    C = nt.noether_charge(p, traj, mult, fam, args)
    assert np.all(C == 0.0)


def test_charge_time_translation_equals_minus_inner():
    p = make_problem("0.5*xd1^2 - 0.5*x1^2 - z")
    traj, mult, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s", ["x1"], "z")
    C = nt.noether_charge(p, traj, mult, fam, args)
    inner = cd.dbr_inner(p, traj, mult, args)
    assert np.array_equal(C, -inner)
    assert abs(nt.drift(C) - nt.drift(inner)) <= 1e-8


def test_first_order_delayed_charge_equivalence():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*x1*tau_xd1 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1 - 0.3*t^2")
    fam = nt.make_family(p, "t + s", ["0.5*s*x1 + x1"], "z + s*t")
    gen = nt.lift_generators(fam, traj)
    C = nt.noether_charge(p, traj, mult, fam, args)
    ref = first_order_delayed_charge(p, traj, mult.psi, gen.T, gen.X[0, 0], gen.Z)
    assert np.max(np.abs(C - ref)) <= 1e-10


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
        C = nt.noether_charge(p, res.trajectory, res.multipliers, fam,
                              fn.trajectory_args(p, res.trajectory))
        drifts.append(nt.drift(C, res.report.dbr_flags))
    assert drifts[1] <= drifts[0] / 3.5


def test_defect_z_dependent_family_on_delayed_problem():
    # exercises the extended-history path (x from mu, z frozen at gamma)
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25, gamma=0.5)
    traj, _, _ = pipeline(p, "1")
    fam = nt.make_family(p, "t + s", ["x1 + s*t*x1"], "z + s*z")
    d1, d2 = nt.invariance_defect(p, traj, fam)
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
    d1, d2 = nt.invariance_defect(p, res.trajectory, fam)
    assert max(d1, d2) <= 1e-8
    args = fn.trajectory_args(p, res.trajectory)
    C = nt.noether_charge(p, res.trajectory, res.multipliers, fam, args)
    Cd = nt.noether_charge_delayed(p, res.trajectory, res.multipliers, fam, args)
    flags = res.report.dbr_flags
    assert np.max(np.abs(Cd - C)) >= 1e-2
    assert nt.drift(C, flags) >= 1e-2
    assert nt.drift(Cd, flags) <= 1e-5


def test_delayed_charge_is_pointwise_at_tau0():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z")
    traj, mult, args = pipeline(p, "cos(t)")
    fam = nt.make_family(p, "t + s*t", ["x1"], "z")
    C = nt.noether_charge(p, traj, mult, fam, args)
    assert np.array_equal(nt.noether_charge_delayed(p, traj, mult, fam, args), C)


@pytest.mark.parametrize("Tmap", ["t + s*t", "t + s*x1", "t + s*z"])
def test_delayed_charge_rejects_varying_time_generator(Tmap):
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25)
    traj, mult, args = pipeline(p, "1")
    fam = nt.make_family(p, Tmap, ["x1"], "z")
    with pytest.raises(ValidationError):
        nt.noether_charge_delayed(p, traj, mult, fam, args)
