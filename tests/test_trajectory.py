import io

import numpy as np
import pytest

from herglotz import trajectory as tr
from herglotz.errors import GridTooSmall, ValidationError

from conftest import make_problem


def test_align_grid_exact_multiple():
    g = tr.align_grid(0.0, 1.0, 0.25, n=1, h=1e-3)
    assert g.M == 1000 and g.p == 250
    assert g.h * g.p == pytest.approx(0.25, abs=1e-15)


def test_align_grid_nudges_for_thirds():
    g = tr.align_grid(0.0, 1.0, 1.0 / 3.0, n=1, h=1e-3)
    assert g.M == 999 and g.p == 333


def test_align_grid_given_M_validates():
    with pytest.raises(ValidationError):
        tr.align_grid(0.0, 1.0, 0.25, n=1, M=1001)
    with pytest.raises(ValidationError):
        tr.align_grid(0.0, 1.0, 0.0, n=2, M=15)  # below 10n
    g = tr.align_grid(0.0, 1.0, 0.25, n=1, M=1000)
    assert g.p == 250


def test_differentiate_series_constant():
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=100)
    out = tr.differentiate_values(np.ones(101), g.h, 1)
    assert np.max(np.abs(out)) <= 1e-12


def test_differentiate_series_quadratic_twice():
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=100)
    t = g.nodes()
    out = tr.differentiate_values(t ** 2, g.h, 2)
    assert np.max(np.abs(out - 2.0)) <= 1e-8


def test_differentiate_series_quartic_exact():
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=50)
    t = g.nodes()
    poly = 3 * t ** 4 - t ** 3 + 2 * t - 5
    want = 12 * t ** 3 - 3 * t ** 2 + 2
    out = tr.differentiate_values(poly, g.h, 1)
    assert np.max(np.abs(out - want)) <= 1e-10


def test_differentiate_series_sin_third_order():
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=100)
    t = g.nodes()
    out = tr.differentiate_values(np.sin(t), g.h, 3)
    err = np.abs(out + np.cos(t))
    # 5*h^4*max|sin^(7)| holds on the central-stencil region; the one-sided
    # end zones (2 nodes per pass) amplify and are the flagged-node case
    assert np.max(err[6:-6]) <= 5e-8
    assert np.max(err) <= 2e-4


def test_differentiate_series_too_small():
    g = tr.Grid(a=0.0, b=1.0, M=5, p=0)
    with pytest.raises(GridTooSmall):
        tr.differentiate_values(np.ones(6), g.h, 1)


def test_differentiate_trapezoid_roundtrip():
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=200)
    t = g.nodes()
    f = np.sin(3 * t) * np.exp(-t)
    F = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (f[:-1] + f[1:]))])
    back = tr.differentiate_values(F, g.h, 1)
    # trapezoid is O(h^2); interior errors dominate
    assert np.max(np.abs(back - f)) <= 50 * g.h ** 2


def test_derivative_consistency_of_position_build():
    g = tr.align_grid(0.0, 1.0, 0.0, n=2, M=200)
    x = tr.build_series(np.sin(g.nodes())[np.newaxis, :], g.h, 2)
    for k in range(2):
        fd = tr.differentiate_values(x[0, k], g.h, 1)
        assert np.max(np.abs(fd - x[0, k + 1])) <= 1e-10


def test_midpoint_values_polynomial_exact():
    h = 0.01
    t = np.arange(0, 1 + h / 2, h)
    series = np.stack([t ** 3, 3 * t ** 2])
    mids = tr.midpoint_values(series, h)
    tm = t[:-1] + h / 2
    assert np.max(np.abs(mids[0] - tm ** 3)) <= 1e-12  # Hermite is exact on cubics
    assert np.max(np.abs(mids[1] - 3 * tm ** 2)) <= 1e-12  # 4-point cubic too


def test_csv_roundtrip():
    p = make_problem("0.5*xd1^2 - z")
    g = tr.align_grid(0.0, 1.0, 0.0, n=1, M=50)
    traj = tr.from_expressions(p, g, ["sin(t)"]).with_z(np.cos(g.nodes()))
    buf = io.StringIO()
    tr.write_trajectory_csv(traj, buf)
    back = tr.read_trajectory_csv(p, io.StringIO(buf.getvalue()))
    assert np.array_equal(back.x, traj.x)
    assert back.x.flags.c_contiguous  # its own array, not a strided view of the table
    assert np.array_equal(back.z, traj.z)


def test_csv_header_names():
    p = make_problem("0.5*xdd1^2 - z", mu=("1",), n=2)
    g = tr.align_grid(0.0, 1.0, 0.0, n=2, M=50)
    traj = tr.from_expressions(p, g, ["1"]).with_z(np.zeros(51))
    buf = io.StringIO()
    tr.write_trajectory_csv(traj, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "t,x1_d0,x1_d1,x1_d2,z"


def test_csv_cells_are_shortest_17_digit_repr():
    # each cell is Python's format(v, ".17g"), which round-trips every float64,
    # and the footer line closes the file
    vals = np.array([0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308,
                     123456789012345678.0, -2.5, np.nan, np.inf, -np.inf])
    buf = io.StringIO()
    tr.write_table(buf, ["a", "b"], [[vals, vals[::-1]]], footer="# end")
    want = ["a,b"] + [f"{u:.17g},{v:.17g}" for u, v in zip(vals, vals[::-1])]
    assert buf.getvalue() == "\n".join(want + ["# end"]) + "\n"


def test_write_table_str_cells_are_written_as_they_are():
    # a str cell repeats on each row of its block, a '%' in it included,
    # and blocks follow one another under the one header
    buf = io.StringIO()
    tr.write_table(buf, ["t", "tag", "v"],
                   [[np.array([0.5, 1.0]), "100%", np.array([2.0, -0.0])],
                    [np.array([3.0]), "%.17g%%s", ""]], footer="# 5% done")
    assert buf.getvalue() == ("t,tag,v\n0.5,100%,2\n1,100%,-0\n"
                              "3,%.17g%%s,\n# 5% done\n")


def test_expression_build_derivative_consistency_tolerance():
    # centered differences of x^(k) match x^(k+1) at the stated O(h^2) bound
    p = make_problem("0.5*xdd1^2 - z", mu=("sin(t)",), n=2)
    g = tr.align_grid(0.0, 1.0, 0.0, n=2, M=200)
    traj = tr.from_expressions(p, g, ["sin(3*t)"])
    t = g.nodes()
    h = g.h
    for k in range(2):
        fd = (traj.x[0, k, 2:] - traj.x[0, k, :-2]) / (2 * h)
        third = 3.0 ** (k + 3)  # max |x^(k+3)| for sin(3t)
        assert np.max(np.abs(fd - traj.x[0, k + 1, 1:-1])) <= 10 * h ** 2 * third
