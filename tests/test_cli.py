import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import herglotz
from herglotz import cli
from herglotz.cli import main

from conftest import make_problem
from oracles import savetxt_residual_csv

FREE_PARTICLE = """
[problem]
a = 0.0
b = 1.0
tau = 0.0
n = 1
m = 1
gamma = 1.0

[lagrangian]
L = "0.5*xd1^2 - z"   # kinetic term plus the Herglotz dissipation

[history]
mu1 = "1"

[candidate]
x1 = "1"
"""

OSCILLATOR = """
[problem]
a = 0.0
b = 1.0
tau = 0.0
n = 1
m = 1
gamma = 0.0

[lagrangian]
L = "0.5*xd1^2 - 0.5*x1^2 - z"

[history]
mu1 = "1"

[family]
T = "t + s"
X1 = "x1"
Z = "z"
xi = 0.0
"""

DELAYED = """
[problem]
a = 0.0
b = 1.0
tau = 0.5
n = 1
m = 1
gamma = 0.0

[lagrangian]
L = "0.5*xd1^2 + 0.25*tau_x1^2 - z"

[history]
mu1 = "1"
"""

CONSTANT_RATE = """
[problem]
a = 0.0
b = 1.0
tau = 0.0
n = 1
m = 1
gamma = 0.0

[lagrangian]
L = "1 + 0*x1"

[history]
mu1 = "1"

[candidate]
x1 = "1"
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_simulate_exponential_decay(tmp_path, capsys):
    spec = write(tmp_path, "free.spec", FREE_PARTICLE)
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", spec, "--h", "1e-3", "--out", out]) == 0
    header, data = read_csv(out)
    t = data[:, 0]
    z = data[:, header.index("z")]
    assert np.max(np.abs(z - np.exp(-t))) <= 1e-9


def test_simulate_constant_rate(tmp_path):
    spec = write(tmp_path, "rate.spec", CONSTANT_RATE)
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", spec, "--h", "1e-2", "--out", out]) == 0
    _, data = read_csv(out)
    assert abs(data[-1, -1] - data[0, -1] - 1.0) <= 1e-12


def test_simulate_missing_section_exits_2(tmp_path, capsys):
    broken = FREE_PARTICLE.replace("[lagrangian]", "[lagrangia]")
    spec = write(tmp_path, "broken.spec", broken)
    assert main(["simulate", spec]) == 2
    err = capsys.readouterr().err
    assert "lagrangian" in err


def test_simulate_unknown_key_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "extra.spec", FREE_PARTICLE + "\n[problem]\nzz = 1\n")
    assert main(["simulate", spec]) == 2
    assert "zz" in capsys.readouterr().err


def test_solve_oscillator(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "converged: True" in stdout
    header, data = read_csv(out)
    assert header[0] == "t" and header[-1] == "z"


def test_solve_nonconvergence_exit_4(tmp_path, capsys):
    text = OSCILLATOR.replace('L = "0.5*xd1^2 - 0.5*x1^2 - z"',
                              'L = "0.5*xd1^2 + 0.25*x1^4 - z"')
    spec = write(tmp_path, "quartic.spec", text)
    out = str(tmp_path / "best.csv")
    assert main(["solve", spec, "--h", "1e-2", "--max-iters", "1",
                 "--tol", "1e-12", "--out", out]) == 4
    header, data = read_csv(out)  # best iterate still written
    assert data.shape[0] == 101


N2_DELAYED = """
[problem]
a = 0.0
b = 1.0
tau = 0.25
n = 2
m = 1
gamma = 0.0

[lagrangian]
L = "0.5*xdd1^2 + 0.3*tau_xd1^2 + 0.2*x1*tau_xdd1 - 0.1*z"

[history]
mu1 = "1 + 0.5*t"
"""


def test_verify_roundtrip_matches_solve(tmp_path, capsys):
    # the solve reports from its last residual's build and verify from the
    # CSV it wrote: the four sup lines agree digit for digit, for a z-free
    # delayed L, a z-coupled one and an n = 2 one as for the oscillator
    def sups(text):
        return [ln for ln in text.splitlines() if ln.startswith("sup ")]

    for name, text in (("osc", OSCILLATOR), ("delayed", DELAYED),
                       ("zcoupled", MUTABLE), ("n2", N2_DELAYED)):
        spec = write(tmp_path, f"{name}.spec", text)
        out = str(tmp_path / f"{name}.csv")
        assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
        solve_out = capsys.readouterr().out
        assert main(["verify", spec, out]) == 0
        verify_out = capsys.readouterr().out
        assert len(sups(solve_out)) == 4
        assert sups(solve_out) == sups(verify_out), name


def test_verify_perturbed_raises_norms(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    main(["solve", spec, "--h", "1e-2", "--out", out])
    capsys.readouterr()
    lines = Path(out).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t = data[:, 0]
    data[:, 1] += 1e-2 * np.sin(np.pi * t)
    data[:, 2] += 1e-2 * np.pi * np.cos(np.pi * t)
    pert = str(tmp_path / "pert.csv")
    with open(pert, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    main(["verify", spec, out])
    base = capsys.readouterr().out
    main(["verify", spec, pert])
    worse = capsys.readouterr().out

    def grab(text, key):
        return float(re.search(rf"sup {key}: ([0-9.e+-]+)", text).group(1))

    assert grab(worse, "el1") >= 10 * max(grab(base, "el1"), 1e-8)


def test_verify_gamma_mismatch_exit_2(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    main(["solve", spec, "--h", "1e-2", "--out", out])
    capsys.readouterr()
    lines = Path(out).read_text().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    data[0, -1] += 0.5  # violate z(a) = gamma
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.write(lines[0] + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    assert main(["verify", spec, bad]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [("0.5", "1.5"), ("0.0", "3.0")],
                         ids=["shifted", "longer"])
def test_verify_rejects_csv_of_another_interval_exit_2(tmp_path, capsys, a, b):
    # the CSV's t column spans [0, 1]; a spec on another interval cannot
    # certify it, even where z(a) and x(a) happen to match
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    capsys.readouterr()
    text = OSCILLATOR.replace("a = 0.0", f"a = {a}").replace("b = 1.0", f"b = {b}")
    assert main(["verify", write(tmp_path, "moved.spec", text), out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"spans [0.0, 1.0], not the problem's interval [a, b] = [{a}, {b}]"
            in captured.err)


def _reduced_head(path):
    """The [reduced] section of a written reduced spec file."""
    from herglotz.specfile import parse_sections
    with open(path) as fh:
        return dict(parse_sections(fh.read())["reduced"])


def test_reduce_roundtrip(tmp_path, capsys):
    for name, text, n_expected in (("delayed.spec", DELAYED, 2),):
        spec = write(tmp_path, name, text)
        out = str(tmp_path / "reduced.spec")
        assert main(["reduce", spec, "--out", out]) == 0
        assert int(_reduced_head(out)["N"]) == n_expected


def test_reduce_padding(tmp_path, capsys):
    text = DELAYED.replace("b = 1.0", "b = 0.8")
    spec = write(tmp_path, "pad.spec", text)
    out = str(tmp_path / "reduced.spec")
    assert main(["reduce", spec, "--out", out]) == 0
    head = _reduced_head(out)
    assert int(head["N"]) == 2 and abs(float(head["cut"]) - 0.3) <= 1e-12


def test_reduce_zero_delay_exit_3(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    assert main(["reduce", spec]) == 3


def test_charge_oscillator(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "charge.csv")
    assert main(["charge", spec, "--h", "1e-2", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "invariance defect" in stdout
    drift = float(re.search(r"charge drift: ([0-9.e+-]+)", stdout).group(1))
    assert drift <= 1e-3
    assert "family invariant" in stdout


def test_charge_separate_family_file(tmp_path, capsys):
    no_family = OSCILLATOR.split("[family]")[0]
    spec = write(tmp_path, "osc.spec", no_family)
    fam = write(tmp_path, "fam.spec", "[family]\nT = \"t + s\"\nX1 = \"x1\"\n"
                                      "Z = \"z\"\nxi = 0.0\n")
    assert main(["charge", spec, fam, "--h", "1e-2"]) == 0


@pytest.mark.parametrize("body, message", [
    ('xi = abc\n', "xi: not a number"),
    ('xi = 0.0\nxi = 0.5\n', "duplicate key 'xi'"),
], ids=["non-numeric-xi", "duplicate-xi"])
def test_charge_family_file_rejected_exit_2(tmp_path, capsys, body, message):
    no_family = OSCILLATOR.split("[family]")[0]
    spec = write(tmp_path, "osc.spec", no_family)
    fam = write(tmp_path, "fam.spec", "[family]\nT = \"t + s\"\nX1 = \"x1\"\n"
                                      "Z = \"z\"\n" + body)
    assert main(["charge", spec, fam, "--h", "1e-2"]) == 2
    assert message in capsys.readouterr().err


def test_charge_requires_family(tmp_path, capsys):
    no_family = OSCILLATOR.split("[family]")[0]
    spec = write(tmp_path, "osc.spec", no_family)
    assert main(["charge", spec, "--h", "1e-2"]) == 2


def test_charge_flags_non_invariant_family(tmp_path, capsys):
    text = OSCILLATOR.replace('L = "0.5*xd1^2 - 0.5*x1^2 - z"',
                              'L = "t + 0.5*xd1^2 - 0.1*z"')
    spec = write(tmp_path, "timed.spec", text)
    assert main(["charge", spec, "--h", "1e-2"]) == 0
    stdout = capsys.readouterr().out
    assert "NOT invariant" in stdout


def test_check_derivs_ok(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    assert main(["check-derivs", spec]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "xd1" in out


def test_exit_code_for_numeric_failure(tmp_path, capsys):
    text = FREE_PARTICLE.replace('L = "0.5*xd1^2 - z"   # kinetic term plus the Herglotz dissipation',
                                 'L = "1/(x1 - 1) - z"')
    spec = write(tmp_path, "sing.spec", text)
    # candidate x = 1 makes the Lagrangian non-finite everywhere
    assert main(["simulate", spec, "--h", "1e-2"]) == 3


def test_never_finite_lagrangian_exit_2(tmp_path, capsys):
    # L reads no slot, so the audit's evaluation of L itself is what finds
    # it non-finite: a validation error, not a numeric failure (exit 3)
    text = FREE_PARTICLE.replace('L = "0.5*xd1^2 - z"   # kinetic term plus the Herglotz dissipation',
                                 'L = "log(0-1)"')
    spec = write(tmp_path, "nan.spec", text)
    assert main(["simulate", spec, "--h", "1e-2"]) == 2
    assert "finite evaluation points" in capsys.readouterr().err


def test_solve_multiplier_csv(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    mout = str(tmp_path / "mult.csv")
    assert main(["solve", spec, "--h", "1e-2", "--mult-out", mout]) == 0
    header, data = read_csv(mout)
    assert header == ["t", "psi", "phi1_1"]
    # psi(b) = 1 exactly and psi = exp(t-1) for dL/dz = -1
    assert data[-1, 1] == 1.0
    assert np.max(np.abs(data[:, 1] - np.exp(data[:, 0] - 1.0))) <= 1e-10


def test_duplicate_key_rejected(tmp_path, capsys):
    spec = write(tmp_path, "dup.spec", FREE_PARTICLE + "\n[problem]\na = 0.0\n")
    assert main(["simulate", spec]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_verify_residual_csv(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    main(["solve", spec, "--h", "1e-2", "--out", out])
    rout = str(tmp_path / "resid.csv")
    assert main(["verify", spec, out, "--out", rout]) == 0
    text = Path(rout).read_text()
    lines = text.splitlines()
    assert lines[0].startswith("t,block,")
    assert any(",el1," in ln for ln in lines)
    assert any(",dbr," in ln for ln in lines)
    assert lines[-1].startswith("# sup ")


def test_charge_csv(tmp_path, capsys):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    cout = str(tmp_path / "charge.csv")
    assert main(["charge", spec, "--h", "1e-2", "--out", cout]) == 0
    lines = Path(cout).read_text().splitlines()
    assert lines[0] == "t,charge"
    assert lines[-1].startswith("# drift ")
    assert len(lines) == 103  # header + 101 nodes + drift line


def delayed_with_family(T):
    """The DELAYED spec, whose L reads tau_x1, with a family of T map T."""
    return DELAYED + f'\n[family]\nT = "{T}"\nX1 = "x1"\nZ = "z"\n'


def _unflagged(line):
    return float(re.search(r"\(unflagged (\S+)\)", line).group(1))


def test_solve_delayed_prints_the_comb_corrected_dbr(tmp_path, capsys):
    # L reads tau_x1, so the printed dbr subtracts the comb term D(t) - D(t + tau)
    # and vanishes on the extremal; the pointwise form leaves 0.136 here
    spec = write(tmp_path, "delayed.spec", DELAYED)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    line = re.search(r"^sup dbr: .*$", capsys.readouterr().out, re.M).group(0)
    assert main(["verify", spec, out]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert _unflagged(line) <= 1e-3


def test_charge_delayed_time_translation_is_conserved(tmp_path, capsys):
    # the charge adds int_t^min(t+tau, b) G; the pointwise one drifts 0.037 here
    spec = write(tmp_path, "delayed.spec", delayed_with_family("t + s"))
    assert main(["charge", spec, "--h", "1e-2"]) == 0
    stdout = capsys.readouterr().out
    assert "family invariant" in stdout
    assert _unflagged(re.search(r"^charge drift: .*$", stdout, re.M).group(0)) <= 1e-3


def test_charge_delayed_varying_time_generator_exit_2(tmp_path, capsys, monkeypatch):
    # no theorem bounds the charge of a delayed L under a time map other than
    # a shift: one stderr line names the T generator, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("charge solved before it checked the family")

    monkeypatch.setattr(herglotz.solver, "solve_extremal", no_solve)
    spec = write(tmp_path, "delayed.spec", delayed_with_family("t + s*t^2"))
    out = tmp_path / "charge.csv"
    assert main(["charge", spec, "--h", "1e-2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1
    assert "constant T generator, got 't^2" in err and "depending on ['t']" in err
    assert not out.exists()


def test_solve_with_exact_M(tmp_path, capsys):
    text = DELAYED.replace("tau = 0.5", "tau = 0.25")
    spec = write(tmp_path, "third.spec", text)
    assert main(["solve", spec, "--M", "100"]) == 0
    assert "converged: True" in capsys.readouterr().out


def test_solve_and_verify_delayed_end_to_end(tmp_path, capsys):
    spec = write(tmp_path, "delayed.spec", DELAYED)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", spec, out]) == 0
    stdout = capsys.readouterr().out
    assert "sup el1" in stdout and "sup el2" in stdout


def test_solve_free_particle_end_to_end(tmp_path, capsys):
    text = FREE_PARTICLE.split("[candidate]")[0]
    spec = write(tmp_path, "free.spec", text)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    header, data = read_csv(out)
    # extremal is x = 1 with z = exp(-t)
    assert np.max(np.abs(data[:, 1] - 1.0)) <= 1e-7
    assert np.max(np.abs(data[:, -1] - np.exp(-data[:, 0]))) <= 1e-7


@pytest.mark.parametrize("h", ["0", "nan", "-1"])
def test_solve_rejects_bad_step_exit_2(tmp_path, capsys, h):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    assert main(["solve", spec, "--h", h]) == 2
    assert "h must be a positive finite step" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["header-only", "non-numeric", "non-uniform",
                                  "underscored-digits"])
def test_verify_rejects_malformed_csv_exit_2(tmp_path, capsys, kind):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    capsys.readouterr()
    header, *rows = Path(out).read_text().splitlines()
    cells = [row.split(",") for row in rows]
    if kind == "header-only":
        cells = []
    elif kind == "non-numeric":
        cells[3][1] = "abc"
    elif kind == "underscored-digits":  # Python's float() reads "1_0" as 10
        cells[3][1] = "1_0"
    else:  # node 5 moved by 0.3 of the step h = 1e-2
        cells[5][0] = repr(float(cells[5][0]) + 3e-3)
    text = "\n".join([header] + [",".join(c) for c in cells]) + "\n"
    assert main(["verify", spec, write(tmp_path, "bad.csv", text)]) == 2
    assert "trajectory CSV" in capsys.readouterr().err


def test_verify_non_uniform_grid_message_names_plain_numbers(tmp_path, capsys):
    # the interval ends print as floats, not as numpy scalar reprs
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    capsys.readouterr()
    header, *rows = Path(out).read_text().splitlines()
    cells = [row.split(",") for row in rows]
    cells[5][0] = repr(float(cells[5][0]) + 3e-3)
    text = "\n".join([header] + [",".join(c) for c in cells]) + "\n"
    assert main(["verify", spec, write(tmp_path, "bad.csv", text)]) == 2
    err = capsys.readouterr().err
    assert "uniform grid from 0.0 to 1.0 with 100 steps" in err
    assert "np.float64" not in err


@pytest.mark.parametrize("column, value", [("x1_d0", "nan"), ("z", "inf")])
def test_verify_rejects_non_finite_cell_exit_2(tmp_path, capsys, column, value):
    spec = write(tmp_path, "delayed.spec", DELAYED)
    out = str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--h", "1e-2", "--out", out]) == 0
    capsys.readouterr()
    header, *rows = Path(out).read_text().splitlines()
    cells = [row.split(",") for row in rows]
    cells[9][header.split(",").index(column)] = value
    text = "\n".join([header] + [",".join(c) for c in cells]) + "\n"
    assert main(["verify", spec, write(tmp_path, "bad.csv", text)]) == 2
    assert f"non-finite {column} value" in capsys.readouterr().err


NON_FINITE = [(cmd, key, value)
              for cmd in ("check-derivs", "simulate", "solve", "reduce")
              for key, value in (("n", "inf"), ("n", "nan"), ("a", "-inf"),
                                 ("b", "inf"))]
NON_FINITE += [("check-derivs", "gamma", "nan"), ("reduce", "gamma", "nan"),
               ("charge", "xi", "nan")]


@pytest.mark.parametrize("command, key, value", NON_FINITE,
                         ids=[f"{c}-{k}-{v}" for c, k, v in NON_FINITE])
def test_non_finite_spec_number_exit_2(tmp_path, capsys, command, key, value):
    text = DELAYED + '[candidate]\nx1 = "1"\n'
    text += '[family]\nT = "t + s"\nX1 = "x1"\nZ = "z"\nxi = 0.0\n'
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    grid = [] if command in ("check-derivs", "reduce") else ["--h", "1e-2"]
    assert main([command, write(tmp_path, "bad.spec", text), *grid]) == 2
    assert f"{key}: not a finite number" in capsys.readouterr().err


M2_DELAYED = """
[problem]
a = 0.0
b = 1.0
tau = 0.25
n = 1
m = 2
gamma = 0.0

[lagrangian]
L = "0.5*xd1^2 + 0.5*xd2^2 + 0.25*tau_x1^2 + 0.1*x1*x2 - z"

[history]
mu1 = "1"
mu2 = "2 - t"

[candidate]
x1 = "1 + 0.3*t^2"
x2 = "2 - t + 0.1*sin(t)"
"""


def test_verify_residual_csv_layout_m2_delayed(tmp_path, capsys):
    spec = write(tmp_path, "m2.spec", M2_DELAYED)
    traj = str(tmp_path / "traj.csv")
    assert main(["simulate", spec, "--M", "40", "--out", traj]) == 0
    rout = str(tmp_path / "resid.csv")
    assert main(["verify", spec, traj, "--out", rout]) == 0
    printed = dict(re.findall(r"sup (\w+): (\S+)", capsys.readouterr().out))
    header, *rows, footer = Path(rout).read_text().splitlines()
    assert header == "t,block,r1,r2"
    cells = [row.split(",") for row in rows]
    blocks = [c[1] for c in cells]
    # M = 40 and tau = 0.25: el1 on nodes 0..30, el2 on 30..40, dbr on 0..40
    assert blocks == ["el1"] * 31 + ["el2"] * 11 + ["dbr"] * 41
    assert all(len(c) == 4 for c in cells)
    t = np.array([float(c[0]) for c in cells])
    nodes = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(t[:31] - nodes[:31])) <= 1e-15
    assert t[31] == nodes[30] and abs(t[31] - 0.75) <= 1e-15  # el2 from b - tau
    assert np.max(np.abs(t[31:42] - nodes[30:])) <= 1e-15
    assert np.max(np.abs(t[42:] - nodes)) <= 1e-15
    assert all(c[3] == "" and c[2] != "" for c in cells[42:])  # one padding comma
    assert all(row.count(",") == 3 for row in rows)
    assert footer == ("# sup " + " ".join(f"{k}={printed[k]}"
                                          for k in ("el1", "el2", "tc", "dbr")))


@pytest.mark.parametrize("role", ["simulate-spec", "check-derivs-spec",
                                  "verify-trajectory", "charge-family"])
def test_non_utf8_input_exit_2(tmp_path, capsys, role):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe[problem]\na = 0.0\n")
    bad = str(bad)
    no_family = write(tmp_path, "osc.spec", OSCILLATOR.split("[family]")[0])
    argv = {"simulate-spec": ["simulate", bad, "--h", "1e-2"],
            "check-derivs-spec": ["check-derivs", bad],
            "verify-trajectory": ["verify", no_family, bad],
            "charge-family": ["charge", no_family, bad, "--h", "1e-2"]}[role]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "can't decode" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_charge_rejects_bad_defect_tol_exit_2(tmp_path, capsys, value):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    assert main(["charge", spec, "--h", "1e-2", "--defect-tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before the solve
    assert "--defect-tol must be a non-negative finite number" in captured.err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_solve_rejects_non_finite_tol_exit_2(tmp_path, capsys, value):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    assert main(["solve", spec, "--h", "1e-2", "--tol", value]) == 2
    captured = capsys.readouterr()
    assert "converged" not in captured.out
    assert "tol_r must be positive and finite" in captured.err


@pytest.mark.parametrize("role", ["simulate-out", "solve-mult-out",
                                  "verify-trajectory", "simulate-spec"])
def test_path_under_a_file_exit_2(tmp_path, capsys, role):
    spec = write(tmp_path, "free.spec", FREE_PARTICLE)
    under = str(tmp_path / "free.spec" / "x.csv")  # the parent is a regular file
    argv = {"simulate-out": ["simulate", spec, "--h", "1e-2", "--out", under],
            "solve-mult-out": ["solve", spec, "--h", "1e-2", "--mult-out", under],
            "verify-trajectory": ["verify", spec, under],
            "simulate-spec": ["simulate", under, "--h", "1e-2"]}[role]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("validation error:")


@pytest.mark.parametrize("value", ["-1", "0"])
def test_solve_rejects_max_iters_below_1_exit_2(tmp_path, capsys, value):
    spec = write(tmp_path, "osc.spec", OSCILLATOR)
    assert main(["solve", spec, "--h", "1e-2", "--max-iters", value]) == 2
    captured = capsys.readouterr()
    assert "converged" not in captured.out
    assert "max_iters must be an integer >= 1" in captured.err


def _run_python(code, tmp_path):
    """Run ``code`` in a fresh interpreter that imports this herglotz."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(herglotz.__file__)))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_verify_leaves_scipy_unimported(tmp_path):
    # only a solve's Newton step imports scipy, so verify keeps its memory
    spec = write(tmp_path, "m2.spec", M2_DELAYED)
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", spec, "--h", "1e-2", "--out", out]) == 0
    proc = _run_python("import sys\nfrom herglotz.cli import main\n"
                       f"assert main(['verify', {spec!r}, {out!r}]) == 0\n"
                       "print('scipy' in sys.modules)\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_huge_m_exit_2_before_anything_is_sized(tmp_path):
    # m sizes the key tuples of [history], [family] and [candidate]; the run
    # is capped at 1.5 GB of address space, so that a parser that sizes them
    # first fails fast with a MemoryError instead of exhausting the machine
    spec = write(tmp_path, "huge.spec",
                 re.sub(r"^m = 1$", f"m = {10**12}", DELAYED, flags=re.M))
    proc = _run_python("import resource, sys\n"
                       "cap = 1536 * 2**20\n"
                       "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                       "from herglotz.cli import main\n"
                       f"sys.exit(main(['check-derivs', {spec!r}]))\n", tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "m = 1000000000000 exceeds the 1 entries of [history]" in proc.stderr


@pytest.mark.parametrize("argv", [["simulate", "--M", "400000000"],
                                  ["solve", "--h", "1e-10"]])
def test_grid_beyond_memory_exit_3(tmp_path, argv):
    # a grid whose node arrays cannot be allocated under a 1.5 GB cap is a
    # numeric failure, not a traceback
    spec = write(tmp_path, "delayed.spec", DELAYED + '\n[candidate]\nx1 = "1"\n')
    argv = [argv[0], spec] + argv[1:]
    proc = _run_python("import resource, sys\n"
                       "cap = 1536 * 2**20\n"
                       "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                       "from herglotz.cli import main\n"
                       f"sys.exit(main({argv!r}))\n", tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numeric failure: Unable to allocate")
    assert "Traceback" not in proc.stderr


def test_overflowing_line_search_trial_warns_of_nothing(tmp_path):
    # the line search tries steps whose z overflows: their residual's sup is
    # infinite, so they are refused without numpy warnings on stderr
    spec = write(tmp_path, "overflow.spec",
                 OSCILLATOR.split("[family]")[0].replace(
                     "0.5*xd1^2 - 0.5*x1^2 - z", "xd1*x1 - 0.28*z^2"))
    proc = _run_python("import sys\nfrom herglotz.cli import main\n"
                       f"sys.exit(main(['solve', {spec!r}, '--M', '200']))\n", tmp_path)
    assert proc.returncode == 4
    assert proc.stderr == ""
    assert "converged: False" in proc.stdout


def _delayed_spec(tmp_path, L, tau, mu, candidate=""):
    text = (DELAYED.replace('"0.5*xd1^2 + 0.25*tau_x1^2 - z"', f'"{L}"')
            .replace("tau = 0.5", f"tau = {tau}").replace('mu1 = "1"', f'mu1 = "{mu}"'))
    return write(tmp_path, "delayed.spec", text + candidate)


@pytest.mark.parametrize("command, L, tau, mu", [
    ("simulate", "0.5*xd1^2 + 0.25*tau_x1^2 - z", 0.5, "sqrt(t + 0.1)"),
    ("solve", "0.5*xd1^2 + 0.25*tau_x1^2 - z", 0.5, "sqrt(t + 0.1)"),
    ("solve", "0.5*xd1^2 - 0.31*tanh(x1)*tau_xd1 - 0.08*log(xd1)*t + 0.69*tau_xd1^4",
     0.25, "exp(-t)")], ids=["simulate-sqrt-history", "solve-sqrt-history", "solve-log"])
def test_numeric_failure_warns_of_nothing(tmp_path, command, L, tau, mu):
    # NaN in the history, the stencils and the Jacobian differences: the
    # failure is reported by its exit code and one line, not by numpy
    spec = _delayed_spec(tmp_path, L, tau, mu, '\n[candidate]\nx1 = "1"\n')
    proc = _run_python("import sys\nfrom herglotz.cli import main\n"
                       f"sys.exit(main([{command!r}, {spec!r}, '--M', '40']))\n", tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure:")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("scipy", [True, False], ids=["scipy", "dense"])
def test_empty_newton_rows_print_no_blas_text(tmp_path, scipy):
    # rows and columns of this Newton matrix are empty; handed to splu, it
    # made OpenBLAS print to stdout
    spec = _delayed_spec(tmp_path, "xd1*x1 + 0.65*tau_xd1^3 + 0.25*tanh(1)*tau_x1",
                         0.5, "1 + 0.5*t")
    block = "" if scipy else "sys.modules['scipy'] = None\n"
    proc = _run_python(f"import sys\n{block}from herglotz.cli import main\n"
                       f"sys.exit(main(['solve', {spec!r}, '--M', '40']))\n", tmp_path)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "numeric failure: Newton Jacobian is singular\n"


MUTABLE = DELAYED.replace('"0.5*xd1^2 + 0.25*tau_x1^2 - z"',
                          '"0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*x1 - z"')
MUTABLE += '\n[candidate]\nx1 = "1 + 0.5*sin(t)"\n'


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_spec_keeps_the_exit_code_contract(tmp_path, data):
    start = data.draw(st.integers(0, len(MUTABLE)), label="start")
    end = data.draw(st.integers(start, min(len(MUTABLE), start + 12)), label="end")
    text = data.draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
                     label="text")
    spec = write(tmp_path, "mutated.spec", MUTABLE[:start] + text + MUTABLE[end:])
    for argv in (["simulate", spec], ["solve", spec, "--max-iters", "2"],
                 ["check-derivs", spec]):
        grid = [] if argv[0] == "check-derivs" else ["--M", "40"]
        assert main(argv + grid) in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def mutable_csv(tmp_path_factory):
    """The spec MUTABLE and the text of its simulated trajectory CSV at M=40."""
    root = tmp_path_factory.mktemp("mutable")
    spec, out = write(root, "mutable.spec", MUTABLE), str(root / "traj.csv")
    assert main(["simulate", spec, "--M", "40", "--out", out]) == 0
    with open(out) as fh:
        return spec, fh.read()


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_trajectory_csv_keeps_the_exit_code_contract(tmp_path, mutable_csv,
                                                             data):
    spec, csv = mutable_csv
    start = data.draw(st.integers(0, len(csv)), label="start")
    end = data.draw(st.integers(start, min(len(csv), start + 12)), label="end")
    text = data.draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
                     label="text")
    mutated = write(tmp_path, "mutated.csv", csv[:start] + text + csv[end:])
    assert main(["verify", spec, mutated]) in (0, 2, 3, 4)


@pytest.mark.parametrize("command, n, options, message", [
    ("simulate", 20, [], "M=100 too small"),
    ("solve", 20, [], "M=100 too small"),
    ("charge", 20, [], "M=100 too small"),
    ("solve", 1, ["--tol", "nan"], "tol_r must be positive and finite"),
    ("charge", 1, ["--max-iters", "0"], "max_iters must be an integer >= 1"),
], ids=["simulate", "solve", "charge", "solve-tol", "charge-max-iters"])
def test_grid_checked_before_the_problem_is_built(tmp_path, capsys, monkeypatch,
                                                  command, n, options, message):
    # M = 100 is too small for n = 20, and a tolerance or a budget out of
    # range is wrong whatever L is: each is known from the spec's numbers and
    # the options alone, so no Lagrangian is differentiated or audited
    def refuse(raw):
        raise AssertionError("problem built before the grid check")

    monkeypatch.setattr(herglotz.problem, "build_problem", refuse)
    text = re.sub(r"^n = 1$", f"n = {n}", DELAYED, flags=re.M)
    text += '\n[candidate]\nx1 = "1"\n\n[family]\nT = "t + s"\nX1 = "x1"\nZ = "z"\n'
    spec = write(tmp_path, "spec.spec", text)
    assert main([command, spec, "--M", "100", *options]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("L", [
    "0.5*xd1^2 + 0.25*tau_x1^2 - 0.3*x1*tau_xd1 - 0.2*z",
    "0.5*xd1^2 - 0.5*x1^2 - 0.2*z",
    "0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*x1 - z",
], ids=["comb", "no-comb", "zcoupled"])
def test_one_argument_build_per_command(tmp_path, capsys, monkeypatch, L):
    # verify builds L's node arguments once, for psi, phi and the report; a
    # solve builds them in its residuals only, its trajectory, multipliers
    # and report reading the last one's; charge builds them once more, for
    # its charge
    scope, builds = ["command"], []
    slot_args = herglotz.functional.slot_args

    def within(name, f):
        def scoped(*args, **kwargs):
            scope.append(name)
            try:
                return f(*args, **kwargs)
            finally:
                scope.pop()
        return scoped

    def counted(*args, **kwargs):
        if not kwargs.get("mid", False):  # the march's midpoint build aside
            builds.append(scope[-1])
        return slot_args(*args, **kwargs)

    solver = herglotz.solver
    monkeypatch.setattr(herglotz.functional, "slot_args", counted)
    monkeypatch.setattr(solver._System, "residual",
                        within("residual", solver._System.residual))
    monkeypatch.setattr(solver, "solve_extremal",
                        within("solve", solver.solve_extremal))
    text = (DELAYED.replace("tau = 0.5", "tau = 0.25")
            .replace('"0.5*xd1^2 + 0.25*tau_x1^2 - z"', f'"{L}"')
            + '\n[family]\nT = "t + s"\nX1 = "x1"\nZ = "z"\n')
    spec, out = write(tmp_path, "spec.spec", text), str(tmp_path / "sol.csv")
    assert main(["solve", spec, "--M", "100", "--out", out]) == 0
    assert set(builds) == {"residual"}
    builds.clear()
    assert main(["verify", spec, out]) == 0
    assert builds == ["command"]
    builds.clear()
    assert main(["charge", spec, "--M", "100"]) == 0
    assert [b for b in builds if b != "residual"] == ["command"]


@pytest.mark.parametrize("text", [FREE_PARTICLE, M2_DELAYED],
                         ids=["free-particle", "m2-delayed"])
def test_simulate_builds_arguments_once(tmp_path, capsys, monkeypatch, text):
    # the march and the admissibility defect read one build of L's node
    # arguments; the march builds the midpoint arguments once more
    builds = []
    slot_args = herglotz.functional.slot_args

    def counted(*args, **kwargs):
        builds.append(kwargs.get("mid", False))
        return slot_args(*args, **kwargs)

    monkeypatch.setattr(herglotz.functional, "slot_args", counted)
    assert main(["simulate", write(tmp_path, "s.spec", text), "--M", "40"]) == 0
    assert sorted(builds) == [False, True]


@pytest.mark.parametrize("tau, grid", [("0.0", ["--h", "1e-320"]),
                                       ("1e308", ["--M", "40"]),
                                       ("1e308", ["--h", "1e-2"])],
                         ids=["step-count-overflow", "M-offset-overflow",
                              "h-offset-overflow"])
def test_grid_overflow_exit_2(tmp_path, capsys, tau, grid):
    # a step count or a delay offset beyond the floats is a validation error,
    # not an OverflowError traceback
    text = re.sub(r"^tau = .*$", f"tau = {tau}", DELAYED, flags=re.M)
    assert main(["solve", write(tmp_path, "big.spec", text), *grid]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


@pytest.mark.parametrize("L, mu, tau, M", [
    ("0.5*xd1^2 - 0.5*x1^2 - z", ("1",), 0.0, 40),
    ("0.5*xd1^2 + 0.25*tau_x1^2 - z", ("1",), 0.25, 40),
    ("0.5*xd1^2 + 0.5*xd2^2 + 0.1*x1*x2 - z", ("1", "2 - t"), 0.0, 40),
    ("0.5*xd1^2 + 0.5*xd2^2 + 0.25*tau_x1*x2 - z", ("1", "2 - t"), 0.25, 1200),
], ids=["m1-tau0", "m1-delayed", "m2-tau0", "m2-delayed-multiblock"])
def test_residual_csv_keeps_the_savetxt_bytes(tmp_path, L, mu, tau, M):
    # the residual CSV, with NaN, +-inf and -0.0 planted in every block, is
    # the np.savetxt writer's bytes, to a path and to an open file alike;
    # M = 1200 spans more than one formatted run of rows
    p = make_problem(L, mu=mu, tau=tau, m=len(mu))
    fn, grid = herglotz.functional, herglotz.align_grid(p.a, p.b, p.tau, n=p.n, M=M)
    traj = fn.simulate_z(p, herglotz.from_expressions(p, grid, ["1 + t^2", "2 - t"][:p.m]))
    args = fn.trajectory_args(p, traj)
    mult = herglotz.compute_phi(p, traj, fn.psi_values(p, grid, args, traj.z), args)
    report = herglotz.full_report(p, traj, mult, args)
    el1, el2, dbr = report.el1.copy(), report.el2.copy(), report.dbr.copy()
    el1[0, 1], el1[-1, 2], el1[0, 3] = np.nan, np.inf, -0.0
    el2[-1, 0], dbr[1], dbr[2], dbr[-1] = -np.inf, -0.0, np.nan, np.inf
    report = report._replace(el1=el1, el2=el2, dbr=dbr)
    want = io.StringIO()
    savetxt_residual_csv(report, want)
    path = tmp_path / "res.csv"
    cli._write_residual_csv(report, str(path))
    assert path.read_bytes() == want.getvalue().encode()
    buf = io.StringIO()
    cli._write_residual_csv(report, buf)
    assert buf.getvalue() == want.getvalue()


@pytest.mark.parametrize("text, lifts", [
    (DELAYED + '\n[family]\nT = "t + s"\nX1 = "x1"\nZ = "z"\n',
     ["_history_generators", "lift_generators"]),
    (OSCILLATOR, ["lift_generators"]),
], ids=["comb", "no-comb"])
def test_charge_lifts_its_family_once(tmp_path, capsys, monkeypatch, text, lifts):
    # the invariance defect and the charge read one lift of the generators;
    # with L's comb on, the lift prolongs them along the history once
    calls = []
    for name in ("lift_generators", "_history_generators"):
        def counted(*args, _name=name, _f=getattr(herglotz.noether, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(herglotz.noether, name, counted)
    assert main(["charge", write(tmp_path, "c.spec", text), "--M", "40"]) == 0
    assert sorted(calls) == lifts
