"""The package's records: immutable named tuples, and two small classes for
the records that keep compiled callables; none is a dataclass, whose methods
are generated and compiled at every import."""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import herglotz
from herglotz import conditions as cd
from herglotz import expr as ex
from herglotz import multipliers as ml
from herglotz import noether as nt
from herglotz import reduction as rd
from herglotz import solver as sv
from herglotz import specfile
from herglotz import trajectory as tr

from conftest import delayed_problem

PACKAGE = os.path.dirname(herglotz.__file__)


def test_importing_every_module_leaves_dataclasses_unimported():
    # a dataclass generates and compiles its methods when its class is made
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE)
                     if name.endswith(".py") and name != "__main__.py")
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('herglotz.' + name)\n"
            "print('dataclasses' in sys.modules, 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def records():
    """One instance of every record, built by keyword."""
    p = delayed_problem()
    grid = tr.Grid(a=0.0, b=1.0, M=20, p=10)
    x = np.zeros((1, 2, 21))
    traj = tr.StateTrajectory(grid=grid, x=x)
    mult = ml.MultiplierSet(psi=np.ones(21), phi=np.zeros((1, 1, 21)))
    arr = np.zeros(3)
    report = cd.ResidualReport(grid=grid, el1=arr, el2=arr, tc=arr, dbr=arr,
                               el1_flags=arr, el2_flags=arr, dbr_flags=arr,
                               dbr_delayed=arr, dbr_delayed_flags=arr)
    rp = rd.guinn_reduce(p)
    fam = specfile.FamilyContent(T="t + s", X=("x1",), Z="z", xi=0.0)
    return [
        p, p.lagrangian, grid, traj, mult, report, rp,
        rd.StackedTrajectory(rp=rp, h=0.05, P=10, cut_steps=10, x=x, z=None),
        rd.EquivalenceDefects(objective=0.0, coupling=0.0),
        nt.InvarianceFamily(Tmap=herglotz.parse_expression("t + s"),
                            Xmap=(herglotz.parse_expression("x1"),),
                            Zmap=herglotz.parse_expression("z")),
        nt.GeneratorSeries(T=arr, X=arr, Z=arr, xi=0.0, hist=None),
        sv.SolveOptions(),
        sv.SolveResult(trajectory=traj, multipliers=mult, report=report),
        sv._RowBlock(name="tc", nodes=arr, copies=1, span=None, weighted=False,
                     value=None),
        sv._Augmented(color=arr, n_colors=1, step_pattern=(), g_pattern=(),
                      node_pattern=(), node_color=arr, n_node_colors=1, panels=()),
        fam,
        specfile.ProblemFileContent(a=0.0, b=1.0, tau=0.5, gamma=0.0, n=1, m=1,
                                    lagrangian_src="xd1^2", history_src=("1",)),
        ex.Num(value=1.0), ex.Var(name="x"), ex.Neg(arg=ex.Var("x")),
        ex.BinOp(op="+", left=ex.Var("x"), right=ex.Num(1.0)),
        ex.Call(fn="sin", arg=ex.Var("x")),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    fields = getattr(record, "_fields", None) or record.__slots__
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_build_by_keyword_with_their_defaults():
    assert sv.SolveOptions() == sv.SolveOptions(M=None, h=1e-3, max_iters=25, tol_r=1e-6)
    assert sv.SolveOptions(M=400)._fields == ("M", "h", "max_iters", "tol_r")
    traj = tr.StateTrajectory(grid=tr.Grid(a=0.0, b=1.0, M=10, p=0), x=np.zeros((1, 2, 11)))
    assert traj.z is None
    result = sv.SolveResult(trajectory=traj, multipliers=None, report=None)
    assert (result.iterations, result.converged, result.elapsed) == ((), False, 0.0)
    raw = specfile.ProblemFileContent(a=0.0, b=1.0, tau=0.0, gamma=0.0, n=1, m=1,
                                      lagrangian_src="xd1^2", history_src=("1",))
    assert raw.family is None and raw.candidate is None
    fam = nt.InvarianceFamily(Tmap=None, Xmap=(), Zmap=None)
    assert fam.xi == 0.0
    assert repr(tr.Grid(a=0.0, b=1.0, M=10, p=2)) == "Grid(a=0.0, b=1.0, M=10, p=2)"


def test_records_with_a_cache_compare_and_print_by_their_fields():
    p, q = delayed_problem(), delayed_problem()
    p.lagrangian.compiled("body")
    p.history_fn(1, 0)
    assert p == q and p.lagrangian == q.lagrangian
    assert repr(p) == repr(q) and "_compiled" not in repr(p)
    assert repr(p.lagrangian).startswith("LagrangianSpec(n=1, m=1, body=BinOp(")
    assert p.lagrangian.compiled("body") is p.lagrangian.compiled("body")
    with pytest.raises(TypeError):
        hash(p)
    for copied in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and copied._compiled == {}


def test_with_z_returns_a_new_record():
    traj = tr.StateTrajectory(grid=tr.Grid(a=0.0, b=1.0, M=10, p=0), x=np.zeros((1, 2, 11)))
    new = traj.with_z([1] * 11)
    assert traj.z is None
    assert new is not traj and new.grid is traj.grid and new.x is traj.x
    assert new.z.dtype == float and np.all(new.z == 1.0)
