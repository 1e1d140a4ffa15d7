import numpy as np
import pytest

from herglotz import expr as ex
from herglotz import problem as pb
from herglotz.errors import OutOfHistoryRange, ValidationError

from conftest import make_problem
from oracles import fd_samples_by_scalar


def test_build_valid_oscillator():
    p = make_problem("0.5*xd1^2 - z")
    assert p.n == 1 and p.m == 1
    dz = p.lagrangian.partials["z"]
    assert isinstance(dz, ex.Num) and dz.value == -1.0


def test_partials_table_count():
    p = make_problem("0.5*xd1^2 - z")
    assert len(p.lagrangian.partials) == 2 + 2 * 1 * (1 + 1)
    p2 = make_problem("0.5*xdd1^2 - z", mu=("1",), n=2)
    assert len(p2.lagrangian.partials) == 2 + 2 * 1 * (2 + 1)  # 8 entries


def test_partials_match_symbolic_differentiation():
    p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.5)
    for slot in p.lagrangian.args:
        want = ex.differentiate(p.lagrangian.body, slot)
        rng = np.random.default_rng(1)
        for _ in range(5):
            b = {name: rng.uniform(-1, 1) for name in p.lagrangian.args}
            assert (ex.evaluate(p.lagrangian.partials[slot], b)
                    == ex.evaluate(want, b))


def test_tau_out_of_range_rejected():
    with pytest.raises(ValidationError) as err:
        make_problem("0.5*xd1^2 - z", b=0.4, tau=0.5)
    assert any("tau" in msg for msg in err.value.problems)


def test_unknown_slot_rejected():
    with pytest.raises(ValidationError):
        make_problem("0.5*xd1^2 - y")
    with pytest.raises(ValidationError):
        make_problem("0.5*xd2^2 - z")  # component 2 of an m=1 problem


def test_bad_order_and_dimension():
    with pytest.raises(ValidationError):
        make_problem("0.5*xd1^2 - z", n=0)
    with pytest.raises(ValidationError):
        make_problem("0.5*xd1^2 - z", m=0)


def test_all_violations_collected():
    with pytest.raises(ValidationError) as err:
        make_problem("0.5*xd1^2 - y", b=-1.0, tau=0.5)
    assert len(err.value.problems) >= 2


def test_history_must_depend_only_on_t():
    with pytest.raises(ValidationError):
        make_problem("0.5*xd1^2 - z", mu=("x1 + 1",))


def test_slot_names():
    assert pb.slot_name(1, 0) == "x1"
    assert pb.slot_name(2, 1) == "xd2"
    assert pb.slot_name(1, 2) == "xdd1"
    assert pb.slot_name(1, 3) == "x1_d3"
    assert pb.delayed_slot_name(1, 1) == "tau_xd1"
    assert len(pb.arg_names(2, 2)) == 2 + 2 * 2 * 3


def test_history_derivative_power_rule():
    p = make_problem("0.5*xd1^2 - z", mu=("t^2",), tau=0.5)
    assert abs(pb.history_derivative(p, 1, 1, -0.3) - (-0.6)) <= 1e-14


def test_history_derivative_constant():
    p = make_problem("0.5*xd1^2 - z", mu=("1",), tau=0.5)
    assert pb.history_derivative(p, 1, 1, -0.2) == 0.0


def test_history_derivative_sin_second():
    # k runs up to n, so the second derivative needs a second-order problem
    p = make_problem("0.5*xdd1^2 - z", mu=("sin(t)",), tau=0.5, n=2)
    got = pb.history_derivative(p, 1, 2, -0.1)
    assert abs(got - (-np.sin(-0.1))) <= 1e-12


def test_history_derivative_out_of_range():
    p = make_problem("0.5*xd1^2 - z", mu=("1",), tau=0.5)
    with pytest.raises(OutOfHistoryRange):
        pb.history_derivative(p, 1, 0, 0.2)
    with pytest.raises(OutOfHistoryRange):
        pb.history_derivative(p, 1, 0, -0.7)


def test_history_derivative_matches_finite_differences():
    p = make_problem("0.5*xd1^2 - z", mu=("sin(t)*exp(t)",), tau=0.8)
    h = 1e-4
    for k in (1,):
        for t in (-0.6, -0.4, -0.2):
            fd = (pb.history_derivative(p, 1, k - 1, t + h)
                  - pb.history_derivative(p, 1, k - 1, t - h)) / (2 * h)
            assert abs(pb.history_derivative(p, 1, k, t) - fd) <= 1e-7


def test_fd_validation_rejects_wrong_partial():
    p = make_problem("0.5*xd1^2 - z")
    broken = dict(p.lagrangian.partials)
    broken["xd1"] = ex.parse_expression("2*xd1")  # wrong on purpose
    lag = pb.LagrangianSpec(n=1, m=1, body=p.lagrangian.body, partials=broken)
    failures = pb._check_partials_fd(lag, 0.0, 1.0)
    assert failures


def test_check_derivatives_rows():
    p = make_problem("tanh(x1)*exp(xd1) - z")
    rows = pb.check_derivatives(p)
    assert len(rows) == 10 * len(p.lagrangian.args)
    assert max(r[-1] for r in rows) <= 1e-6


def test_build_work_does_not_grow_with_unread_slots(monkeypatch):
    # L reads xd1, tau_x1 and z: the partials and the finite-difference
    # audit of every other slot cost no evaluation, so n = 20 costs what
    # n = 1 does, in passes and in points evaluated
    evaluate_points, calls = ex.evaluate_points, []

    def counted(e, binding):
        out = evaluate_points(e, binding)
        calls.append(out.size)
        return out

    monkeypatch.setattr(ex, "evaluate_points", counted)
    counts = []
    for n in (1, 20):
        calls.clear()
        p = make_problem("0.5*xd1^2 + 0.25*tau_x1^2 - z", tau=0.25, n=n)
        counts.append(list(calls))
    assert counts[0] == counts[1] != []
    unread = set(p.lagrangian.args) - {"xd1", "tau_x1", "z"}
    assert all(p.lagrangian.partials[s] == ex.Num(0.0) for s in unread)
    monkeypatch.undo()
    rows = pb.check_derivatives(p)
    assert len(rows) == 10 * len(p.lagrangian.args)
    assert all(r[2:] == (0.0, 0.0, 0.0) for r in rows if r[0] in unread)
    # the points are those of one scalar draw per slot, then t, so the
    # check-derivs rows stay what they were
    rng = np.random.default_rng(4242)
    [rng.uniform(0.6, 1.4) for _ in p.lagrangian.args]
    assert rows[0][1] == rng.uniform(p.a, p.b)


@pytest.mark.parametrize("n, m, L", [
    (1, 1, "0.5*xd1^2 - z"),
    (1, 1, "0.5*xd1^2 + 0.25*tau_x1^2 - 0.1*z*x1 - z"),
    (2, 2, "0.5*xdd1^2 + 0.5*xdd2^2 + 0.3463*tau_x1*x2 + 0.2049*tau_xd2*xd1 - 0.7468*z"),
    (1, 1, "exp(sin(t*xd1))^1.7/(x1 - 1) + tanh(tau_xd1)*z^3 - cos(x1)^2.5"),
    # points redrawn: log/sqrt of a negative argument, a non-finite value
    (1, 1, "xd1^2.5*sqrt(x1 - 1) - log(x1 - 1.1)*z"),
    (1, 1, "1/(x1 - 1)^40 + xd1"),
    # a log of a negative argument that a power of 1 or 0 would hide
    (1, 1, "1^log(x1 - 1.2) + xd1^2"),
    (1, 1, "x1^(x1 - x1)*log(x1 - 1) + xd1"),
    # no point ever kept, and an L that reads no slot
    (1, 1, "log(x1 - 3)"),
    (1, 1, "1"),
])
def test_fd_audit_matches_one_scalar_evaluation_at_a_time(n, m, L):
    # one pass per expression on a batch of points keeps the draws, the
    # redraws and every value of the scalar audit, bit for bit
    lag = pb.make_lagrangian(n, m, L)
    for seed in (pb._AUDIT_SEED, pb._CHECK_SEED, 7):
        want = fd_samples_by_scalar(lag, -0.5, 2.0, np.random.default_rng(seed))
        got = pb._fd_samples(lag, -0.5, 2.0, np.random.default_rng(seed))
        assert got == want
