"""The comparison of ``tests/solve_record.py`` on hand-made records."""

from solve_record import _lost, _raise_changes


def _call(converged, raised=None):
    record = {"test": "tests/test_x.py::test_y", "M": 40, "converged": converged}
    if raised:
        record["raised"] = raised
    return record


BEFORE = [_call(True), _call(False, "SingularJacobian"), _call(False),
          _call(False, "SingularJacobian"), _call(True)]


def test_raises_turned_into_results_lose_no_solve():
    # a recorded raise keeps the k-th call keys of the calls after it
    after = [_call(True), _call(False), _call(False), _call(False), _call(True)]
    assert _lost(BEFORE, after) == []
    assert _raise_changes(BEFORE, after) == [
        (("tests/test_x.py::test_y", 1), "SingularJacobian", "result"),
        (("tests/test_x.py::test_y", 3), "SingularJacobian", "result")]


def test_a_converged_call_that_raises_is_lost_and_not_a_raise_change():
    after = [_call(False, "SingularJacobian"), _call(False, "SingularJacobian"),
             _call(False, "NonFiniteLagrangian"), _call(False, "SingularJacobian"),
             _call(True)]
    assert _lost(BEFORE, after) == [(("tests/test_x.py::test_y", 0), 40)]
    assert _raise_changes(BEFORE, after) == [
        (("tests/test_x.py::test_y", 2), "result", "NonFiniteLagrangian")]
