import itertools

import numpy as np
import pytest

from herglotz import expr as ex
from herglotz.errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction

from oracles import central_fd

OSC = "0.5*xd1^2 - 0.5*x1^2 - z"


def random_binding(rng, names):
    return {name: rng.uniform(-2.0, 2.0) for name in names}


def test_parse_literal_zero():
    e = ex.parse_expression("0")
    assert isinstance(e, ex.Num) and e.value == 0.0


def test_parse_structure_forced_by_grammar():
    e = ex.parse_expression("0.5*xd1^2 - z")
    assert isinstance(e, ex.BinOp) and e.op == "-"
    assert isinstance(e.right, ex.Var) and e.right.name == "z"
    left = e.left
    assert isinstance(left, ex.BinOp) and left.op == "*"
    assert isinstance(left.right, ex.BinOp) and left.right.op == "^"


def test_precedence_and_associativity():
    # ^ above unary minus, right-associative; * / and + - left-associative
    assert ex.evaluate(ex.parse_expression("-2^2"), {}) == -4.0
    assert ex.evaluate(ex.parse_expression("2^-1"), {}) == 0.5
    assert ex.evaluate(ex.parse_expression("2^3^2"), {}) == 512.0
    assert ex.evaluate(ex.parse_expression("8/4/2"), {}) == 1.0
    assert ex.evaluate(ex.parse_expression("1 - 2 - 3"), {}) == -4.0
    assert ex.evaluate(ex.parse_expression("1+2*3^2"), {}) == 19.0


def test_whitespace_insensitive():
    b = {"x1": 1.25}
    assert (ex.evaluate(ex.parse_expression("2 * x1 +1"), b)
            == ex.evaluate(ex.parse_expression("2*x1+1"), b))


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse_expression("1 + $")
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("")
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("1 2")


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        ex.parse_expression("foo(x)")
    # function names cannot be used as variables
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("sin + 1")


def test_evaluate_additive_identity():
    assert ex.evaluate(ex.parse_expression("x + 0"), {"x": 3.5}) == 3.5


def test_evaluate_oscillator():
    assert ex.evaluate(ex.parse_expression("0.5*xd1^2 - z"),
                       {"xd1": 2.0, "z": 1.0}) == 1.0


def test_evaluate_exp_reference():
    got = ex.evaluate(ex.parse_expression("exp(t)"), {"t": 1.0})
    assert abs(got - 2.718281828459045) <= 1e-15


def test_evaluate_errors():
    with pytest.raises(UnboundVariable):
        ex.evaluate(ex.parse_expression("x + y"), {"x": 1.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse_expression("log(x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse_expression("sqrt(x)"), {"x": -4.0})


def test_nonfinite_propagates():
    assert np.isinf(ex.evaluate(ex.parse_expression("1/x"), {"x": 0.0}))
    assert np.isnan(ex.evaluate(ex.parse_expression("0/x"), {"x": 0.0}))


def test_differentiate_linear_term():
    d = ex.differentiate(ex.parse_expression(OSC), "z")
    assert isinstance(d, ex.Num) and d.value == -1.0


def test_differentiate_power_rule():
    d = ex.differentiate(ex.parse_expression(OSC), "xd1")
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = random_binding(rng, ["x1", "xd1", "z"])
        assert abs(ex.evaluate(d, b) - b["xd1"]) <= 1e-12


def test_differentiate_absent_variable_is_zero():
    d = ex.differentiate(ex.parse_expression(OSC), "nope")
    assert isinstance(d, ex.Num) and d.value == 0.0


def test_derivative_closure_and_free_variables():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = random_ast(rng, 4)
        for v in ("u", "v"):
            d = ex.differentiate(e, v)
            assert ex.free_variables(d) <= ex.free_variables(e)
            assert_only_grammar(d)


def test_differentiate_against_fd_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        e = random_ast(rng, 6)
        var = rng.choice(["u", "v", "w"])
        b = {name: rng.uniform(0.4, 1.6) for name in ("u", "v", "w")}
        try:
            val = ex.evaluate(e, b)
            sym = ex.evaluate(ex.differentiate(e, var), b)
            fd = central_fd(e, b, var)
        except DomainError:
            continue
        if not (np.isfinite(val) and np.isfinite(sym) and np.isfinite(fd)
                and abs(val) < 1e4 and abs(sym) < 1e4):
            continue
        checked += 1
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(val) + abs(sym))


def test_differentiate_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(25):
        e1 = random_ast(rng, 4)
        e2 = random_ast(rng, 4)
        a = float(rng.uniform(-3, 3))
        combo = ex.BinOp("+", ex.BinOp("*", ex.Num(a), e1), e2)
        d_combo = ex.differentiate(combo, "u")
        d_split = ex.BinOp("+", ex.BinOp("*", ex.Num(a), ex.differentiate(e1, "u")),
                           ex.differentiate(e2, "u"))
        for _ in range(5):
            b = {name: rng.uniform(0.4, 1.6) for name in ("u", "v", "w")}
            try:
                lhs = ex.evaluate(d_combo, b)
                rhs = ex.evaluate(d_split, b)
            except DomainError:
                continue
            if np.isfinite(lhs) and np.isfinite(rhs):
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_unparse_roundtrip_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(100):
        e = random_ast(rng, 5)
        back = ex.parse_expression(ex.unparse(e))
        for _ in range(3):
            b = {name: rng.uniform(0.3, 1.7) for name in ("u", "v", "w")}
            try:
                want = ex.evaluate(e, b)
            except DomainError:
                continue
            got = ex.evaluate(back, b)
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == want  # bit-for-bit


def test_oscillator_roundtrip_100_bindings():
    e = ex.parse_expression("0.5*xd1^2 - 0.5*x1^2 - z")
    back = ex.parse_expression(ex.unparse(e))
    rng = np.random.default_rng(17)
    for _ in range(100):
        b = random_binding(rng, ["x1", "xd1", "z"])
        assert ex.evaluate(back, b) == ex.evaluate(e, b)


def test_simplify_identities():
    cases = [("x + 0", "x"), ("0 + x", "x"), ("x - 0", "x"), ("1*x", "x"),
             ("x*1", "x"), ("x/1", "x"), ("x^1", "x"), ("0*x", "0")]
    rng = np.random.default_rng(2)
    for src, want in cases:
        s = ex.simplify(ex.parse_expression(src))
        w = ex.parse_expression(want)
        for _ in range(5):
            b = {"x": rng.uniform(-2, 2)}
            assert ex.evaluate(s, b) == ex.evaluate(w, b)
    assert isinstance(ex.simplify(ex.parse_expression("2*3 + 1")), ex.Num)


def test_substitute():
    e = ex.parse_expression("x + sin(y)")
    out = ex.substitute(e, {"x": ex.parse_expression("2*u"), "y": ex.Num(0.0)})
    assert ex.free_variables(out) == {"u"}
    assert ex.evaluate(out, {"u": 1.5}) == 3.0


def deep_asts():
    """A 300-term sum and a 300-deep negation chain, each nested deeper than
    the 200 parentheses that CPython compiles in one expression."""
    terms = [ex.BinOp("*", ex.Num((i % 7 - 3) * 0.125 + 0.001 * i),
                      ex.BinOp("^", ex.Var("uvw"[i % 3]), ex.Num(2.0)))
             for i in range(300)]
    total = terms[0]
    for term in terms[1:]:
        total = ex.BinOp("+", total, term)
    chain = ex.Var("u")
    for _ in range(300):
        chain = ex.Neg(chain)
    return [total, chain]


def test_compile_matches_evaluate():
    rng = np.random.default_rng(23)
    for e in itertools.chain((random_ast(rng, 5) for _ in range(30)), deep_asts()):
        names = sorted(ex.free_variables(e)) or ["u"]
        fn = ex.compile_expr(e, names)
        b = {name: rng.uniform(0.4, 1.6) for name in names}
        try:
            want = ex.evaluate(e, b)
        except DomainError:
            continue
        with np.errstate(all="ignore"):
            got = float(fn(*(np.float64(b[nm]) for nm in names)))
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want


# -- random AST generator -----------------------------------------------------

def random_ast(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.Var(str(rng.choice(["u", "v", "w"])))
        return ex.Num(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    kind = rng.choice(["+", "-", "*", "/", "^", "neg", "call"])
    if kind == "neg":
        return ex.Neg(random_ast(rng, depth - 1))
    if kind == "call":
        fname = str(rng.choice(["sin", "cos", "exp", "tanh", "sqrt", "log"]))
        arg = random_ast(rng, depth - 1)
        if fname in ("sqrt", "log"):
            # keep the argument positive so domains stay valid
            arg = ex.BinOp("+", ex.BinOp("*", arg, arg), ex.Num(0.5))
        return ex.Call(fname, arg)
    if kind == "^":
        return ex.BinOp("^", ex.BinOp("+", ex.BinOp("*", random_ast(rng, depth - 2),
                                                    random_ast(rng, depth - 2)),
                                      ex.Num(1.5)),
                        ex.Num(float(rng.integers(1, 4))))
    return ex.BinOp(str(kind), random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def assert_only_grammar(e):
    if isinstance(e, (ex.Num, ex.Var)):
        return
    if isinstance(e, ex.Neg):
        assert_only_grammar(e.arg)
        return
    if isinstance(e, ex.Call):
        assert e.fn in ex.FUNCTIONS
        assert_only_grammar(e.arg)
        return
    assert isinstance(e, ex.BinOp) and e.op in "+-*/^"
    assert_only_grammar(e.left)
    assert_only_grammar(e.right)


def test_evaluate_points_is_evaluate_at_each_point():
    # a power is the scalar one bit for bit, and a point where evaluate
    # raises DomainError is NaN even when a power of 1 hides its log
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 3.0, (3, 40))
    y = rng.uniform(-3.0, 3.0, 40)
    for src in ("x^y + exp(x)/y", "sqrt(x)*y^2.5 - log(y)", "1^log(x) + sin(y)", "2.5"):
        e = ex.parse_expression(src)
        got = ex.evaluate_points(e, {"x": x, "y": y})
        assert got.shape == x.shape
        for i, j in np.ndindex(x.shape):
            try:
                want = ex.evaluate(e, {"x": x[i, j], "y": y[j]})
            except DomainError:
                want = np.nan
            assert got[i, j] == want or np.isnan(got[i, j]) and np.isnan(want)


def test_node_kinds_never_compare_equal():
    # nodes are tuples, yet a node equals only a node of its own kind
    items = {1: [("x",), (ex.Num(1.0),)], 2: [("sin", ex.Var("x"))]}
    kinds = {1: (ex.Num, ex.Var, ex.Neg), 2: (ex.Call,)}
    for arity, cases in items.items():
        for args in cases:
            nodes = [kind(*args) for kind in kinds[arity]]
            for i, a in enumerate(nodes):
                assert a != tuple(args) and not a == tuple(args)
                assert tuple(args) != a
                for j, b in enumerate(nodes):
                    assert (a == b) is (i == j) and (a != b) is (i != j)
    assert ex.BinOp("+", ex.Num(1.0), ex.Var("x")) != ("+", ex.Num(1.0), ex.Var("x"))
    e = ex.parse_expression("x*sin(y) - 2")
    assert e == ex.parse_expression("x*sin(y) - 2") and hash(e) == hash(ex.parse_expression("x*sin(y) - 2"))
    assert e != ex.parse_expression("x*sin(y) - 3")
