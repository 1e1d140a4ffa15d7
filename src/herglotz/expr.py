"""Scalar expression engine: parse, evaluate, differentiate, unparse.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*          left-associative
    term   := unary (('*'|'/') unary)*        left-associative
    unary  := '-' unary | power
    power  := atom ('^' unary)?               right-associative, binds above unary '-'
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Variable names match ``[A-Za-z_][A-Za-z0-9_]*`` and must not collide with the
function names ``sin cos exp log sqrt tanh``.  The AST is closed under
differentiation: derivatives only ever contain the grammar above.
"""

import operator
import re
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_NUMPY_FN = {name: getattr(np, name) for name in FUNCTIONS}

# compile_expr moves an operation this many nestings deep into a local of its
# own, since CPython refuses source nested more than 200 parentheses deep
_HOIST_DEPTH = 50


# Nodes are named tuples, which compare by their items alone: these make a
# node equal only to a node of its own kind.
def _node_eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _node_ne(self, other):
    return not _node_eq(self, other)


class Num(NamedTuple):
    value: float
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, tuple.__hash__


class Var(NamedTuple):
    name: str
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, tuple.__hash__


class Neg(NamedTuple):
    arg: object  # an Expr
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, tuple.__hash__


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: object  # an Expr
    right: object  # an Expr
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, tuple.__hash__


class Call(NamedTuple):
    fn: str
    arg: object  # an Expr
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, tuple.__hash__


Expr = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip leading blanks manually so errors point at the bad byte
            stripped = src[pos:].lstrip()
            bad = len(src) - len(stripped)
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {src[bad]!r}", bad + 1)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind) + 1))
        pos = m.end()
    tokens.append(("end", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.next()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", off)

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.next()
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, _ = self.next()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise UnknownFunction(text, off)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in FUNCTIONS:
                raise ExprSyntaxError(f"function '{text}' used without arguments", off)
            return Var(text)
        if (kind, text) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse_expression(src: str) -> Expr:
    """Parse expression text into an AST.

    Raises ExprSyntaxError (with a 1-based byte offset) on malformed input and
    UnknownFunction for calls to anything outside the fixed function set.
    """
    if not isinstance(src, str) or not src.strip():
        raise ExprSyntaxError("empty expression", 1)
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", off)
    return node


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, binding) -> float:
    """Evaluate in IEEE double precision.  NaN/Inf propagate (division by
    zero, overflow); log/sqrt of a negative argument raise DomainError."""
    with np.errstate(all="ignore"):
        return float(_eval(e, binding, None))


def evaluate_points(e: Expr, binding) -> np.ndarray:
    """Evaluate at many points in one pass: ``binding`` maps every variable
    to an array, the arrays broadcast to the points' shape, and each result
    entry is what ``evaluate`` gives at its point, NaN where it raises
    DomainError.  Powers are taken point by point with the scalar power of
    ``evaluate``, since numpy's array power can differ from it in the last
    bit."""
    shape = np.broadcast_shapes(*map(np.shape, binding.values()))
    domain = np.zeros(shape, dtype=bool)
    with np.errstate(all="ignore"):
        out = np.broadcast_to(_eval(e, binding, domain), shape)
    return np.where(domain, np.nan, out)


def _eval(e, binding, domain):
    # domain is None for a scalar evaluation, which raises DomainError;
    # otherwise it marks the points where one would be raised
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        try:
            return np.float64(binding[e.name])
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Neg):
        return -_eval(e.arg, binding, domain)
    if isinstance(e, BinOp):
        a = _eval(e.left, binding, domain)
        b = _eval(e.right, binding, domain)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        if domain is None:
            return a ** b
        a, b = np.broadcast_arrays(a, b)
        return np.fromiter(map(operator.pow, a.ravel(), b.ravel()), float,
                           a.size).reshape(a.shape)
    arg = _eval(e.arg, binding, domain)
    if e.fn in ("log", "sqrt"):
        if domain is not None:
            domain |= arg < 0
        elif arg < 0:
            raise DomainError(f"{e.fn} of negative argument {float(arg)!r}")
    return _NUMPY_FN[e.fn](arg)


def free_variables(e: Expr) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return free_variables(e.left) | free_variables(e.right)


# ---------------------------------------------------------------------------
# differentiation and simplification

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative (0 for an absent variable)."""
    return simplify(_diff(e, var))


def _diff(e, var):
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        du, dv = _diff(u, var), _diff(v, var)
        if e.op == "+":
            return BinOp("+", du, dv)
        if e.op == "-":
            return BinOp("-", du, dv)
        if e.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if e.op == "/":
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, Num(2.0)))
        # u^v
        if isinstance(v, Num):
            return BinOp("*", BinOp("*", v, BinOp("^", u, Num(v.value - 1.0))), du)
        # general exponent: u^v * (dv*log(u) + v*du/u)
        inner = BinOp("+", BinOp("*", dv, Call("log", u)),
                      BinOp("*", v, BinOp("/", du, u)))
        return BinOp("*", e, inner)
    # functions
    u = e.arg
    du = _diff(u, var)
    if e.fn == "sin":
        outer = Call("cos", u)
    elif e.fn == "cos":
        outer = Neg(Call("sin", u))
    elif e.fn == "exp":
        outer = Call("exp", u)
    elif e.fn == "log":
        return BinOp("/", du, u)
    elif e.fn == "sqrt":
        return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", u)))
    else:  # tanh
        outer = BinOp("-", Num(1.0), BinOp("^", Call("tanh", u), Num(2.0)))
    return BinOp("*", outer, du)


def _fold(fn, *args):
    # fold constants only when the result is an ordinary finite float (under
    # the errstate of simplify)
    try:
        v = float(fn(*(np.float64(a) for a in args)))
    except (DomainError, ValueError):
        return None
    return v if np.isfinite(v) else None


def simplify(e: Expr) -> Expr:
    """Constant folding plus 0/1 identities. Not a CAS: equivalence of
    anything deeper is established numerically by the callers' tests."""
    with np.errstate(all="ignore"):  # a fold that overflows is not taken
        return _simplify(e)


def _simplify(e):
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Neg):
        a = _simplify(e.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, Call):
        a = _simplify(e.arg)
        if isinstance(a, Num):
            def apply(x):
                if e.fn == "log" and x < 0:
                    raise DomainError("log of negative constant")
                if e.fn == "sqrt" and x < 0:
                    raise DomainError("sqrt of negative constant")
                return _NUMPY_FN[e.fn](x)
            v = _fold(apply, a.value)
            if v is not None:
                return Num(v)
        return Call(e.fn, a)
    a = _simplify(e.left)
    b = _simplify(e.right)
    op = e.op
    if isinstance(a, Num) and isinstance(b, Num):
        v = _fold({"+": np.add, "-": np.subtract, "*": np.multiply,
                   "/": np.divide, "^": np.power}[op], a.value, b.value)
        if v is not None:
            return Num(v)
    if op == "+":
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif op == "-":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return _simplify(Neg(b))
    elif op == "*":
        if _is_zero(a) or _is_zero(b):
            return Num(0.0)
        if _is_one(a):
            return b
        if _is_one(b):
            return a
    elif op == "/":
        if _is_one(b):
            return a
    elif op == "^":
        if _is_one(b):
            return a
        if _is_zero(b):
            return Num(1.0)
    return BinOp(op, a, b)


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e):
    return isinstance(e, Num) and e.value == 1.0


# ---------------------------------------------------------------------------
# unparse / substitution / compilation

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def unparse(e: Expr) -> str:
    """Render to text that reparses to an identically-evaluating AST."""
    return _unparse(e)[0]


def _unparse(e):
    if isinstance(e, Num):
        if e.value < 0 or (e.value == 0.0 and np.signbit(e.value)):
            return f"-{_fmt_num(-e.value)}", _PREC["neg"]
        return _fmt_num(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Neg):
        s, p = _unparse(e.arg)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(e, Call):
        return f"{e.fn}({_unparse(e.arg)[0]})", _PREC["atom"]
    ls, lp = _unparse(e.left)
    rs, rp = _unparse(e.right)
    p = _PREC[e.op]
    # parenthesize so the printed text reparses to the same tree shape;
    # float arithmetic is not associative, so equal precedence on the
    # non-associating side still needs parens
    if e.op == "^":
        if lp <= p:
            ls = f"({ls})"
        if rp < p:
            rs = f"({rs})"
    else:
        if lp < p:
            ls = f"({ls})"
        if rp <= p:
            rs = f"({rs})"
    return f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}", p


def _fmt_num(v):
    s = repr(float(v))
    return s


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by expressions (capture is the caller's problem)."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, mapping))
    return BinOp(e.op, substitute(e.left, mapping), substitute(e.right, mapping))


def compile_expr(e: Expr, params):
    """Compile to a positional function over numpy scalars/arrays.

    The compiled function follows IEEE semantics (NaN/Inf propagate, no
    DomainError); hot loops check finiteness at the consumer.  ``params``
    must cover every free variable of ``e``.  Constants are bound as
    np.float64 so powers never fall back to Python's complex pow.  The
    function is one return statement, less the operations nested
    ``_HOIST_DEPTH`` deep, each assigned to a local first.
    """
    params = list(params)
    missing = free_variables(e) - set(params)
    if missing:
        raise UnboundVariable(sorted(missing)[0])
    names = {p: f"_a{i}" for i, p in enumerate(params)}
    consts, lines = [], []
    body = _emit(e, names, consts, lines)
    src = (f"def _f({', '.join(names[p] for p in params)}):\n" + "".join(lines)
           + f"    return {body}\n")
    ns = {f"_{fn}": _NUMPY_FN[fn] for fn in FUNCTIONS}
    for i, v in enumerate(consts):
        ns[f"_k{i}"] = np.float64(v)
    exec(compile(src, "<expr>", "exec"), ns)
    return ns["_f"]


def _emit(e, names, consts, lines, depth=0):
    """The source of e nested ``depth`` operations deep; an operation at
    ``_HOIST_DEPTH`` is emitted as an assignment ``_t{i} = ...`` appended to
    ``lines`` and read back by its name."""
    if isinstance(e, Num):
        consts.append(e.value)
        return f"_k{len(consts) - 1}"
    if isinstance(e, Var):
        return names[e.name]
    if depth == _HOIST_DEPTH:
        src = _emit(e, names, consts, lines)
        lines.append(f"    _t{len(lines)} = {src}\n")
        return f"_t{len(lines) - 1}"
    depth += 1
    if isinstance(e, Neg):
        return f"(-{_emit(e.arg, names, consts, lines, depth)})"
    if isinstance(e, Call):
        return f"_{e.fn}({_emit(e.arg, names, consts, lines, depth)})"
    op = "**" if e.op == "^" else e.op
    return (f"({_emit(e.left, names, consts, lines, depth)}{op}"
            f"{_emit(e.right, names, consts, lines, depth)})")
