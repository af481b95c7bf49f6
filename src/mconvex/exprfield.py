"""Small arithmetic expression language with exact symbolic differentiation.

Expressions are written over variables ``x1 .. xn`` with the operators
``+ - * / ^``, the functions ``sin cos exp log sqrt tanh``, and the constant
``pi``.  Precedence is ``^`` above unary minus above ``* /`` above ``+ -``;
all binary operators associate to the left.  Parsed expressions are immutable
and evaluation is pure, so they may be shared freely across threads.

Evaluation never returns silent NaN/inf: arguments outside a function's
domain raise :class:`EvalDomainError`.  Each function is one row of
``_FUNCTIONS`` (its evaluation with the domain check, its derivative, and its
interval rule) and each binary operator one entry of ``_OPERATORS``, with its
interval rule in ``_INTERVAL_OPERATORS``.

``Expression.interval_at`` encloses an expression's values over boxes by
interval arithmetic (R. E. Moore, *Interval Analysis*, 1966), rounded outward.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "Func",
    "BinOp",
    "ExprError",
    "SyntaxError_",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "differentiate",
]


class ExprError(Exception):
    pass


class SyntaxError_(ExprError):
    """Malformed source; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(SyntaxError_):
    pass


class EvalDomainError(ExprError):
    """A function was evaluated outside its real domain."""


@dataclass(frozen=True)
class Expression:
    def eval(self, coords):
        """Evaluate at points given as a sequence of coordinate arrays; a
        subexpression with no variable stays a scalar."""
        raise NotImplementedError

    def eval_at(self, points):
        """Evaluate at ``points`` of shape ``(..., n)``, result of shape ``(...)``."""
        points = np.asarray(points, dtype=float)
        coords = tuple(points[..., i] for i in range(points.shape[-1]))
        values = self.eval(coords)
        if np.shape(values) != points.shape[:-1]:
            values = np.full(points.shape[:-1], values)
        return values

    def interval(self, box):
        """Enclosure ``(lo, hi)`` over a box given as a sequence of
        ``(lo, hi)`` coordinate pairs; NaN bounds mark no enclosure."""
        raise NotImplementedError

    def interval_at(self, lo, hi):
        """Enclose the values over the boxes [lo, hi] of shape ``(..., n)``.

        Returns ``(lo, hi)`` of shape ``(...)``: every value at a point of a
        box lies in its enclosure.  A box on which the expression leaves a
        function's domain (a divisor interval that holds 0, say) gets NaN
        bounds, and one whose enclosure is unbounded gets infinite bounds.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        box = tuple((lo[..., i], hi[..., i]) for i in range(lo.shape[-1]))
        with np.errstate(all="ignore"):
            bounds = self.interval(box)
        return tuple(np.broadcast_to(b, lo.shape[:-1]) for b in bounds)

    def diff(self, var_index):
        raise NotImplementedError

    def fold(self):
        """Constant-fold; the only simplification performed."""
        return self

    def max_var(self):
        return -1


@dataclass(frozen=True)
class Const(Expression):
    value: float

    def eval(self, coords):
        return np.asarray(self.value, dtype=float)

    def interval(self, box):
        v = np.asarray(self.value, dtype=float)
        return v, v

    def diff(self, var_index):
        return Const(0.0)


@dataclass(frozen=True)
class Var(Expression):
    index: int  # zero-based; written x{index+1}

    def eval(self, coords):
        return np.asarray(coords[self.index], dtype=float)

    def interval(self, box):
        return box[self.index]

    def diff(self, var_index):
        return Const(1.0 if var_index == self.index else 0.0)

    def max_var(self):
        return self.index


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def eval(self, coords):
        return -self.arg.eval(coords)

    def interval(self, box):
        lo, hi = self.arg.interval(box)
        return -hi, -lo

    def diff(self, var_index):
        return Neg(self.arg.diff(var_index))

    def fold(self):
        a = self.arg.fold()
        if isinstance(a, Const):
            return Const(-a.value)
        return Neg(a)

    def max_var(self):
        return self.arg.max_var()


@dataclass(frozen=True)
class Func(Expression):
    name: str
    arg: Expression

    def eval(self, coords):
        return _FUNCTIONS[self.name][0](self.arg.eval(coords))

    def interval(self, box):
        return _FUNCTIONS[self.name][2](*self.arg.interval(box))

    def diff(self, var_index):
        inner = _FUNCTIONS[self.name][1](self.arg)
        return BinOp("*", inner, self.arg.diff(var_index)).fold()

    def fold(self):
        a = self.arg.fold()
        if isinstance(a, Const):
            try:
                return Const(float(_FUNCTIONS[self.name][0](a.eval(()))))
            except EvalDomainError:
                pass
        return Func(self.name, a)

    def max_var(self):
        return self.arg.max_var()


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression

    def eval(self, coords):
        return _OPERATORS[self.op](self.left.eval(coords), self.right.eval(coords))

    def interval(self, box):
        return _INTERVAL_OPERATORS[self.op](self.left.interval(box), self.right.interval(box))

    def diff(self, var_index):
        a, b = self.left, self.right
        da = a.diff(var_index)
        db = b.diff(var_index)
        if self.op in "+-":
            return BinOp(self.op, da, db).fold()
        if self.op == "*":
            return BinOp("+", BinOp("*", da, b), BinOp("*", a, db)).fold()
        if self.op == "/":
            num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
            return BinOp("/", num, BinOp("^", b, Const(2.0))).fold()
        if self.op == "^":
            if isinstance(b, Const):
                # d(a^c) = c * a^(c-1) * a'
                pw = BinOp("^", a, Const(b.value - 1.0))
                return BinOp("*", BinOp("*", Const(b.value), pw), da).fold()
            # general: a^b * (b' log a + b a'/a)
            term1 = BinOp("*", db, Func("log", a))
            term2 = BinOp("/", BinOp("*", b, da), a)
            return BinOp("*", self, BinOp("+", term1, term2)).fold()
        raise AssertionError(self.op)

    def fold(self):
        a = self.left.fold()
        b = self.right.fold()
        if isinstance(a, Const) and isinstance(b, Const):
            try:
                return Const(float(_OPERATORS[self.op](a.eval(()), b.eval(()))))
            except EvalDomainError:
                return BinOp(self.op, a, b)
        if self.op == "+":
            if isinstance(a, Const) and a.value == 0:
                return b
            if isinstance(b, Const) and b.value == 0:
                return a
        elif self.op == "-":
            if isinstance(b, Const) and b.value == 0:
                return a
        elif self.op == "*":
            if (isinstance(a, Const) and a.value == 0) or (
                isinstance(b, Const) and b.value == 0
            ):
                return Const(0.0)
            if isinstance(a, Const) and a.value == 1:
                return b
            if isinstance(b, Const) and b.value == 1:
                return a
        elif self.op == "/":
            if isinstance(a, Const) and a.value == 0:
                return Const(0.0)
            if isinstance(b, Const) and b.value == 1:
                return a
        elif self.op == "^":
            if isinstance(b, Const):
                if b.value == 1:
                    return a
                if b.value == 0:
                    return Const(1.0)
        return BinOp(self.op, a, b)

    def max_var(self):
        return max(self.left.max_var(), self.right.max_var())


def _safe_pow(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    frac = b != np.floor(b)
    if np.any((a < 0) & frac):
        raise EvalDomainError("negative base with non-integer exponent")
    if np.any((a == 0) & (b < 0)):
        raise EvalDomainError("zero base with negative exponent")
    with np.errstate(over="ignore"):
        out = np.power(a, b)
    if np.any(np.isinf(out)):
        raise EvalDomainError("power overflow")
    return out


def _divide(a, b):
    if np.any(b == 0):
        raise EvalDomainError("division by zero")
    return a / b


def _sqrt(a):
    if np.any(a < 0):
        raise EvalDomainError("sqrt of a negative number")
    return np.sqrt(a)


def _log(a):
    if np.any(a <= 0):
        raise EvalDomainError("log of a non-positive number")
    return np.log(a)


def _exp(a):
    with np.errstate(over="ignore"):
        out = np.exp(a)
    if np.any(np.isinf(out)):
        raise EvalDomainError("exp overflow")
    return out


# --------------------------------------------------------------------------
# interval rules: each takes and returns enclosures (lo, hi); NaN marks none


def _outward(lo, hi):
    """[lo, hi] widened by one ulp at each end (``np.nextafter``).  Each rule
    computes its ends with one correctly rounded operation or one library
    function accurate to within an ulp, so the exact result lies inside."""
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _none_where(bad, lo, hi):
    """No enclosure (NaN) on the boxes marked ``bad``."""
    return np.where(bad, np.nan, lo), np.where(bad, np.nan, hi)


def _hull(*ends):
    """The outward-rounded hull of values computed at a box's ends; a NaN
    among them makes the hull NaN."""
    return _outward(functools.reduce(np.minimum, ends), functools.reduce(np.maximum, ends))


def _interval_add(a, b):
    return _outward(a[0] + b[0], a[1] + b[1])


def _interval_sub(a, b):
    return _outward(a[0] - b[1], a[1] - b[0])


def _interval_mul(a, b):
    return _hull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def _interval_div(a, b):
    return _none_where((b[0] <= 0) & (b[1] >= 0),
                       *_hull(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]))


def _interval_pow(a, b):
    """a^c for a constant c is monotone on a box of one sign, so the ends
    give it; an even power of a box across 0 has least value 0.  Where the
    exponent is not constant, a^b = exp(b log a) on a > 0."""
    lo, hi = a
    if not (np.ndim(b[0]) == 0 and b[0] == b[1]):
        return _interval_exp(*_interval_mul(b, _interval_log(lo, hi)))
    c = float(b[0])
    out_lo, out_hi = _hull(np.power(lo, c), np.power(hi, c))
    if c != math.floor(c):
        # a fractional power of a negative base, or zero to a negative one
        return _none_where((lo < 0) | ((lo <= 0) & (c < 0)), out_lo, out_hi)
    if c < 0:
        return _none_where((lo <= 0) & (hi >= 0), out_lo, out_hi)
    if c % 2 == 0:
        out_lo = np.where((lo < 0) & (hi > 0), 0.0, out_lo)
    return out_lo, out_hi


def _interval_increasing(fn, outside=lambda lo: False):
    """The rule of an increasing function: its values at the ends, and no
    enclosure where ``outside(lo)`` says that the box leaves its domain."""
    return lambda lo, hi: _none_where(outside(lo), *_outward(fn(lo), fn(hi)))


_interval_exp = _interval_increasing(np.exp)
_interval_log = _interval_increasing(np.log, lambda lo: lo <= 0)


def _interval_periodic(fn, peak):
    """The rule of sin (``peak`` pi/2) or cos (``peak`` 0): the values at the
    ends, raised to 1 where the box may hold a point peak + 2 pi k and
    lowered to -1 where it may hold peak + pi + 2 pi k.  "May" errs towards
    holding one, and boxes wider than a period or beyond 1e6 get [-1, 1]."""
    def holds(lo, hi, t):
        # the slack, in periods, is far above the quotients' rounding for |x| <= 1e6
        slack = 1e-9
        return (np.floor((hi - t) / (2.0 * np.pi) + slack)
                >= np.ceil((lo - t) / (2.0 * np.pi) - slack))

    def rule(lo, hi):
        out_lo, out_hi = _hull(fn(lo), fn(hi))
        whole = (hi - lo >= 2.0 * np.pi) | (np.maximum(np.abs(lo), np.abs(hi)) > 1e6)
        out_hi = np.where(whole | holds(lo, hi, peak), 1.0, np.minimum(out_hi, 1.0))
        out_lo = np.where(whole | holds(lo, hi, peak + np.pi), -1.0, np.maximum(out_lo, -1.0))
        return out_lo, out_hi
    return rule


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _divide, "^": _safe_pow}
_INTERVAL_OPERATORS = {"+": _interval_add, "-": _interval_sub, "*": _interval_mul,
                       "/": _interval_div, "^": _interval_pow}

# name -> (evaluation with its domain check, derivative with respect to the
# argument a, to be multiplied by a' in the chain rule, interval rule)
_FUNCTIONS = {
    "sin": (np.sin, lambda a: Func("cos", a), _interval_periodic(np.sin, 0.5 * np.pi)),
    "cos": (np.cos, lambda a: Neg(Func("sin", a)), _interval_periodic(np.cos, 0.0)),
    "exp": (_exp, lambda a: Func("exp", a), _interval_exp),
    "log": (_log, lambda a: BinOp("/", Const(1.0), a), _interval_log),
    "sqrt": (_sqrt, lambda a: BinOp("/", Const(0.5), Func("sqrt", a)),
             _interval_increasing(np.sqrt, lambda lo: lo < 0)),
    "tanh": (np.tanh,
             lambda a: BinOp("-", Const(1.0), BinOp("^", Func("tanh", a), Const(2.0))),
             _interval_increasing(np.tanh)),
}


# --------------------------------------------------------------------------
# parsing


# one token after optional whitespace; every class is ASCII, so a character
# such as a superscript digit is "bad" rather than a digit or a letter
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.ASCII | re.VERBOSE | re.DOTALL)


def _tokens(source):
    """``(kind, value, offset)`` triples: kind is "num", "ident", the
    operator character itself, or "end" last."""
    pos = 0
    while True:
        m = _TOKEN.match(source, pos)
        kind, text, offset, pos = m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup), m.end()
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                raise SyntaxError_(f"bad number {text!r}", offset) from None
            yield "num", value, offset
        elif kind == "ident":
            yield "ident", text, offset
        elif kind == "op":
            yield text, text, offset
        elif kind == "end":
            yield "end", None, offset
            return
        else:
            raise SyntaxError_(f"unexpected character {text!r}", offset)


class _Parser:
    def __init__(self, source):
        self.src = source
        self.tokens = list(_tokens(source))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxError_(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise SyntaxError_(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            e = BinOp(op, e, self.unary())
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.next()
            e = BinOp("^", e, self.exponent())
        return e

    def exponent(self):
        # a negative exponent needs no parentheses: x^-2
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.exponent())
        return self.atom()

    def atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return Const(value)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Func(value, arg)
            if value == "pi":
                return Const(math.pi)
            if value.startswith("x") and value[1:].isdigit() and int(value[1:]) >= 1:
                return Var(int(value[1:]) - 1)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", offset)
        raise SyntaxError_(f"unexpected token {value!r}", offset)


def parse(source):
    """Parse ``source`` into an :class:`Expression`."""
    return _Parser(source).parse()


def differentiate(e, var_index):
    """Exact symbolic partial derivative with respect to ``x{var_index+1}``."""
    if var_index < 0:
        raise ValueError("var_index must be nonnegative")
    return e.diff(var_index).fold()
