"""Small arithmetic expression language with exact symbolic differentiation.

Expressions are written over variables ``x1 .. xn`` with the operators
``+ - * / ^``, the functions ``sin cos exp log sqrt tanh``, and the constant
``pi``.  Precedence is ``^`` above unary minus above ``* /`` above ``+ -``;
all binary operators associate to the left.  Parsed expressions are immutable
and evaluation is pure, so they may be shared freely across threads.

Evaluation never returns silent NaN/inf: arguments outside a function's
domain raise :class:`EvalDomainError`.  Each function is one row of
``_FUNCTIONS`` (its evaluation with the domain check, and its derivative) and
each binary operator one entry of ``_OPERATORS``.
"""

from __future__ import annotations

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

    def diff(self, var_index):
        return Const(0.0)


@dataclass(frozen=True)
class Var(Expression):
    index: int  # zero-based; written x{index+1}

    def eval(self, coords):
        return np.asarray(coords[self.index], dtype=float)

    def diff(self, var_index):
        return Const(1.0 if var_index == self.index else 0.0)

    def max_var(self):
        return self.index


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def eval(self, coords):
        return -self.arg.eval(coords)

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


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _divide, "^": _safe_pow}

# name -> (evaluation with its domain check, derivative with respect to the
# argument a, to be multiplied by a' in the chain rule)
_FUNCTIONS = {
    "sin": (np.sin, lambda a: Func("cos", a)),
    "cos": (np.cos, lambda a: Neg(Func("sin", a))),
    "exp": (_exp, lambda a: Func("exp", a)),
    "log": (_log, lambda a: BinOp("/", Const(1.0), a)),
    "sqrt": (_sqrt, lambda a: BinOp("/", Const(0.5), Func("sqrt", a))),
    "tanh": (np.tanh,
             lambda a: BinOp("-", Const(1.0), BinOp("^", Func("tanh", a), Const(2.0)))),
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
