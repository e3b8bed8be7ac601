"""Immutable expression trees and the canonical printer.

Nodes mirror the surface grammar: rational constants, symbols, n-ary sums
and products, rational powers, and negation.  Trees are plain frozen data;
all simplification lives in the normal-form engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Number = Union[int, Fraction]


class Expr:
    """Base class; supports operator syntax for building trees in code."""

    __slots__ = ()

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Neg(as_expr(other))))

    def __rsub__(self, other):
        return Add((as_expr(other), Neg(self)))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(as_expr(other), Fraction(-1))))

    def __rtruediv__(self, other):
        return Mul((as_expr(other), Pow(self, Fraction(-1))))

    def __pow__(self, exponent):
        return Pow(self, Fraction(exponent))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, eq=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, eq=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True, eq=True)
class Add(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True, eq=True)
class Mul(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True, eq=True)
class Pow(Expr):
    base: Expr
    exp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exp", Fraction(self.exp))


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    arg: Expr


X = Sym("x")
Y = Sym("y")
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise TypeError(f"cannot interpret {v!r} as an expression")


def add(terms: Iterable) -> Expr:
    ts = tuple(as_expr(t) for t in terms)
    if not ts:
        return ZERO
    if len(ts) == 1:
        return ts[0]
    return Add(ts)


def mul(factors: Iterable) -> Expr:
    fs = tuple(as_expr(f) for f in factors)
    if not fs:
        return ONE
    if len(fs) == 1:
        return fs[0]
    return Mul(fs)


def free_symbols(e: Expr) -> set[str]:
    if isinstance(e, Sym):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Neg):
        return free_symbols(e.arg)
    if isinstance(e, Pow):
        return free_symbols(e.base)
    if isinstance(e, Add):
        return set().union(*(free_symbols(t) for t in e.terms))
    if isinstance(e, Mul):
        return set().union(*(free_symbols(f) for f in e.factors))
    raise TypeError(f"unknown node {e!r}")


# ----- printing -------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def to_string(e: Expr) -> str:
    return _render(e, {})[0]


def _render(e: Expr, memo: dict) -> tuple[str, int]:
    """Render to (text, precedence of the outermost construct).

    memo maps id(base) to (base, text) for the power bases rendered so far
    in this call, so a compound radicand shared by many powers renders once.
    """
    if isinstance(e, Const):
        v = e.value
        if v < 0:
            inner, _ = _render(Const(-v), memo)
            return f"-{inner}", _PREC_UNARY
        if v.denominator == 1:
            return str(v.numerator), _PREC_ATOM
        return f"{v.numerator}/{v.denominator}", _PREC_MUL
    if isinstance(e, Sym):
        return e.name, _PREC_ATOM
    if isinstance(e, Neg):
        inner = _paren(e.arg, _PREC_UNARY, memo)
        return f"-{inner}", _PREC_UNARY
    if isinstance(e, Pow):
        return _render_pow(e, memo)
    if isinstance(e, Mul):
        return _render_mul(e, memo)
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            sign, body = _signed(t, memo)
            if i == 0:
                parts.append(f"-{body}" if sign < 0 else body)
            else:
                parts.append(f" - {body}" if sign < 0 else f" + {body}")
        return "".join(parts), _PREC_ADD
    raise TypeError(f"unknown node {e!r}")


def _signed(e: Expr, memo: dict) -> tuple[int, str]:
    """Split a term into sign and the rendering of its absolute part."""
    if isinstance(e, Neg):
        s, body = _signed(e.arg, memo)
        return -s, body
    if isinstance(e, Const) and e.value < 0:
        return -1, _paren(Const(-e.value), _PREC_ADD + 1, memo)
    if isinstance(e, Mul) and e.factors:
        head = e.factors[0]
        if isinstance(head, Neg):
            s, body = _signed(mul((head.arg,) + e.factors[1:]), memo)
            return -s, body
        if isinstance(head, Const) and head.value < 0:
            if head.value == -1 and len(e.factors) > 1:
                rest = mul(e.factors[1:])
            else:
                rest = Mul((Const(-head.value),) + e.factors[1:])
            s, body = _signed(rest, memo)
            return -s, body
    return 1, _paren(e, _PREC_ADD + 1, memo)


def _render_pow(e: Pow, memo: dict) -> tuple[str, int]:
    exp = e.exp
    if exp == 1:
        return _render(e.base, memo)
    base = _paren_base(e.base, memo)
    if exp.denominator == 1:
        return f"{base}^{exp.numerator}", _PREC_POW
    return f"{base}^({exp.numerator}/{exp.denominator})", _PREC_POW


def _paren_base(e: Expr, memo: dict) -> str:
    # Power bases must be grammar atoms: symbol, unsigned integer, or parens.
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Const) and e.value >= 0 and e.value.denominator == 1:
        return str(e.value.numerator)
    # The memo keeps e alive, so its id cannot be reused within the call.
    hit = memo.get(id(e))
    if hit is None:
        hit = memo[id(e)] = (e, f"({_render(e, memo)[0]})")
    return hit[1]


def _flat_factors(e: Mul):
    for f in e.factors:
        if isinstance(f, Mul):
            yield from _flat_factors(f)
        else:
            yield f


def _render_mul(e: Mul, memo: dict) -> tuple[str, int]:
    nums: list[str] = []
    dens: list[str] = []
    for f in _flat_factors(e):
        if isinstance(f, Pow) and f.exp < 0:
            inv = Pow(f.base, -f.exp) if f.exp != -1 else f.base
            dens.append(_paren(inv, _PREC_MUL + 1, memo))
        else:
            nums.append(_paren(f, _PREC_MUL + 1, memo))
    num = "*".join(nums) if nums else "1"
    if not dens:
        return num, _PREC_MUL
    if len(dens) == 1:
        return f"{num}/{dens[0]}", _PREC_MUL
    return f"{num}/({'*'.join(dens)})", _PREC_MUL


def _paren(e: Expr, min_prec: int, memo: dict) -> str:
    text, prec = _render(e, memo)
    if prec < min_prec:
        return f"({text})"
    return text
