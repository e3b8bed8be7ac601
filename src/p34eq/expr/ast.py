"""Immutable expression trees and the canonical printer.

Nodes mirror the surface grammar: rational constants, symbols, n-ary sums
and products, rational powers, and negation.  Trees are plain frozen data
at the two edges of the package: the parser builds them from text and
rf_to_expr from a RatFunc, and to_ratfunc and the printer read them.  All
arithmetic and simplification happen on RatFuncs.  A node keeps the
Fraction it is given (only other numbers are converted), and the printer
reads signs and unit exponents from a Fraction's integer numerator and
denominator rather than comparing Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Expr:
    """Base class of the nodes; it defines no arithmetic."""

    __slots__ = ()

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, eq=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
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
        if not isinstance(self.exp, Fraction):
            object.__setattr__(self, "exp", Fraction(self.exp))


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    arg: Expr


ZERO = Const(Fraction(0))


def mul(factors: tuple[Expr, ...]) -> Expr:
    return factors[0] if len(factors) == 1 else Mul(factors)


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
        n, d = e.value.numerator, e.value.denominator
        text = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if n < 0:
            return f"-{text}", _PREC_UNARY
        return text, _PREC_ATOM if d == 1 else _PREC_MUL
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
    if isinstance(e, Const) and e.value.numerator < 0:
        return -1, _paren(Const(-e.value), _PREC_ADD + 1, memo)
    if isinstance(e, Mul) and e.factors:
        head = e.factors[0]
        if isinstance(head, Neg):
            s, body = _signed(mul((head.arg,) + e.factors[1:]), memo)
            return -s, body
        if isinstance(head, Const) and head.value.numerator < 0:
            if head.value == -1 and len(e.factors) > 1:
                rest = mul(e.factors[1:])
            else:
                rest = Mul((Const(-head.value),) + e.factors[1:])
            s, body = _signed(rest, memo)
            return -s, body
    return 1, _paren(e, _PREC_ADD + 1, memo)


def _render_pow(e: Pow, memo: dict) -> tuple[str, int]:
    n, d = e.exp.numerator, e.exp.denominator
    if n == 1 and d == 1:
        return _render(e.base, memo)
    base = _paren_base(e.base, memo)
    if d == 1:
        return f"{base}^{n}", _PREC_POW
    return f"{base}^({n}/{d})", _PREC_POW


def _paren_base(e: Expr, memo: dict) -> str:
    # Power bases must be grammar atoms: symbol, unsigned integer, or parens.
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Const) and e.value.denominator == 1 and e.value.numerator >= 0:
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
    factors = list(_flat_factors(e))
    # a leading -1 before other factors prints as a sign: -x*y, not -1*x*y
    sign = "-" if len(factors) > 1 and factors[0] == Const(Fraction(-1)) else ""
    for f in factors[1:] if sign else factors:
        if isinstance(f, Pow) and f.exp.numerator < 0:
            inv = Pow(f.base, -f.exp) if f.exp != -1 else f.base
            dens.append(_paren(inv, _PREC_MUL + 1, memo))
        else:
            nums.append(_paren(f, _PREC_MUL + 1, memo))
    num = sign + ("*".join(nums) if nums else "1")
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
