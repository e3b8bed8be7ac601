"""Reduced rational functions: the engine's normal form.

A RatFunc is coeff * num / den: coeff is a Fraction, and num and den are
integer polynomials, each primitive (content 1) with a positive leading
coefficient, with gcd(num, den) = 1.  Zero is 0 * 0 / 1.  Structurally equal
values therefore have identical parts.  Rational constants (parsed numbers,
scale factors, the 1/q of a root's derivative) live in coeff, so scaling and
negation touch no polynomial.

Binary operations rebase root atoms of a common base to their lcm
denominator first (y and y^(1/3) never coexist inside one polynomial), and
surd exponents are folded back below their root denominator after every
product, keeping monomials in distinct prime radicals linearly independent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from ..errors import EvalDomainError, EvalPole
from .atoms import (
    KIND_OPAQUE,
    KIND_SURD,
    KIND_SYMBOL,
    is_exact_gen,
    lookup_opaque,
    make_name,
    parse_gen,
)
from .poly import Poly, poly_gcd

_POLE_EPS = 1e-12
_ONE = Poly.const(1)
_F0 = Fraction(0)
_F1 = Fraction(1)


def reduce_surds(p: Poly) -> Poly:
    """Fold surd powers n^(e/q) with e >= q into the coefficients."""
    hot = [
        (i, parse_gen(g))
        for i, g in enumerate(p.gens)
        if parse_gen(g).kind == KIND_SURD
    ]
    if not hot:
        return p
    if not any(m[i] >= info.q for m, _ in p.terms.items() for i, info in hot):
        return p
    terms: dict[tuple[int, ...], int] = {}
    for mono, c in p.terms.items():
        m = list(mono)
        for i, info in hot:
            e = m[i]
            if e >= info.q:
                c = c * int(info.base) ** (e // info.q)
                m[i] = e % info.q
        key = tuple(m)
        acc = terms.get(key)
        s = c if acc is None else acc + c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return Poly(p.gens, terms)._compress()


def _base_roots(p: Poly) -> dict[str | int, int]:
    return {info.base: info.q for info in map(parse_gen, p.gens)}


def rebase_poly(p: Poly, targets: Mapping[str | int, int]) -> Poly:
    """Rebase every generator to the root denominator given per base."""
    for g in p.gens:
        info = parse_gen(g)
        q_target = targets.get(info.base, info.q)
        if q_target != info.q:
            assert q_target % info.q == 0
            p = p.remap_gen(g, make_name(info.base, q_target), q_target // info.q)
    return reduce_surds(p)


def common_root_targets(*polys: Poly) -> dict[str | int, int]:
    targets: dict[str | int, int] = {}
    for p in polys:
        for base, q in _base_roots(p).items():
            targets[base] = lcm(targets.get(base, 1), q)
    return targets


class RatFunc:
    """Immutable reduced rational function coeff * num / den."""

    __slots__ = ("coeff", "num", "den")

    def __init__(
        self, num: Poly, den: Poly | None = None, coeff=_F1, *, reduced: bool = False
    ):
        """coeff * num / den for integer polynomials num, den.

        With reduced=True the caller guarantees the invariant of the module
        docstring and that coeff is a Fraction; otherwise the ratio is
        reduced here.
        """
        if den is None:
            den = _ONE
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero or not coeff:
            num, den, coeff = Poly.zero(), _ONE, _F0
        elif not reduced:
            targets = common_root_targets(num, den)
            num, den = rebase_poly(num, targets), rebase_poly(den, targets)
            g = poly_gcd(num, den)
            if not g.is_const:
                num, den = num.exact_div(g), den.exact_div(g)
            cn, num = num.primitive()
            cd, den = den.primitive()
            coeff = Fraction(coeff) * Fraction(cn, cd)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    # ----- construction -------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(_ONE, _ONE, Fraction(c), reduced=True)

    @staticmethod
    def from_gen(name: str, exp: int = 1) -> "RatFunc":
        if exp >= 0:
            return RatFunc(Poly.gen(name, exp), reduced=True)
        return RatFunc(_ONE, Poly.gen(name, -exp), reduced=True)

    # ----- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def const_value(self) -> Fraction:
        if not self.is_const:
            raise ValueError("not a constant rational function")
        return self.coeff

    @property
    def is_monomial(self) -> bool:
        return self.num.is_monomial and self.den.is_monomial and not self.is_zero

    def monomial_parts(self) -> tuple[Fraction, dict[str, int]]:
        """For a monomial ratio: (coefficient, generator -> signed exponent)."""
        if not self.is_monomial:
            raise ValueError("not a monomial")
        # Primitive monomials with positive leads have coefficient 1.
        nm, dm = self.num.leading()[0], self.den.leading()[0]
        exps: dict[str, int] = {}
        for g, e in zip(self.num.gens, nm):
            if e:
                exps[g] = exps.get(g, 0) + e
        for g, e in zip(self.den.gens, dm):
            if e:
                exps[g] = exps.get(g, 0) - e
        return self.coeff, {g: e for g, e in exps.items() if e}

    def gens(self) -> tuple[str, ...]:
        seen = dict.fromkeys(self.num.gens)
        seen.update(dict.fromkeys(self.den.gens))
        return tuple(seen)

    def is_exact(self) -> bool:
        """Whether structural zero/nonzero equals functional zero/nonzero."""
        return all(is_exact_gen(g) for g in self.gens())

    def free_symbols(self) -> set[str]:
        out: set[str] = set()
        for g in self.gens():
            info = parse_gen(g)
            if info.kind == KIND_SYMBOL:
                out.add(str(info.base))
            elif info.kind == KIND_OPAQUE:
                out |= lookup_opaque(str(info.base)).free_symbols()  # type: ignore[attr-defined]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.coeff == other.coeff and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.coeff, self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.coeff} * {self.num!r} / {self.den!r})"

    # ----- arithmetic ---------------------------------------------------

    def _aligned_with(self, other: "RatFunc"):
        targets = common_root_targets(self.num, self.den, other.num, other.den)
        return (
            rebase_poly(self.num, targets),
            rebase_poly(self.den, targets),
            rebase_poly(other.num, targets),
            rebase_poly(other.den, targets),
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.num, self.den, -self.coeff, reduced=True)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        an, ad, bn, bd = self._aligned_with(other)
        c, ka, kb = _common_factor(self.coeff, other.coeff)
        an, bn = an.scale(ka), bn.scale(kb)
        g = poly_gcd(ad, bd)
        if g.is_const:
            num = reduce_surds(an * bd + bn * ad)
            den = reduce_surds(ad * bd)
            gg = poly_gcd(num, den)
            if not gg.is_const:
                num, den = num.exact_div(gg), den.exact_div(gg)
        else:
            ad_r, bd_r = ad.exact_div(g), bd.exact_div(g)
            num = reduce_surds(an * bd_r + bn * ad_r)
            den = reduce_surds(ad * bd_r)
            # Any new common factor divides g (classical Henrici optimization).
            gg = poly_gcd(num, g)
            if not gg.is_const:
                num, den = num.exact_div(gg), den.exact_div(gg)
        return _with_contents(c, num, den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero or other.is_zero:
            return RatFunc.const(0)
        an, ad, bn, bd = self._aligned_with(other)
        g1 = poly_gcd(an, bd)
        if not g1.is_const:
            an, bd = an.exact_div(g1), bd.exact_div(g1)
        g2 = poly_gcd(bn, ad)
        if not g2.is_const:
            bn, ad = bn.exact_div(g2), ad.exact_div(g2)
        num = an * bn
        den = ad * bd
        # Products of coprime parts are coprime, unless folding radical
        # exponents merges monomials; only then reduce again.
        if _has_surds(num, den):
            num, den = reduce_surds(num), reduce_surds(den)
            g3 = poly_gcd(num, den)
            if not g3.is_const:
                num, den = num.exact_div(g3), den.exact_div(g3)
        return _with_contents(self.coeff * other.coeff, num, den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num, 1 / self.coeff, reduced=True)

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return RatFunc.const(1)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        num = base.num**n
        den = base.den**n
        if _has_surds(num, den):
            # Folding radical exponents can merge monomials, so coprimality
            # of the power is no longer automatic; reduce again.
            num, den = reduce_surds(num), reduce_surds(den)
            g = poly_gcd(num, den)
            if not g.is_const:
                num, den = num.exact_div(g), den.exact_div(g)
        return _with_contents(base.coeff**n, num, den)

    def scale(self, c) -> "RatFunc":
        return RatFunc(self.num, self.den, self.coeff * Fraction(c), reduced=True)

    # ----- differentiation ----------------------------------------------

    def deriv(self, var: str) -> "RatFunc":
        """Partial derivative with respect to the base variable x or y."""
        n, d = self.num, self.den
        dn = _poly_deriv(n, var)
        dd = _poly_deriv(d, var)
        rf_d = RatFunc(d, reduced=True)
        out = dn * rf_d - RatFunc(n, reduced=True) * dd
        return (out / (rf_d * rf_d)).scale(self.coeff)

    # ----- evaluation ---------------------------------------------------

    def eval(self, values: Mapping[str, float]) -> float:
        gv = {g: _gen_value(g, values) for g in self.gens()}
        den_val = self.den.eval(gv)
        den_scale = self.den.eval_abs(gv)
        if abs(den_val) <= _POLE_EPS * max(den_scale, 1e-300):
            raise EvalPole("denominator vanishes at the sample point")
        return self.num.eval(gv, self.coeff) / den_val

    def eval_relative(self, values: Mapping[str, float]) -> float:
        """The value over its magnitude scale, for relative-tolerance zero tests."""
        gv = {g: _gen_value(g, values) for g in self.gens()}
        den_val = self.den.eval(gv)
        den_scale = self.den.eval_abs(gv)
        if abs(den_val) <= _POLE_EPS * max(den_scale, 1e-300):
            raise EvalPole("denominator vanishes at the sample point")
        num_scale = self.num.eval_abs(gv, self.coeff)
        return (self.num.eval(gv, self.coeff) / den_val) / max(1.0, num_scale / abs(den_val))


def _has_surds(*polys: Poly) -> bool:
    return any(parse_gen(g).kind == KIND_SURD for p in polys for g in p.gens)


def _common_factor(a: Fraction, b: Fraction) -> tuple[Fraction, int, int]:
    """(c, ka, kb) with a = c * ka and b = c * kb for coprime integers ka, kb."""
    n = gcd(a.numerator, b.numerator)
    d = lcm(a.denominator, b.denominator)
    return (
        Fraction(n, d),
        a.numerator // n * (d // a.denominator),
        b.numerator // n * (d // b.denominator),
    )


def _with_contents(coeff: Fraction, num: Poly, den: Poly) -> RatFunc:
    """coeff * num / den for coprime integer num, den: contents move to coeff."""
    if num.is_zero:
        return RatFunc.const(0)
    cn, num = num.primitive()
    cd, den = den.primitive()
    if cn != 1 or cd != 1:
        coeff = coeff * Fraction(cn, cd)
    return RatFunc(num, den, coeff, reduced=True)


def _chain(gen: str, var: str) -> RatFunc:
    """d(gen)/d(var) for a base variable var in {x, y}."""
    info = parse_gen(gen)
    if info.kind == KIND_SYMBOL:
        if info.base != var:
            return RatFunc.const(0)
        if info.q == 1:
            return RatFunc.const(1)
        # d(v^(1/q))/dv = (1/q) g^(1-q)
        return RatFunc(_ONE, Poly.gen(gen, info.q - 1), Fraction(1, info.q), reduced=True)
    if info.kind == KIND_SURD:
        return RatFunc.const(0)
    base = lookup_opaque(str(info.base))
    dbase = base.deriv(var)  # type: ignore[attr-defined]
    if dbase.is_zero:
        return RatFunc.const(0)
    # u = F^(1/q)  =>  du/dv = F' u / (q F)
    return dbase * RatFunc.from_gen(gen) / base.scale(info.q)  # type: ignore[operator]


def _poly_deriv(p: Poly, var: str) -> RatFunc:
    out = RatFunc.const(0)
    for g in p.gens:
        partial = p.deriv(g)
        if partial.is_zero:
            continue
        chain = _chain(g, var)
        if chain.is_zero:
            continue
        out = out + _with_contents(_F1, partial, _ONE) * chain
    return out


def _gen_value(gen: str, values: Mapping[str, float]) -> float:
    info = parse_gen(gen)
    if info.kind == KIND_SYMBOL:
        base = values[str(info.base)]
        return _real_root(float(base), info.q)
    if info.kind == KIND_SURD:
        return float(info.base) ** (1.0 / info.q)
    base_rf = lookup_opaque(str(info.base))
    return _real_root(base_rf.eval(values), info.q)  # type: ignore[attr-defined]


def _real_root(v: float, q: int) -> float:
    if q == 1:
        return v
    if v >= 0:
        return v ** (1.0 / q)
    if q % 2 == 0:
        raise EvalDomainError(f"even root of negative value {v!r}")
    return -((-v) ** (1.0 / q))
