"""Reduced rational functions: the engine's normal form.

A RatFunc is coeff * num / den: coeff is a Fraction, and num and den are
integer polynomials, each primitive (content 1) with a positive leading
coefficient, with gcd(num, den) = 1.  Zero is 0 * 0 / 1.  Structurally equal
values therefore have identical parts.  Rational constants (parsed numbers,
scale factors, the 1/q of a root's derivative) live in coeff, so scaling and
negation touch no polynomial.

Binary operations rebase root atoms of a common base to their lcm
denominator first (y and y^(1/3) never coexist inside one polynomial).

A RatFunc also carries its factors: it is coeff * prod b_i^e_i, e_i > 0 for
a factor of num and e_i < 0 for one of den, where the b_i are primitive,
positive-lead, non-constant polynomials, pairwise coprime within one
RatFunc, not necessarily squarefree or irreducible.  num and den are the
expanded products, multiplied out of the factors when first read and then
kept.  Products, powers, inverses and scalings, the common denominator of
a sum, the numerator factors both terms of a sum share and the denominator
of a derivative are kept as factors alone; what reads num or den is the
numerator of a derivative and of a sum whose terms share no numerator
factor, the expanded printing of transforms, parameters and coefficients,
evaluation, equality and hashing and the split of an equation by powers of
y'.  Zero, constant and monomial tests, the generators, the whole powers
an odd root takes out (split_powers) and the printing of the report's
invariants (engine.rf_to_factored_expr) answer from the factors.

A factor is one object per polynomial, shared by every RatFunc that holds
it, and it remembers what was learnt of it: the factors it was proven
coprime to, its split into pairwise coprime factors once a GCD found a
proper divisor (factor refinement: Bach, Driscoll and Shallit 1993),
gcd(b, db/dg) and its image (below) per generator g, and its unit
generators (below).  A RatFunc reads its factors through these splits, so
no pair of factors goes to a GCD twice.

The only GCDs left refine one operand's factors against the other's.  A
pair of factors is first screened by its images modulo one prime
(poly.univariate_image, kept on each factor).  A unit generator v of a
factor is one in which it has a nonzero integer coefficient
(poly.unit_gens); its content in v is then 1, so every nonconstant divisor
of it involves v.  The pair is coprime when one factor has a unit
generator the other lacks; else, when either has one, when both images in
that generator are usable and their GCD is constant; else when in every
shared generator they are.  Of the pairs left, which share a factor but
for rare unlucky images, one factor mostly divides the other, and a trial
division finds that with its quotient; poly_gcd takes the rest.
Refinement happens where:

- a product refines the two factor lists and adds exponents; a power
  multiplies them and an inverse negates them;
- a sum's common denominator is prod b^max(e_a, e_b) over the refined
  denominator factors, and the numerator factors both terms hold, g =
  prod f^min(e_a, e_b), stay factors of the sum: only what is left of
  each numerator is expanded, times its cofactor.  That new numerator is
  one new factor.  It can share a factor only with g and with the b of
  equal exponent in both (Henrici 1956), so it is refined against those
  alone; a common factor with b lowers the exponent of b and is divided
  out of the numerator.  g needs no refinement, as its factors are
  numerator factors of both terms and so coprime to every b;
- a derivative is the sum over generators g of d(g)/d(var) *
  d(num/den)/dg.  Over den = prod b^e, h = gcd(den, d(den)/dg) is prod
  b^(e-1) * gcd(b, db/dg) (Horowitz 1971), read from the factors, and the
  quotient rule over den * (den/h) leaves in common only factors of the
  gcd(b, db/dg): the numerator is refined against the b where it is not 1.

Every result then has its surd powers n^(e/q) with e >= q folded into the
coefficients, keeping monomials in distinct prime radicals linearly
independent (Besicovitch 1940).  The constructor alone folds: given any num
and den, it rebases them to common root generators, folds them, takes the
full GCD, as a fold can merge monomials and leave any common factor, puts
the integer contents into coeff and restarts the factors as [num, den^-1].
Products, powers, split_powers, sums and derivatives all end in one rule
(_result).  A product's degree in a generator is the sum of its factors'
degrees, so a result can fold only where the degrees in one surd, summed
over the factors of num or of den, reach its index; only such a result is
expanded and handed to the constructor, and every other keeps its factors.

Evaluation in floats reads a term table that each RatFunc builds on its
first evaluation and keeps: per term of den and of num, the correctly
rounded float of its rational coefficient and the generator slots and
exponents of its monomial.  Every term starts from that float, is
multiplied by each generator power in monomial order, and the terms are
summed from 0.0 in descending lex order, so values depend only on the
normal form.  A part with a coefficient beyond float range raises
OverflowError when it is summed, not when the table is built.  The
denominator is a pole when its value is at most _POLE_EPS times the sum of
its absolute terms.  Generator values (symbols, their roots, surds,
compound radicands) are computed once per Point and shared by every
evaluation at it.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Iterable, Mapping

from ..errors import EvalDomainError, EvalPole
from .atoms import (
    KIND_OPAQUE,
    KIND_SURD,
    KIND_SYMBOL,
    gen_sort_key,
    is_exact_gen,
    lookup_opaque,
    make_name,
    parse_gen,
)
from .poly import Poly, coprime_images, poly_gcd, unit_gens, univariate_image

_POLE_EPS = 1e-12
_ONE = Poly.const(1)
_F0 = Fraction(0)
_F1 = Fraction(1)


def reduce_surds(p: Poly) -> Poly:
    """Fold surd powers n^(e/q) with e >= q into the coefficients."""
    hot = [(i, info) for i, info in enumerate(map(parse_gen, p.gens)) if info.kind == KIND_SURD]
    if not hot:
        return p
    if not any(m[i] >= info.q for m, _ in p.monomials() for i, info in hot):
        return p
    terms: dict[tuple[int, ...], int] = {}
    for mono, c in p.monomials():
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
    return Poly.from_terms(p.gens, terms)


def rebase_poly(p: Poly, targets: Mapping[str | int, int]) -> Poly:
    """Rebase every generator to the root denominator given per base."""
    if not targets:
        return p
    for g in p.gens:
        info = parse_gen(g)
        q_target = targets.get(info.base, info.q)
        if q_target != info.q:
            assert q_target % info.q == 0
            p = p.remap_gen(g, make_name(info.base, q_target), q_target // info.q)
    return p


def _root_targets(gens: Iterable[str]) -> dict[str | int, int]:
    """The lcm of the root denominators of each base among gens."""
    targets: dict[str | int, int] = {}
    for info in map(parse_gen, gens):
        targets[info.base] = lcm(targets.get(info.base, 1), info.q)
    return targets


class Point(dict):
    """Symbol values at one sample point.  ``memo`` holds the generator
    values derived from them, shared by every evaluation at the point;
    writing a symbol clears it, and a copy, Point(p), starts an empty one."""

    __slots__ = ("memo",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo: dict[str, float] = {}

    def __setitem__(self, key, value):
        self.memo = {}
        super().__setitem__(key, value)


class RatFunc:
    """Immutable reduced rational function coeff * num / den."""

    __slots__ = ("coeff", "_num", "_den", "_fac", "_ev")

    def __init__(self, num: Poly, den: Poly | None = None, coeff=_F1):
        """coeff * num / den for integer polynomials num, den, reduced here:
        num and den are rebased to common root generators, their surd powers
        are folded and the ratio is reduced by the full GCD, with the integer
        contents in coeff.  A den whose surd powers fold to zero raises
        ZeroDivisionError.  The factors start as [num, den^-1]."""
        if den is None:
            den = _ONE
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero and coeff:
            targets = _root_targets(num.gens + den.gens)
            num = reduce_surds(rebase_poly(num, targets))
            den = reduce_surds(rebase_poly(den, targets))
            if den.is_zero:  # such as 2^(1/2)^2 - 2
                raise ZeroDivisionError("denominator folds to zero over its surds")
        if num.is_zero or not coeff:
            num, den, coeff = Poly.zero(), _ONE, _F0
        else:
            if not den.is_const:
                g = poly_gcd(num, den)
                if not g.is_const:
                    num, den = num.exact_div(g), den.exact_div(g)
            cn, num = num.primitive()
            cd, den = den.primitive()
            coeff = Fraction(coeff) * Fraction(cn, cd)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_fac", None)
        object.__setattr__(self, "_ev", None)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    # ----- construction -------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        c = Fraction(c)
        return _factored(c, None, _ONE if c else Poly.zero(), _ONE)

    @staticmethod
    def from_gen(name: str, exp: int = 1) -> "RatFunc":
        if exp == 0:
            return RatFunc.const(1)
        g = Poly.gen(name, abs(exp))
        num, den = (g, _ONE) if exp > 0 else (_ONE, g)
        return _factored(_F1, {_factor(Poly.gen(name)): exp}, num, den)

    # ----- inspection ---------------------------------------------------

    @property
    def num(self) -> Poly:
        """The expanded numerator, multiplied out of the factors on first read."""
        if self._num is None:
            object.__setattr__(self, "_num", _product(_part(self._fac, 1)))
        return self._num

    @property
    def den(self) -> Poly:
        """The expanded denominator, multiplied out of the factors on first read."""
        if self._den is None:
            object.__setattr__(self, "_den", _product(_part(self._fac, -1)))
        return self._den

    @property
    def is_zero(self) -> bool:
        return not self.coeff

    @property
    def is_const(self) -> bool:
        if self._fac is None:
            return self._num.is_const and self._den.is_const
        return not self._fac

    def const_value(self) -> Fraction:
        if not self.is_const:
            raise ValueError("not a constant rational function")
        return self.coeff

    @property
    def is_monomial(self) -> bool:
        """Whether num and den are monomials, read from the factors unless
        both are expanded: a divisor of a monomial is one, so a product is
        a monomial exactly when each of its factors is."""
        if self.is_zero:
            return False
        if self._num is not None and self._den is not None:
            return self._num.is_monomial and self._den.is_monomial
        return all(f.poly.is_monomial for f in _exps(self))

    def monomial_parts(self) -> tuple[Fraction, dict[str, int]]:
        """For a monomial ratio: (coefficient, generator -> signed exponent),
        the generators of num first, each part's in order."""
        if not self.is_monomial:
            raise ValueError("not a monomial")
        # Primitive monomials with positive leads have coefficient 1, and
        # num and den share no generator.
        exps: dict[str, int] = {}
        for b, e in self.factors():
            for g, k in zip(b.gens, b.leading()[0]):
                if k:
                    exps[g] = exps.get(g, 0) + k * e
        order = sorted(exps, key=lambda g: (exps[g] < 0, gen_sort_key(g)))
        return self.coeff, {g: exps[g] for g in order}

    def split_powers(self, q: int) -> tuple["RatFunc", "RatFunc"]:
        """(w, r) with self = w^q * r, read from the factors: of each factor
        b^e, w takes b^k for k = e/q rounded toward zero, and r keeps
        b^(e - k q), on b's side, and the coefficient.  Nothing is expanded."""
        whole: Exps = {}
        rest: Exps = {}
        for f, e in _exps(self).items():
            k = e // q if e > 0 else -(-e // q)
            if k:
                whole[f] = k
            if e != k * q:
                rest[f] = e - k * q
        return _result(_F1, whole), _result(self.coeff, rest)

    def factors(self) -> list[tuple[Poly, int]]:
        """(b, e) with self = coeff * prod b^e, e > 0 for a factor of num and
        e < 0 for one of den, pairwise coprime, as far as they split so far;
        nothing is expanded."""
        return [(f.poly, e) for f, e in _exps(self).items()]

    def gens(self) -> tuple[str, ...]:
        """The generators of num in order, then those only den has."""
        if self._num is not None and self._den is not None:
            seen = dict.fromkeys(self._num.gens)
            seen.update(dict.fromkeys(self._den.gens))
            return tuple(seen)
        # A product has the generators of its factors, each in one part.
        num, den = set(), set()
        for f, e in self._fac.items():
            (num if e > 0 else den).update(f.poly.gens)
        return tuple(sorted(num, key=gen_sort_key)) + tuple(sorted(den - num, key=gen_sort_key))

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

    def __neg__(self) -> "RatFunc":
        return self.scale(-1)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        targets, fa, fb = _aligned(self, other)
        c, ka, kb = _common_factor(self.coeff, other.coeff)
        da, db = _refine(_part(fa, -1), _part(fb, -1))
        common = {**db, **{f: max(e, db.get(f, 0)) for f, e in da.items()}}
        # The cofactors common / da and common / db, from the other
        # operand's denominator when it is expanded and fits.
        ra = _product({f: e - da.get(f, 0) for f, e in common.items()}, _hint(other, targets, db))
        rb = _product({f: e - db.get(f, 0) for f, e in common.items()}, _hint(self, targets, da))
        # The numerator factors both hold, g = prod f^min(e_a, e_b), stay
        # factors: only what is left of each numerator is expanded.
        na, nb = _leaves(_part(fa, 1)), _leaves(_part(fb, 1))
        g = {f: min(e, nb[f]) for f, e in na.items() if f in nb}
        if g:
            an = _product({f: e - g.get(f, 0) for f, e in na.items()})
            bn = _product({f: e - g.get(f, 0) for f, e in nb.items()})
        else:
            an, bn = rebase_poly(self.num, targets), rebase_poly(other.num, targets)
        num = _times(an, ra).scale(ka) + _times(bn, rb).scale(kb)
        shared = {f: e for f, e in da.items() if db.get(f) == e}
        return _over(num, c, common, shared, g)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero or other.is_zero:
            return RatFunc.const(0)
        if self.is_const:
            return other.scale(self.coeff)
        if other.is_const:
            return self.scale(other.coeff)
        _, fa, fb = _aligned(self, other)
        fa, fb = _refine(fa, fb)
        exps = dict(fa)
        for f, e in fb.items():
            exps[f] = exps.get(f, 0) + e
        return _result(self.coeff * other.coeff, {f: e for f, e in exps.items() if e})

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        fac = self._fac
        return _factored(
            1 / self.coeff,
            None if fac is None else {f: -e for f, e in fac.items()},
            self._den,
            self._num,
        )

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return RatFunc.const(1)
        base = self if n > 0 else self.inverse()
        if base.is_zero:
            return base
        n = abs(n)
        return _result(base.coeff**n, {f: e * n for f, e in _exps(base).items()})

    def scale(self, c) -> "RatFunc":
        coeff = self.coeff * Fraction(c)
        if not coeff:
            return RatFunc.const(0)
        return _factored(coeff, self._fac, self._num, self._den)

    # ----- differentiation ----------------------------------------------

    def deriv(self, var: str) -> "RatFunc":
        """Partial derivative with respect to the base variable x or y."""
        out = RatFunc.const(0)
        for g in self.gens():
            chain = _chain(g, var)
            if not chain.is_zero:
                out = out + chain * _partial(self, g)
        return out.scale(self.coeff)

    # ----- evaluation ---------------------------------------------------

    def eval(self, values: Mapping[str, float]) -> float:
        """The value at a point; raises EvalPole at a pole, EvalDomainError
        at an even root of a negative value and OverflowError beyond float
        range."""
        return self._value(values, _memo(values), False)

    def eval_relative(self, values: Mapping[str, float]) -> float:
        """The value over its magnitude scale, for relative-tolerance zero tests."""
        return self._value(values, _memo(values), True)

    def _value(self, values: Mapping[str, float], memo: dict, relative: bool) -> float:
        if self._ev is None:
            object.__setattr__(self, "_ev", _table(self))
        names, den, num = self._ev
        vals = [_gen_value(g, values, memo) for g in names]
        d, s = _sums(den, vals)
        if abs(d) <= _POLE_EPS * max(s, 1e-300):
            raise EvalPole("denominator vanishes at the sample point")
        if not relative:
            return _sums(num, vals, False)[0] / d
        n, m = _sums(num, vals)
        return (n / d) / max(1.0, m / abs(d))


def _common_factor(a: Fraction, b: Fraction) -> tuple[Fraction, int, int]:
    """(c, ka, kb) with a = c * ka and b = c * kb for coprime integers ka, kb."""
    n = gcd(a.numerator, b.numerator)
    d = lcm(a.denominator, b.denominator)
    return (
        Fraction(n, d),
        a.numerator // n * (d // a.denominator),
        b.numerator // n * (d // b.denominator),
    )


# ----- factors ----------------------------------------------------------------


class _Factor:
    """A primitive, positive-lead, non-constant polynomial held as a factor,
    with what was learnt of it: the keys of the older factors proven coprime
    to it (a pair is kept on its younger factor, so a factor that lives long
    gathers nothing from the ones made after it); once a common factor was
    found, its split into pairwise coprime factors, as (factor, exponent)
    pairs; per generator g, gcd(b, db/dg) with the quotients of b and
    db/dg by it; per generator, its univariate image modulo one prime
    (poly.univariate_image); and its unit generators (poly.unit_gens),
    found when it is first screened, as most factors never are."""

    __slots__ = (
        "poly", "key", "surds", "split", "coprime", "dgcd", "images", "units", "__weakref__"
    )

    def __init__(self, poly: Poly):
        self.poly = poly
        self.key = next(_KEYS)
        self.surds = _surd_degrees(poly)
        self.split: tuple[tuple[_Factor, int], ...] | None = None
        self.coprime: set[int] = set()
        self.dgcd: dict[str, tuple[Poly, Poly, Poly]] = {}
        self.images: dict[str, list[int] | None] = {}
        self.units: tuple[str, ...] | None = None

    def image(self, v: str) -> list[int] | None:
        try:
            return self.images[v]
        except KeyError:
            out = self.images[v] = univariate_image(self.poly, v)
            return out

    def unit_gens(self) -> tuple[str, ...]:
        if self.units is None:
            self.units = unit_gens(self.poly)
        return self.units


Exps = dict[_Factor, int]

_KEYS = count()
# One factor per polynomial, for as long as a RatFunc or a split holds it.
_FACTORS: weakref.WeakValueDictionary[Poly, _Factor] = weakref.WeakValueDictionary()


def _factor(p: Poly) -> _Factor:
    f = _FACTORS.get(p)
    if f is None:
        f = _FACTORS[p] = _Factor(p)
    return f


def _surd_degrees(p: Poly) -> tuple[tuple[str, int, int], ...]:
    """(g, q, degree of p in g) for each prime surd root g = n^(1/q) of p."""
    infos = zip(p.gens, map(parse_gen, p.gens))
    return tuple((g, info.q, p.degree(g)) for g, info in infos if info.kind == KIND_SURD)


def _may_fold(fac: Exps) -> bool:
    """Whether the expanded num or den of prod f^e over fac can hold a surd
    power n^(k/q) with k >= q.  A product's degree in a generator is the
    sum of its factors' degrees, so a bare surd 2^(1/3) as a factor of
    exponent 2 cannot fold."""
    degrees: dict[tuple[str, bool], int] = {}
    for f, e in fac.items():
        for g, q, d in f.surds:
            key = g, e > 0
            degrees[key] = degrees.get(key, 0) + d * abs(e)
            if degrees[key] >= q:
                return True
    return False


def _factored(
    coeff: Fraction, fac: Exps | None, num: Poly | None = None, den: Poly | None = None
) -> RatFunc:
    """The nonzero RatFunc coeff * prod f^e over fac, with num and den when
    they are known expanded (both, when fac is None)."""
    rf = object.__new__(RatFunc)
    slots = {"coeff": coeff, "_num": num, "_den": den, "_fac": fac, "_ev": None}
    for slot, value in slots.items():
        object.__setattr__(rf, slot, value)
    return rf


def _exps(rf: RatFunc) -> Exps:
    """rf's factors as they split so far, pairwise coprime."""
    fac = rf._fac
    if fac is None:
        fac = {}
        if not rf._num.is_const:
            fac[_factor(rf._num)] = 1
        if not rf._den.is_const:
            fac[_factor(rf._den)] = -1
        if len(fac) == 2:
            _coprime(*fac)
    leaves = _leaves(fac)
    if leaves is not rf._fac:
        object.__setattr__(rf, "_fac", leaves)
    return leaves


def _leaves(fac: Exps) -> Exps:
    """fac over the factors that its factors split into."""
    if all(f.split is None for f in fac):
        return fac
    out: Exps = {}
    todo = list(fac.items())
    while todo:
        f, e = todo.pop()
        if f.split is None:
            out[f] = out.get(f, 0) + e
        else:
            todo += [(g, e * k) for g, k in f.split]
    return out


def _part(fac: Exps, sign: int) -> Exps:
    """The factors of num (sign 1) or of den (sign -1), with exponents > 0."""
    return {f: e * sign for f, e in fac.items() if e * sign > 0}


def _coprime(a: _Factor, b: _Factor) -> None:
    if a.key < b.key:
        a, b = b, a
    a.coprime.add(b.key)


def _known_coprime(a: _Factor, b: _Factor) -> bool:
    return b.key in a.coprime if a.key > b.key else a.key in b.coprime


def _refine(xs: Exps, ys: Exps) -> tuple[Exps, Exps]:
    """xs and ys over their leaves, split until every factor of one is a
    factor of the other or proven coprime to it."""
    while True:
        xs, ys = _leaves(xs), _leaves(ys)
        if not any(
            a is not b and not _known_coprime(a, b) and _split(a, b) for a in xs for b in ys
        ):
            return xs, ys


def _split(a: _Factor, b: _Factor) -> bool:
    """Whether a and b have a common factor.  If so both are split into
    pairwise coprime factors, and otherwise they are remembered coprime."""
    g, ag, bg = _cofactors(a, b)
    if g.is_const:
        _coprime(a, b)
        return False
    base = _coprime_base(g, ag, bg)
    for k, (f, _, _) in enumerate(base):
        for h, _, _ in base[:k]:
            _coprime(f, h)
    for src, parts in ((a, [(f, i) for f, i, _ in base if i]), (b, [(f, j) for f, _, j in base if j])):
        if parts != [(src, 1)]:
            src.split = tuple(parts)
    return True


def _cofactors(a: _Factor, b: _Factor) -> tuple[Poly, Poly, Poly]:
    """(g, a / g, b / g) for the polynomials a and b and g = gcd(a, b): by
    their images when they prove a and b coprime, by a trial division when
    one divides the other, and by poly_gcd otherwise."""
    pa, pb = a.poly, b.poly
    shared = [v for v in pa.gens if v in pb.gens]
    if shared:
        # Every nonconstant divisor of a involves each of a's unit
        # generators, and likewise for b: one the other lacks proves the
        # pair coprime, and else one image GCD in one of them decides.
        units = a.unit_gens() + b.unit_gens()
        if any(v not in shared for v in units):
            return _ONE, pa, pb
        shared = units[:1] or shared
    if coprime_images(a.image, b.image, shared):
        return _ONE, pa, pb
    q, r = pb.divmod_by(pa)
    if r.is_zero:
        return pa, _ONE, q
    q, r = pa.divmod_by(pb)
    if r.is_zero:
        return pb, q, _ONE
    g = poly_gcd(pa, pb)
    return g, pa.exact_div(g), pb.exact_div(g)


def _coprime_base(g: Poly, u: Poly, v: Poly) -> list[tuple[_Factor, int, int]]:
    """(c, i, j) for pairwise coprime factors c with g * u = prod c^i and
    g * v = prod c^j, for coprime u and v, by splitting pairs at their GCD
    (Bach, Driscoll and Shallit 1993)."""
    out = [(_factor(p), i, j) for p, i, j in ((u, 1, 0), (v, 0, 1)) if not p.is_const]
    todo = [(_factor(g), 1, 1)]
    while todo:
        f, i, j = todo.pop()
        for k, (e, i2, j2) in enumerate(out):
            h, fh, eh = _cofactors(f, e)
            if not h.is_const:
                del out[k]
                todo += [(_factor(r), s, t) for r, s, t in (
                    (h, i + i2, j + j2), (fh, i, j), (eh, i2, j2)
                ) if not r.is_const]
                break
        else:
            out.append((f, i, j))
    return out


def _times(p: Poly, q: Poly) -> Poly:
    return p if q is _ONE else q if p is _ONE else p * q


def _product(target: Exps, hints: tuple[tuple[Poly, Exps], ...] = ()) -> Poly:
    """prod f^e over target, from the hints (p, exps), p = prod f^e over
    exps, that fit in it, largest first, and powers of the rest."""
    rest = {f: e for f, e in target.items() if e}
    out = _ONE
    for p, exps in sorted(hints, key=lambda h: -len(h[0].terms)):
        if exps and all(rest.get(f, 0) >= e for f, e in exps.items()):
            out = _times(out, p)
            for f, e in exps.items():
                rest[f] -= e
    powers = sorted((f.poly if e == 1 else f.poly**e for f, e in rest.items() if e),
                    key=lambda p: len(p.terms))
    acc = _ONE
    for p in powers:
        acc = _times(acc, p)
    return _times(out, acc)


def _aligned(a: RatFunc, b: RatFunc) -> tuple[dict[str | int, int], Exps, Exps]:
    """(targets, factors of a, factors of b) over common root generators;
    no targets when neither operand has a root generator."""
    gens = a.gens() + b.gens()
    if all(parse_gen(g).q == 1 for g in gens):
        return {}, _exps(a), _exps(b)
    targets = _root_targets(gens)
    return targets, _rebased(a, targets), _rebased(b, targets)


def _rebased(rf: RatFunc, targets: Mapping[str | int, int]) -> Exps:
    fac = _exps(rf)
    moved = {f: rebase_poly(f.poly, targets) for f in fac}
    if all(p is f.poly for f, p in moved.items()):
        return fac
    # Replacing a generator by a power of a new one that sorts in its place
    # keeps each factor's lex lead, so its sign, and keeps GCDs: the factors
    # stay primitive, positive-lead and pairwise coprime.
    return {_factor(moved[f]): e for f, e in fac.items()}


def _hint(rf: RatFunc, targets: Mapping[str | int, int], dfac: Exps) -> tuple:
    """((den, dfac),) for _product when rf's den = prod f^e over dfac is
    expanded, else ()."""
    return () if rf._den is None else ((rebase_poly(rf._den, targets), dfac),)


# ----- results ----------------------------------------------------------------


def _result(coeff: Fraction, fac: Exps, num: Poly | None = None) -> RatFunc:
    """coeff * prod f^e over fac, with num when it is known expanded: built
    by the constructor, expanded, when a surd power may fold (_may_fold),
    and else kept as factors."""
    if _may_fold(fac):
        return RatFunc(num or _product(_part(fac, 1)), _product(_part(fac, -1)), coeff)
    return _factored(coeff, fac, num)


def _over(num: Poly, coeff: Fraction, dfac: Exps, shared: Exps, g: Exps) -> RatFunc:
    """coeff * num * prod f^e over g / prod f^e over dfac for a new
    numerator num that can have a factor in common with those in shared and
    in g alone, where the factors of g are coprime to those of dfac.  The
    numerator is kept expanded when g is empty.  The factors are refined
    and cancelled here, and _result folds what can fold."""
    if num.is_zero:
        return RatFunc.const(0)
    cn, num = num.primitive()
    coeff = coeff * cn
    dfac = _leaves(dfac)
    if num.is_const:
        return _result(coeff, {**{f: -e for f, e in dfac.items()}, **g}, None if g else _ONE)
    nf = _factor(num)
    for f in dfac:
        if f not in shared and f is not nf:
            _coprime(nf, f)
    nfac, _ = _refine({nf: 1}, {**shared, **g})
    dfac = _leaves(dfac)
    fac = {f: -e for f, e in dfac.items()}
    fac.update(_leaves(g))
    for f, e in nfac.items():
        fac[f] = fac.get(f, 0) + e
    # A common factor leaves num by a division and the denominator by
    # lowering its exponent.
    cancel = {f: min(e, dfac[f]) for f, e in nfac.items() if f in dfac}
    if cancel:
        fac = {f: e for f, e in fac.items() if e}
        if not g:
            num = num.exact_div(_product(cancel))
    return _result(coeff, fac, None if g else num)


# ----- differentiation ----------------------------------------------------------


def _chain(gen: str, var: str) -> RatFunc:
    """d(gen)/d(var) for a base variable var in {x, y}."""
    info = parse_gen(gen)
    if info.kind == KIND_SYMBOL:
        if info.base != var:
            return RatFunc.const(0)
        if info.q == 1:
            return RatFunc.const(1)
        # d(v^(1/q))/dv = (1/q) g^(1-q)
        return RatFunc.from_gen(gen, 1 - info.q).scale(Fraction(1, info.q))
    if info.kind == KIND_SURD:
        return RatFunc.const(0)
    base = lookup_opaque(str(info.base))
    dbase = base.deriv(var)  # type: ignore[attr-defined]
    if dbase.is_zero:
        return RatFunc.const(0)
    # u = F^(1/q)  =>  du/dv = F' u / (q F)
    return dbase * RatFunc.from_gen(gen) / base.scale(info.q)  # type: ignore[operator]


def _dgcd(f: _Factor, g: str) -> tuple[Poly, Poly, Poly]:
    """(c, b / c, (db/dg) / c) for b = f.poly and c = gcd(b, db/dg), which
    is b when db/dg = 0; remembered on f."""
    out = f.dgcd.get(g)
    if out is None:
        b = f.poly
        db = b.deriv(g)
        if db.is_zero:
            out = (b, _ONE, db)
        else:
            c = poly_gcd(b, db)
            out = (c, b, db) if c.is_const else (c, b.exact_div(c), db.exact_div(c))
        f.dgcd[g] = out
    return out


def _partial(rf: RatFunc, g: str) -> RatFunc:
    """d(num/den)/dg of rf's num and den.

    Over den = prod b^e, h = gcd(den, d(den)/dg) is prod b^(e-1) c_b with
    c_b = gcd(b, db/dg), so den/h = prod b/c_b and d(den)/dg / h = sum_b e
    (db/dg)/c_b prod_(b' != b) b'/c_b' (Horowitz 1971).  Over den * (den/h)
    the quotient rule's numerator has no prime factor p of a b that c_b is
    free of: modulo p, every term but e (db/dg)/c_b prod_(b' != b) b'/c_b'
    vanishes, and p divides none of its factors.  So it is refined against
    the b with c_b != 1 alone.
    """
    n = rf.num
    dfac = _part(_exps(rf), -1)
    parts = [(f, e, *_dgcd(f, g)) for f, e in dfac.items()]
    d_h = _ONE
    for _, _, _, q, _ in parts:
        d_h = _times(d_h, q)
    dd_h = Poly.zero()
    for i, (_, e, _, _, dq) in enumerate(parts):
        if not dq.is_zero:
            term = dq.scale(e)
            for k, (_, _, _, q, _) in enumerate(parts):
                if k != i:
                    term = _times(term, q)
            dd_h = dd_h + term
    num = _times(n.deriv(g), d_h) - _times(n, dd_h)
    # den * (den/h) over factors: b/c_b is b, 1, or a proper divisor of b
    # that splits b (it is coprime to every other b).
    out = dict(dfac)
    for f, _, c, q, _ in parts:
        if q is f.poly:
            out[f] += 1
        elif not q.is_const:
            qf = _factor(q)
            for other in dfac:
                if other is not f:
                    _coprime(qf, other)
            _refine({qf: 1}, {f: 1})
            out[qf] = out.get(qf, 0) + 1
    shared = _leaves({f: 1 for f, _, c, _, _ in parts if not c.is_const})
    return _over(num, _F1, out, shared, {})


# ----- evaluation -----------------------------------------------------------


def _memo(values: Mapping[str, float]) -> dict:
    """Generator values known at the point: a Point's own, else a new dict."""
    return values.memo if isinstance(values, Point) else {}


def _gen_value(gen: str, values: Mapping[str, float], memo: dict) -> float:
    """Value of a generator, a plain symbol included, kept in memo."""
    v = memo.get(gen)
    if v is None:
        info = parse_gen(gen)
        if info.kind == KIND_SYMBOL:
            v = _real_root(float(values[str(info.base)]), info.q)
        elif info.kind == KIND_SURD:
            v = float(info.base) ** (1.0 / info.q)
        else:
            base_rf = lookup_opaque(str(info.base))
            v = _real_root(base_rf._value(values, memo, False), info.q)  # type: ignore[attr-defined]
        memo[gen] = v
    return v


def _table(rf: RatFunc) -> tuple:
    """(generator names, den terms, num terms) of rf: per term in canonical
    order, (k, ((slot, e), ...)) with k the correctly rounded float of its
    rational coefficient, or None for a part with a coefficient beyond
    float range."""
    names = rf.gens()
    slot = {g: i for i, g in enumerate(names)}
    return names, _terms(rf.den, _F1, slot), _terms(rf.num, rf.coeff, slot)


def _terms(p: Poly, coeff: Fraction, slot: dict[str, int]) -> tuple | None:
    num, den = coeff.numerator, coeff.denominator
    slots = [slot[g] for g in p.gens]
    try:
        return tuple(
            ((num * c) / den, tuple((slots[j], e) for j, e in enumerate(mono) if e))
            for mono, c in p.sorted_terms()
        )
    except OverflowError:
        return None


def _sums(terms: tuple | None, vals: list[float], absolute: bool = True) -> tuple[float, float]:
    """The terms summed from 0.0, each k times the powers of vals in
    monomial order, and with absolute=True the sum of their absolute
    values, in one pass.  A float product's magnitude is the product of the
    magnitudes and pow(-v, e) is +-pow(v, e), so each |term| is the term
    taken from |k| and the |generator values|."""
    if terms is None:
        raise OverflowError("coefficient beyond float range")
    total = scale = 0.0
    for k, powers in terms:
        for j, e in powers:
            k *= vals[j] ** e
        total += k
        if absolute:
            scale += abs(k)
    return total, scale


def _real_root(v: float, q: int) -> float:
    if q == 1:
        return v
    if v >= 0:
        return v ** (1.0 / q)
    if q % 2 == 0:
        raise EvalDomainError(f"even root of negative value {v!r}")
    return -((-v) ** (1.0 / q))
