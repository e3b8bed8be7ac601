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
evaluation, equality and hashing, the monomial tests and the split of an
equation by powers of y'.  Zero and constant tests, the generators and the
printing of the report's invariants (engine.rf_to_factored_expr) answer
from the factors.

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
independent.  Only a result with a prime surd among the generators of its
factors can fold, so only such a result is expanded at once, to fold it;
a sum multiplies g back into its new numerator first.  A fold can merge
monomials and leave any common factor, so after one the full GCD is taken
and the factors restart as [num, den^-1]; so does the constructor, given
any num and den.  The integer contents go into coeff.

Evaluation in floats is straight-line code that each RatFunc generates on
its first evaluation and keeps.  It does the float operations of a
term-by-term loop in the same order, so its values are those of that loop
to the bit: every term starts from the correctly rounded float of its
rational coefficient, is multiplied by each generator power in monomial
order, and the terms are summed from 0.0 in descending lex order, so values
depend only on the normal form.  The denominator is a pole when its value
is at most _POLE_EPS times the sum of its absolute terms.  The float
constants are kept apart from the code, which indexes them, so RatFuncs of
one shape share compiled code.  Generator values (roots of symbols, surds,
compound radicands) are computed once per Point and shared by every
evaluation at it.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

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
    for g in p.gens:
        info = parse_gen(g)
        q_target = targets.get(info.base, info.q)
        if q_target != info.q:
            assert q_target % info.q == 0
            p = p.remap_gen(g, make_name(info.base, q_target), q_target // info.q)
    return p


def common_root_targets(*polys: Poly) -> dict[str | int, int]:
    return _root_targets(g for p in polys for g in p.gens)


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

    def __init__(
        self, num: Poly, den: Poly | None = None, coeff=_F1, *, reduced: bool = False
    ):
        """coeff * num / den for integer polynomials num, den.

        With reduced=True the caller guarantees the invariant of the module
        docstring and that coeff is a Fraction; otherwise the ratio is
        reduced here, and a den whose surd powers fold to zero raises
        ZeroDivisionError.  Either way the factors start as [num, den^-1].
        """
        if den is None:
            den = _ONE
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero or not coeff:
            num, den, coeff = Poly.zero(), _ONE, _F0
        elif not reduced:
            targets = common_root_targets(num, den)
            num = reduce_surds(rebase_poly(num, targets))
            den = reduce_surds(rebase_poly(den, targets))
            if den.is_zero:  # such as 2^(1/2)^2 - 2
                raise ZeroDivisionError("denominator folds to zero over its surds")
            num, den, coeff = _reduced(num, den, Fraction(coeff))
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
        return RatFunc(_ONE, _ONE, Fraction(c), reduced=True)

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
            object.__setattr__(self, "_ev", _compile(self))
        code, consts, names = self._ev
        return code(values, memo, consts, names, relative)


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
        "poly", "key", "surd", "split", "coprime", "dgcd", "images", "units", "__weakref__"
    )

    def __init__(self, poly: Poly):
        self.poly = poly
        self.key = next(_KEYS)
        self.surd = _has_surd(poly.gens)
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


def _has_surd(gens: tuple[str, ...]) -> bool:
    return any(parse_gen(g).kind == KIND_SURD for g in gens)


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
    """(targets, factors of a, factors of b) over common root generators."""
    targets = _root_targets(a.gens() + b.gens())
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


def _reduced(n: Poly, d: Poly, coeff: Fraction) -> tuple[Poly, Poly, Fraction]:
    """(num, den, coeff) of coeff * n / d in normal form, by the full GCD."""
    if n.is_zero:
        return n, _ONE, _F0
    if not d.is_const:
        g = poly_gcd(n, d)
        if not g.is_const:
            n, d = n.exact_div(g), d.exact_div(g)
    cn, n = n.primitive()
    cd, d = d.primitive()
    if cn != 1 or cd != 1:
        coeff = coeff * Fraction(cn, cd)
    return n, d, coeff


def _folded(num: Poly, den: Poly, coeff: Fraction) -> RatFunc | None:
    """With its surds folded, coeff * num / den reduced by the full GCD, or
    None when no surd power folds."""
    n, d = reduce_surds(num), reduce_surds(den)
    if n is num and d is den:
        return None
    return RatFunc(*_reduced(n, d, coeff), reduced=True)


def _result(coeff: Fraction, fac: Exps) -> RatFunc:
    """coeff * prod f^e over fac, expanded now only when a surd power may fold."""
    if any(f.surd for f in fac):
        num, den = _product(_part(fac, 1)), _product(_part(fac, -1))
        out = _folded(num, den, coeff)
        return out if out is not None else _factored(coeff, fac, num, den)
    return _factored(coeff, fac)


def _over(num: Poly, coeff: Fraction, dfac: Exps, shared: Exps, g: Exps) -> RatFunc:
    """coeff * num * prod f^e over g / prod f^e over dfac for a new
    numerator num that can have a factor in common with those in shared and
    in g alone, where the factors of g are coprime to those of dfac.  The
    numerator is kept expanded when g is empty."""
    if num.is_zero:
        return RatFunc.const(0)
    if _has_surd(num.gens) or any(f.surd for f in dfac) or any(f.surd for f in g):
        num, g = _times(num, _product(g)), {}
        out = _folded(num, _product(dfac), coeff)
        if out is not None:
            return out
    cn, num = num.primitive()
    coeff = coeff * cn
    dfac = _leaves(dfac)
    if num.is_const:
        return _factored(coeff, {**{f: -e for f, e in dfac.items()}, **g}, None if g else _ONE)
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
    return _factored(coeff, fac, None if g else num)


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
    """Value of a generator other than a plain symbol, kept in memo."""
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


# Every generated function is compiled once per source text, into one
# namespace shared by all of them: the code follows the shape of a RatFunc
# (its generator kinds and monomials), not its constants.  The compiler
# takes about 6 KB per statement while it works, so the terms of a
# polynomial are summed by blocks of at most _BLOCK terms, each a function
# of its own: compiled whole, a RatFunc of 1234 terms raised the peak
# memory of a catalog run by 16 MB.
_BLOCK = 64
_CODE: dict = {"_gen": _gen_value, "_POLE_EPS": _POLE_EPS, "EvalPole": EvalPole}
_NAMES: dict[str, str] = {}


def _function(params: str, body: list[str]) -> str:
    """Name in _CODE of the function with these parameters and body lines."""
    source = f"({params}):\n" + "\n".join(body)
    name = _NAMES.get(source)
    if name is None:
        name = _NAMES[source] = f"_f{len(_NAMES)}"
        exec(compile(f"def {name}{source}", "<RatFunc evaluator>", "exec"), _CODE)
    return name


def _compile(rf: RatFunc) -> tuple[Callable, tuple, tuple[str, ...]]:
    """(code, constants, generator names) of rf's evaluator.

    code(values, memo, constants, names, relative) returns the value of rf,
    or with relative=True the value over max(1, num scale / |den|).
    """
    names = rf.gens()
    slot = {g: i for i, g in enumerate(names)}
    consts: list[tuple[float, ...]] = []
    body = []
    for i, g in enumerate(names):
        info = parse_gen(g)
        if info.kind == KIND_SYMBOL and info.q == 1:
            body.append(f"    g{i} = float(values[N[{i}]])")
        else:
            body.append(f"    g{i} = _gen(N[{i}], values, memo)")
    den_gens = [slot[g] for g in rf.den.gens]
    body += [f"    a{i} = abs(g{i})" for i in den_gens]
    body += _sum("d", rf.den, _F1, "g", slot, consts)
    body += _sum("s", rf.den, _F1, "a", slot, consts)
    body += [
        "    if abs(d) <= _POLE_EPS * max(s, 1e-300):",
        '        raise EvalPole("denominator vanishes at the sample point")',
    ]
    body += _sum("n", rf.num, rf.coeff, "g", slot, consts)
    body += ["    if not relative:", "        return n / d"]
    body += [f"    a{slot[g]} = abs(g{slot[g]})" for g in rf.num.gens if slot[g] not in den_gens]
    body += _sum("m", rf.num, rf.coeff, "a", slot, consts)
    body.append("    return (n / d) / max(1.0, m / abs(d))")
    code = _CODE[_function("values, memo, K, N, relative", body)]
    return code, tuple(consts), names


def _sum(
    var: str,
    p: Poly,
    coeff: Fraction,
    prefix: str,
    slot: dict[str, int],
    consts: list[tuple[float, ...]],
) -> list[str]:
    """Statements summing coeff * p into var term by term from 0.0, in the
    canonical monomial order, block by block; with prefix "a" the terms'
    absolute values, from the abs'd generator values."""
    num, den = coeff.numerator, coeff.denominator
    terms = p.sorted_terms()
    try:
        ks = [(num * c) / den for _, c in terms]
    except OverflowError:
        return ['    raise OverflowError("coefficient beyond float range")']
    if prefix == "a":
        ks = [abs(k) for k in ks]
    params = "t, k" + "".join(f", v{j}" for j in range(len(p.gens)))
    args = "".join(f", {prefix}{slot[g]}" for g in p.gens)
    monos = [m for m, _ in terms]
    lines = [f"    {var} = 0.0"]
    for start in range(0, len(monos), _BLOCK):
        block = [
            f"    t += k[{i}]"
            + "".join(f" * v{j}" + (f"**{e}" if e != 1 else "") for j, e in enumerate(mono) if e)
            for i, mono in enumerate(monos[start : start + _BLOCK])
        ]
        block.append("    return t")
        lines.append(f"    {var} = {_function(params, block)}({var}, K[{len(consts)}]{args})")
        consts.append(tuple(ks[start : start + _BLOCK]))
    return lines


def _real_root(v: float, q: int) -> float:
    if q == 1:
        return v
    if v >= 0:
        return v ** (1.0 / q)
    if q % 2 == 0:
        raise EvalDomainError(f"even root of negative value {v!r}")
    return -((-v) ** (1.0 / q))
