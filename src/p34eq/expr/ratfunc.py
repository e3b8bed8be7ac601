"""Reduced rational functions: the engine's normal form.

A RatFunc is coeff * num / den: coeff is a Fraction, and num and den are
integer polynomials, each primitive (content 1) with a positive leading
coefficient, with gcd(num, den) = 1.  Zero is 0 * 0 / 1.  Structurally equal
values therefore have identical parts.  Rational constants (parsed numbers,
scale factors, the 1/q of a root's derivative) live in coeff, so scaling and
negation touch no polynomial.

Binary operations rebase root atoms of a common base to their lcm
denominator first (y and y^(1/3) never coexist inside one polynomial).

Every result is brought to normal form by one helper, `_normal`, in three
steps.  It folds surd powers n^(e/q) with e >= q into the coefficients,
keeping monomials in distinct prime radicals linearly independent.  It
cancels common factors: each caller passes a bound g that every common
factor of its unfolded num and den divides, and gcd(num, g) is divided out;
a fold can merge monomials and leave a common factor that g does not see,
so after one the full GCD is.  It moves the integer contents into coeff.

The bounds save GCDs.  A product cancels across its operands first, so g =
1 for products and powers.  A sum over denominators with GCD g can leave
only a factor of g to cancel, and over coprime ones none (Henrici 1956).  A
derivative is the sum over generators g of d(g)/d(var) * d(num/den)/dg;
with h = gcd(den, d(den)/dg), the quotient rule over den * (den/h) leaves
in common only factors free of g, each dividing h (Horowitz 1971), so the
GCD is taken against h, not den^2.  The constructor, given any num and den,
takes g = den.

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

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping

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
    return p


def common_root_targets(*polys: Poly) -> dict[str | int, int]:
    targets: dict[str | int, int] = {}
    for p in polys:
        for base, q in _base_roots(p).items():
            targets[base] = lcm(targets.get(base, 1), q)
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

    __slots__ = ("coeff", "num", "den", "_ev")

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
            num, den, coeff = _normal(num, den, Fraction(coeff), den)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_ev", None)

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
        ad_r, bd_r = (ad, bd) if g.is_const else (ad.exact_div(g), bd.exact_div(g))
        return RatFunc(*_normal(an * bd_r + bn * ad_r, ad * bd_r, c, g), reduced=True)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero or other.is_zero:
            return RatFunc.const(0)
        an, ad, bn, bd = self._aligned_with(other)
        an, bd = _cancel(an, bd, bd)
        bn, ad = _cancel(bn, ad, ad)
        return RatFunc(*_normal(an * bn, ad * bd, self.coeff * other.coeff, _ONE), reduced=True)

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
        return RatFunc(*_normal(base.num**n, base.den**n, base.coeff**n, _ONE), reduced=True)

    def scale(self, c) -> "RatFunc":
        return RatFunc(self.num, self.den, self.coeff * Fraction(c), reduced=True)

    # ----- differentiation ----------------------------------------------

    def deriv(self, var: str) -> "RatFunc":
        """Partial derivative with respect to the base variable x or y."""
        out = RatFunc.const(0)
        for g in self.gens():
            chain = _chain(g, var)
            if not chain.is_zero:
                out = out + chain * _partial(self.num, self.den, g)
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


def _cancel(a: Poly, b: Poly, g: Poly) -> tuple[Poly, Poly]:
    """a and b divided by gcd(a, g), for a g that every common factor of a
    and b divides."""
    if not g.is_const:
        g = poly_gcd(a, g)
        if not g.is_const:
            return a.exact_div(g), b.exact_div(g)
    return a, b


def _normal(num: Poly, den: Poly, coeff: Fraction, g: Poly) -> tuple[Poly, Poly, Fraction]:
    """(num, den, coeff) of coeff * num / den in normal form, for integer
    num and den whose common factors divide g until their surds are folded
    (see the module docstring)."""
    n, d = reduce_surds(num), reduce_surds(den)
    if n.is_zero:
        return n, _ONE, _F0
    if n is not num or d is not den:
        g = d  # a fold can leave any common factor: take the full GCD
    n, d = _cancel(n, d, g)
    cn, n = n.primitive()
    cd, d = d.primitive()
    if cn != 1 or cd != 1:
        coeff = coeff * Fraction(cn, cd)
    return n, d, coeff


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


def _partial(n: Poly, d: Poly, g: str) -> RatFunc:
    """d(n/d)/dg for coprime integer n, d.

    With h = gcd(d, dd/dg), the quotient rule over d * (d/h) leaves only
    factors free of g in common, and each divides h (Horowitz 1971): the
    GCD against h replaces one against d^2.
    """
    dn, dd = n.deriv(g), d.deriv(g)
    if dd.is_zero:
        return RatFunc(*_normal(dn, d, _F1, d), reduced=True)
    h = poly_gcd(d, dd)
    d_h, dd_h = (d, dd) if h.is_const else (d.exact_div(h), dd.exact_div(h))
    return RatFunc(*_normal(dn * d_h - n * dd_h, d * d_h, _F1, h), reduced=True)


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
