"""Normal form, rational powers, sampling and zero-testing.

The workhorse representation is RatFunc (a reduced ratio of polynomials in
atoms); Expr trees are the parse/print surface.  Fractional powers become
atoms: roots of symbols directly, roots of rationals via prime surds, odd
roots of monomials by distribution, everything else as a content-addressed
compound radicand that still evaluates and differentiates exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Mapping, TypeVar

from ..errors import EvalDomainError, EvalPole, UndeclaredSymbolError
from . import ast
from .ast import Add, Const, Expr, Mul, Neg, Pow, Sym
from .atoms import (
    KIND_OPAQUE,
    KIND_SURD,
    KIND_SYMBOL,
    factor_int,
    gen_sort_key,
    lookup_opaque,
    make_name,
    opaque_base_key,
    parse_gen,
    register_opaque,
)
from .poly import Poly
from .ratfunc import Point, RatFunc

__all__ = [
    "normalize",
    "is_zero",
    "to_ratfunc",
    "rf_to_expr",
    "rf_to_factored_expr",
    "rf_pow",
    "rf_reduce_roots",
    "Constraint",
    "ParamEnv",
    "SamplePolicy",
    "ZeroStatus",
    "ZeroVerdict",
    "QUADRANTS",
    "sample",
    "sample_any_quadrant",
]


# ----- Expr -> RatFunc ------------------------------------------------------


def to_ratfunc(e: Expr) -> RatFunc:
    if isinstance(e, Const):
        return RatFunc.const(e.value)
    if isinstance(e, Sym):
        return RatFunc.from_gen(e.name)
    if isinstance(e, Neg):
        return -to_ratfunc(e.arg)
    if isinstance(e, Add):
        out = RatFunc.const(0)
        for t in e.terms:
            out = out + to_ratfunc(t)
        return out
    if isinstance(e, Mul):
        out = RatFunc.const(1)
        for f in e.factors:
            out = out * to_ratfunc(f)
        return out
    if isinstance(e, Pow):
        return rf_pow(to_ratfunc(e.base), e.exp)
    raise TypeError(f"unknown node {e!r}")


def rf_pow(rf: RatFunc, exponent: Fraction) -> RatFunc:
    """Raise a rational function to a rational power."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return rf ** int(exponent)
    p, q = exponent.numerator, exponent.denominator
    if rf.is_zero:
        if p <= 0:
            raise ZeroDivisionError("zero raised to a non-positive fractional power")
        return RatFunc.const(0)
    if rf.is_const:
        return _rational_power(rf.const_value(), p, q)
    if rf.is_monomial:
        coeff, exps = rf.monomial_parts()
        if q % 2 == 1:
            out = _rational_power(coeff, p, q)
            for g, e in exps.items():
                out = out * _gen_frac_power(g, Fraction(e * p, q))
            return out
        # Even roots do not commute with signs of symbol-valued factors;
        # fall through to an opaque radicand, which evaluates base-first.
    return _opaque_power(rf, p, q)


def _gen_frac_power(gen: str, exponent: Fraction) -> RatFunc:
    """gen ** exponent where gen is an existing atom and exponent rational."""
    info = parse_gen(gen)
    total = Fraction(exponent, info.q)
    p, q = total.numerator, total.denominator
    if info.kind == KIND_SURD:
        return _rational_power(Fraction(int(info.base)), p, q)
    base = info.base if info.kind == KIND_SYMBOL else str(info.base)
    name = make_name(base, q) if q > 1 else str(base)
    return RatFunc.from_gen(name, p)


def _rational_power(c: Fraction, p: int, q: int) -> RatFunc:
    """c ** (p/q) as an exact combination of rational and prime-surd factors."""
    if c == 0:
        if p <= 0:
            raise ZeroDivisionError("zero raised to a non-positive fractional power")
        return RatFunc.const(0)
    sign = 1
    if c < 0:
        if q % 2 == 0:
            # No real value anywhere; keep an opaque radicand so evaluation
            # reports a domain error instead of silently dropping the sign.
            return _opaque_power(RatFunc.const(c), p, q)
        sign = -1 if p % 2 else 1
        c = -c
    out = RatFunc.const(sign)
    for base, e in list(_factored(c.numerator)) + [
        (b, -e) for b, e in _factored(c.denominator)
    ]:
        total = Fraction(e * p, q)
        k, rem = divmod(total.numerator, total.denominator)
        out = out.scale(Fraction(base) ** k)
        if rem:
            frac = Fraction(rem, total.denominator)
            out = out * RatFunc.from_gen(make_name(base, frac.denominator), frac.numerator)
    return out


def _factored(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    f = factor_int(n)
    if f is None:
        return [(n, 1)]
    return list(f)


def _opaque_power(rf: RatFunc, p: int, q: int) -> RatFunc:
    canonical = ast.to_string(rf_to_expr(rf))
    tag = opaque_base_key(canonical)
    register_opaque(tag, rf)
    return RatFunc.from_gen(make_name(tag, q), p)


# ----- RatFunc -> Expr ------------------------------------------------------


def rf_to_expr(rf: RatFunc) -> Expr:
    num = _poly_to_expr(rf.num, rf.coeff)
    if rf.den.is_const:  # a primitive constant denominator is 1
        return num
    return Mul((num, Pow(_poly_to_expr(rf.den), Fraction(-1))))


def _poly_to_expr(p: Poly, coeff: Fraction = Fraction(1)) -> Expr:
    """coeff * p as a sum of terms, each with its rational coefficient."""
    if p.is_zero:
        return ast.ZERO
    scaled = coeff != 1
    terms: list[Expr] = []
    for mono, c in p.sorted_terms():
        if scaled:
            c = coeff * c
        factors = [_gen_to_expr(g, e) for g, e in zip(p.gens, mono) if e]
        if c != 1 or not any(mono):
            factors.insert(0, Const(c))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def rf_to_factored_expr(rf: RatFunc) -> Expr:
    """rf as coeff * monomial * prod P_e^e, read from its factors and never
    from its expanded num and den.

    P_e is the product of the factors of exponent e, less their monomial
    content: the numerator's exponents come first in ascending order, then
    the denominator's.  Every monomial content folds into the one monomial,
    so (nu1^2)^6 reads nu1^12.  Grouping by exponent keeps the text from
    depending on how far refinement split coprime factors of one exponent.
    """
    mono: dict[str, int] = {}
    groups: dict[int, list[Poly]] = {}
    for b, e in rf.factors():
        shifts = b.monomial_content()
        for g, k in shifts.items():
            mono[g] = mono.get(g, 0) + k * e
        b = b.shift_down(shifts)
        if not b.is_const:
            groups.setdefault(e, []).append(b)
    nums: list[Expr] = []
    dens: list[Expr] = []
    for g in sorted(mono, key=gen_sort_key):
        if mono[g]:
            (nums if mono[g] > 0 else dens).append(_gen_to_expr(g, mono[g]))
    for e in sorted(groups, key=abs):
        p, *rest = groups[e]
        for b in rest:
            p = p * b
        expr = _poly_to_expr(p)
        (nums if e > 0 else dens).append(expr if e == 1 else Pow(expr, Fraction(e)))
    if rf.coeff == -1 and nums:
        nums[0] = Neg(nums[0])
    elif rf.coeff != 1 or not nums:
        nums.insert(0, Const(rf.coeff))
    return Mul(tuple(nums + dens)) if dens else ast.mul(tuple(nums))


@lru_cache(maxsize=None)
def _opaque_expr(tag: str) -> Expr:
    """The rendered radicand of a registered compound base.

    Registered bases never change, so every occurrence shares one tree.
    """
    return rf_to_expr(lookup_opaque(tag))  # type: ignore[arg-type]


# Generator names are immutable and nodes frozen, so one node serves every
# term, and the printer's memo of power bases hits on a shared radicand.
@lru_cache(maxsize=None)
def _gen_to_expr(gen: str, e: int) -> Expr:
    info = parse_gen(gen)
    exp = Fraction(e, info.q)
    if info.kind == KIND_SYMBOL:
        base: Expr = Sym(str(info.base))
    elif info.kind == KIND_SURD:
        base = Const(Fraction(int(info.base)))
    else:
        base = _opaque_expr(str(info.base))
    if exp == 1:
        return base
    return Pow(base, exp)


# ----- the root rewrite of a print and parse -----------------------------------


def rf_reduce_roots(rf: RatFunc) -> RatFunc:
    """rf with each power g^e of a root generator g = b^(1/q) whose e shares
    a factor with q rewritten as rf_pow(b, e/q): to_ratfunc(rf_to_expr(rf))
    without printing and parsing.

    A printed term reads back as the product of its generator powers, and
    the sum of the terms rebases the roots of one base to their lcm index.
    So a root of a symbol or of a surd changes only when every power of it
    shares a factor with q (y^(1/3)^3 alone becomes y), but a compound
    radicand changes wherever one power does: (@(3y - 1)^(1/3))^6 becomes
    the polynomial (3y - 1)^2, and so does every power of a compound root
    that reads back as another (its radicand changes, or it is an odd root
    of a monomial).  When nothing changes, rf is returned.
    """
    if not _reducible(rf):
        return rf
    out = _read_back(rf.num, rf.coeff)
    if rf.den.is_const:
        return out
    return out * _read_back(rf.den, Fraction(1)) ** -1


def _reducible(rf: RatFunc) -> bool:
    gens = rf.gens()
    if all(parse_gen(g).q == 1 for g in gens):
        return False
    if any(map(_reads_changed, gens)):
        return True
    shared: dict[str, int] = {}  # gcd of q and every power of a symbol or surd root
    for p in (rf.num, rf.den):
        roots = [(i, g, info) for i, (g, info) in enumerate(zip(p.gens, map(parse_gen, p.gens)))
                 if info.q > 1]
        if not roots:
            continue
        monos = [mono for mono, _ in p.monomials()]
        for i, g, info in roots:
            for mono in monos:
                e = mono[i]
                if not e:
                    continue
                if info.kind == KIND_OPAQUE:
                    if gcd(e, info.q) > 1:
                        return True
                else:
                    shared[g] = gcd(shared.get(g, info.q), e)
    return any(d > 1 for d in shared.values())


def _read_back(p: Poly, coeff: Fraction) -> RatFunc:
    """coeff * p summed term by term, as to_ratfunc reads its printed form."""
    out = RatFunc.const(0)
    for mono, c in p.sorted_terms():
        term = RatFunc.const(coeff * c)
        for g, e in zip(p.gens, mono):
            if e:
                term = term * _read_power(g, e)
        out = out + term
    return out


@lru_cache(maxsize=None)
def _reads_changed(gen: str) -> bool:
    """Whether gen, a compound root b^(1/q), reads back as other than itself:
    rf_pow of its read-back radicand b to 1/q is a new radicand, or
    distributes over a monomial b when q is odd.  Then so does every power."""
    info = parse_gen(gen)
    if info.kind != KIND_OPAQUE:
        return False
    radicand = rf_reduce_roots(lookup_opaque(str(info.base)))  # type: ignore[arg-type]
    return rf_pow(radicand, Fraction(1, info.q)) != RatFunc.from_gen(gen)


def _read_power(gen: str, e: int) -> RatFunc:
    info = parse_gen(gen)
    if gcd(e, info.q) == 1 and not _reads_changed(gen):
        return RatFunc.from_gen(gen, e)
    if info.kind == KIND_SYMBOL:
        base = RatFunc.from_gen(str(info.base))
    elif info.kind == KIND_SURD:
        base = RatFunc.const(int(info.base))
    else:
        base = rf_reduce_roots(lookup_opaque(str(info.base)))  # type: ignore[arg-type]
    return rf_pow(base, Fraction(e, info.q))


# ----- public operations ----------------------------------------------------


def normalize(e: Expr) -> Expr:
    """Canonical form: a single reduced ratio of polynomials in atoms."""
    return rf_to_expr(to_ratfunc(e))


# ----- parameter environments and sampling ----------------------------------


class Constraint(Enum):
    FREE = "free"
    NONZERO = "nonzero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class SamplePolicy:
    """Deterministic sampling configuration for probabilistic zero tests."""

    seed: int = 2034
    n_samples: int = 16
    abs_tol: float = 1e-9


# Sampled magnitudes of x, y and every parameter are uniform on this box.
BOX = (0.5, 3.0)
# A residual above this is evidence of a nonzero value.
NZ_TOL = 1e-6
# Extra draws allowed for points where the sampled function is undefined.
REDRAWS = 100
# (x, y) sign quadrants, in the order they are tried.
QUADRANTS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


class ParamEnv:
    """Declared parameters with their sign constraints."""

    def __init__(self, constraints: Mapping[str, Constraint | str] | None = None):
        self.constraints: dict[str, Constraint] = {
            name: Constraint(c) for name, c in (constraints or {}).items()
        }

    def declared(self) -> set[str]:
        return set(self.constraints)

    def check_symbols(self, symbols: set[str]) -> None:
        extra = symbols - {"x", "y"} - self.declared()
        if extra:
            raise UndeclaredSymbolError(
                f"undeclared symbols: {', '.join(sorted(extra))}"
            )

    def merged(self, other: "ParamEnv") -> "ParamEnv":
        return ParamEnv({**self.constraints, **other.constraints})

    def draw(self, name: str, rng: random.Random) -> float:
        magnitude = rng.uniform(*BOX)
        if self.constraints.get(name) is Constraint.POSITIVE:
            return magnitude
        return magnitude if rng.random() < 0.5 else -magnitude

    def __repr__(self):
        parts = (f"{name}:{self.constraints[name].value}" for name in sorted(self.constraints))
        return f"ParamEnv({', '.join(parts)})"


T = TypeVar("T")


def sample(
    f: Callable[[dict[str, float]], T],
    symbols: Iterable[str],
    env: ParamEnv,
    policy: SamplePolicy,
    n: int,
    quadrant: tuple[int, int] = (1, 1),
    redraws: int = REDRAWS,
) -> tuple[list[T], int]:
    """f at up to n random points where it is defined, and the number of
    points skipped; the only place that draws sample points.  f gets each
    point as a Point, so evaluations at it share generator values.

    Each point gives x and y magnitudes uniform on BOX = [0.5, 3] with the
    signs of ``quadrant``, then each parameter in sorted order a magnitude
    on BOX and, unless it is declared positive, a random sign.  The stream
    is fixed by the seed, the quadrant and the symbols.  A point where f
    raises EvalPole, EvalDomainError or OverflowError is skipped, and at
    most n + ``redraws`` points are drawn: n + 100 for zero tests and
    sampled values, n + 400 per quadrant for the jet oracle.  Callers that
    walk quadrants take QUADRANTS in order: (1, 1), (-1, 1), (1, -1),
    (-1, -1).
    """
    names = tuple(sorted(set(symbols) | {"x", "y"}))
    params = [s for s in names if s not in ("x", "y")]
    rng = random.Random(repr((policy.seed, quadrant, names)))
    values: list[T] = []
    skipped = 0
    for _ in range(n + redraws):
        if len(values) >= n:
            break
        a = Point(x=quadrant[0] * rng.uniform(*BOX), y=quadrant[1] * rng.uniform(*BOX))
        for s in params:
            a[s] = env.draw(s, rng)
        try:
            values.append(f(a))
        except (EvalPole, EvalDomainError, OverflowError):
            skipped += 1
    return values, skipped


def sample_any_quadrant(
    f: Callable[[dict[str, float]], T],
    symbols: Iterable[str],
    env: ParamEnv,
    policy: SamplePolicy,
    n: int,
    need: int,
) -> tuple[list[T], int]:
    """sample() in each of QUADRANTS in turn, for functions real on only
    part of the plane: the first quadrant's result with at least ``need``
    values, else the (1, 1) result."""
    first = None
    for quadrant in QUADRANTS:
        values, skipped = sample(f, symbols, env, policy, n, quadrant)
        if len(values) >= need:
            return values, skipped
        if first is None:
            first = values, skipped
    return first


# ----- zero verdicts --------------------------------------------------------


class ZeroStatus(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ZeroVerdict:
    status: ZeroStatus
    normal_form: str | None = None  # exact evidence, when available
    residuals: tuple[float, ...] = ()
    detail: str = ""

    @property
    def is_zero(self) -> bool:
        return self.status is ZeroStatus.ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.status is ZeroStatus.NONZERO

    @property
    def is_unknown(self) -> bool:
        return self.status is ZeroStatus.UNKNOWN

    def __str__(self):
        return self.status.value


def is_zero(
    rf: RatFunc,
    env: ParamEnv | None = None,
    policy: SamplePolicy | None = None,
) -> ZeroVerdict:
    """Two-tier zero test of a RatFunc: exact normal form, then sampling.

    Zero comes from a vanishing normal form or from all samples vanishing
    within tolerance; NonZero always carries at least one sample above the
    nonzero threshold, so the two kinds of evidence can never both appear.
    """
    env = env or ParamEnv()
    policy = policy or SamplePolicy()
    env.check_symbols(rf.free_symbols())
    if rf.is_zero:
        return ZeroVerdict(ZeroStatus.ZERO, normal_form="0")

    exact = rf.is_exact()
    need = max(4, policy.n_samples // 2)
    residuals, _ = sample_any_quadrant(
        rf.eval_relative, rf.free_symbols(), env, policy, policy.n_samples, need
    )
    if len(residuals) < need:
        return ZeroVerdict(
            ZeroStatus.UNKNOWN,
            residuals=tuple(residuals),
            detail="insufficient pole-free samples",
        )
    top = max(abs(r) for r in residuals)
    if top > NZ_TOL:
        return ZeroVerdict(ZeroStatus.NONZERO, residuals=tuple(residuals))
    if top < policy.abs_tol:
        if exact:
            # A nonzero exact normal form evaluating to zero everywhere means
            # the samples are deceptive; refuse to certify either way.
            return ZeroVerdict(
                ZeroStatus.UNKNOWN,
                residuals=tuple(residuals),
                detail="nonzero normal form with vanishing samples",
            )
        return ZeroVerdict(ZeroStatus.ZERO, residuals=tuple(residuals))
    return ZeroVerdict(
        ZeroStatus.UNKNOWN, residuals=tuple(residuals), detail="samples in the gray zone"
    )
