"""Sparse multivariate polynomials over the integers.

Generators are identified by name strings and kept in a canonical sorted
order inside each polynomial; binary operations align generator tuples on
the fly.  The module is a plain commutative ring Z[gens]: any algebraic
meaning of a generator (radical atoms and the like) lives one layer up, in
atoms.py, and so does any rational content, in RatFunc's coefficient.

Coefficients are Python ints.  Constructors accept integer-valued rationals
and store them as ints; a non-integer coefficient raises ValueError.

Monomials are packed ints (Monagan and Pearce 2007), one _W = 32 bit field
per generator, the first in gen_sort_key order the most significant: int
order is lex order, a product monomial is a sum of keys and 1 is 0.  No
exponent reaches a field's top bit, its guard, so fields never carry, and a
guard bit set in a difference shows a monomial that does not divide.  An
exponent that would reach 2^31 raises OverflowError; it never wraps.
monomials() unpacks the terms in insertion order, and from_terms takes
tuple keys.  Every constructor returns a compressed polynomial.

Division is exact division in Z[gens].  By a primitive divisor it succeeds
exactly when the rational quotient exists (Gauss's lemma), and the first
leading coefficient that the divisor's does not divide proves it inexact.

poly_gcd returns the primitive GCD with a positive leading coefficient.  It
tries, in order:

- monomial: common monomial factors split off first;
- constants: a constant argument, or no shared generator, gives 1;
- divides: one argument divides the other;
- coprime: modulo one prime, constant GCDs of univariate images in each
  shared generator prove the inputs coprime.  Each other generator is set
  to a point derived from its name (univariate_image), and RatFunc's
  factors keep their images to screen refinement pairs the same way;
- modular: Brown's dense modular GCD (1971), images modulo primes just
  below 2^62 combined by Chinese remaindering and certified by exact
  division.  A constant first image proves the inputs coprime.
"""

from __future__ import annotations

import hashlib
import random
from functools import cache, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, count
from math import gcd as int_gcd
from operator import mul, or_
from typing import Callable, Iterable, Iterator, Mapping

from .atoms import gen_sort_key

Monomial = tuple[int, ...]

_W = 32  # bits per exponent field
_TOP = 1 << (_W - 1)  # a field's guard bit; exponents stay below it
_MASK = (1 << _W) - 1


@cache
def _shifts(n: int) -> tuple[int, ...]:
    """The shift of each of n fields, the first generator's first."""
    return tuple(range(_W * (n - 1), -1, -_W))


@cache
def _guards(n: int) -> int:
    return sum(_TOP << s for s in _shifts(n))


def _pack(mono: Iterable[int]) -> int:
    k = 0
    for e in mono:
        if not 0 <= e < _TOP:
            raise OverflowError(f"exponent {e} outside [0, 2^{_W - 1})")
        k = k << _W | e
    return k


def _field(keys: Iterable[int], s: int) -> Iterator[int]:
    """The exponents in the field at shift s of each key."""
    return map(_MASK.__and__, map(s.__rrshift__, keys))


def _tuples(keys: Iterable[int], shifts: Iterable[int]) -> Iterator[Monomial]:
    """The exponents in the fields at the given shifts, as a tuple per key."""
    fields = [_field(keys, s) for s in shifts]
    return zip(*fields) if fields else (() for _ in keys)


def _repack(terms: dict[int, int], moves: list[tuple[int, int]]) -> dict[int, int]:
    """Each key's field at shift s moved to shift d, for (s, d) in moves."""
    return {sum((k >> s & _MASK) << d for s, d in moves): c for k, c in terms.items()}


def _int_coeff(c) -> int:
    """c as an int; c may be an int or an integer-valued rational."""
    if c.denominator != 1:
        raise ValueError(f"polynomial coefficient {c} is not an integer")
    return int(c.numerator)


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class Poly:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: tuple[str, ...], terms: dict[int, int]):
        # Trusts its input and keeps the dict, which no one writes; use the factories.
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # ----- construction -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly((), {})

    @staticmethod
    def const(c) -> "Poly":
        c = _int_coeff(c)
        return Poly((), {0: c} if c else {})

    @staticmethod
    def gen(name: str, exp: int = 1) -> "Poly":
        if exp == 0:
            return Poly.const(1)
        return Poly((name,), {_pack((exp,)): 1})

    @staticmethod
    def from_terms(gens: Iterable[str], terms: Mapping[Monomial, int]) -> "Poly":
        """Build from possibly unsorted generators and unpruned terms."""
        gens = tuple(gens)
        order = sorted(range(len(gens)), key=lambda i: gen_sort_key(gens[i]))
        sorted_gens = tuple(gens[i] for i in order)
        out: dict[int, int] = {}
        for mono, c in terms.items():
            c = _int_coeff(c)
            if not c:
                continue
            new = _pack(mono[i] for i in order)
            acc = out.get(new)
            s = c if acc is None else acc + c
            if s:
                out[new] = s
            else:
                out.pop(new, None)
        return Poly(sorted_gens, out)._compress()

    def _compress(self) -> "Poly":
        """Drop generators that no term uses."""
        n = len(self.gens)
        used = reduce(or_, self.terms, 0)
        keep = [i for i, s in enumerate(_shifts(n)) if used >> s & _MASK]
        if len(keep) == n:
            return self
        moves = list(zip((_shifts(n)[i] for i in keep), _shifts(len(keep))))
        return Poly(tuple(self.gens[i] for i in keep), _repack(self.terms, moves))

    # ----- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not any(self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def degree(self, name: str) -> int:
        if name not in self.gens:
            return 0
        s = _shifts(len(self.gens))[self.gens.index(name)]
        return max(_field(self.terms, s), default=0)

    def total_degree(self) -> int:
        return max(map(sum, _tuples(self.terms, _shifts(len(self.gens)))), default=0)

    def monomials(self) -> Iterator[tuple[Monomial, int]]:
        """The terms as (exponent tuple, coefficient), in insertion order."""
        return zip(_tuples(self.terms, _shifts(len(self.gens))), self.terms.values())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical (descending lexicographic) order."""
        keys = sorted(self.terms, reverse=True)
        return list(zip(_tuples(keys, _shifts(len(self.gens))), map(self.terms.get, keys)))

    def leading(self) -> tuple[Monomial, int]:
        if self.is_zero:
            return (), 0
        k = max(self.terms)
        return next(_tuples((k,), _shifts(len(self.gens)))), self.terms[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        items = ", ".join(f"{m}:{c}" for m, c in list(self.sorted_terms())[:6])
        more = "..." if len(self.terms) > 6 else ""
        return f"Poly[{','.join(self.gens)}]({items}{more})"

    # ----- alignment ----------------------------------------------------

    def embed(self, gens: tuple[str, ...]) -> "Poly":
        """Re-express on a superset generator tuple (already sorted)."""
        if gens == self.gens:
            return self
        sh = _shifts(len(gens))
        moves = list(zip(_shifts(len(self.gens)), (sh[gens.index(g)] for g in self.gens)))
        return Poly(gens, _repack(self.terms, moves))

    @staticmethod
    def aligned(a: "Poly", b: "Poly") -> tuple["Poly", "Poly"]:
        if a.gens == b.gens:
            return a, b
        union = tuple(sorted(set(a.gens) | set(b.gens), key=gen_sort_key))
        return a.embed(union), b.embed(union)

    def remap_gen(self, name: str, new_name: str, factor: int) -> "Poly":
        """Replace generator ``name`` by ``new_name ** factor``.

        Used when two polynomials carry different root atoms of the same
        base (e.g. y vs y^(1/3)) and must be rebased to a common one.  Both
        have one base, so new_name sorts where name does.
        """
        if name not in self.gens or self.is_zero:
            return self
        if self.degree(name) * factor >= _TOP:
            raise OverflowError(f"exponent of {new_name} reaches 2^{_W - 1}")
        i = self.gens.index(name)
        s = _shifts(len(self.gens))[i]
        terms = {k + ((k >> s & _MASK) * (factor - 1) << s): c for k, c in self.terms.items()}
        return Poly(self.gens[:i] + (new_name,) + self.gens[i + 1 :], terms)

    # ----- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly(self.gens, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        a, b = Poly.aligned(self, other)
        terms = dict(a.terms)
        for m, c in b.terms.items():
            acc = terms.get(m)
            s = c if acc is None else acc + c
            if s:
                terms[m] = s
            elif acc is not None:
                del terms[m]
        return Poly(a.gens, terms)._compress()

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        a, b = Poly.aligned(self, other)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        terms: dict[int, int] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = m1 + m2
                acc = terms.get(m)
                s = c1 * c2 if acc is None else acc + c1 * c2
                if s:
                    terms[m] = s
                elif acc is not None:
                    del terms[m]
        # Fields below 2^31 sum below 2^32: a guard bit shows any overflow.
        if reduce(or_, terms, 0) & _guards(len(a.gens)):
            raise OverflowError(f"an exponent of a product reaches 2^{_W - 1}")
        return Poly(a.gens, terms)

    def scale(self, c) -> "Poly":
        c = _int_coeff(c)
        if not c:
            return Poly.zero()
        if c == 1:
            return self
        return Poly(self.gens, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.const(1)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def deriv(self, name: str) -> "Poly":
        """Formal partial derivative with respect to one generator."""
        if name not in self.gens:
            return Poly.zero()
        s = _shifts(len(self.gens))[self.gens.index(name)]
        terms = {}
        for k, c in self.terms.items():
            e = k >> s & _MASK
            if e:
                terms[k - (1 << s)] = c * e
        return Poly(self.gens, terms)._compress()

    # ----- content and primitive parts ----------------------------------

    def content(self) -> int:
        """gcd of the coefficients: positive, and 0 for the zero polynomial."""
        g = 0
        for c in self.terms.values():
            g = int_gcd(g, c)
            if g == 1:
                break
        return g

    def primitive(self) -> tuple[int, "Poly"]:
        """Split into (content-with-sign, primitive part with positive lead)."""
        if self.is_zero:
            return 0, self
        c = self.content()
        if self.terms[max(self.terms)] < 0:
            c = -c
        if c == 1:
            return 1, self
        return c, Poly(self.gens, {m: v // c for m, v in self.terms.items()})

    def monomial_content(self) -> dict[str, int]:
        """Per-generator minimum exponent over all terms."""
        if self.is_zero:
            return {}
        mins = [min(_field(self.terms, s)) for s in _shifts(len(self.gens))]
        return {g: e for g, e in zip(self.gens, mins) if e}

    def shift_down(self, shifts: dict[str, int]) -> "Poly":
        """Divide by the monomial prod(g**shifts[g]); must divide exactly."""
        if not shifts:
            return self
        d = _pack(shifts.get(g, 0) for g in self.gens)
        terms = {k - d: c for k, c in self.terms.items()}
        if reduce(or_, terms, 0) & _guards(len(self.gens)):
            raise ExactDivisionError("monomial does not divide polynomial")
        return Poly(self.gens, terms)._compress()

    # ----- division -----------------------------------------------------

    def divmod_by(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Division in Z[gens] under the term order.

        Stops at the first remainder lead that the divisor's lead does not
        divide, as a monomial or as an integer, or whose quotient term
        exceeds deg(self) - deg(other) in a generator, as no exact quotient
        does.  For exact quotients (the only use in this package) the
        remainder is zero; otherwise the returned remainder is nonzero.

        A heap yields each remainder lead (Johnson 1974).  A quotient
        monomial d = lead(rem) - lead(other) is valid when neither d nor
        bound - d has a guard bit set (Monagan and Pearce 2007).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = Poly.aligned(self, other)
        gens = a.gens
        n = len(gens)
        room = [max(_field(a.terms, s), default=0) - max(_field(b.terms, s)) for s in _shifts(n)]
        if min(room, default=0) < 0:
            return Poly.zero(), self
        bound, guards = _pack(room), _guards(n)
        lead = max(b.terms)
        lc = b.terms[lead]
        tail = [(k, c) for k, c in b.terms.items() if k != lead]
        rem = dict(a.terms)
        heap = [-k for k in rem]
        heapify(heap)
        q_terms: dict[int, int] = {}
        while heap:
            k = -heappop(heap)
            c = rem.get(k)
            if c is None:
                continue  # cancelled, or a repeated entry
            d = k - lead
            if (d | bound - d) & guards:
                break
            coeff, r = divmod(c, lc)
            if r:
                break
            # Leads strictly decrease, so each quotient monomial occurs once.
            q_terms[d] = coeff
            del rem[k]
            for k2, c2 in tail:
                k2 += d
                t = coeff * c2
                v = rem.get(k2)
                if v is None:
                    rem[k2] = -t
                    heappush(heap, -k2)
                elif v == t:
                    del rem[k2]
                else:
                    rem[k2] = v - t
        return Poly(gens, q_terms)._compress(), Poly(gens, rem)._compress()

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod_by(other)
        if not r.is_zero:
            raise ExactDivisionError("division is not exact")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False


# ----- GCD ---------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD normalized to content 1 and positive leading coefficient.

    gcd(0, p) is the primitive part of p; gcd with a nonzero constant is 1.
    """
    if a.is_zero and b.is_zero:
        return Poly.zero()
    if a.is_zero:
        return b.primitive()[1]
    if b.is_zero:
        return a.primitive()[1]
    if a.is_const or b.is_const:
        return Poly.const(1)
    if a == b:
        return a.primitive()[1]

    # Monomial factors split off cheaply and lower every degree below.
    am, bm = a.monomial_content(), b.monomial_content()
    common = {g: min(e, bm.get(g, 0)) for g, e in am.items() if bm.get(g, 0)}
    a = a.shift_down(am).primitive()[1]
    b = b.shift_down(bm).primitive()[1]

    g = _gcd_primitive(a, b)
    for name, e in sorted(common.items()):
        g = g * Poly.gen(name, e)
    return g.primitive()[1]


def _gcd_primitive(a: Poly, b: Poly) -> Poly:
    """GCD of primitive polynomials with positive leading coefficients."""
    if a.is_const or b.is_const:
        return Poly.const(1)
    if a == b:
        return a
    if not set(a.gens) & set(b.gens):
        return Poly.const(1)
    # Quick exits: one argument divides the other.
    if a.total_degree() <= b.total_degree() and a.divides(b):
        return a
    if b.total_degree() < a.total_degree() and b.divides(a):
        return b
    return _modular_gcd(*Poly.aligned(a, b))


# ----- modular GCD (Brown 1971) ---------------------------------------------
#
# Modulo p, the last generator is evaluated at random points and the image
# GCDs, scaled to a known leading coefficient, are interpolated back.  A prime
# or point is unlucky when its image is a proper multiple of the true image;
# that shows as a higher leading monomial, never a lower one, so the lowest
# seen wins.  Exact division certifies the result: a wrong guess costs time.


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: deterministic below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for q in bases:
        x = pow(q, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@cache
def _prime(i: int) -> int:
    """The i-th prime below 2^62, counting down from 0."""
    n = (1 << 62) - 1 if i == 0 else _prime(i - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


# ----- univariate images at fixed points -------------------------------------
#
# Modulo the prime _SCREEN_PRIME, a polynomial's image in one of its
# generators v sets every other generator g to _point(g).  A common factor of
# two primitive polynomials with positive degree in v keeps that degree where
# neither leading coefficient in v vanishes, as its own divides both, so its
# image divides both images there: constant GCDs of usable images in every
# shared generator prove the polynomials coprime.  No prime makes that
# unsound: an unlucky one only leaves a pair to trial division or poly_gcd.

# The largest prime below 2^30: residues are one-digit CPython ints, and so
# is every product once reduced as it is formed.
_SCREEN_PRIME = 1073741789


def _point(name: str) -> int:
    """The nonzero residue mod _SCREEN_PRIME that a generator takes in images
    in other generators: a function of its name alone, kept nowhere."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (_SCREEN_PRIME - 1) + 1


def univariate_image(a: Poly, v: str) -> list[int] | None:
    """a mod _SCREEN_PRIME as a univariate polynomial in its generator v,
    every other generator at its _point; None when the leading coefficient
    in v vanishes there."""
    p = _SCREEN_PRIME
    sh = _shifts(len(a.gens))
    s = sh[a.gens.index(v)]
    # (shift, powers of the point) of every other generator
    others = [
        (t, list(accumulate([_point(g)] * max(_field(a.terms, t)), lambda u, w: u * w % p,
                            initial=1)))
        for g, t in zip(a.gens, sh) if t != s
    ]
    out = [0] * (max(_field(a.terms, s)) + 1)
    for k, c in a.terms.items():
        c %= p
        for t, pw in others:
            c = c * pw[k >> t & _MASK] % p
        out[k >> s & _MASK] += c
    out = [c % p for c in out]
    return out if out[-1] else None


def coprime_images(
    image_a: Callable[[str], list[int] | None],
    image_b: Callable[[str], list[int] | None],
    shared: Iterable[str],
) -> bool:
    """Whether the univariate images of two primitive polynomials, given by
    generator, prove them coprime: in every generator in shared (those of
    both), both are usable and their GCD is constant.  Nothing shared
    proves it too."""
    p = _SCREEN_PRIME
    for v in shared:
        u = image_a(v)
        if u is None:
            return False
        w = image_b(v)
        if w is None or len(_ugcd(u, w, p)) > 1:
            return False
    return True


def _modular_gcd(a: Poly, b: Poly) -> Poly:
    """GCD of primitive polynomials over the same generators."""
    sh = _shifts(len(a.gens))
    da, db = ([max(_field(x.terms, s)) for s in sh] for x in (a, b))
    shared = (g for g, i, j in zip(a.gens, da, db) if i and j)
    if coprime_images(partial(univariate_image, a), partial(univariate_image, b), shared):
        return Poly.const(1)
    # Exponent tuples from here on, generators in this order: the one of
    # largest degree is the one Euclid's algorithm handles, and generators
    # of one operand go last, where one evaluation point does.
    order = sorted(range(len(da)), reverse=True,
                   key=lambda i: (min(da[i], db[i]) > 0, max(da[i], db[i])))
    A, B = (dict(zip(_tuples(x.terms, [sh[i] for i in order]), x.terms.values()))
            for x in (a, b))
    lc_a, lc_b = A[max(A)], B[max(B)]
    primes = (p for p in map(_prime, count()) if lc_a % p and lc_b % p)
    # The GCD's leading coefficient divides gamma, so gamma times the monic
    # image is the image of one integer polynomial for every lucky prime.
    gamma = int_gcd(lc_a, lc_b)
    lifted, modulus, lead = {}, 1, None
    for p in primes:
        ap, bp = ({m: c % p for m, c in X.items() if c % p} for X in (A, B))
        image = _gcd_mod(ap, bp, p, random.Random(p))
        m = max(image)
        if not any(m):
            return Poly.const(1)
        if lead is not None and m > lead:
            continue
        if lead is None or m < lead:
            lifted, modulus, lead = {}, 1, m
        s = gamma % p
        combined = _crt(lifted, modulus, {k: v * s % p for k, v in image.items()}, p)
        modulus *= p
        # The lift has settled when it stops changing, or when every
        # coefficient lies far below the modulus, where a wrapped residue
        # would be improbable; exact division decides either way.
        settled = combined == lifted or max(map(abs, combined.values())) ** 2 < modulus
        lifted = combined
        if settled:
            keys = (sum(e << sh[i] for i, e in zip(order, t)) for t in lifted)
            g = Poly(a.gens, dict(zip(keys, lifted.values())))
            g = g._compress().primitive()[1]
            if g.divides(a) and g.divides(b):
                return g


def _crt(h: dict, modulus: int, image: dict, p: int) -> dict:
    """Symmetric residues mod modulus * p: h mod modulus, image mod p."""
    inv = pow(modulus % p, -1, p)
    total = modulus * p
    out = {}
    for k in h.keys() | image.keys():
        v = h.get(k, 0)
        v += modulus * ((image.get(k, 0) - v) * inv % p)
        if v > total >> 1:
            v -= total
        if v:
            out[k] = v
    return out


def _gcd_mod(a: dict, b: dict, p: int, rng: random.Random) -> dict:
    """Monic GCD of nonzero a, b in Z_p[x_1..x_n] (n-tuple keys, lex order).

    Unlucky points can only make the result a proper multiple of the GCD.
    """
    # View a, b as polynomials in x_1..x_{n-1} over Z_p[x_n], dense in x_n.
    A, B = _split(a), _split(b)
    if len(next(iter(a))) == 1:
        return {(e,): c for e, c in enumerate(_ugcd(A[()], B[()], p)) if c}
    ca, cb = _ucontent(A, p), _ucontent(B, p)
    content = _ugcd(ca, cb, p)
    A = {m: _uquo(u, ca, p) for m, u in A.items()}
    B = {m: _uquo(u, cb, p) for m, u in B.items()}
    lc_a, lc_b = A[max(A)], B[max(B)]
    gamma = _ugcd(lc_a, lc_b, p)
    # The interpolant is gamma / lc(g) * g, g the GCD of the primitive parts.
    # Its degree in x_n is deg gamma + deg g - deg lc(g), and lc(g) = lc(a) /
    # lc(a / g) gives deg lc(g) >= deg lc(a) - deg a + deg g.
    da, db = max(map(len, A.values())), max(map(len, B.values()))
    bound = min(da - len(lc_a), db - len(lc_b))
    if bound:
        bound = min(bound, _last_degree_bound(A, B, da, db, p, rng))
    bound += len(gamma) - 1
    h: dict[Monomial, list[int]] = {}
    q, lead = [], None
    while len(q) - 1 <= bound:
        r = rng.randrange(p)
        pw = [1]
        for _ in range(max(da, db, bound + 1)):
            pw.append(pw[-1] * r % p)
        s = sum(map(mul, gamma, pw)) % p
        if not s or (q and not sum(map(mul, q, pw)) % p):
            continue
        image = _gcd_mod(_eval_last(A, pw, p), _eval_last(B, pw, p), p, rng)
        m = max(image)
        if not any(m):
            return {m + (e,): c for e, c in enumerate(content) if c}
        if lead is not None and m > lead:
            continue
        if lead is None or m < lead:
            h = {k: [v * s % p] for k, v in image.items()}
            q, lead = [-r % p, 1], m
            continue
        # Newton step: h += q * (s * image - h(r)) / q(r), then q *= x_n - r.
        inv = pow(sum(map(mul, q, pw)) % p, -1, p)
        for k in h.keys() | image.keys():
            u = h.get(k, [])
            d = (image.get(k, 0) * s - sum(map(mul, u, pw))) * inv % p
            if d:
                w = [c * d for c in q]
                for j, c in enumerate(u):
                    w[j] += c
                h[k] = [c % p for c in w]
        q = [(x - r * y) % p for x, y in zip([0] + q, q + [0])]
    c = _ucontent(h, p)
    h = {m: _umul(_uquo(u, c, p), content, p) for m, u in h.items()}
    inv = pow(h[max(h)][-1], -1, p)
    return {m + (e,): v * inv % p for m, u in h.items() for e, v in enumerate(u) if v}


def _split(a: dict) -> dict[Monomial, list[int]]:
    """Group the terms of a by all but the last exponent, dense in the last."""
    out: dict[Monomial, list[int]] = {}
    for m, c in a.items():
        u = out.setdefault(m[:-1], [])
        if len(u) <= m[-1]:
            u.extend([0] * (m[-1] + 1 - len(u)))
        u[m[-1]] = c
    return out


def _eval_last(A: dict[Monomial, list[int]], pw: list[int], p: int) -> dict[Monomial, int]:
    """A at x_n = r, given the powers pw of r."""
    return {m: v for m, u in A.items() if (v := sum(map(mul, u, pw)) % p)}


def _last_degree_bound(A: dict, B: dict, da: int, db: int, p: int, rng: random.Random) -> int:
    """An upper bound on deg_{x_n} gcd(A, B), for A, B split by _split into
    da and db coefficients: at a point where a leading coefficient in x_n
    stays nonzero, the GCD keeps its degree and divides the images' GCD."""
    while True:
        pt = [rng.randrange(1, p) for _ in next(iter(A))]
        fa, fb = _collapse(A, pt, da, p), _collapse(B, pt, db, p)
        if len(fa) == da or len(fb) == db:
            return min(len(_ugcd(fa, fb, p)), da, db) - 1


def _collapse(A: dict, pt: list[int], width: int, p: int) -> list[int]:
    """A at x_1..x_{n-1} = pt, as a univariate polynomial in x_n."""
    out = [0] * width
    for m, u in A.items():
        w = 1
        for x, e in zip(pt, m):
            w = w * pow(x, e, p) % p
        for i, c in enumerate(u):
            out[i] += w * c
    return _trim([c % p for c in out])


# Univariate polynomials mod p are coefficient lists, constant term first,
# with no trailing zeros; [] is zero.


def _trim(u: list[int]) -> list[int]:
    while u and not u[-1]:
        u.pop()
    return u


def _umul(u: list[int], w: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(w) - 1)
    for i, c in enumerate(u):
        for j, d in enumerate(w):
            out[i + j] += c * d
    return [c % p for c in out]


def _uquo(u: list[int], w: list[int], p: int) -> list[int]:
    """The quotient u / w, for monic w dividing u."""
    u = u[:]
    dw = len(w) - 1
    q = [0] * (len(u) - dw)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = u[k + dw] % p
        for i in range(dw):
            u[k + i] -= c * w[i]
    return q


def _ugcd(u: list[int], w: list[int], p: int) -> list[int]:
    """Monic GCD; gcd(0, 0) is 0.  Remainders stay unreduced within a step."""
    while w:
        inv = pow(w[-1], -1, p)
        dw = len(w) - 1
        low = w[:-1]
        u = u[:]
        while len(u) > dw:
            c = u.pop() * inv % p
            if c:
                k = len(u) - dw
                u[k:] = [x - c * y for x, y in zip(u[k:], low)]
        u, w = w, _trim([x % p for x in u])
    inv = pow(u[-1], -1, p) if u else 0
    return [c * inv % p for c in u]


def _ucontent(A: dict[Monomial, list[int]], p: int) -> list[int]:
    """Monic GCD of the coefficients of A."""
    g: list[int] = []
    for u in sorted(A.values(), key=len):
        if len(g := _ugcd(g, u, p)) == 1:
            break
    return g
