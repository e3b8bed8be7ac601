"""Sparse multivariate polynomials over the integers.

Generators are identified by name strings and kept in a canonical sorted
order inside each polynomial; binary operations align generator tuples on
the fly.  The module is a plain commutative ring Z[gens]: any algebraic
meaning of a generator (radical atoms and the like) lives one layer up, in
atoms.py, and so does any rational content, in RatFunc's coefficient.

Coefficients are Python ints.  Constructors accept integer-valued rationals
and store them as ints; a non-integer coefficient raises ValueError.

Division is exact division in Z[gens].  By a primitive divisor it succeeds
exactly when the rational quotient exists (Gauss's lemma), and the first
leading coefficient that the divisor's does not divide proves it inexact.

poly_gcd returns the primitive GCD with a positive leading coefficient.  It
tries, in order:

- monomial: common monomial factors split off first;
- divides: one argument divides the other;
- mod-p screen: univariate images modulo 2^61 - 1 at random points prove
  coprimality;
- heuristic: GCDHEU (Char, Geddes and Gonnet 1984), evaluation at a large
  integer and reconstruction from its digits, checked by exact division;
- PRS: the subresultant polynomial remainder sequence, recursing on the
  number of variables.
"""

from __future__ import annotations

from math import gcd as int_gcd
from operator import add, lt, sub
from typing import Iterable, Mapping

from .atoms import gen_sort_key

Monomial = tuple[int, ...]


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

    def __init__(self, gens: tuple[str, ...], terms: Mapping[Monomial, int]):
        # Constructor trusts its input; use the factory helpers below.
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # ----- construction -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly((), {})

    @staticmethod
    def const(c) -> "Poly":
        c = _int_coeff(c)
        return Poly((), {(): c} if c else {})

    @staticmethod
    def gen(name: str, exp: int = 1, coeff=1) -> "Poly":
        coeff = _int_coeff(coeff)
        if not coeff:
            return Poly.zero()
        if exp == 0:
            return Poly.const(coeff)
        return Poly((name,), {(exp,): coeff})

    @staticmethod
    def from_terms(gens: Iterable[str], terms: Mapping[Monomial, int]) -> "Poly":
        """Build from possibly unsorted generators and unpruned terms."""
        gens = tuple(gens)
        order = sorted(range(len(gens)), key=lambda i: gen_sort_key(gens[i]))
        sorted_gens = tuple(gens[i] for i in order)
        out: dict[Monomial, int] = {}
        for mono, c in terms.items():
            c = _int_coeff(c)
            if not c:
                continue
            new = tuple(mono[i] for i in order)
            acc = out.get(new)
            s = c if acc is None else acc + c
            if s:
                out[new] = s
            else:
                out.pop(new, None)
        return Poly(sorted_gens, out)._compress()

    def _compress(self) -> "Poly":
        """Drop generators that no term uses."""
        if not self.gens:
            return self
        used = [False] * len(self.gens)
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used[i] = True
        if all(used):
            return self
        keep = [i for i, u in enumerate(used) if u]
        gens = tuple(self.gens[i] for i in keep)
        terms = {tuple(m[i] for i in keep): c for m, c in self.terms.items()}
        return Poly(gens, terms)

    # ----- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def const_value(self) -> int:
        if self.is_zero:
            return 0
        if not self.is_const:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree(self, name: str) -> int:
        if name not in self.gens:
            return 0
        i = self.gens.index(name)
        return max((m[i] for m in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical (descending lexicographic) order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def leading(self) -> tuple[Monomial, int]:
        if self.is_zero:
            return (), 0
        m = max(self.terms)
        return m, self.terms[m]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._compress(), other._compress()
        return a.gens == b.gens and a.terms == b.terms

    def __hash__(self):
        p = self._compress()
        return hash((p.gens, frozenset(p.terms.items())))

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
        pos = {g: i for i, g in enumerate(gens)}
        idx = [pos[g] for g in self.gens]
        n = len(gens)
        terms = {}
        for mono, c in self.terms.items():
            new = [0] * n
            for i, e in enumerate(mono):
                new[idx[i]] = e
            terms[tuple(new)] = c
        return Poly(gens, terms)

    @staticmethod
    def aligned(a: "Poly", b: "Poly") -> tuple["Poly", "Poly"]:
        if a.gens == b.gens:
            return a, b
        union = tuple(sorted(set(a.gens) | set(b.gens), key=gen_sort_key))
        return a.embed(union), b.embed(union)

    def remap_gen(self, name: str, new_name: str, factor: int) -> "Poly":
        """Replace generator ``name`` by ``new_name ** factor``.

        Used when two polynomials carry different root atoms of the same
        base (e.g. y vs y^(1/3)) and must be rebased to a common one.
        """
        if name not in self.gens or self.is_zero:
            return self
        i = self.gens.index(name)
        gens = list(self.gens)
        gens[i] = new_name
        terms = {}
        for mono, c in self.terms.items():
            m = list(mono)
            m[i] = m[i] * factor
            terms[tuple(m)] = c
        return Poly.from_terms(gens, terms)

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
        terms: dict[Monomial, int] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(map(add, m1, m2))
                acc = terms.get(m)
                s = c1 * c2 if acc is None else acc + c1 * c2
                if s:
                    terms[m] = s
                elif acc is not None:
                    del terms[m]
        return Poly(a.gens, terms)

    def scale(self, c) -> "Poly":
        c = _int_coeff(c)
        if not c:
            return Poly.zero()
        if c == 1:
            return self
        return Poly(self.gens, {m: c * v for m, v in self.terms.items()})

    def mul_monomial(self, mono: Monomial, coeff: int = 1) -> "Poly":
        """Multiply by coeff * gens**mono (mono aligned to self.gens)."""
        if not coeff:
            return Poly.zero()
        return Poly(
            self.gens,
            {tuple(e + d for e, d in zip(m, mono)): c * coeff for m, c in self.terms.items()},
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def deriv(self, name: str) -> "Poly":
        """Formal partial derivative with respect to one generator."""
        if name not in self.gens:
            return Poly.zero()
        i = self.gens.index(name)
        terms = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            m = list(mono)
            m[i] = e - 1
            terms[tuple(m)] = c * e
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
        if self.leading()[1] < 0:
            c = -c
        if c == 1:
            return 1, self
        return c, Poly(self.gens, {m: v // c for m, v in self.terms.items()})

    def monomial_content(self) -> dict[str, int]:
        """Per-generator minimum exponent over all terms."""
        if self.is_zero:
            return {}
        mins: list[int] | None = None
        for mono in self.terms:
            if mins is None:
                mins = list(mono)
            else:
                for i, e in enumerate(mono):
                    if e < mins[i]:
                        mins[i] = e
        assert mins is not None
        return {g: e for g, e in zip(self.gens, mins) if e}

    def shift_down(self, shifts: dict[str, int]) -> "Poly":
        """Divide by the monomial prod(g**shifts[g]); must divide exactly."""
        if not shifts:
            return self
        delta = tuple(-shifts.get(g, 0) for g in self.gens)
        out = self.mul_monomial(delta)
        if any(e < 0 for m in out.terms for e in m):
            raise ExactDivisionError("monomial does not divide polynomial")
        return out._compress()

    # ----- division -----------------------------------------------------

    def divmod_by(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Division in Z[gens] under the term order.

        Stops at the first remainder lead that the divisor's lead does not
        divide, as a monomial or as an integer.  For exact quotients (the
        only use in this package) the remainder is zero; otherwise the
        returned remainder is nonzero.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = Poly.aligned(self, other)
        gens = a.gens
        lm, lc = b.leading()
        bterms = b.terms
        rem = dict(a.terms)
        q_terms: dict[Monomial, int] = {}
        while rem:
            rm = max(rem)
            if any(map(lt, rm, lm)):
                break
            coeff, r = divmod(rem[rm], lc)
            if r:
                break
            # Leads strictly decrease, so each quotient monomial occurs once.
            diff = tuple(map(sub, rm, lm))
            q_terms[diff] = coeff
            for m2, c2 in bterms.items():
                m = tuple(map(add, diff, m2))
                v = rem.get(m, 0) - coeff * c2
                if v:
                    rem[m] = v
                else:
                    rem.pop(m, None)
        q = Poly(gens, q_terms)._compress()
        r = Poly(gens, rem)._compress()
        return q, r

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

    # ----- evaluation ---------------------------------------------------

    def eval(self, values: Mapping[str, float], coeff=1) -> float:
        """Numeric value of coeff * self; every generator must be in values.

        coeff is an int or a Fraction.  Each term starts from the correctly
        rounded float of its rational coefficient coeff * c (int true
        division rounds correctly), so the sum does not depend on how that
        rational is split between coeff and c.
        """
        p, q = coeff.numerator, coeff.denominator
        total = 0.0
        vals = [float(values[g]) for g in self.gens]
        for mono, c in self.terms.items():
            v = (p * c) / q
            for i, e in enumerate(mono):
                if e:
                    v *= vals[i] ** e
            total += v
        return total

    def eval_abs(self, values: Mapping[str, float], coeff=1) -> float:
        """Sum of |term| values of coeff * self; a magnitude scale for
        relative tolerances, term floats rounded as in eval."""
        p, q = coeff.numerator, coeff.denominator
        total = 0.0
        vals = [abs(float(values[g])) for g in self.gens]
        for mono, c in self.terms.items():
            v = abs((p * c) / q)
            for i, e in enumerate(mono):
                if e:
                    v *= vals[i] ** e
            total += v
        return total


# ----- GCD ---------------------------------------------------------------


def _univar(p: Poly, name: str) -> dict[int, Poly]:
    """View p as univariate in ``name`` with Poly coefficients."""
    i = p.gens.index(name)
    rest = p.gens[:i] + p.gens[i + 1 :]
    coeffs: dict[int, dict[Monomial, int]] = {}
    for mono, c in p.terms.items():
        e = mono[i]
        m = mono[:i] + mono[i + 1 :]
        coeffs.setdefault(e, {})[m] = c
    return {e: Poly(rest, t)._compress() for e, t in coeffs.items()}


def _from_univar(coeffs: dict[int, Poly], name: str) -> Poly:
    out = Poly.zero()
    for e, c in coeffs.items():
        out = out + c * Poly.gen(name, e)
    return out


def _uni_degree(c: dict[int, Poly]) -> int:
    return max(c, default=-1)


def _uni_lc(c: dict[int, Poly]) -> Poly:
    return c[_uni_degree(c)]


def _uni_prem(f: dict[int, Poly], g: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder: lc(g)**(deg f - deg g + 1) * f  mod  g."""
    df, dg = _uni_degree(f), _uni_degree(g)
    lg = _uni_lc(g)
    n = df - dg + 1
    r = dict(f)
    while True:
        dr = _uni_degree(r)
        if dr < dg:
            break
        lr = r[dr]
        n -= 1
        new: dict[int, Poly] = {}
        for e, p in r.items():
            if e != dr:
                new[e] = p * lg
        for e, p in g.items():
            if e != dg:
                k = e + (dr - dg)
                prod = p * lr
                acc = new.get(k)
                v = -prod if acc is None else acc - prod
                if v.is_zero:
                    new.pop(k, None)
                else:
                    new[k] = v
        r = new
    if n > 0 and r:
        scale = lg**n
        r = {e: p * scale for e, p in r.items()}
    return r


def _uni_content(f: dict[int, Poly]) -> Poly:
    c = Poly.zero()
    for p in f.values():
        c = poly_gcd(c, p)
        if c.is_const and not c.is_zero:
            break
    return c


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

    a = a._compress()
    b = b._compress()
    if a.gens == b.gens and a.terms == b.terms:
        return a.primitive()[1]

    # Monomial factors split off cheaply and keep the PRS small.
    am, bm = a.monomial_content(), b.monomial_content()
    common = {g: min(e, bm.get(g, 0)) for g, e in am.items() if bm.get(g, 0)}
    common = {g: e for g, e in common.items() if e}
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
    shared = [g for g in a.gens if g in b.gens and a.degree(g) > 0 and b.degree(g) > 0]
    if not shared:
        return Poly.const(1)
    # Quick exits: one argument divides the other.
    if a.total_degree() <= b.total_degree() and a.divides(b):
        return a
    if b.total_degree() < a.total_degree() and b.divides(a):
        return b
    if _probably_coprime(a, b, shared):
        return Poly.const(1)
    heu = _heuristic_gcd(a, b)
    if heu is not None:
        return heu
    # Main variable: smallest combined degree keeps the PRS short.
    main = min(shared, key=lambda g: (min(a.degree(g), b.degree(g)), gen_sort_key(g)))
    fu, gu = _univar(a, main), _univar(b, main)
    if _uni_degree(fu) < _uni_degree(gu):
        fu, gu = gu, fu
    cf, cg = _uni_content(fu), _uni_content(gu)
    fu = {e: p.exact_div(cf) for e, p in fu.items()}
    gu = {e: p.exact_div(cg) for e, p in gu.items()}
    cont = poly_gcd(cf, cg) if not (cf.is_const and cg.is_const) else Poly.const(1)

    prs = _subresultant_prs(fu, gu)
    if _uni_degree(prs) == 0:
        pp = Poly.const(1)
    else:
        c = _uni_content(prs)
        pp = _from_univar({e: p.exact_div(c) for e, p in prs.items()}, main)
    result = (pp * cont).primitive()[1]
    # Subresultant theory guarantees this; the check guards implementation bugs.
    if not (result.divides(a) and result.divides(b)):
        raise ArithmeticError("internal GCD verification failed")
    return result


def _subresultant_prs(f: dict[int, Poly], g: dict[int, Poly]) -> dict[int, Poly]:
    """Last nonzero element of the subresultant PRS of f, g (deg f >= deg g)."""
    one = Poly.const(1)
    h = one
    gc = one
    while True:
        d = _uni_degree(f) - _uni_degree(g)
        r = _uni_prem(f, g)
        if not r:
            return g
        divisor = gc * (h**d) if d else gc
        f, g = g, {e: p.exact_div(divisor) for e, p in r.items()}
        gc = _uni_lc(f)
        if d == 1:
            h = gc
        elif d > 1:
            h = (gc**d).exact_div(h ** (d - 1))


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero()
    return (a * b).exact_div(poly_gcd(a, b))


# ----- modular coprimality screen ------------------------------------------
#
# Before running an expensive GCD, reduce both polynomials to univariate
# images modulo a large prime at fixed pseudo-random points.  If for every
# shared variable the univariate gcd is constant, the true gcd is constant.
# An unlucky evaluation can only make the image gcd LARGER (degree drop of
# the cofactors), never smaller, except when the true gcd's leading
# coefficient vanishes at the sample; with a 61-bit prime that event is
# negligible, and its only consequence would be a missed reduction, never a
# wrong value.

_SCREEN_PRIME = (1 << 61) - 1


def _mod_univar(p: Poly, main: str, values: dict[str, int]) -> list[int]:
    """Dense coefficient list of p mod the screen prime, main var symbolic."""
    i = p.gens.index(main)
    deg = p.degree(main)
    out = [0] * (deg + 1)
    for mono, c in p.terms.items():
        v = c % _SCREEN_PRIME
        for k, e in enumerate(mono):
            if e and k != i:
                v = v * pow(values[p.gens[k]], e, _SCREEN_PRIME) % _SCREEN_PRIME
        out[mono[i]] = (out[mono[i]] + v) % _SCREEN_PRIME
    while out and out[-1] == 0:
        out.pop()
    return out


def _mod_gcd_degree(fa: list[int], fb: list[int]) -> int:
    """Degree of gcd of two dense polynomials over the screen prime field."""
    a, b = fa[:], fb[:]
    while b:
        inv = pow(b[-1], -1, _SCREEN_PRIME)
        db = len(b) - 1
        while len(a) - 1 >= db and a:
            if a[-1] == 0:
                a.pop()
                continue
            shift = len(a) - 1 - db
            factor = a[-1] * inv % _SCREEN_PRIME
            for k in range(len(b)):
                a[shift + k] = (a[shift + k] - factor * b[k]) % _SCREEN_PRIME
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1 if a else -1


def _probably_coprime(a: Poly, b: Poly, shared: list[str]) -> bool:
    import random as _random

    rng = _random.Random("coprimality-screen")
    union = sorted(set(a.gens) | set(b.gens), key=gen_sort_key)
    for main in shared:
        values = {g: rng.randrange(2, _SCREEN_PRIME - 1) for g in union}
        fa = _mod_univar(a, main, values)
        fb = _mod_univar(b, main, values)
        if not fa or not fb:
            return False  # unlucky vanishing; let the exact path decide
        if _mod_gcd_degree(fa, fb) != 0:
            return False
    return True


# ----- heuristic GCD -------------------------------------------------------
#
# Evaluate at a large integer, take the gcd there, and rebuild coefficients
# from balanced base-xi digits, verifying by exact division.  Usually far
# faster than the PRS on several variables; on failure the caller falls
# back to the subresultant path.


def _max_norm(p: Poly) -> int:
    return max(abs(c) for c in p.terms.values())


def _eval_gen_int(p: Poly, name: str, xi: int) -> Poly:
    """Substitute the integer xi for one generator."""
    if name not in p.gens:
        return p
    i = p.gens.index(name)
    rest = p.gens[:i] + p.gens[i + 1 :]
    terms: dict[Monomial, int] = {}
    powers: dict[int, int] = {0: 1}
    for mono, c in p.terms.items():
        e = mono[i]
        if e not in powers:
            powers[e] = xi**e
        key = mono[:i] + mono[i + 1 :]
        v = c * powers[e]
        acc = terms.get(key)
        s = v if acc is None else acc + v
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return Poly(rest, terms)._compress()


def _smod(n: int, xi: int) -> int:
    r = n % xi
    if 2 * r > xi:
        r -= xi
    return r


def _reconstruct(h: Poly, name: str, xi: int) -> Poly:
    """Invert _eval_gen_int from balanced base-xi digits of the coefficients.

    Digit i of h's coefficient at a monomial is the coefficient of that
    monomial times name**i.
    """
    gens = tuple(sorted(h.gens + (name,), key=gen_sort_key))
    at = gens.index(name)
    terms: dict[Monomial, int] = {}
    for mono, n in h.terms.items():
        head, tail = mono[:at], mono[at:]
        i = 0
        while n:
            d = _smod(n, xi)
            if d:
                terms[head + (i,) + tail] = d
            n = (n - d) // xi
            i += 1
            if i > 2000:
                raise ArithmeticError("runaway digit expansion in heuristic GCD")
    return Poly(gens, terms)._compress()


def _heuristic_gcd(a: Poly, b: Poly, depth: int = 0) -> Poly | None:
    """Char-Geddes-Gonnet heuristic GCD of integer-primitive polynomials."""
    if depth > 8:
        return None
    if a.is_const or b.is_const:
        return Poly.const(1)
    shared = [g for g in a.gens if g in b.gens]
    if not shared:
        return Poly.const(1)
    name = max(shared, key=lambda g: min(a.degree(g), b.degree(g)))
    xi = 2 * min(_max_norm(a), _max_norm(b)) + 29
    xi = max(xi, 101)
    for _ in range(6):
        fa = _eval_gen_int(a, name, xi)
        fb = _eval_gen_int(b, name, xi)
        if fa.is_zero or fb.is_zero:
            xi = xi * 73794 // 27011 + 1
            continue
        if fa.is_const and fb.is_const:
            h0 = Poly.const(int_gcd(fa.const_value(), fb.const_value()))
        else:
            ca, pa = fa.primitive()
            cb, pb = fb.primitive()
            inner = _heuristic_gcd(pa, pb, depth + 1)
            if inner is None:
                return None
            h0 = inner.scale(int_gcd(ca, cb))
        try:
            h = _reconstruct(h0, name, xi).primitive()[1]
        except ArithmeticError:
            return None
        if not h.is_zero and h.divides(a) and h.divides(b):
            return h
        xi = xi * 73794 // 27011 + 1
    return None
