"""Cross-check of the exact core against sympy, on random polynomials in up
to six generators with coefficients up to 10^30 and rational scalars.

sympy is a test-only dependency: without it these tests are skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from p34eq.expr.poly import ExactDivisionError, Poly, poly_gcd
from p34eq.expr.ratfunc import RatFunc

sp = pytest.importorskip("sympy")

GENS = ("x", "y", "a", "b", "c", "d")
SYMS = {g: sp.Symbol(g) for g in GENS}
BIG = 10**30

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def polys(draw, max_terms=3, max_deg=2):
    """A nonzero polynomial over a random subset of the generators."""
    n = draw(st.integers(1, len(GENS)))
    gens = draw(st.permutations(GENS))[:n]
    monos = st.tuples(*[st.integers(0, max_deg)] * n)
    coeffs = st.integers(-BIG, BIG).filter(bool)
    terms = draw(st.dictionaries(monos, coeffs, min_size=1, max_size=max_terms))
    return Poly.from_terms(gens, terms)


scalars = st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG).filter(bool)


def to_sympy(p: Poly):
    return sp.Add(
        *(
            c * sp.Mul(*(SYMS[g] ** e for g, e in zip(p.gens, mono)))
            for mono, c in p.monomials()
        )
    )


def rf_to_sympy(rf: RatFunc):
    coeff = sp.Rational(rf.coeff.numerator, rf.coeff.denominator)
    return coeff * to_sympy(rf.num) / to_sympy(rf.den)


def same_poly(e1, e2) -> bool:
    return sp.expand(e1 - e2) == 0


def assert_int_terms(p: Poly):
    assert all(type(c) is int for c in p.terms.values())


def assert_primitive_positive(p: Poly):
    assert_int_terms(p)
    assert p.content() == 1
    assert p.leading()[1] > 0


def assert_gcd_matches_sympy(a: Poly, b: Poly):
    ours = poly_gcd(a, b)
    assert_primitive_positive(ours)
    theirs = sp.Poly(sp.gcd(to_sympy(a), to_sympy(b)), *SYMS.values()).primitive()[1]
    theirs = theirs.as_expr()
    got = to_sympy(ours)
    assert same_poly(got, theirs) or same_poly(got, -theirs)


@SETTINGS
@given(polys(), polys(), polys())
def test_gcd_matches_sympy_up_to_sign(g, f1, f2):
    assert_gcd_matches_sympy(g * f1, g * f2)


@st.composite
def piv_shaped(draw):
    """Operands shaped like Painleve IV's, a and b standing for alpha and
    beta: generators x, y, a, b, degree up to 6, a shared factor whose
    leading coefficient in x involves a, and b in one operand only."""
    coeffs = st.integers(-BIG, BIG).filter(bool)

    def poly(n, deg):
        monos = st.tuples(*[st.integers(0, deg)] * n)
        terms = draw(st.dictionaries(monos, coeffs, min_size=1, max_size=4))
        return Poly.from_terms(GENS[:n], terms)

    ax = Poly.from_terms(("x", "a"), {(1, 1): draw(coeffs), (0, 0): draw(coeffs)})
    shared = poly(3, 2) * ax
    return shared * poly(4, 3), shared * poly(3, 3)


@SETTINGS
@given(piv_shaped())
def test_gcd_matches_sympy_on_four_generators(operands):
    assert_gcd_matches_sympy(*operands)


@SETTINGS
@given(polys(), polys(), polys(max_terms=2))
def test_exact_div_matches_sympy_div(f, g, h):
    g = g.primitive()[1]
    q = (g * f).exact_div(g)
    assert_int_terms(q)
    assert same_poly(to_sympy(q), to_sympy(f))

    inexact = g * f + h
    sq, sr = sp.div(to_sympy(inexact), to_sympy(g), *SYMS.values(), domain=sp.QQ)
    if sr == 0:
        assert same_poly(to_sympy(inexact.exact_div(g)), sq)
    else:
        with pytest.raises(ExactDivisionError):
            inexact.exact_div(g)


@SETTINGS
@given(polys(), polys(), polys(), scalars)
def test_ratfunc_matches_sympy_cancel(g, f1, f2, s):
    rf = RatFunc(g * f1, g * f2, s)
    assert type(rf.coeff) is Fraction
    assert_primitive_positive(rf.num)
    assert_primitive_positive(rf.den)
    assert sp.gcd(to_sympy(rf.num), to_sympy(rf.den)) in (1, -1)
    expected = sp.cancel(sp.Rational(s.numerator, s.denominator) * to_sympy(g * f1) / to_sympy(g * f2))
    assert sp.cancel(rf_to_sympy(rf) - expected) == 0


@SETTINGS
@given(polys(), polys(), polys(), polys(), scalars, scalars)
def test_ratfunc_arithmetic_keeps_integer_primitive_parts(n1, d1, n2, d2, s1, s2):
    r1, r2 = RatFunc(n1, d1, s1), RatFunc(n2, d2, s2)
    for out in (r1 + r2, r1 * r2, r1 / r2, -r1, r1.scale(s2), r1**2):
        assert type(out.coeff) is Fraction
        assert_primitive_positive(out.num)
        assert_primitive_positive(out.den)
    assert sp.cancel(rf_to_sympy(r1 + r2) - (rf_to_sympy(r1) + rf_to_sympy(r2))) == 0
    assert sp.cancel(rf_to_sympy(r1 * r2) - rf_to_sympy(r1) * rf_to_sympy(r2)) == 0
