import random
from fractions import Fraction as F

import pytest

from p34eq.expr.poly import ExactDivisionError, Poly, _prime, poly_gcd
from p34eq.expr.ratfunc import RatFunc


def rand_poly(rng, gens, deg, nterms, bound=6):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, deg) for _ in gens)
        terms[mono] = F(rng.randint(-bound, bound))
    return Poly.from_terms(gens, terms)


def test_ring_basics():
    x, y = Poly.gen("x"), Poly.gen("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero
    assert (x + y) ** 2 == x * x + x * y.scale(2) + y * y


def test_exact_division():
    x, y = Poly.gen("x"), Poly.gen("y")
    num = (x + y) ** 3 * (x - y.scale(2))
    q = num.exact_div((x + y) ** 2)
    assert q == (x + y) * (x - y.scale(2))
    with pytest.raises(ExactDivisionError):
        (x * x + y).exact_div(x + y)


def test_content_primitive():
    # Poly holds integers only; rational content lives in RatFunc's coefficient.
    x = Poly.gen("x")
    with pytest.raises(ValueError):
        Poly.const(F(2, 3))
    rf = RatFunc(x.scale(4) + Poly.const(2), coeff=F(1, 3))
    assert rf.coeff == F(2, 3)
    assert rf.num == x.scale(2) + Poly.const(1)
    assert (x.scale(-4) + Poly.const(2)).primitive() == (-2, x.scale(2) - Poly.const(1))


@pytest.mark.parametrize("gens", [("x", "y"), ("x", "y", "b")])
def test_gcd_contains_planted_factor(gens):
    rng = random.Random(20240 + len(gens))
    done = 0
    while done < 25:
        g = rand_poly(rng, gens, 2, 3)
        a = rand_poly(rng, gens, 2, 3)
        b = rand_poly(rng, gens, 2, 3)
        if g.is_zero or a.is_zero or b.is_zero:
            continue
        d = poly_gcd(g * a, g * b)
        assert d.divides(g * a) and d.divides(g * b)
        assert g.primitive()[1].divides(d)
        done += 1


def test_gcd_of_coprime_is_one():
    x, y = Poly.gen("x"), Poly.gen("y")
    assert poly_gcd(x + Poly.const(1), y + Poly.const(2)) == Poly.const(1)
    assert poly_gcd(x * x + Poly.const(1), x + Poly.const(3)) == Poly.const(1)


def test_gcd_zero_and_const_conventions():
    x = Poly.gen("x")
    p = x.scale(2) + Poly.const(4)
    assert poly_gcd(Poly.zero(), p) == x + Poly.const(2)
    assert poly_gcd(p, Poly.const(7)) == Poly.const(1)
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero


def test_gcd_recovers_constructed_factor():
    # Linear cofactors in two different generators are coprime, so the GCD
    # is the constructed factor itself; 10^30 coefficients take several primes.
    rng = random.Random(7321)
    for gens in (("x", "y"), ("x", "y", "b"), ("x", "y", "a", "b")):
        for bound in (6, 10**30):
            done = 0
            while done < 6:
                g = rand_poly(rng, gens, 3, 4, bound)
                if g.is_const:
                    continue
                u, v = rng.sample(gens, 2)
                a = Poly.gen(u, 1, rng.randint(1, 9)) + Poly.const(rng.randint(-9, 9))
                b = Poly.gen(v, 1, rng.randint(1, 9)) + Poly.const(rng.randint(-9, 9))
                assert poly_gcd(g * a, g * b) == g.primitive()[1]
                done += 1


def test_gcd_skips_unlucky_prime():
    # Modulo the first prime p, x + p + 1 is x + 1, so that image GCD is
    # (x + 1) * g, a proper multiple of the GCD g.
    x, y = Poly.gen("x"), Poly.gen("y")
    p = Poly.const(_prime(0))
    g = x * y.scale(3) + y * y - Poly.const(2)
    one = Poly.const(1)
    assert poly_gcd((x + p + one) * g, (x + one) * g) == g
    # A prime that divides a leading coefficient is skipped.
    assert poly_gcd((x * p + one) * g, (x + one) * g) == g


def test_monomial_content_and_shift():
    x, y = Poly.gen("x"), Poly.gen("y")
    p = x * x * y + x * y * y
    mc = p.monomial_content()
    assert mc == {"x": 1, "y": 1}
    assert p.shift_down(mc) == x + y


def test_eval():
    # polynomials evaluate as RatFuncs: the value is 1, the sum of |terms| 7
    x, y = Poly.gen("x"), Poly.gen("y")
    p = RatFunc(x * x + y.scale(-3))
    assert p.eval({"x": 2.0, "y": 1.0}) == 1.0
    assert p.eval_relative({"x": 2.0, "y": 1.0}) == 1.0 / 7.0


def test_deriv():
    x, y = Poly.gen("x"), Poly.gen("y")
    p = x ** 3 * y + y ** 2
    assert p.deriv("x") == x ** 2 * y.scale(3)
    assert p.deriv("y") == x ** 3 + y.scale(2)
    assert p.deriv("z").is_zero
