import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p34eq.expr.atoms import gen_sort_key
from p34eq.expr.poly import (
    _SCREEN_PRIME,
    _W,
    ExactDivisionError,
    Poly,
    _modular_gcd,
    _point,
    _prime,
    coprime_images,
    poly_gcd,
    unit_gens,
    univariate_image,
)
from p34eq.expr import ratfunc
from p34eq.expr.ratfunc import RatFunc, _cofactors, _Factor


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
                a = Poly.gen(u).scale(rng.randint(1, 9)) + Poly.const(rng.randint(-9, 9))
                b = Poly.gen(v).scale(rng.randint(1, 9)) + Poly.const(rng.randint(-9, 9))
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


def test_gcd_coprime_exit_checks_every_shared_generator():
    # The GCD is free of x, so every image in x alone is coprime.
    x, z, one = Poly.gen("x"), Poly.gen("z"), Poly.const(1)
    assert _modular_gcd(*Poly.aligned((z + one) * x, (z + one) * (x + one))) == z + one
    two, three = Poly.const(2), Poly.const(3)
    assert poly_gcd((z + one) * (x + two), (z + one) * (x + three)) == z + one


def test_gcd_coprime_exit_skips_a_prime_dividing_a_leading_coefficient():
    # Modulo the prime p of the images, g = p*z + 1 is 1, so both images
    # are coprime.
    x, z = Poly.gen("x"), Poly.gen("z")
    g = z.scale(_SCREEN_PRIME) + Poly.const(1)
    assert poly_gcd(g * (x + Poly.const(2)), g * (x + Poly.const(3))) == g


def screen(a, b):
    """Whether the images of a and b prove them coprime."""
    shared = [v for v in a.gens if v in b.gens]
    return coprime_images(partial(univariate_image, a), partial(univariate_image, b), shared)


def test_screen_never_proves_a_planted_factor_coprime():
    rng = random.Random(4181)
    gens = ("x", "y", "a", "b")
    for n in range(1, 5):
        done = 0
        while done < 40:
            g, u, w = (rand_poly(rng, gens[:n], 2, 3) for _ in range(3))
            if g.is_const or u.is_zero or w.is_zero:
                continue
            assert not screen(g * u, g * w)
            done += 1


def test_screen_refuses_images_whose_leading_coefficient_vanishes():
    # g = (x - px)(y - py) + 1 has its leading coefficient in x vanish at
    # y = py, and the one in y at x = px, so its images in x and in y are
    # both 1, and the cofactors' images are coprime: only the vanishing
    # leading coefficients of g * u and g * w show that the images lost g.
    x, y, one = Poly.gen("x"), Poly.gen("y"), Poly.const(1)
    px, py = Poly.const(_point("x")), Poly.const(_point("y"))
    g = (x - px) * (y - py) + one
    u, w = x + y + Poly.const(2), x - y + Poly.const(3)
    assert not screen(g * u, g * w)
    assert poly_gcd(g * u, g * w) == g
    assert univariate_image(g, "x") is None and univariate_image(g, "y") is None


def test_screen_says_coprime_only_of_coprime_pairs():
    rng = random.Random(6765)
    gens = ("x", "y", "a", "b")
    said = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b = (rand_poly(rng, gens[: rng.randint(1, n)], 2, rng.randint(1, 4), 3)
                for _ in range(2))
        if a.is_const or b.is_const:
            continue
        if rng.random() < 0.3:
            g = rand_poly(rng, gens[:n], 1, 2, 3)
            if not g.is_zero:
                a, b = a * g, b * g
        if screen(a, b):
            said += 1
            assert poly_gcd(a, b).is_const
    assert said > 100


def test_unit_gens_of_small_polynomials():
    x, y, k, one = Poly.gen("x"), Poly.gen("y"), Poly.gen("k"), Poly.const(1)
    assert unit_gens(x + y + one) == ("x", "y")
    assert unit_gens(x * y + one) == ("x", "y")  # the constant term is x^0 and y^0
    assert unit_gens(x.scale(2) + y.scale(3)) == ("x", "y")
    assert unit_gens(x * x * y + x + y) == ("x",)  # x alone has x-degree 1
    assert unit_gens(x * y + x + y) == ()
    assert unit_gens(x * k + y * k) == ()
    assert unit_gens(x * k + y * k + k * k) == ("k",)


def test_a_factor_finds_its_unit_gens_when_first_screened():
    x, y, one = Poly.gen("x"), Poly.gen("y"), Poly.const(1)
    a, b = _Factor(x * y + x + one), _Factor(x - y)
    assert a.units is None and b.units is None
    _cofactors(a, b)
    assert a.units == unit_gens(a.poly) == ("x",)  # its x-free part is 1
    assert b.units == ("x", "y")


def test_cofactors_never_prove_a_planted_factor_coprime():
    rng = random.Random(2584)
    gens = ("x", "y", "a", "b")
    for n in range(1, 5):
        done = 0
        while done < 40:
            g, u, w = (rand_poly(rng, gens[:n], 2, 3) for _ in range(3))
            if g.is_const or u.is_zero or w.is_zero:
                continue
            pa, pb = (g * u).primitive()[1], (g * w).primitive()[1]
            h, ca, cb = _cofactors(_Factor(pa), _Factor(pb))
            assert not h.is_const
            assert h * ca == pa and h * cb == pb
            done += 1


def test_cofactors_fall_back_to_every_shared_generator(monkeypatch):
    # Neither polynomial has an integer coefficient in x or in y, so no one
    # generator holds every divisor; the images in both are needed.
    x, y = Poly.gen("x"), Poly.gen("y")
    a, b = x * y + x + y, x * y + x.scale(2) + y.scale(3)
    c = x * y + x.scale(5) + y.scale(7)
    assert unit_gens(a) == unit_gens(b) == unit_gens(a * c) == unit_gens(b * c) == ()
    images = []
    real = ratfunc.univariate_image
    monkeypatch.setattr(ratfunc, "univariate_image", lambda p, v: images.append(v) or real(p, v))
    assert _cofactors(_Factor(a), _Factor(b)) == (Poly.const(1), a, b)
    assert sorted(images) == ["x", "x", "y", "y"]
    assert _cofactors(_Factor(a * c), _Factor(b * c)) == (c, a, b)


def test_a_unit_gen_the_other_factor_lacks_proves_coprime_without_images(monkeypatch):
    x, y, one = Poly.gen("x"), Poly.gen("y"), Poly.const(1)
    images = []
    real = ratfunc.univariate_image
    monkeypatch.setattr(ratfunc, "univariate_image", lambda p, v: images.append(v) or real(p, v))
    assert _cofactors(_Factor(y + x), _Factor(x + one)) == (one, y + x, x + one)
    assert images == []
    # x + y against x - y + 1: each has a unit gen, and the other holds
    # it, so one image of each, in the first
    assert _cofactors(_Factor(x + y), _Factor(x - y + one))[0] == one
    assert images == ["x", "x"]


def test_images_depend_on_generator_names_alone():
    # A generator takes the same point in every polynomial, whatever else
    # it holds and whenever it is built.
    x, y, z = Poly.gen("x"), Poly.gen("y"), Poly.gen("z")
    px = _point("x")
    assert univariate_image(x * y + z, "y") == [_point("z"), px]
    assert univariate_image(x * y + Poly.const(1), "y") == [1, px]
    assert 0 < px < _SCREEN_PRIME and px != _point("y")


def test_exponents_never_wrap():
    big = Poly.gen("x", 2 ** (_W - 2))
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        (big * Poly.gen("y") + Poly.const(1)) ** 2
    with pytest.raises(OverflowError):
        Poly.gen("x", 2 ** (_W - 1))
    with pytest.raises(OverflowError):
        big.remap_gen("x", "x^(1/2)", 2)
    top = Poly.gen("x", 2 ** (_W - 2) - 1) * Poly.gen("y", 3)
    assert (top * top).leading() == ((2 ** (_W - 1) - 2, 6), 1)


# ----- the packed core against a tuple-keyed reference ------------------------
#
# A reference polynomial is (sorted generators, {exponent tuple: coefficient})
# with no unused generator; every operation inserts its terms in the order
# Poly's does, and the tests compare the terms as lists, order included.

GENS = ("x", "y", "a", "b", "c", "d")


@st.composite
def tuple_terms(draw, max_exp=3):
    n = draw(st.integers(1, len(GENS)))
    gens = tuple(draw(st.permutations(GENS))[:n])
    monos = st.tuples(*[st.integers(0, max_exp)] * n)
    terms = draw(st.dictionaries(monos, st.integers(-9, 9), min_size=1, max_size=6))
    return gens, terms


def _acc(out, m, c):
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def ref_compress(gens, terms):
    keep = [i for i in range(len(gens)) if any(m[i] for m in terms)]
    return tuple(gens[i] for i in keep), {tuple(m[i] for i in keep): c for m, c in terms.items()}


def ref_from_terms(gens, terms):
    order = sorted(range(len(gens)), key=lambda i: gen_sort_key(gens[i]))
    out = {}
    for m, c in terms.items():
        if c:
            _acc(out, tuple(m[i] for i in order), c)
    return ref_compress(tuple(gens[i] for i in order), out)


def ref_embed(ref, gens):
    pos = [gens.index(g) for g in ref[0]]
    out = {}
    for m, c in ref[1].items():
        new = [0] * len(gens)
        for i, e in zip(pos, m):
            new[i] = e
        out[tuple(new)] = c
    return gens, out


def ref_aligned(r1, r2):
    union = tuple(sorted(set(r1[0]) | set(r2[0]), key=gen_sort_key))
    return ref_embed(r1, union), ref_embed(r2, union)


def ref_mul(r1, r2):
    if not r1[1] or not r2[1]:
        return (), {}
    (gens, a), (_, b) = ref_aligned(r1, r2)
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _acc(out, tuple(map(sum, zip(m1, m2))), c1 * c2)
    return gens, out


def ref_divmod(r1, r2):
    """Lex division with the leads found by a scan, stopping as Poly does."""
    (gens, a), (_, b) = ref_aligned(r1, r2)
    room = [max(col_a) - max(col_b) for col_a, col_b in zip(zip(*a), zip(*b))]
    if min(room, default=0) < 0:
        return ((), {}), r1
    lm = max(b)
    rem, q = dict(a), {}
    while rem:
        k = max(rem)
        d = tuple(e - f for e, f in zip(k, lm))
        if any(e < 0 or e > r for e, r in zip(d, room)) or rem[k] % b[lm]:
            break
        coeff = q[d] = rem.pop(k) // b[lm]
        for m, c in b.items():
            if m != lm:
                _acc(rem, tuple(map(sum, zip(m, d))), -coeff * c)
    return ref_compress(gens, q), ref_compress(gens, rem)


def ref_deriv(ref, i):
    out = {}
    for m, c in ref[1].items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
    return ref_compress(ref[0], out)


def test_divmod_stops_at_the_quotient_bound():
    # The next quotient term, x*y^2, exceeds deg_y(a) - deg_y(b) = 0.
    x, y = Poly.gen("x"), Poly.gen("y")
    q, r = (x**3 + y**2).divmod_by(x + y**2)
    assert q == x**2 and r == y**2 - x**2 * y**2


def as_ref(p):
    return p.gens, list(p.monomials())


def as_dict(p):
    return p.gens, dict(p.monomials())


def same(p, ref):
    return as_ref(p) == (ref[0], list(ref[1].items()))


PACKED = settings(max_examples=60, deadline=None)


@PACKED
@given(tuple_terms())
def test_packed_from_terms_and_lex_order(t):
    p, ref = Poly.from_terms(*t), ref_from_terms(*t)
    assert same(p, ref)
    assert p.sorted_terms() == sorted(ref[1].items(), reverse=True)
    assert p.leading() == (max(ref[1].items()) if ref[1] else ((), 0))


@PACKED
@given(tuple_terms(), tuple_terms())
def test_packed_mul_and_alignment(t1, t2):
    p1, p2 = Poly.from_terms(*t1), Poly.from_terms(*t2)
    r1, r2 = ref_from_terms(*t1), ref_from_terms(*t2)
    assert same(p1 * p2, ref_mul(r1, r2))
    for p, ref in zip(Poly.aligned(p1, p2), ref_aligned(r1, r2)):
        assert same(p, ref)


@PACKED
@given(tuple_terms(), tuple_terms(), tuple_terms())
def test_packed_divmod(t1, t2, t3):
    f, g, h = (Poly.from_terms(*t) for t in (t1, t2, t3))
    assume(not g.is_zero)
    for a in (f * g, f * g + h, h):
        q, r = a.divmod_by(g)
        rq, rr = ref_divmod(as_dict(a), as_dict(g))
        assert same(q, rq) and same(r, rr)
    assert (f * g).exact_div(g) == f


@PACKED
@given(tuple_terms(max_exp=4), st.data())
def test_packed_deriv_remap_and_shift_down(t, data):
    p, ref = Poly.from_terms(*t), ref_from_terms(*t)
    for i, g in enumerate(ref[0]):
        assert same(p.deriv(g), ref_deriv(ref, i))
    g = data.draw(st.sampled_from(ref[0] or ("x",)))
    factor = data.draw(st.integers(1, 4))
    if g in ref[0]:
        i = ref[0].index(g)
        gens = ref[0][:i] + (g + f"^(1/{factor + 1})",) + ref[0][i + 1 :]
        remapped = gens, {m[:i] + (m[i] * factor,) + m[i + 1 :]: c for m, c in ref[1].items()}
        assert same(p.remap_gen(g, gens[i], factor), remapped)
    shifts = {h: data.draw(st.integers(0, 2)) for h in ref[0]}
    down = {tuple(e - shifts[h] for h, e in zip(ref[0], m)): c for m, c in ref[1].items()}
    if all(e >= 0 for m in down for e in m):
        assert same(p.shift_down(shifts), ref_compress(ref[0], down))
    else:
        with pytest.raises(ExactDivisionError):
            p.shift_down(shifts)
