import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from p34eq.errors import EvalDomainError, EvalPole, UndeclaredSymbolError
from p34eq.expr import (
    Add,
    Const,
    Mul,
    Neg,
    ParamEnv,
    Pow,
    SamplePolicy,
    Sym,
    ZeroStatus,
    is_zero,
    normalize,
    parse,
    ratfunc,
    rf_compose,
    rf_fold_roots,
    rf_pow,
    rf_pow_signfree,
    rf_reduce_roots,
    rf_to_expr,
    rf_to_factored_expr,
    to_ratfunc,
    to_string,
)
from p34eq.expr.atoms import KIND_OPAQUE, KIND_SURD, KIND_SYMBOL, lookup_opaque, parse_gen
from p34eq.expr.poly import Poly, poly_gcd
from p34eq.expr.ratfunc import RatFunc, _root_targets, rebase_poly, reduce_surds
from conftest import random_expr, random_rational_expr, sample_xyb
from helpers import assert_factored, diff, eval_expr, rf, subst


# ----- diff -----------------------------------------------------------------


def test_diff_power_rule():
    assert normalize(diff(parse("b^2/(2*y)"), y=1)) == normalize(parse("-b^2/(2*y^2)"))


def test_diff_constant():
    assert diff(Sym("c"), x=1) == Const(0)


def test_diff_second_y_of_p34_coefficient():
    # d2/dy2 of -2y^2 - xy - b^2/(2y); feeds the A computation
    got = diff(parse("-2*y^2 - x*y - b^2/(2*y)"), y=2)
    assert (to_ratfunc(got) - rf("-4 - b^2/y^3")).is_zero


def test_mixed_partials_commute_exactly():
    rng = random.Random(555)
    for _ in range(10):
        e = random_rational_expr(rng)
        xy = diff(diff(e, x=1), y=1)
        yx = diff(diff(e, y=1), x=1)
        assert (to_ratfunc(xy) - to_ratfunc(yx)).is_zero


def test_diff_matches_central_finite_differences():
    rng = random.Random(808)
    checked = 0
    while checked < 50:
        e = random_rational_expr(rng, symbols=("x", "y"))
        a = sample_xyb(rng)
        h = 1e-6
        try:
            d_sym = eval_expr(diff(e, x=1), a)
            up = eval_expr(e, {**a, "x": a["x"] + h})
            dn = eval_expr(e, {**a, "x": a["x"] - h})
        except (EvalPole, EvalDomainError):
            continue
        d_num = (up - dn) / (2 * h)
        scale = max(1.0, abs(d_sym), abs(d_num))
        if scale > 1e6:  # skip ill-conditioned draws near poles
            continue
        assert abs(d_sym - d_num) / scale < 1e-6
        checked += 1


def test_product_rule_property():
    rng = random.Random(101)
    env = ParamEnv({"b": "nonzero"})
    for _ in range(8):
        e = random_expr(rng)
        f = random_expr(rng)
        lhs = to_ratfunc(diff(Mul((e, f)), y=1))
        rhs = to_ratfunc(diff(e, y=1)) * to_ratfunc(f) + to_ratfunc(e) * to_ratfunc(diff(f, y=1))
        assert is_zero(lhs - rhs, env).is_zero


def test_diff_fractional_powers():
    got = diff(parse("y^(1/3)"), y=1)
    assert (to_ratfunc(got) - rf("1/(3*y^(2/3))")).is_zero


def test_diff_cancels_generator_free_factors_of_the_denominator():
    # The x-free factor k of the denominator cancels against the numerator.
    assert to_ratfunc(parse("(k + x)/(k*x)")).deriv("x") == to_ratfunc(parse("-1/x^2"))


def test_diff_over_a_surd_has_the_right_value():
    # Surd normal forms depend on the path, so only the value is checked.
    want = to_ratfunc(parse("(2/3)*3^(1/3)"))
    assert (to_ratfunc(parse("2*(x - 1)/3^(2/3)")).deriv("x") - want).is_zero
    text = to_string(diff(parse("2*(x - 1)/3^(2/3)"), x=1))
    assert (to_ratfunc(parse(text)) - want).is_zero


def test_diff_reduces_a_surd_denominator():
    # The partial in x refolds its surds: the factor 2^(1/2)*y + 1 stays whole.
    got = to_ratfunc(parse("x*y^(1/3)/(1 + 2^(1/2)*y)")).deriv("x")
    assert to_string(rf_to_expr(got)) == "y^(1/3)/(y*2^(1/2) + 1)"


@pytest.mark.parametrize(
    "a, b, want",
    [
        (
            "(-2*x*2^(1/2) - 1)/((-2*2^(1/2))*(-2*y*2^(1/2)))",
            "(-2*x*2^(1/2) - x)/((-2*2^(1/2))*y)",
            "(x - 1/8)/y",
        ),
        (
            "(2^(1/2) - x)/(-2*x)",
            "3*y*2^(1/2)/((-2*x)*(-3*y*2^(1/2) + 3*y))",
            "((1/2)*x + 1)/x",
        ),
        (
            "(3*y*2^(1/2) - 3)/((2*2^(1/2) - y*2^(1/2))*(-3))",
            "(3*x - y*2^(1/2))/((2*2^(1/2) - y*2^(1/2))*(y*2^(1/2)))",
            "(-(3/2)*x + y^2)/(y^2 - 2*y)",
        ),
        # the common denominator folds to x^2 - 2
        ("1/(x + 2^(1/2))", "1/(x - 2^(1/2))", "2*x/(x^2 - 2)"),
    ],
)
def test_sum_cancels_what_a_surd_fold_leaves_in_common(a, b, want):
    # Over denominators with a common factor g, folding 2^(1/2)^2 = 2 merges
    # monomials and can leave a common factor that gcd(num, g) does not see.
    got = to_ratfunc(parse(a)) + to_ratfunc(parse(b))
    assert poly_gcd(got.num, got.den).is_const
    assert to_string(rf_to_expr(got)) == want


# A reference for + and deriv: unreduced fractions (coeff, num, den) of
# polynomials, reduced once at the end by the RatFunc constructor's full GCD.

_ONE_POLY = Poly.const(1)


def _rebased(*polys):
    targets = _root_targets(g for p in polys for g in p.gens)
    return [rebase_poly(p, targets) for p in polys]


def _frac_mul(a, b):
    an, ad, bn, bd = _rebased(a[1], a[2], b[1], b[2])
    return a[0] * b[0], an * bn, ad * bd


def _frac_add(a, b):
    an, ad, bn, bd = _rebased(a[1], a[2], b[1], b[2])
    m = lcm(a[0].denominator, b[0].denominator)
    ka, kb = int(a[0] * m), int(b[0] * m)
    return F(1, m), an.scale(ka) * bd + bn.scale(kb) * ad, ad * bd


def _frac(rf):
    return rf.coeff, rf.num, rf.den


def _ref_chain(gen, var):
    info = parse_gen(gen)
    if info.kind == KIND_SURD or (info.kind == KIND_SYMBOL and info.base != var):
        return F(0), Poly.zero(), _ONE_POLY
    if info.kind == KIND_SYMBOL:
        return F(1, info.q), _ONE_POLY, Poly.gen(gen, info.q - 1)
    # u = F^(1/q): du = dF * u / (q F)
    base = lookup_opaque(str(info.base))
    u_over_qf = (F(1, info.q) / base.coeff, Poly.gen(gen) * base.den, base.num)
    return _frac_mul(_frac(_ref_deriv(base, var)), u_over_qf)


def _ref_poly_deriv(p, var):
    out = (F(0), Poly.zero(), _ONE_POLY)
    for g in p.gens:
        out = _frac_add(out, _frac_mul((F(1), p.deriv(g), _ONE_POLY), _ref_chain(g, var)))
    return out


def _ref_deriv(rf, var):
    """coeff * (num' * den - num * den') / den^2."""
    dn_d = _frac_mul(_ref_poly_deriv(rf.num, var), (F(1), rf.den, _ONE_POLY))
    n_dd = _frac_mul(_ref_poly_deriv(rf.den, var), (F(-1), rf.num, _ONE_POLY))
    c, num, den = _frac_mul(_frac_add(dn_d, n_dd), (rf.coeff, _ONE_POLY, rf.den * rf.den))
    return RatFunc(num, den, c)


def _ref_sum(a, b):
    c, num, den = _frac_add(_frac(a), _frac(b))
    return RatFunc(num, den, c)


_COMPOUND = to_ratfunc(parse("(x^2 + k*y)^(1/2)")).num.gens[0]


@st.composite
def _operands(draw):
    """A RatFunc over a few of x, y or y^(1/3), k, two prime surds and a
    compound radicand, reduced by the constructor; a denominator that folds
    to zero over the surds, such as 2^(1/2)^2 - 2, is not drawn."""
    y = draw(st.sampled_from(("y", "y^(1/3)")))
    pool = ("x", y, "k", "2^(1/2)", "3^(1/3)", _COMPOUND)
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))

    def poly():
        monos = st.tuples(*[st.integers(0, 2)] * len(gens))
        coeffs = st.integers(-5, 5).filter(bool)
        return Poly.from_terms(gens, draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))

    coeff = draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
    num, den = poly(), poly()
    try:
        return RatFunc(num, den, coeff)
    except ZeroDivisionError:
        reject()


def test_a_denominator_folding_to_zero_raises():
    den = Poly.from_terms(("2^(1/2)",), {(2,): 1, (0,): -2})
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.gen("x"), den)


def _same_values(f, g, rng):
    for _ in range(3):
        point = {"x": rng.uniform(0.5, 2), "y": rng.uniform(0.5, 2), "k": rng.uniform(0.5, 2)}
        try:
            u, v = f.eval(point), g.eval(point)
        except EvalPole:
            continue
        assert abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v))


@settings(max_examples=60, deadline=None)
@given(_operands(), _operands(), st.sampled_from(("x", "y")))
def test_sum_and_deriv_match_a_full_gcd_reference(a, b, var):
    got = [(a + b, _ref_sum(a, b)), (a.deriv(var), _ref_deriv(a, var))]
    if any(parse_gen(g).kind == KIND_SURD for g in a.gens() + b.gens()):
        # Surd normal forms depend on the path: for c = 3^(1/3), twice
        # 1/(c^2 + 1) is 2/(c^2 + 1), while one GCD after folding c^4 = 3c
        # leaves 2*(c^2 + 1)/(2*c^2 + 3*c + 1).  Only values must agree.
        rng = random.Random(7)
        for ours, ref in got:
            assert poly_gcd(ours.num, ours.den).is_const
            _same_values(ours, ref, rng)
    else:
        for ours, ref in got:
            assert ours == ref


def _ref_product(a, b):
    c, num, den = _frac_mul(_frac(a), _frac(b))
    return RatFunc(num, den, c)


def _ref_power(a, n):
    c, num, den = _frac(a) if n > 0 else (1 / a.coeff, a.den, a.num)
    return RatFunc(num ** abs(n), den ** abs(n), c ** abs(n))


_CHAIN_OPS = {
    "+": (lambda a, b: a + b, _ref_sum),
    "-": (lambda a, b: a - b, lambda a, b: _ref_sum(a, -b)),
    "*": (lambda a, b: a * b, _ref_product),
    "/": (lambda a, b: a / b, lambda a, b: _ref_product(a, RatFunc(b.den, b.num, 1 / b.coeff))),
}


def _assert_matches(got, ref, rng):
    """got is ref, or for a surd normal form, which depends on the path, a
    reduced RatFunc of the same values with its surd powers folded; either
    way its factors fit."""
    if any(parse_gen(g).kind == KIND_SURD for g in got.gens()):
        assert poly_gcd(got.num, got.den).is_const
        assert (reduce_surds(got.num), reduce_surds(got.den)) == (got.num, got.den)
        _same_values(got, ref, rng)
    else:
        assert got == ref
    if not got.is_zero:
        assert_factored(got)


@pytest.mark.parametrize("seed", range(8))
def test_chains_match_the_full_gcd_reference(seed):
    # Shared linear factors; a square that enters a denominator when the
    # numerator holding it is inverted; y^(1/3), which rebases y; an x-free
    # denominator factor that d/dx of the numerator can cancel; a prime surd
    # whose square folds.  Operands rebuilt from their expanded parts know
    # no factors, so products split them, and (a + b) - b cancels back to a,
    # up to a rebase.  Each result is paired with its reference, computed
    # from the references of its operands; about half of the results are
    # checked, so expanded, when made and the rest only at the end, after
    # they were operands of later steps unexpanded.
    texts = (
        "(x + 2*y)/(x - y + k)",
        "(x - y + k)*(3*x + 1)/(x + 2*y)^2",
        "(x + 2*y)^2*(y - 1)/(3*x + 1)",
        "k*y/((y - 1)*(x - y + k))",
        "(y^(1/3) + x)/(x + 2*y)",
        "x^2 - 4*y^2",
        "(x*y - x + 1)/(k*(y - 1))",
        "(2^(1/2)*x + 1)/(x + 2*y)",
        "(x - y + k)/(2^(1/2)*x + 1)^2",
    )
    refs = [to_ratfunc(parse(t)) for t in texts]
    refs = [RatFunc(rf.num, rf.den, rf.coeff) for rf in refs]
    pool = [(to_ratfunc(parse(t)), ref) for t, ref in zip(texts, refs)]
    pool += [(RatFunc(ref.num, ref.den, ref.coeff), ref) for ref in refs]
    rng = random.Random(seed)
    deferred = []
    for _ in range(24):
        (a, ra), (b, rb) = rng.sample(pool, 2)
        op = rng.choice(("+", "-", "*", "/", "**", "d", "+-"))
        if op == "**":
            n = rng.choice((-2, -1, 2))
            got, ref = a**n, _ref_power(ra, n)
        elif op == "d":
            var = rng.choice(("x", "y"))
            got, ref = a.deriv(var), _ref_deriv(ra, var)
        elif op == "+-":
            c, num, den = _frac_add(_frac_add(_frac(ra), _frac(rb)), (-rb.coeff, rb.num, rb.den))
            got, ref = (a + b) - b, RatFunc(num, den, c)
        else:
            if op == "/" and rb.is_zero:
                continue
            ours, theirs = _CHAIN_OPS[op]
            got, ref = ours(a, b), theirs(ra, rb)
        if rng.random() < 0.5:
            _assert_matches(got, ref, rng)
        else:
            deferred.append((got, ref))
        if not ref.is_zero and len(ref.num.terms) + len(ref.den.terms) < 120:
            pool.append((got, ref))
    for got, ref in deferred:
        _assert_matches(got, ref, rng)


@pytest.mark.parametrize(
    "chain",
    [
        lambda a, b, c: (a**5 * b) / a,
        lambda a, b, c: (b * a**-2) ** 3 / b**2,
        lambda a, b, c: a / a,
        lambda a, b, c: c * b**-1 * a**2,
        lambda a, b, c: (c / a) ** -2 * -b,
    ],
    ids=["a^5*b/a", "(b/a^2)^3/b^2", "a/a", "c/b*a^2", "-(c/a)^-2*b"],
)
def test_products_and_powers_expand_nothing_until_read(monkeypatch, chain):
    a = to_ratfunc(parse("(x + 1)/(y + 2)"))
    b = to_ratfunc(parse("(x - y)^3/(x + 1)"))
    c = to_ratfunc(parse("(x + 1)/(k*(y + 2))"))
    # The full-GCD reduction of the same value, from the expanded operands.
    ref = chain(*(RatFunc(rf.num, rf.den, rf.coeff) for rf in (a, b, c)))
    ref = RatFunc(ref.num, ref.den, ref.coeff)
    products = []
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or real(p, q))
    got = chain(a, b, c)
    inspected = (got.is_zero, got.is_const, got.is_monomial, got.gens())
    assert products == []
    assert inspected == (ref.is_zero, ref.is_const, ref.is_monomial, ref.gens())
    assert (got.coeff, got.num, got.den) == (ref.coeff, ref.num, ref.den)


def test_monomial_parts_read_the_factors(monkeypatch):
    x, y, k = (to_ratfunc(parse(s)) for s in ("x", "y^(1/3)", "k"))
    got = (x**2 * y).scale(-3) * (k**3 * x) ** -1 * y**-5
    ref = RatFunc(got.num, got.den, got.coeff)
    products = []
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or real(p, q))
    got = (x**2 * y).scale(-3) * (k**3 * x) ** -1 * y**-5
    assert got.is_monomial and not (got * (x + k)).is_monomial
    parts = got.monomial_parts()
    assert products == [] and got._num is None
    assert list(parts[1].items()) == list(ref.monomial_parts()[1].items())
    assert parts == (F(-3), {"x": 1, "k": -3, "y^(1/3)": -4})


def test_operands_without_roots_are_not_rebased(monkeypatch):
    a = to_ratfunc(parse("(x + 1)/(y + 2)"))
    b = to_ratfunc(parse("(x - y)^3/(k*(x + 1))"))
    c = to_ratfunc(parse("x + y^(1/3)"))
    calls = []
    for name in ("_rebased", "_root_targets"):
        real = getattr(ratfunc, name)
        monkeypatch.setattr(ratfunc, name, lambda *args, real=real: calls.append(1) or real(*args))
    got = (a + b) * a - b
    assert calls == []
    assert got == to_ratfunc(parse("((x + 1)/(y + 2) + (x - y)^3/(k*(x + 1)))*(x + 1)/(y + 2)"
                                   " - (x - y)^3/(k*(x + 1))"))
    calls.clear()
    a + c
    assert calls


def test_a_product_expands_only_where_a_surd_power_can_fold():
    s, a, b = (to_ratfunc(parse(t)) for t in ("2^(1/3)", "(x + 1)/(y + 2)", "x + 2^(1/3)"))
    # degree 2 in 2^(1/3) below the line and 1 above it: nothing can fold
    got = s**-2 * a * b
    assert got._num is None and got._den is None
    assert got == RatFunc(got.num, got.den, got.coeff)
    # degree 3 above the line: 2^(1/3)^3 folds to 2
    folded = got * b**2
    assert folded._num is not None
    assert folded == to_ratfunc(parse("(x + 1)*(x + 2^(1/3))^3/((y + 2)*2^(2/3))"))
    assert folded.num.degree("2^(1/3)") == 2


def test_product_of_factors_in_distinct_generators_takes_no_gcd(monkeypatch):
    calls = []
    real = ratfunc.poly_gcd
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
    rf = to_ratfunc(parse("(x + 1)*(y + 2)*(k + 3)"))
    assert calls == []
    assert len(ratfunc._exps(rf)) == 3


# ----- sums that share numerator factors --------------------------------------


@st.composite
def _shared_sums(draw):
    """(a, b, reference of a + b): a and b are products of RatFuncs that
    share numerator factors drawn from one pool, and the reference is
    (num_a den_b + num_b den_a) / (den_a den_b) from the drawn polynomials,
    reduced by the constructor's full GCD."""
    gens = ("x", "y", "k")

    def poly():
        monos = st.tuples(*[st.integers(0, 2)] * 3)
        coeffs = st.integers(-4, 4).filter(bool)
        return Poly.from_terms(gens, draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))

    pool = [poly() for _ in range(draw(st.integers(1, 3)))]
    sides = []
    for _ in range(2):
        coeff = draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
        num, den = poly(), poly()
        got = RatFunc(num) / RatFunc(den)
        for f in pool:
            e = draw(st.integers(0, 3))
            got = got * RatFunc(f) ** e
            num = num * f**e
        sides.append((got.scale(coeff), (coeff, num, den)))
    (a, fa), (b, fb) = sides
    c, num, den = _frac_add(fa, fb)
    return a, b, RatFunc(num, den, c)


@settings(max_examples=80, deadline=None)
@given(_shared_sums())
def test_sums_of_products_with_shared_factors_match_the_reference(case):
    a, b, ref = case
    got = a + b
    assert (got.coeff, got.num, got.den) == (ref.coeff, ref.num, ref.den)
    if not got.is_zero:
        assert_factored(got)


def test_a_sum_keeps_the_shared_factor_and_merges_the_new_numerator_into_it():
    # 2(x + y) + (x + y)(x + y - 2) = (x + y)^2: the new numerator x + y is
    # the shared factor itself.
    got = rf("2*(x + y)") + rf("(x + y)*(x + y - 2)")
    s = Poly.gen("x") + Poly.gen("y")
    assert [(f.poly, e) for f, e in ratfunc._exps(got).items()] == [(s, 2)]
    assert (got.coeff, got.num, got.den) == (1, s * s, _ONE_POLY)


@pytest.mark.parametrize(
    "a, b, kept",
    [
        # the shared factor carries 2^(1/2), the sum folds nothing
        ("(2^(1/2)*x + 1)*(x + y)/(y + 1)", "(2^(1/2)*x + 1)*(x - y)/(y + 1)^2", "2^(1/2)*x + 1"),
        # 2^(1/2)^2 folds in the shared factor times the new numerator
        ("(2^(1/2)*x + 1)*2^(1/2)/(x - y)", "(2^(1/2)*x + 1)*x/(x - y)", None),
        # the new numerator and the denominator carry the surd, g does not
        ("(x + y)*2^(1/2)/(2^(1/2)*y + 1)", "(x + y)*(x - 3)/(2^(1/2)*y + 1)", "x + y"),
    ],
)
def test_a_sum_keeps_its_shared_factor_unless_a_surd_power_folds(a, b, kept):
    ra, rb = rf(a), rf(b)
    got = ra + rb
    ref = _ref_sum(RatFunc(ra.num, ra.den, ra.coeff), RatFunc(rb.num, rb.den, rb.coeff))
    _assert_matches(got, ref, random.Random(3))
    if kept is not None:
        assert ratfunc._exps(got).get(ratfunc._factor(rf(kept).num)) == 1


def test_a_sum_of_shared_powers_multiplies_no_power_of_the_shared_factor(monkeypatch):
    # f has 21 terms: no Poly product or power may take an operand that
    # large, as every power of f is.
    x, y = Poly.gen("x"), Poly.gen("y")
    f = Poly.const(0)
    for i in range(6):
        for j in range(6 - i):
            f = f + (x**i * y**j).scale(i + 2 * j + 1)
    assert len(f.terms) >= 20
    u, w = x + Poly.const(1), y - Poly.const(2)
    a = RatFunc(f) ** 3 * RatFunc(u)
    b = RatFunc(f) ** 3 * RatFunc(w)
    large = []
    real_mul, real_pow = Poly.__mul__, Poly.__pow__

    def mul(p, q):
        if max(len(p.terms), len(q.terms)) >= 20:
            large.append(("*", p, q))
        return real_mul(p, q)

    def pow_(p, n):
        if len(p.terms) >= 20:
            large.append(("**", p, n))
        return real_pow(p, n)

    monkeypatch.setattr(Poly, "__mul__", mul)
    monkeypatch.setattr(Poly, "__pow__", pow_)
    got = a + b
    assert large == []
    monkeypatch.undo()
    assert {f_.poly: e for f_, e in ratfunc._exps(got).items()} == {f: 3, u + w: 1}
    assert got.num == f**3 * (u + w) and got.den == _ONE_POLY


# ----- rf_pow -------------------------------------------------------------------


def _compound_radicands(rf):
    """The radicands of rf's compound root generators."""
    gens = map(parse_gen, rf.gens())
    return [lookup_opaque(info.base) for info in gens if info.kind == KIND_OPAQUE]


_L, _M, _K = (to_ratfunc(parse(t)) for t in ("x + y + 1", "x - 2*y^2 + 3", "x*y + 2"))


@pytest.mark.parametrize("exponent", [F(1, 3), F(5, 3), F(-2, 3), F(2, 5), F(-7, 5)])
def test_odd_roots_take_whole_factor_powers_out(exponent):
    # c L^3 M / K^3 and c L^5 M K^-5: only M stays under a compound root,
    # and c goes to the surds
    q = exponent.denominator
    c = F(-5, 2)
    rf = (_L**q * _M * _K**-q).scale(c)
    got = rf_pow(rf, exponent)
    assert _compound_radicands(got) == [_M]
    assert got == (_L * _K**-1) ** exponent.numerator * rf_pow(
        RatFunc.const(c), exponent
    ) * rf_pow(_M, exponent)
    # the real root of rf, at points where rf is negative too
    rng = random.Random(5)
    signs = set()
    for _ in range(80):
        point = {"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}
        if min(abs(f.eval(point)) for f in (_L, _M, _K)) < 0.5:
            continue  # expanded powers lose digits near a factor's zero
        v = float(c) * (_L.eval(point) / _K.eval(point)) ** q * _M.eval(point)
        signs.add(v < 0)
        root = (abs(v) ** (1 / q)) * (-1 if v < 0 else 1)
        assert got.eval(point) == pytest.approx(root**exponent.numerator, rel=1e-9)
    assert signs == {True, False}


def test_odd_roots_keep_factors_below_their_index_under_the_root():
    # the coefficient leaves the radicand for the surds
    for rf, c in ((_L**2 * _M, 1), (_L * _K**-2, 3)):
        got = rf_pow(rf.scale(c), F(1, 3))
        assert _compound_radicands(got) == [rf]
        assert got == rf_pow(RatFunc.const(c), F(1, 3)) * rf_pow(rf, F(1, 3))


def test_odd_roots_of_radicands_that_differ_by_a_coefficient_share_one_generator():
    got = rf_pow(rf("2 - 2*y"), F(1, 3)) / rf_pow(rf("1 - y"), F(1, 3))
    assert got == rf_pow(RatFunc.const(2), F(1, 3))


@pytest.mark.parametrize("q", [2, 6])
def test_even_roots_of_even_powers_stay_opaque_and_are_absolute_values(q):
    got = rf_pow(_L**q, F(1, q))
    assert _compound_radicands(got) == [_L**q] and len(got.gens()) == 1
    rng = random.Random(6)
    signs = set()
    for _ in range(40):
        point = {"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}
        if abs(_L.eval(point)) < 0.5:
            continue  # the expanded L^q loses digits near L's zero
        signs.add(_L.eval(point) < 0)
        assert got.eval(point) == pytest.approx(abs(_L.eval(point)), rel=1e-12)
    assert signs == {True, False}


def test_signfree_roots_take_whole_factor_powers_out_of_even_roots():
    assert rf_pow_signfree(rf("a^2"), F(1, 2)) == rf("a")
    assert rf_pow_signfree(rf("1/(2500*y^6)").scale(2500), F(1, 6)) == rf("1/y")
    assert rf_pow_signfree(rf("4*y^2"), F(3, 2)) == rf("8*y^3")
    # L^2 M: only M stays under a compound root, and the coefficient goes
    # to the surds
    got = rf_pow_signfree((_L**2 * _M).scale(3), F(1, 2))
    assert _compound_radicands(got) == [_M]
    assert got == _L * rf_pow(RatFunc.const(3), F(1, 2)) * rf_pow(_M, F(1, 2))
    # an odd root is rf_pow's
    assert rf_pow_signfree(rf("-8*y^3"), F(1, 3)) == rf_pow(rf("-8*y^3"), F(1, 3))


def test_signfree_even_roots_move_a_negative_sign_into_an_odd_factor():
    # -2/y^3 = 2/(-y)^3, so its sixth root is 2^(1/6) (-y)^(-1/2), real for
    # y < 0; in -(x + 1)^3 y^2 the sign goes into x + 1, and y comes out
    assert rf_pow_signfree(rf("-2/y^3"), F(1, 6)) == (
        rf_pow(RatFunc.const(2), F(1, 6)) * rf_pow(rf("-y"), F(-1, 2)))
    f = rf("-(x + 1)^3*y^2")
    got = rf_pow_signfree(f, F(1, 2))
    assert got == rf("y") * rf_pow(rf("-x - 1"), F(3, 2))
    for point in ({"x": -2.5, "y": 1.5}, {"x": -3.0, "y": -0.5}):
        assert got.eval(point) ** 2 == pytest.approx(f.eval(point), rel=1e-12)


@pytest.mark.parametrize("text", ["-a^2", "-(x + 1)^2", "-4"])
def test_signfree_even_roots_of_a_negative_coefficient_are_none(text):
    assert rf_pow_signfree(rf(text), F(1, 2)) is None


# ----- rf_reduce_roots ------------------------------------------------------


def _root_atoms():
    """Powers of roots whose exponent shares a factor with the index, and
    others: of a symbol, of a surd, of compound radicands (polynomial,
    monomial and one whose radicand holds a reducible power itself)."""
    minus_y = rf_pow(to_ratfunc(parse("-y")), F(1, 2))
    radicands = [
        to_ratfunc(parse(t)) for t in ("3*y - 1", "x + y", "1/y^6", "x^2 + k*y", "2*y^3")
    ] + [minus_y**2 * to_ratfunc(parse("-9/y")), minus_y**2 + to_ratfunc(parse("x"))]
    atoms = [(to_ratfunc(parse("y^(1/3)")), 3), (to_ratfunc(parse("k^(1/5)")), 5),
             (to_ratfunc(parse("2^(1/4)")), 4), (to_ratfunc(parse("3^(1/6)")), 6)]
    for r in radicands:
        atoms += [(rf_pow(r, F(1, q)), q) for q in (2, 3, 6)]
    return atoms


_ROOT_ATOMS = _root_atoms()


@st.composite
def _rooted(draw):
    """A sum of one to three terms, each a small polynomial in x and y
    times one or two root atoms raised to exponents drawn mostly from the
    multiples of a divisor of their index."""
    out = RatFunc.const(0)
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from(("1", "x", "y - 2", "x*y + 3", "1/(x + 1)")))
        term = to_ratfunc(parse(text))
        for _ in range(draw(st.integers(1, 2))):
            atom, q = draw(st.sampled_from(_ROOT_ATOMS))
            d = draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0]))
            term = term * atom ** (d * draw(st.sampled_from((1, 2, -1))))
        out = out + term.scale(draw(st.integers(-3, 3).filter(bool)))
    return out


@settings(max_examples=80, deadline=None)
@given(_rooted())
def test_reduce_roots_is_the_print_parse_round_trip(rf):
    got, want = rf_reduce_roots(rf), to_ratfunc(rf_to_expr(rf))
    assert (got.coeff, got.num, got.den) == (want.coeff, want.num, want.den)
    rng = random.Random(3)
    for _ in range(3):
        point = {"x": rng.uniform(0.5, 2), "y": -rng.uniform(0.5, 2), "k": rng.uniform(0.5, 2)}
        values = []
        for f in (got, want):
            try:
                values.append(repr(f.eval(point)))
            except (EvalPole, EvalDomainError) as exc:
                values.append(type(exc).__name__)
        assert values[0] == values[1]


def test_reduce_roots_rewrites_only_powers_that_share_a_factor():
    cube = rf_pow(to_ratfunc(parse("3*y - 1")), F(1, 3))
    assert rf_reduce_roots(cube**6) == to_ratfunc(parse("(3*y - 1)^2"))
    sixth = rf_pow(to_ratfunc(parse("1/y^6")), F(1, 6))
    assert rf_reduce_roots(sixth**-2) == to_ratfunc(parse("y^2"))
    # y^(1/3) cubed stays a power of y^(1/3) beside y^(1/3) itself
    mixed = to_ratfunc(parse("y + y^(1/3)"))
    assert rf_reduce_roots(mixed) is mixed
    assert rf_reduce_roots(sixth) is sixth


@settings(max_examples=80, deadline=None)
@given(_rooted())
def test_factored_text_reads_back_to_the_value(rf):
    # by value: reading a compound root and its powers back from separate
    # factors need not give the normal form the expanded text gives
    back = to_ratfunc(parse(to_string(rf_to_factored_expr(rf))))
    rng = random.Random(5)
    for _ in range(3):
        point = {"x": rng.uniform(0.5, 2), "y": -rng.uniform(0.5, 2), "k": rng.uniform(0.5, 2)}
        values = []
        for f in (rf_reduce_roots(rf), back):
            try:
                values.append(f.eval(point))
            except (EvalPole, EvalDomainError) as exc:
                values.append(type(exc).__name__)
        if isinstance(values[0], float):
            assert values[1] == pytest.approx(values[0], rel=1e-9, abs=1e-12)
        else:
            assert values[0] == values[1]


@pytest.mark.parametrize("value, text", [
    ("0", "0"),
    ("-7/2", "-7/2"),
    ("-y", "-y"),
    ("6*x + 6", "6*(x + 1)"),
    ("x^2 + x", "x*(x + 1)"),
    ("-(x + 1)^2/(x - y)", "-(x + 1)^2/(x - y)"),
    ("(nu1^2)^6*(x + 1)^2/(3*y^3*(x - y))", "(1/3)*nu1^12*(x + 1)^2/(y^3*(x - y))"),
    ("(x + 1)*(x + 2)^3/((y + 1)^2*(y + 3)^2)", "(x + 1)*(x + 2)^3/(y^2 + 4*y + 3)^2"),
    ("(3*y - 1)^(1/3)*(x + 1)^2", "(3*y - 1)^(1/3)*(x + 1)^2"),
])
def test_factored_text(value, text):
    assert to_string(rf_to_factored_expr(rf(value))) == text


def test_factored_text_groups_factors_by_exponent(monkeypatch):
    # two coprime factors of one exponent print as their product, so the
    # text is the same whether or not refinement split them
    whole = rf("(x^2 + 3*x + 2)^2/y")
    split = rf("(x + 1)^2*(x + 2)^2/y")
    assert [e for _, e in whole.factors()] != [e for _, e in split.factors()]
    assert to_string(rf_to_factored_expr(whole)) == to_string(rf_to_factored_expr(split))
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(None) or mul(a, b))
    assert to_string(rf_to_factored_expr(split)) == "(x^2 + 3*x + 2)^2/y"
    assert len(calls) == 1 and split._num is None and split._den is None


# ----- rf_compose -----------------------------------------------------------


_IMAGES = [rf(t) for t in (
    "x + 1", "2*x - y", "x*y", "-y", "3*y - 1", "y/(x + 2)", "y^2 + 1", "(x + 3)^(1/2)",
    "x^(1/3)*y", "2^(1/2)*x",
)]


def _seeded_rooted(rng: random.Random) -> RatFunc:
    """A sum of one to three terms, each a small polynomial in x and y times
    one or two atoms of _ROOT_ATOMS to a power of -2 to 3."""
    out = RatFunc.const(0)
    for _ in range(rng.randint(1, 3)):
        term = rf(rng.choice(("1", "x", "y - 2", "x*y + 3", "1/(x + 1)")))
        for _ in range(rng.randint(1, 2)):
            atom, _ = rng.choice(_ROOT_ATOMS)
            term = term * atom ** rng.choice((1, 2, 3, -1, -2))
        out = out + term.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
    return out


def test_compose_matches_the_expr_substitution_by_value():
    # rf_compose over the factors against printing rf, substituting the
    # printed images and evaluating the tree, on 40 seeded RatFuncs with
    # roots, at three points where both have a value.  A printed power g^q
    # of an even root g = b^(1/q) reads b, which has values where g has
    # none, so some composites have no value where their tree has one, or
    # none anywhere: (-y)^(1/2) under y -> y^2 + 1.
    compared = 0
    for seed in range(40):
        rng = random.Random(seed)
        rf_in = _seeded_rooted(rng)
        u, v = rng.choice(_IMAGES), rng.choice(_IMAGES)
        got = rf_compose(rf_in, {"x": u, "y": v})
        tree = subst(rf_to_expr(rf_in), {"x": rf_to_expr(u), "y": rf_to_expr(v)})
        checked = 0
        for _ in range(400):
            point = {"x": rng.choice((-1, 1)) * rng.uniform(0.5, 2),
                     "y": rng.choice((-1, 1)) * rng.uniform(0.5, 2), "k": rng.uniform(0.5, 2)}
            try:
                want, value = eval_expr(tree, point), got.eval(point)
            except (EvalPole, EvalDomainError, OverflowError):
                continue
            if abs(want) < 1e8:
                assert value == pytest.approx(want, rel=1e-7, abs=1e-9), (seed, point)
                checked += 1
                if checked == 3:
                    compared += 1
                    break
    assert compared >= 20


def test_compose_maps_missing_generators_to_themselves():
    f = rf("x^2*k + (y + k)^(1/2) + 2^(1/3)*y^(1/3)")
    assert rf_compose(f, {}) == f
    assert rf_compose(f, {"x": rf("x + 1")}) == rf("(x + 1)^2*k + (y + k)^(1/2) + 2^(1/3)*y^(1/3)")
    # a symbol root maps to the root of its image, a compound one to the
    # root of its composed radicand
    assert rf_compose(f, {"y": rf("8*y^3")}) == rf("x^2*k + (8*y^3 + k)^(1/2) + 2*2^(1/3)*y")


def test_fold_roots_takes_the_radicand_out_of_powers_at_the_index():
    # (3y - 1)^(4/3) as the 4th power of the cube root is the product of
    # the radicand and the root once folded; a power below the index stays
    g = rf_pow(rf("3*y - 1"), F(1, 3))
    assert g**4 != rf("3*y - 1") * g
    assert rf_fold_roots(g**4) == rf("3*y - 1") * g
    assert rf_fold_roots(g**4 - rf("3*y - 1") * g).is_zero
    assert rf_fold_roots(x := g**2 + rf("x")) is x


# ----- normalize ------------------------------------------------------------


def test_normalize_cancellation():
    assert normalize(parse("(x+y)^2 - x^2 - 2*x*y - y^2")) == Const(0)


def test_normalize_merges_radicals():
    assert normalize(parse("y^(1/3)*y^(2/3)")) == Sym("y")


def test_normalize_compact_vs_expanded_invariant_form():
    compact = rf("-(36/5)*y^3*(35*b^2 - 2*y^3)/(5*b^2 - 2*y^3)^2")
    expanded = rf("18/5 - 90*b^2*(2*y^3 + b^2)/(5*b^2 - 2*y^3)^2")
    assert (compact - expanded).is_zero


def test_normalize_idempotent():
    rng = random.Random(2222)
    for _ in range(10):
        e = random_rational_expr(rng)
        n = normalize(e)
        assert normalize(n) == n


def test_normalize_preserves_eval():
    rng = random.Random(31415)
    checked = 0
    while checked < 40:
        e = random_rational_expr(rng)
        n = normalize(e)
        a = sample_xyb(rng)
        try:
            v1 = eval_expr(e, a)
            v2 = eval_expr(n, a)
        except (EvalPole, EvalDomainError):
            continue
        scale = max(1.0, abs(v1), abs(v2))
        if scale > 1e8:
            continue
        assert abs(v1 - v2) / scale < 1e-9
        checked += 1


@settings(max_examples=30, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 5))
def test_normalize_linear_identities(a, b, k):
    # (a x + b y)^k expanded minus itself in factored form is exactly zero
    e = Pow(Add((Mul((Const(F(a)), Sym("x"))), Mul((Const(F(b)), Sym("y"))))), F(k))
    n = normalize(e)
    assert normalize(Add((n, Neg(e)))) == Const(0)


# ----- subst ----------------------------------------------------------------


def test_subst_identity():
    assert subst(Sym("x"), {"x": Sym("x")}) == Sym("x")


def test_subst_power_target():
    got = normalize(subst(parse("y^2"), {"y": parse("t^3")}))
    assert got == normalize(parse("t^6"))


def test_subst_simultaneous():
    e = parse("x*y")
    got = normalize(subst(e, {"x": Sym("y"), "y": Sym("x")}))
    assert got == normalize(parse("x*y"))


def test_subst_composition_matches_eval():
    rng = random.Random(77)
    e = parse("x^2 + y/(x + 3)")
    b = {"x": parse("y + 1"), "y": parse("x*y")}
    s = subst(e, b)
    for _ in range(5):
        a = sample_xyb(rng)
        inner = {
            "x": eval_expr(b["x"], a),
            "y": eval_expr(b["y"], a),
        }
        assert abs(eval_expr(s, a) - eval_expr(e, inner)) < 1e-9 * max(
            1.0, abs(eval_expr(s, a))
        )


def test_subst_under_fractional_power():
    got = normalize(subst(parse("y^(1/3)"), {"y": parse("8*x^3")}))
    assert got == normalize(parse("2*x"))


# ----- eval -----------------------------------------------------------------


def test_eval_rational_arithmetic():
    assert eval_expr(parse("5/4 - 1/2"), {}) == 0.75


def test_eval_zero():
    assert eval_expr(Const(0), {"x": 2.0}) == 0


def test_eval_frozen_invariant_value():
    # I1 of the cube-root family at y = 1: (36/5)*1*(-33)/(-3)^2 = -132/5
    i1 = parse("(36/5)*y*(-35 + 2*y)/(2*y - 5)^2")
    assert abs(eval_expr(i1, {"y": 1.0}) - (-132 / 5)) < 1e-12


def test_eval_pole_and_domain_outcomes():
    with pytest.raises(EvalPole):
        eval_expr(parse("1/(x - x)"), {"x": 1.0})
    with pytest.raises(EvalDomainError):
        eval_expr(parse("(-2)^(1/2)"), {})
    # odd roots of negatives are real
    assert eval_expr(parse("(-8)^(1/3)"), {}) == -2.0


def test_eval_missing_symbol():
    with pytest.raises(UndeclaredSymbolError):
        eval_expr(Sym("q"), {"x": 1.0})


# ----- is_zero --------------------------------------------------------------


def test_is_zero_trivial():
    v = is_zero(rf("x - x"))
    assert v.status is ZeroStatus.ZERO and v.normal_form == "0"


def test_is_zero_nonzero_has_sample_evidence(env_b):
    v = is_zero(rf("b^2/(2*y)"), env_b)
    assert v.status is ZeroStatus.NONZERO
    assert any(abs(r) > 1e-6 for r in v.residuals)


def test_is_zero_skips_overflowing_points():
    # x^800 overflows a float for x above about 2.43 but not below
    assert is_zero(rf("x^800")).is_nonzero


def test_is_zero_undeclared_symbol_rejected():
    with pytest.raises(UndeclaredSymbolError):
        is_zero(rf("q + x"), ParamEnv())


def test_is_zero_radical_cancellation():
    # exact even through an opaque radicand: ((2y+1)^(1/2))^2 - 2y - 1
    e = rf("((2*y + 1)^(1/2))^2 - 2*y - 1")
    assert is_zero(e).is_zero


def test_is_zero_never_zero_with_large_sample(env_b):
    rng = random.Random(99)
    for _ in range(10):
        e = random_expr(rng)
        v = is_zero(to_ratfunc(e), env_b)
        if v.is_zero and v.residuals:
            assert all(abs(r) < 1e-6 for r in v.residuals)
        if v.is_nonzero:
            assert any(abs(r) > 1e-6 for r in v.residuals)


def test_is_zero_seed_independence_for_exact_forms(env_b):
    e = rf("(x + y)*(x - y) - x^2 + y^2")
    for seed in (1, 2, 3):
        assert is_zero(e, env_b, SamplePolicy(seed=seed)).is_zero


def test_to_ratfunc_structural_equality():
    a = to_ratfunc(parse("(x^2 - y^2)/(x - y)"))
    b = to_ratfunc(parse("x + y"))
    assert a == b
