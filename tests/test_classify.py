import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from p34eq import classify as pc
from p34eq import cli
from p34eq import equations as eqs
from p34eq import invariants, oracle
from p34eq.classify import ORACLE_SAMPLES, CaseTag, Outcome
from p34eq.expr import (
    ParamEnv,
    RatFunc,
    SamplePolicy,
    Sym,
    engine,
    is_zero,
    normalize,
    parse,
    parser,
    poly,
    ratfunc,
    rf_pow,
    to_string,
)
from p34eq.invariants import InvariantTower
from p34eq.ode import PointTransform, from_rhs
from p34eq.oracle import ORACLE_REDRAWS, verify_transform
import helpers
from golden_cases import CASES
from helpers import apply_transform, rf, transform


def neg_square(ode):
    """ode under x -> x, y -> -y^2 (new in terms of old), real for y < 0."""
    t = transform("x", "-y^2")
    return apply_transform(ode, t, (Sym("x"), parse("(-y)^(1/2)")))


# ----- classify --------------------------------------------------------------


def test_classify_rational_form_is_case_1_4():
    cls = pc.classify(eqs.p34_rational("b"))
    assert cls.tag is CaseTag.FIRST_CASE
    assert cls.flags == {"omega_zero": True, "i2_zero": True, "i7_zero": True}
    assert cls.case_1_4
    assert "case 1.4" in cls.describe()


def test_classify_zero_equation():
    cls = pc.classify(from_rhs(rf("0")))
    assert cls.tag is CaseTag.MAXIMAL_DEGENERATION


def test_classify_piv_first_case_i7_nonzero():
    cls = pc.classify(eqs.painleve_iv(2, 3))
    assert cls.tag is CaseTag.FIRST_CASE
    assert cls.flags["i7_zero"] is False
    assert not cls.case_1_4


def test_classify_general_case():
    cls = pc.classify(from_rhs(rf("y^2 + p^3*x^2")))
    assert cls.tag is CaseTag.GENERAL_CASE


def test_classify_second_case():
    cls = pc.classify(from_rhs(rf("y^2")))
    assert cls.tag is CaseTag.SECOND_CASE


def test_classify_deterministic_on_normalized_input():
    raw = from_rhs(rf("p^2/(2*y) - 2*y^2 - x*y"))
    massaged = from_rhs(rf("(p^2 - 4*y^3 - 2*x*y^2)/(2*y)"))
    a = pc.classify(raw)
    b = pc.classify(massaged)
    assert a.tag is b.tag and a.flags == b.flags


# ----- functional independence -------------------------------------------------


def test_independent_pair_skips_the_dependent_zero_parameter_pair():
    # On painleve_ii(0), I3 and I6 are dependent: I3 = 1/15 + I6/6, so their
    # Jacobian vanishes and the first independent pair is (I3, I9).
    assert pc._independent_pair(InvariantTower(eqs.painleve_ii(0))) == ("I3", "I9")
    assert pc._independent_pair(InvariantTower(eqs.painleve_ii(3))) == ("I3", "I6")


# ----- test_pii ------------------------------------------------------------------


def test_pii_zero_parameter_branch():
    res = pc.test_pii(eqs.p34_rational(0))
    assert res.outcome is Outcome.EQUIVALENT_PII
    assert res.a_values == (0.0,)
    assert res.residual is not None and res.residual.passed
    assert res.residual.samples_used >= 20


def test_pii_rejects_nonzero_parameter_family():
    res = pc.test_pii(eqs.p34_rational("b"))
    assert res.outcome is Outcome.NOT_EQUIVALENT
    assert res.failed_condition == "I1 = 18/5"


def test_pii_on_pii_itself_recovers_parameter():
    res = pc.test_pii(eqs.painleve_ii(rf("1/2")))
    assert res.outcome is Outcome.EQUIVALENT_PII
    assert res.a_values is not None
    assert sorted(res.a_values) == [-0.5, 0.5]


def test_pii_parameter_sampled_where_real():
    # painleve_ii(3) under y -> -y^2 is real only for y < 0, so the value of
    # a is sampled there
    res = pc.test_pii(neg_square(eqs.painleve_ii(3)))
    assert res.outcome is Outcome.EQUIVALENT_PII
    assert res.a_values == (3.0, -3.0)
    assert to_string(res.a_candidates[0]) == "3"  # in normal form


def test_pii_searches_only_the_plus_a_candidates(monkeypatch):
    # the -a candidates mirror the +a ones (tests/test_oracle.py), and I9 =
    # 1/(2500 y^6) > 0 leaves one sigma, so a failed search makes 4 oracle
    # calls, not 16
    calls = []

    def counting_verify(*args, **kwargs):
        calls.append(args)
        return verify_transform(*args, **kwargs)

    monkeypatch.setattr(pc, "verify_transform", counting_verify)
    res = pc.test_pii(eqs.painleve_ii(12345))
    assert len(calls) == 4
    assert res.outcome is Outcome.INCONCLUSIVE
    assert res.detail == (
        "all theorem conditions hold but no candidate transform passed the numeric oracle"
    )
    assert [to_string(a) for a in res.a_candidates] == ["12345", "-12345"]
    assert res.a_values == (12345.0, -12345.0)


def test_pii_search_stops_a_quadrant_at_its_first_failing_residual(monkeypatch):
    # the candidate search reads only whether a transform passed, so each
    # quadrant stops at its first residual of PASS_RESIDUAL or more: 4
    # candidates in 4 quadrants of 24 samples would take 384 residuals.
    # test_p34 shows its report, so it keeps every sample.
    residuals = []
    cubic = oracle._cubic_through
    monkeypatch.setattr(oracle, "_cubic_through", lambda q, w: residuals.append(q) or cubic(q, w))
    res = pc.test_pii(eqs.painleve_ii("a"))
    assert res.outcome is Outcome.INCONCLUSIVE
    assert len(residuals) < 100
    res = pc.test_p34(eqs.electrodiffusion_3a(101, 997, 7919, 1009, 4001), SamplePolicy(seed=1))
    assert (res.residual.samples_used, f"{res.residual.max_residual:.3g}") == (24, "7.05e-07")
    # a passing check is the same either way
    e = eqs.p34_rational(1)
    t = transform("x", "y")
    assert verify_transform(e, e, t, n=12, fail_fast=True) == verify_transform(e, e, t, n=12)


@pytest.mark.parametrize("a", ["a", 3, 12345])
def test_pii_skipped_sigma_draws_no_sample(a):
    # I9 = 1/(2500 y^6) > 0, so for sigma = -1 w = (-I9/y^6)^(1/6) has no real
    # value: every candidate the search skips skips every draw of all four
    # quadrants (the report is the quadrant with the most samples)
    ode = eqs.painleve_ii(a)
    t = InvariantTower(ode)
    assert pc._pii_sigmas(t) == (1,)
    a_rf = rf_pow(t.j_squared, F(1, 2))
    target = eqs.painleve_ii(a_rf)
    w = rf_pow(t.i9.scale(-2500), F(1, 6))
    for tau in (1, -1):
        x_new = t.i6.scale(-5) / (w * w) - (a_rf * w).scale(F(3, 2) * tau)
        for eps in (1, -1):
            tr = PointTransform(x_new, w.inverse().scale(eps))
            report = verify_transform(ode, target, tr, n=ORACLE_SAMPLES, policy=t.policy)
            assert report.samples_used == 0
            assert report.poles_skipped == ORACLE_SAMPLES + ORACLE_REDRAWS


def test_pii_keeps_both_sigmas_when_i9_changes_sign():
    # I9 is odd in y: -1/(2500 y^3) for painleve_ii(3) under y -> -y^2 (new
    # in terms of old), and proportional to 1/y^3 for p34_rational(0)
    for ode in (neg_square(eqs.painleve_ii(3)), eqs.p34_rational(0)):
        tower = InvariantTower(ode)
        assert tower.i9.is_monomial
        assert pc._pii_sigmas(tower) == (tower.i9_sign, -tower.i9_sign)


def _count_calls(monkeypatch, functions) -> Counter:
    """Calls of each function, by name, wherever a p34eq module holds it."""
    calls: Counter = Counter()
    for fn in functions:
        def counting(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("p34eq") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize(
    "build",
    [
        lambda: eqs.painleve_ii(3),
        helpers.p34_cuberoot_4_affine,
        lambda: eqs.electrodiffusion_3b(2, 3, 5, 7),
    ],
    ids=["painleve_ii_3", "p34_cuberoot_4_affine", "electrodiffusion_3b_2_3_5_7"],
)
def test_a_decision_neither_parses_nor_reads_an_expr(monkeypatch, build):
    # candidate and recovered transforms, parameters and target equations
    # are built from tower RatFuncs; nothing is printed to be parsed again
    ode = build()
    calls = _count_calls(monkeypatch, (engine.to_ratfunc, parser.parse))
    tower = InvariantTower(ode)
    pc.classify(ode, tower=tower)
    results = pc.test_pii(ode, tower=tower), pc.test_p34(ode, tower=tower)
    assert any(r.equivalent for r in results)
    assert calls == {}


def test_recovered_affine_transform_reads_as_a_polynomial():
    # the recovered x holds powers of (3y - 1)^(1/3) whose exponents share
    # the factor 3 with the index; the root rewrite makes them polynomials
    res = pc.test_p34(helpers.p34_cuberoot_4_affine())
    assert res.outcome is Outcome.EQUIVALENT_P34
    assert (to_string(res.transform.x_new), to_string(res.transform.y_new)) == (
        "2*x + 1",
        "3*y - 1",
    )
    assert to_string(res.beta_squared) == "4"


def test_pii_prunes_sigma_on_even_i9_of_the_golden_neg_square():
    # the golden painleve_ii_3_neg_square gives old in terms of new, y -> -y^2,
    # where I9 = 1/(2500 y^12); its transform is found at sigma = 1
    ode = helpers.ode("(2*y^6 + x*y^2 - 3)/(2*y)", "0", "-1/(3*y)", "0")
    tower = InvariantTower(ode)
    assert pc._pii_sigmas(tower) == (1,)
    assert pc.test_pii(ode, tower=tower).outcome is Outcome.EQUIVALENT_PII


def test_pii_out_of_scope_cases():
    assert pc.test_pii(from_rhs(rf("0"))).outcome is Outcome.OUT_OF_SCOPE
    res = pc.test_pii(from_rhs(rf("y^2 + p^3*x^2")))
    assert res.outcome is Outcome.NOT_EQUIVALENT
    assert "intermediate degeneration" in res.failed_condition


# ----- test_p34 ------------------------------------------------------------------


def test_p34_rational_family_symbolic():
    res = pc.test_p34(eqs.p34_rational("b"))
    assert res.outcome is Outcome.EQUIVALENT_P34
    assert res.beta2_rf == rf("b^2")
    assert res.residual is not None and res.residual.passed
    assert to_string(normalize(res.transform.y_new)) == "y^3/b^2"


def test_p34_ince_sampled():
    res = pc.test_p34(eqs.ince_xxxiv(1))
    assert res.outcome is Outcome.EQUIVALENT_P34
    assert abs(res.beta_squared_value - 4) < 1e-9


@pytest.mark.parametrize("a", ["a", 3])
def test_p34_rejects_pii_on_vanishing_recovery_denominator(a):
    res = pc.test_p34(eqs.painleve_ii(a))
    assert res.outcome is Outcome.NOT_EQUIVALENT
    assert res.failed_condition == "coordinate recovery denominator nonzero"


def test_p34_electrodiffusion_with_two_symbols():
    # GCDs over nu1, k1, x and y: the 3-generator operands of symbolic inputs.
    e = eqs.electrodiffusion_3b("nu1", "k1", 1, 0)
    tower = InvariantTower(e)
    res = pc.test_p34(e, tower=tower)
    assert res.outcome is Outcome.EQUIVALENT_P34
    assert abs(res.beta_squared_value - 0.25) < 1e-9
    assert pc.test_pii(e, tower=tower).outcome is Outcome.NOT_EQUIVALENT


def test_p34_electrodiffusion_fully_symbolic():
    # nu1, k1, C and K symbolic: denominators over 6 generators, each a power
    # product of a few coprime factors.
    e = eqs.electrodiffusion_3b()
    tower = InvariantTower(e)
    assert pc.test_pii(e, tower=tower).outcome is Outcome.NOT_EQUIVALENT
    res = pc.test_p34(e, tower=tower)
    assert res.outcome is Outcome.EQUIVALENT_P34
    assert res.beta2_rf == rf("1/4")


def _tables():
    """Sizes of the tables and caches that poly and ratfunc own, but for the
    factors, keyed by polynomial, and the evaluator code, keyed by its
    source text.  (The generator-name caches of atoms grow with the names
    by design.)"""
    out = {}
    for mod in (poly, ratfunc):
        for name, obj in vars(mod).items():
            if name.startswith("__") or name in ("_FACTORS", "_CODE", "_NAMES"):
                continue
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                out[mod.__name__, name] = obj.cache_info().currsize
            elif isinstance(obj, (dict, set, list)):
                out[mod.__name__, name] = len(obj)
    return out


def test_factors_die_with_their_decision():
    # What a factor remembers lives on the factor, images included, so a
    # decision leaves nothing behind once its tower is gone, and no table
    # grows with the generators of the equations decided.
    def decide(e):
        tower = InvariantTower(e)
        pc.test_pii(e, tower=tower)
        pc.test_p34(e, tower=tower)
        (f, _), *_ = (fe for fe in ratfunc._exps(tower.i3).items() if fe[1] < 0)
        images = [(v, f.image(v)) for v in f.poly.gens]
        assert images and all(im is not None for _, im in images)
        return weakref.ref(f), f.images, {g for h in ratfunc._FACTORS.values() for g in h.poly.gens}

    decide(eqs.electrodiffusion_3b(2, 3, 5, 7))
    gc.collect()
    live, tables = len(ratfunc._FACTORS), _tables()
    ref, images, gens = decide(eqs.electrodiffusion_3b(2, 3, 5, 7))
    gc.collect()
    assert ref() is None
    # Only this frame holds the images now (getrefcount adds its own).
    assert sys.getrefcount(images) == 2
    assert len(ratfunc._FACTORS) == live
    # The other equation's compound radicands are new generators.
    _, _, other = decide(eqs.electrodiffusion_3b(3, 5, 7, 11))
    gc.collect()
    new = other - gens
    assert any(g.startswith("@") for g in new)
    assert _tables() == tables
    assert not any(g in source for g in new for source in ratfunc._NAMES)


def test_gcds_of_refinement_pairs_all_find_a_common_factor(monkeypatch):
    # Within _split, outside _coprime_base, poly_gcd sees only pairs that
    # share a factor: the factors' images prove every coprime pair so.
    found, splits = [], []
    inside = [0]
    real_gcd, real_split, real_base = ratfunc.poly_gcd, ratfunc._split, ratfunc._coprime_base

    def gcd(a, b):
        g = real_gcd(a, b)
        if inside[0]:
            found.append(not g.is_const)
        return g

    def split(a, b):
        splits.append((a, b))
        inside[0] += 1
        try:
            return real_split(a, b)
        finally:
            inside[0] -= 1

    def base(*args):
        saved, inside[0] = inside[0], 0
        try:
            return real_base(*args)
        finally:
            inside[0] = saved

    monkeypatch.setattr(ratfunc, "poly_gcd", gcd)
    monkeypatch.setattr(ratfunc, "_split", split)
    monkeypatch.setattr(ratfunc, "_coprime_base", base)
    e = eqs.electrodiffusion_3b(2, 3, 5, 7)
    tower = InvariantTower(e)
    pc.test_pii(e, tower=tower)
    pc.test_p34(e, tower=tower)
    assert len(splits) > 50 and all(found)


def test_p34_piv_fails_on_i7():
    res = pc.test_p34(eqs.painleve_iv(2, 3))
    assert res.outcome is Outcome.NOT_EQUIVALENT
    assert "I7" in res.failed_condition


def test_p34_verdict_invariant_under_point_transform():
    base = eqs.p34_rational(1)
    t = transform("x + y/2", "x/3 + y")
    inverse = (normalize(parse("(6*x - 3*y)/5")), normalize(parse("(-2*x + 6*y)/5")))
    moved = apply_transform(base, t, inverse)
    r0 = pc.test_p34(base)
    r1 = pc.test_p34(moved)
    assert r0.outcome is r1.outcome is Outcome.EQUIVALENT_P34
    assert abs(r0.beta_squared_value - r1.beta_squared_value) < 1e-6
    assert r1.residual.passed


def test_equivalent_results_always_carry_verified_transforms():
    for res in (
        pc.test_p34(eqs.p34_rational("b")),
        pc.test_pii(eqs.p34_rational(0)),
        pc.test_p34(eqs.electrodiffusion_3b(1, 1, 1, 0)),
    ):
        assert res.equivalent
        assert res.transform is not None
        assert res.residual is not None
        assert res.residual.max_residual < 1e-7


def test_second_case_is_out_of_scope_for_both():
    e = from_rhs(rf("y^2"))
    assert pc.test_p34(e).outcome is Outcome.OUT_OF_SCOPE
    assert pc.test_pii(e).outcome is Outcome.OUT_OF_SCOPE


def test_both_tests_share_tower():
    e = eqs.p34_rational("b")
    tower = InvariantTower(e)
    r1 = pc.test_pii(e, tower=tower)
    r2 = pc.test_p34(e, tower=tower)
    assert r1.outcome is Outcome.NOT_EQUIVALENT
    assert r2.outcome is Outcome.EQUIVALENT_P34


def test_first_case_decision_zero_tests_each_invariant_once(monkeypatch):
    # classify and test_p34 require I2 and I7 under one name each.
    tested = []
    zero_test = invariants.is_zero

    def recording(rf, env, policy):
        tested.append(rf)
        return zero_test(rf, env, policy)

    monkeypatch.setattr(invariants, "is_zero", recording)
    e = eqs.p34_rational(3)
    tower = InvariantTower(e)
    assert pc.classify(e, tower=tower).case_1_4
    assert pc.test_p34(e, tower=tower).outcome is Outcome.EQUIVALENT_P34
    assert len({id(rf) for rf in tested}) == len(tested)


def test_recovered_beta2_cancels_on_factors_without_a_product(monkeypatch):
    # Products and powers of the recovered y and I9 keep their factors, and
    # the quotient cancels to a constant without multiplying any out.
    tower = InvariantTower(eqs.electrodiffusion_3b(2, 3, 5, 7))
    for rf in (tower.recovered_y, tower.i9):
        rf.num, rf.den
    products = []
    real = poly.Poly.__mul__
    monkeypatch.setattr(poly.Poly, "__mul__", lambda p, q: products.append(1) or real(p, q))
    assert tower.recovered_beta2 == RatFunc.const(F(1, 4))
    assert products == []


def test_p34_differentiates_the_recovered_transform_once(monkeypatch):
    # The Jacobian check and the oracle read one table of partials.
    calls = []
    deriv = RatFunc.deriv

    def counting(self, var):
        calls.append((self, var))
        return deriv(self, var)

    monkeypatch.setattr(RatFunc, "deriv", counting)
    e = eqs.p34_rational(3)
    tower = InvariantTower(e)
    assert pc.test_p34(e, tower=tower).outcome is Outcome.EQUIVALENT_P34
    for rf in (tower.recovered_x, tower.recovered_y):
        assert [var for f, var in calls if f == rf] == ["x", "y"]


def _cached_ratfuncs(value):
    """Every RatFunc in a tower's caches, tuples and dicts included."""
    if isinstance(value, RatFunc):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _cached_ratfuncs(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _cached_ratfuncs(v)


@pytest.mark.parametrize(
    "build",
    [
        lambda: eqs.electrodiffusion_3b(2, 3, 5, 7),
        eqs.electrodiffusion_3a,
        lambda: cli._build_equation(CASES["p34_rational_1_mixed"]),
    ],
    ids=["electrodiffusion_3b(2,3,5,7)", "electrodiffusion_3a()", "p34_rational_1_mixed"],
)
def test_every_cached_ratfunc_of_the_tower_has_coprime_factors_of_its_parts(build):
    # Sums keep shared numerator factors and refinement proves pairs coprime
    # in one generator: whatever the tower computed, its factors are
    # pairwise coprime by poly_gcd and multiply out to num and den.
    e = build()
    tower = InvariantTower(e)
    pc.test_pii(e, tower=tower)
    pc.test_p34(e, tower=tower)
    cached = [rf for rf in _cached_ratfuncs(vars(tower)) if not rf.is_zero]
    assert len(cached) > 20
    for rf in cached:
        helpers.assert_factored(rf)
