import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

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
    rf_pow_signfree,
    rf_to_expr,
    to_string,
)
from p34eq.invariants import InvariantTower
from p34eq.ode import PointTransform, from_rhs
from p34eq.oracle import verify_transform
import helpers
from golden_cases import CASES
from helpers import apply_transform, rf, transform

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
    # 2500 I9 = -2/y^3: the sign-free root moves the sign into y^3, so w is
    # the real root 2^(1/6) (-y)^(-1/2), and its candidate is certified
    res = pc.test_pii(eqs.p34_rational(0))
    assert res.outcome is Outcome.EQUIVALENT_PII and res.evidence == "certificate"
    assert res.a_values == (0.0,)
    assert res.residual is None
    assert (to_string(res.transform.x_new), to_string(res.transform.y_new)) == (
        "-x/2^(1/3)", "(-y)^(1/2)/2^(1/6)")


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


# y'' = 2y^3 - x y' meets every condition the tower checks, with J = 0, and
# no candidate is certified or passes the oracle: a failed search
NO_PII_TRANSFORM = "2*y^3 - x*p"


def test_pii_searches_only_the_plus_a_candidates(monkeypatch):
    # the -a candidates mirror the +a ones (tests/test_oracle.py), and a = 0
    # has no -a and one tau; 2500 I9 = c x^2 (2x^2 + 9)^2 / y^6 with c > 0
    # has only even exponents, so sigma = -1 has no sign-free root and a
    # failed search makes 2 oracle calls
    calls = []

    def counting_verify(*args, **kwargs):
        calls.append(args)
        return verify_transform(*args, **kwargs)

    monkeypatch.setattr(pc, "verify_transform", counting_verify)
    res = pc.test_pii(from_rhs(rf(NO_PII_TRANSFORM)))
    assert len(calls) == 2
    assert res.outcome is Outcome.INCONCLUSIVE
    assert res.detail == (
        "all theorem conditions hold but no candidate transform passed the numeric oracle"
    )
    assert [to_string(a) for a in res.a_candidates] == ["0"]
    assert res.a_values == (0.0,)


def test_pii_rejects_wrong_candidates_without_skipping_their_draws(monkeypatch):
    # the jet test reads the Jacobian relative to its terms, so each quadrant
    # of a failing candidate stops at its first residual instead of skipping
    # up to 424 draws
    calls = []
    slopes = oracle._jet_slopes
    monkeypatch.setattr(oracle, "_jet_slopes", lambda parts: calls.append(parts) or slopes(parts))
    res = pc.test_pii(from_rhs(rf(NO_PII_TRANSFORM)))
    assert len(calls) < 100
    assert res.outcome is Outcome.INCONCLUSIVE
    assert res.detail == (
        "all theorem conditions hold but no candidate transform passed the numeric oracle"
    )


def test_pii_search_stops_a_quadrant_at_its_first_failing_residual(monkeypatch):
    # the candidate search reads only whether a transform passed, so each
    # quadrant stops at its first residual of PASS_RESIDUAL or more: 4
    # candidates in 4 quadrants of 24 samples would take 384 residuals.
    # test_p34 shows its report, so it keeps every sample.
    residuals = []
    cubic = oracle._cubic_through
    monkeypatch.setattr(oracle, "_cubic_through", lambda q, w: residuals.append(q) or cubic(q, w))
    res = pc.test_pii(from_rhs(rf(NO_PII_TRANSFORM)))
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
    # I9 = 1/(2500 y^6) > 0, so for sigma = -1 the sign-free root of -1/y^6
    # is None: that sigma builds no candidate, and none draws a sample
    ode = eqs.painleve_ii(a)
    t = InvariantTower(ode)
    assert rf_pow_signfree(t.i9.scale(-2500), F(1, 6)) is None
    assert rf_pow_signfree(t.i9.scale(2500), F(1, 6)) == rf("1/y")
    a_rf = rf_pow_signfree(t.j_squared, F(1, 2))
    assert {key[0] for key, _, _ in pc._pii_candidates(t, a_rf)} == {1}


def test_pii_keeps_both_sigmas_when_i9_changes_sign():
    # I9 is odd in y: -1/(2500 y^3) for painleve_ii(3) under y -> -y^2 (new
    # in terms of old), and -1/(1250 y^3) for p34_rational(0); the sign-free
    # root of 2500 sigma I9 takes the real branch for either sigma, a root
    # of -y for sigma = 1 and of y for sigma = -1
    for ode, c in ((neg_square(eqs.painleve_ii(3)), "1"), (eqs.p34_rational(0), "2^(1/6)")):
        tower = InvariantTower(ode)
        assert tower.i9.is_monomial
        w = {s: rf_pow_signfree(tower.i9.scale(2500 * s), F(1, 6)) for s in (1, -1)}
        assert to_string(rf_to_expr(w[1])) == f"{c}/(-y)^(1/2)"
        assert to_string(rf_to_expr(w[-1])) == f"{c}/y^(1/2)"


@pytest.mark.parametrize("a, text", [("a", "a"), (12345, "12345")])
def test_pii_certifies_painleve_ii_without_the_oracle(monkeypatch, a, text):
    # the sign-free roots of J^2 = a^2 and 2500 I9 = y^-6 are a and 1/y, so
    # the first candidate is the identity, and its certificate is exact
    calls = []
    monkeypatch.setattr(pc, "verify_transform", lambda *args, **kw: calls.append(args))
    res = pc.test_pii(eqs.painleve_ii(a))
    assert calls == []
    assert res.outcome is Outcome.EQUIVALENT_PII and res.evidence == "certificate"
    assert res.residual is None
    assert (to_string(res.transform.x_new), to_string(res.transform.y_new)) == ("x", "y")
    assert [to_string(c) for c in res.a_candidates] == [text, f"-{text}"]


def test_certificate_rejects_a_wrong_parameter_or_a_shifted_x():
    ode = eqs.painleve_ii("a")
    identity = transform("x", "y")
    assert pc._certified(ode, eqs.painleve_ii("a"), identity)
    assert not pc._certified(ode, eqs.painleve_ii(rf("a + 1")), identity)
    assert not pc._certified(ode, eqs.painleve_ii("a"), transform("x + 1", "y"))
    # an affine image and its certified transform, then that transform with
    # x_new shifted
    image = apply_transform(eqs.painleve_ii(3), transform("2*x + 1", "3*y - 1"),
                            ("(x - 1)/2", "(y + 1)/3"))
    res = pc.test_pii(image)
    assert res.evidence == "certificate"
    t = res.transform
    assert pc._certified(image, eqs.painleve_ii(3), t)
    assert not pc._certified(image, eqs.painleve_ii(4), t)
    shifted = PointTransform(t.u + RatFunc.const(1), t.v)
    pulled = pc.pullback_coefficients(image, shifted)
    composed = [engine.rf_compose(c, {"x": shifted.u, "y": shifted.v})
                for c in eqs.painleve_ii(3).coeffs()]
    assert not (pulled[0] - composed[0]).is_zero


def test_every_certified_pii_transform_passes_the_oracle():
    # the catalog, the transformed inputs and the golden cases: every
    # transform the certificate accepts also passes the oracle at 40 samples
    import gen_transformed

    inputs = [(eq.name, cli._build_equation(cli.RunConfig(
        rhs=eq.cli.get("rhs"), params=list(eq.cli.get("params", []))
    ))) for eq in workloads.catalog()]
    inputs += [(item["name"], helpers.ode(*item["coeffs"]))
               for item in gen_transformed.every_input()]
    inputs += [(name, cli._build_equation(cfg)) for name, cfg in sorted(CASES.items())]
    certified = []
    for name, ode in inputs:
        res = pc.test_pii(ode)
        if res.evidence == "certificate":
            certified.append(name)
            target = eqs.painleve_ii(res.a_rfs[0])
            assert verify_transform(ode, target, res.transform, n=40).passed, name
    assert certified == [
        "painleve_ii(a)", "painleve_ii(3)", "painleve_ii(12345)",
        "pii.affine[2, 1, 3, -1]", "pii.power[1, 1, 2]",
        "painleve_ii_12345", "painleve_ii_3", "painleve_ii_3_neg_square",
        "painleve_ii_3_power", "painleve_ii_3_swap", "painleve_ii_a",
    ]


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
    # where I9 = 1/(2500 y^12): sigma = -1 has no sign-free root, and the
    # transform is certified at sigma = 1
    ode = helpers.ode("(2*y^6 + x*y^2 - 3)/(2*y)", "0", "-1/(3*y)", "0")
    tower = InvariantTower(ode)
    assert rf_pow_signfree(tower.i9.scale(-2500), F(1, 6)) is None
    assert rf_pow_signfree(tower.i9.scale(2500), F(1, 6)) == rf("1/y^2")
    res = pc.test_pii(ode, tower=tower)
    assert res.outcome is Outcome.EQUIVALENT_PII and res.evidence == "certificate"


# The census maps: (x_new, y_new) in terms of old, then old in terms of new.
CENSUS_MAPS = {
    "identity": (("x", "y"), ("x", "y")),
    "2x + 1, 3y - 1": (("2*x + 1", "3*y - 1"), ("(x - 1)/2", "(y + 1)/3")),
    "-3x + 2, 2y + 1": (("-3*x + 2", "2*y + 1"), ("(2 - x)/3", "(y - 1)/2")),
    "-y": (("x", "-y"), ("x", "-y")),
    "y^2": (("x", "y^2"), ("x", "y^(1/2)")),
    "-y^2": (("x", "-y^2"), ("x", "(-y)^(1/2)")),
    "y^3": (("x", "y^3"), ("x", "y^(1/3)")),
    "2y^3": (("x", "2*y^3"), ("x", "(y/2)^(1/3)")),
    "1/y": (("x", "1/y"), ("x", "1/y")),
    "(y - 1)^3": (("x", "(y - 1)^3"), ("x", "y^(1/3) + 1")),
    "2x + 1, 3/y": (("2*x + 1", "3/y"), ("(x - 1)/2", "3/y")),
    "y + x": (("x", "y + x"), ("x", "y - x")),
    "y + x^2": (("x", "y + x^2"), ("x", "y - x^2")),
    "swap": (("y", "x"), ("y", "x")),
    "1/(y + 1)": (("x", "1/(y + 1)"), ("x", "1/y - 1")),
    "y/(y + 1)": (("x", "y/(y + 1)"), ("x", "y/(1 - y)")),
}
# Known faults (CHANGES.md FOUND): the I3, I9 Jacobian of the first, an
# exact nonzero normal form, samples in the gray zone; the second is real
# only where y > 0, where p34_rational(0)'s transform, a root of -y, is not.
CENSUS_FAULTS = {"painleve_ii(0)": {"(y - 1)^3"}, "p34_rational(0)": {"y^2"}}
CENSUS_BASES = {
    "painleve_ii(0)": lambda: eqs.painleve_ii(0),
    "painleve_ii(1)": lambda: eqs.painleve_ii(1),
    "painleve_ii(3)": lambda: eqs.painleve_ii(3),
    "painleve_ii(a)": lambda: eqs.painleve_ii("a"),
    "p34_rational(0)": lambda: eqs.p34_rational(0),
}


@pytest.mark.parametrize("name", CENSUS_BASES)
def test_pii_census_of_point_transform_images(name):
    # an equivalence carries the invariants along, so every image of an
    # equation equivalent to PII is EQUIVALENT_PII too, but for the known
    # faults, which stay INCONCLUSIVE
    outcomes = {
        label: pc.test_pii(apply_transform(CENSUS_BASES[name](), transform(*fwd), inverse)).outcome
        for label, (fwd, inverse) in CENSUS_MAPS.items()
    }
    faults = CENSUS_FAULTS.get(name, set())
    assert {k for k, o in outcomes.items() if o is not Outcome.EQUIVALENT_PII} == faults
    assert all(outcomes[k] is Outcome.INCONCLUSIVE for k in faults)


def test_certificate_folds_compound_root_powers():
    # the affine images of p34_cuberoot(4): the composed target holds
    # (3y - 1)^(4/3) as the 4th power of the cube root, where the pullback
    # holds (3y - 1) (3y - 1)^(1/3), so the certificate holds only once the
    # power folds (rf_fold_roots)
    import gen_transformed

    slot = next(slot for slot in gen_transformed.SLOTS if slot[0] == "p34c.affine")
    odes = [helpers.ode(*gen_transformed.transformed(slot, args)["coeffs"]) for args in slot[4]]
    for ode in odes + [helpers.p34_cuberoot_4_affine()]:
        res = pc.test_p34(ode)
        assert res.outcome is Outcome.EQUIVALENT_P34
        assert pc._certified(ode, eqs.p34_cuberoot(res.beta2_rf), res.transform)


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
    factors, keyed by polynomial.  (The generator-name caches of atoms grow
    with the names by design.)"""
    out = {}
    for mod in (poly, ratfunc):
        for name, obj in vars(mod).items():
            if name.startswith("__") or name == "_FACTORS":
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
        results = pc.test_pii(e, tower=tower), pc.test_p34(e, tower=tower)
        (f, _), *_ = (fe for fe in ratfunc._exps(tower.i3).items() if fe[1] < 0)
        images = [(v, f.image(v)) for v in f.poly.gens]
        assert images and all(im is not None for _, im in images)
        gens = {g for h in ratfunc._FACTORS.values() for g in h.poly.gens}
        del results  # they held the transforms, and so their generators, until here
        return weakref.ref(f), f.images, gens

    def image(a, b, c, d):
        t = transform(f"{a}*x + {b}", f"{c}*y + {d}")
        return apply_transform(eqs.p34_rational(0), t, (f"(x - {b})/{a}", f"(y - {d})/{c}"))

    decide(eqs.electrodiffusion_3b(2, 3, 5, 7))
    decide(image(2, 1, 3, -1))
    gc.collect()
    live, tables = len(ratfunc._FACTORS), _tables()
    ref, images, gens = decide(eqs.electrodiffusion_3b(2, 3, 5, 7))
    gc.collect()
    assert ref() is None
    # Only this frame holds the images now (getrefcount adds its own).
    assert sys.getrefcount(images) == 2
    assert len(ratfunc._FACTORS) == live
    # The compound radicand of another equation is a new generator: an
    # affine image of p34_rational(0), whose certified transform holds the
    # sign-free w = (2500 sigma I9)^(1/6), an even root of 1 - y.
    _, _, other = decide(image(-3, 2, 2, 1))
    gc.collect()
    new = other - gens
    assert any(g.startswith("@") for g in new)
    assert _tables() == tables
    # An equation of another shape leaves nothing behind either.
    decide(eqs.painleve_iv(101, 997))
    gc.collect()
    assert _tables() == tables


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
    # an oracle-found transform carries its passing report; a certified one
    # carries none, and passes the oracle when it is checked
    for test, ode in (
        (pc.test_p34, eqs.p34_rational("b")),
        (pc.test_pii, eqs.p34_rational(0)),
        (pc.test_p34, eqs.electrodiffusion_3b(1, 1, 1, 0)),
    ):
        res = test(ode)
        assert res.equivalent
        assert res.transform is not None
        report = res.residual
        if res.evidence == "certificate":
            assert report is None
            target = eqs.painleve_ii(res.a_rfs[0])
            report = verify_transform(ode, target, res.transform, n=ORACLE_SAMPLES)
        assert report.passed
        assert report.max_residual < 1e-7


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
