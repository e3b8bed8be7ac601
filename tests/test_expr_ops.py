import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p34eq.errors import EvalDomainError, EvalPole, UndeclaredSymbolError
from p34eq.expr import (
    Const,
    ParamEnv,
    SamplePolicy,
    Sym,
    ZeroStatus,
    diff,
    eval_expr,
    is_zero,
    normalize,
    parse,
    subst,
    to_ratfunc,
    to_string,
)
from conftest import random_expr, random_rational_expr, sample_xyb


# ----- diff -----------------------------------------------------------------


def test_diff_power_rule():
    assert normalize(diff(parse("b^2/(2*y)"), y=1)) == normalize(parse("-b^2/(2*y^2)"))


def test_diff_constant():
    assert diff(Sym("c"), x=1) == Const(0)


def test_diff_second_y_of_p34_coefficient():
    # d2/dy2 of -2y^2 - xy - b^2/(2y); feeds the A computation
    got = diff(parse("-2*y^2 - x*y - b^2/(2*y)"), y=2)
    assert normalize(got - parse("-4 - b^2/y^3")) == Const(0)


def test_mixed_partials_commute_exactly():
    rng = random.Random(555)
    for _ in range(10):
        e = random_rational_expr(rng)
        xy = diff(diff(e, x=1), y=1)
        yx = diff(diff(e, y=1), x=1)
        assert normalize(xy - yx) == Const(0)


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
        lhs = diff(e * f, y=1)
        rhs = diff(e, y=1) * f + e * diff(f, y=1)
        assert is_zero(lhs - rhs, env).is_zero


def test_diff_fractional_powers():
    got = diff(parse("y^(1/3)"), y=1)
    assert normalize(got - parse("1/(3*y^(2/3))")) == Const(0)


# ----- normalize ------------------------------------------------------------


def test_normalize_cancellation():
    assert normalize(parse("(x+y)^2 - x^2 - 2*x*y - y^2")) == Const(0)


def test_normalize_merges_radicals():
    assert normalize(parse("y^(1/3)*y^(2/3)")) == Sym("y")


def test_normalize_compact_vs_expanded_invariant_form():
    compact = parse("-(36/5)*y^3*(35*b^2 - 2*y^3)/(5*b^2 - 2*y^3)^2")
    expanded = parse("18/5 - 90*b^2*(2*y^3 + b^2)/(5*b^2 - 2*y^3)^2")
    assert normalize(compact - expanded) == Const(0)


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
    e = (Const(F(a)) * Sym("x") + Const(F(b)) * Sym("y")) ** F(k)
    n = normalize(e)
    assert normalize(n - e) == Const(0)


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
    v = is_zero(parse("x - x"))
    assert v.status is ZeroStatus.ZERO and v.normal_form == "0"


def test_is_zero_nonzero_has_sample_evidence(env_b):
    v = is_zero(parse("b^2/(2*y)"), env_b)
    assert v.status is ZeroStatus.NONZERO
    assert any(abs(r) > 1e-6 for r in v.residuals)


def test_is_zero_skips_overflowing_points():
    # x^800 overflows a float for x above about 2.43 but not below
    assert is_zero(parse("x^800")).is_nonzero


def test_is_zero_undeclared_symbol_rejected():
    with pytest.raises(UndeclaredSymbolError):
        is_zero(parse("q + x"), ParamEnv())


def test_is_zero_radical_cancellation():
    # exact even through an opaque radicand: ((2y+1)^(1/2))^2 - 2y - 1
    e = parse("((2*y + 1)^(1/2))^2 - 2*y - 1")
    assert is_zero(e).is_zero


def test_is_zero_never_zero_with_large_sample(env_b):
    rng = random.Random(99)
    for _ in range(10):
        e = random_expr(rng)
        v = is_zero(e, env_b)
        if v.is_zero and v.residuals:
            assert all(abs(r) < 1e-6 for r in v.residuals)
        if v.is_nonzero:
            assert any(abs(r) > 1e-6 for r in v.residuals)


def test_is_zero_seed_independence_for_exact_forms(env_b):
    e = parse("(x + y)*(x - y) - x^2 + y^2")
    for seed in (1, 2, 3):
        assert is_zero(e, env_b, SamplePolicy(seed=seed)).is_zero


def test_to_ratfunc_structural_equality():
    a = to_ratfunc(parse("(x^2 - y^2)/(x - y)"))
    b = to_ratfunc(parse("x + y"))
    assert a == b
