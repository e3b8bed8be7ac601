import random
from fractions import Fraction as F

import pytest

from p34eq import equations as eqs
from p34eq import oracle
from p34eq.classify import ORACLE_SAMPLES, _pii_candidates
from p34eq.expr import (
    QUADRANTS,
    Const,
    ParamEnv,
    Sym,
    normalize,
    parse,
    rf_pow,
    rf_to_expr,
    sample,
    to_ratfunc,
    to_string,
)
from p34eq.invariants import InvariantTower
from p34eq.ode import PointTransform, apply_transform, from_rhs
from p34eq.oracle import ORACLE_REDRAWS, verify_transform, verify_weight_law


def identity():
    return PointTransform(Sym("x"), Sym("y"), (Sym("x"), Sym("y")))


def test_identity_passes_with_zero_residual():
    e = eqs.p34_rational(1)
    report = verify_transform(e, e, identity(), n=12)
    assert report.passed
    assert report.max_residual < 1e-12


def test_known_transform_to_cuberoot_form():
    report = verify_transform(
        eqs.ince_xxxiv(1),
        eqs.p34_cuberoot(4),
        PointTransform(normalize(parse("x/2^(2/3)")), normalize(parse("-2*y^3"))),
        n=20,
    )
    assert report.passed, report


def test_known_transform_to_pii():
    # forward form of x = -2^(1/3) x_new, y = -2^(1/3) y_new^2; real on y < 0
    t = PointTransform(
        normalize(parse("-x/2^(1/3)")),
        normalize(parse("(-y/2^(1/3))^(1/2)")),
    )
    report = verify_transform(eqs.p34_rational(0), eqs.painleve_ii(0), t, n=20)
    assert report.passed, report
    assert report.quadrant[1] == -1  # the correspondence region has y < 0


def test_wrong_transform_fails():
    t = PointTransform(normalize(parse("x/2")), normalize(parse("-2*y^3")))
    report = verify_transform(eqs.ince_xxxiv(1), eqs.p34_cuberoot(4), t, n=14)
    assert not report.passed


def test_unreal_transform_reports_insufficient():
    t = PointTransform(normalize(parse("(-1 - x^2)^(1/2)")), Sym("y"))
    report = verify_transform(eqs.p34_rational(1), eqs.p34_rational(1), t, n=12)
    assert report.insufficient


def test_zero_jacobian_transform_skips_every_point(monkeypatch):
    # u = v = x + y: every image slope dv/du is 1, so the jets degenerate
    runs = []

    def recording_sample(*args, **kwargs):
        values, skipped = sample(*args, **kwargs)
        runs.append((len(values), skipped))
        return values, skipped

    monkeypatch.setattr(oracle, "sample", recording_sample)
    t = PointTransform(normalize(parse("x + y")), normalize(parse("x + y")))
    e = eqs.painleve_ii(3)
    report = verify_transform(e, e, t, n=12)
    assert report.insufficient
    assert report.poles_skipped == 12 + ORACLE_REDRAWS
    assert runs == [(0, 12 + ORACLE_REDRAWS)] * len(QUADRANTS)


def _report_key(report):
    return report.samples_used, report.poles_skipped, report.quadrant, report.max_residual


@pytest.mark.parametrize("a", [3, 12345, "a"])
def test_mirrored_pii_candidates_agree(a):
    # y -> -y maps PII(a) onto PII(-a), so the -a candidate at (sigma, tau,
    # eps) is the +a candidate (X, Y) at (sigma, -tau, -eps) read as (X, -Y)
    # against PII(-a), and the oracle must report the same on both
    ode = eqs.painleve_ii(a)
    t = InvariantTower(ode)
    a_rf = rf_pow(t.j_squared, F(1, 2))
    plus = {key: (tr, target) for key, tr, target in _pii_candidates(t, a_rf)}
    minus = list(_pii_candidates(t, -a_rf))
    assert len(plus) == len(minus) == 4  # one sigma: I9 > 0
    for (sigma, tau, eps), tr, target in minus:
        mirror, mirror_target = plus[sigma, -tau, -eps]
        assert to_string(tr.x_new) == to_string(mirror.x_new)
        assert to_string(tr.y_new) == to_string(rf_to_expr(-to_ratfunc(mirror.y_new)))
        assert to_string(target.rhs()) == to_string(eqs.painleve_ii(rf_to_expr(-a_rf)).rhs())
        assert _report_key(
            verify_transform(ode, target, tr, n=ORACLE_SAMPLES, policy=t.policy)
        ) == _report_key(
            verify_transform(ode, mirror_target, mirror, n=ORACLE_SAMPLES, policy=t.policy)
        )


def test_oracle_agrees_with_symbolic_transformer():
    rng = random.Random(2718)
    for _ in range(4):
        e = from_rhs(parse("p^2/(2*y) - 2*y^2 - x*y"))
        a1 = F(rng.randint(1, 3))
        b1 = F(rng.randint(-2, 2))
        c1 = F(rng.randint(1, 2))
        t = PointTransform(
            normalize(Const(a1) * Sym("x") + Const(b1) * Sym("y")),
            normalize(Const(c1) * Sym("y") + Const(F(rng.randint(0, 2)))),
        )
        dst = apply_transform(e, t)
        report = verify_transform(e, dst, t, n=14)
        assert report.passed, report


def test_weight_law_alpha_under_diagonal_scaling():
    e = eqs.p34_cuberoot(1)
    t = PointTransform(
        normalize(parse("2*x")), normalize(parse("3*y")),
        (normalize(parse("x/2")), normalize(parse("y/3"))),
    )
    te = apply_transform(e, t)
    src, dst = InvariantTower(e), InvariantTower(te)
    ok, dev = verify_weight_law(
        (rf_to_expr(src.B), rf_to_expr(-src.A)),
        (rf_to_expr(dst.B), rf_to_expr(-dst.A)),
        t, 2, env=e.env,
    )
    assert ok, dev


def test_weight_law_identity_trivial():
    e = eqs.p34_rational(1)
    src = InvariantTower(e)
    ok, dev = verify_weight_law(
        (rf_to_expr(src.n_pseudo),), (rf_to_expr(src.n_pseudo),), identity(), 2,
        env=e.env,
    )
    assert ok and dev < 1e-12


def test_weight_law_gamma_under_random_affine():
    rng = random.Random(31)
    e = eqs.p34_cuberoot(1)
    src = InvariantTower(e)
    for _ in range(2):
        a1, c1 = F(rng.randint(1, 3)), F(rng.choice([1, 8]))
        b1 = F(rng.randint(-2, 2))
        t = PointTransform(
            normalize(Const(a1) * Sym("x") + Const(b1)),
            normalize(Const(c1) * Sym("y")),
            (
                normalize((Sym("x") - Const(b1)) / Const(a1)),
                normalize(Sym("y") / Const(c1)),
            ),
        )
        te = apply_transform(e, t)
        dst = InvariantTower(te)
        g1, g2 = src.gamma
        h1, h2 = dst.gamma
        ok, dev = verify_weight_law(
            (rf_to_expr(g1), rf_to_expr(g2)), (rf_to_expr(h1), rf_to_expr(h2)),
            t, 3, env=e.env,
        )
        assert ok, dev


def test_weight_law_detects_wrong_weight():
    e = eqs.p34_cuberoot(1)
    t = PointTransform(
        normalize(parse("2*x")), normalize(parse("3*y")),
        (normalize(parse("x/2")), normalize(parse("y/3"))),
    )
    te = apply_transform(e, t)
    src, dst = InvariantTower(e), InvariantTower(te)
    ok, dev = verify_weight_law(
        (rf_to_expr(src.n_pseudo),), (rf_to_expr(dst.n_pseudo),), t, 3, env=e.env,
    )
    assert not ok
