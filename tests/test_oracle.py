import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from p34eq import equations as eqs
from p34eq import oracle
from p34eq.classify import ORACLE_SAMPLES, _pii_candidates
from p34eq.expr import QUADRANTS, Const, Sym, normalize, parse, rf_pow, sample, to_string
from p34eq.invariants import InvariantTower
from p34eq.ode import from_rhs
from p34eq.oracle import ORACLE_REDRAWS, verify_transform
from helpers import apply_transform, transform, verify_weight_law


def identity():
    return transform("x", "y")


def test_identity_passes_with_zero_residual():
    e = eqs.p34_rational(1)
    report = verify_transform(e, e, identity(), n=12)
    assert report.passed
    assert report.max_residual < 1e-12


def test_known_transform_to_cuberoot_form():
    report = verify_transform(
        eqs.ince_xxxiv(1),
        eqs.p34_cuberoot(4),
        transform("x/2^(2/3)", "-2*y^3"),
        n=20,
    )
    assert report.passed, report


def test_known_transform_to_pii():
    # forward form of x = -2^(1/3) x_new, y = -2^(1/3) y_new^2; real on y < 0
    t = transform("-x/2^(1/3)", "(-y/2^(1/3))^(1/2)")
    report = verify_transform(eqs.p34_rational(0), eqs.painleve_ii(0), t, n=20)
    assert report.passed, report
    assert report.quadrant[1] == -1  # the correspondence region has y < 0


def test_wrong_transform_fails():
    t = transform("x/2", "-2*y^3")
    report = verify_transform(eqs.ince_xxxiv(1), eqs.p34_cuberoot(4), t, n=14)
    assert not report.passed


def test_unreal_transform_reports_insufficient():
    t = transform("(-1 - x^2)^(1/2)", "y")
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
    t = transform("x + y", "x + y")
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
        assert tr.v == -mirror.v
        assert target.coeffs() == eqs.painleve_ii(-a_rf).coeffs()
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
        d1 = F(rng.randint(0, 2))
        t = transform(
            Const(a1) * Sym("x") + Const(b1) * Sym("y"), Const(c1) * Sym("y") + Const(d1)
        )
        y_old = (Sym("y") - Const(d1)) / Const(c1)
        inverse = (normalize((Sym("x") - Const(b1) * y_old) / Const(a1)), normalize(y_old))
        dst = apply_transform(e, t, inverse)
        report = verify_transform(e, dst, t, n=14)
        assert report.passed, report


def _cubic_exact(q, w):
    """The cubic through the points (q_i, w_i), by elimination over Fractions.

    No pivoting: the leading minors of a Vandermonde matrix with distinct
    nodes are Vandermonde determinants, hence nonzero.
    """
    rows = [[F(x) ** j for j in range(4)] + [F(v)] for x, v in zip(q, w)]
    for k in range(4):
        for r in range(4):
            if r != k:
                f = rows[r][k] / rows[k][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return [row[4] / row[k] for k, row in enumerate(rows)]


def _cubic_at(coeffs, x):
    return sum(c * x**j for j, c in enumerate(coeffs))


def test_cubic_through_recovers_integer_cubic():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [rng.randint(-50, 50) for _ in range(4)]
        q = [s + rng.uniform(-0.2, 0.2) for s in oracle._SEEDS]
        got = oracle._cubic_through(q, [_cubic_at(coeffs, x) for x in q])
        scale = max(1, *map(abs, coeffs))
        assert max(abs(g - c) for g, c in zip(got, coeffs)) <= 1e-12 * scale, (coeffs, got)


def test_cubic_through_matches_exact_solve():
    rng = random.Random(12)
    trials = 0
    while trials < 300:
        q = [rng.uniform(-10, 10) for _ in range(4)]
        if min(abs(a - b) for i, a in enumerate(q) for b in q[i + 1 :]) < 1e-3:
            continue
        trials += 1
        w = [rng.uniform(-100, 100) for _ in range(4)]
        for got, want in zip(oracle._cubic_through(q, w), _cubic_exact(q, w)):
            assert abs(got - want) <= 1e-9 * abs(want), (q, w)


def test_cubic_through_keeps_decimal():
    # the jet solve must stay plain arithmetic, so that a Decimal oracle can run it
    coeffs = [7, -3, 5, 2]
    q = [Decimal(s) / 10 for s in (-13, -4, 6, 17)]
    with localcontext() as ctx:
        ctx.prec = 50
        got = oracle._cubic_through(q, [_cubic_at(coeffs, x) for x in q])
    assert all(isinstance(c, Decimal) for c in got)
    assert max(abs(g - c) for g, c in zip(got, coeffs)) < Decimal("1e-45")


def test_weight_law_alpha_under_diagonal_scaling():
    e = eqs.p34_cuberoot(1)
    t = transform("2*x", "3*y")
    te = apply_transform(e, t, (parse("x/2"), parse("y/3")))
    src, dst = InvariantTower(e), InvariantTower(te)
    ok, dev = verify_weight_law((src.B, -src.A), (dst.B, -dst.A), t, 2, env=e.env)
    assert ok, dev


def test_weight_law_identity_trivial():
    e = eqs.p34_rational(1)
    src = InvariantTower(e)
    ok, dev = verify_weight_law((src.n_pseudo,), (src.n_pseudo,), identity(), 2, env=e.env)
    assert ok and dev < 1e-12


def test_weight_law_gamma_under_random_affine():
    rng = random.Random(31)
    e = eqs.p34_cuberoot(1)
    src = InvariantTower(e)
    for _ in range(2):
        a1, c1 = F(rng.randint(1, 3)), F(rng.choice([1, 8]))
        b1 = F(rng.randint(-2, 2))
        t = transform(Const(a1) * Sym("x") + Const(b1), Const(c1) * Sym("y"))
        inverse = (
            normalize((Sym("x") - Const(b1)) / Const(a1)),
            normalize(Sym("y") / Const(c1)),
        )
        te = apply_transform(e, t, inverse)
        dst = InvariantTower(te)
        g1, g2 = src.gamma
        h1, h2 = dst.gamma
        ok, dev = verify_weight_law((g1, g2), (h1, h2), t, 3, env=e.env)
        assert ok, dev


def test_weight_law_detects_wrong_weight():
    e = eqs.p34_cuberoot(1)
    t = transform("2*x", "3*y")
    te = apply_transform(e, t, (parse("x/2"), parse("y/3")))
    src, dst = InvariantTower(e), InvariantTower(te)
    ok, dev = verify_weight_law((src.n_pseudo,), (dst.n_pseudo,), t, 3, env=e.env)
    assert not ok
