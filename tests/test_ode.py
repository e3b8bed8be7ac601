import random
from fractions import Fraction as F

import pytest

from p34eq import equations as eqs
from p34eq.errors import NotCubicError
from p34eq.expr import Const, ParamEnv, Sym, is_zero, normalize, parse, to_string
from p34eq.ode import (
    OdeCubic,
    PointTransform,
    apply_transform,
    from_rhs,
    normalize_implicit,
    pullback_coefficients,
)
from p34eq.oracle import verify_transform


def coeffs_equal(e1: OdeCubic, e2: OdeCubic, env=None) -> bool:
    env = env or e1.env.merged(e2.env)
    return all(
        is_zero(normalize(a - b), env).is_zero for a, b in zip(e1.coeffs(), e2.coeffs())
    )


# ----- from_rhs ---------------------------------------------------------------


def test_from_rhs_rational_p34():
    e = from_rhs(parse("p^2/(2*y) - 2*y^2 - x*y - b^2/(2*y)"), ParamEnv({"b": "nonzero"}))
    assert normalize(e.p - parse("-2*y^2 - x*y - b^2/(2*y)")) == Const(0)
    assert normalize(e.q) == Const(0)
    assert normalize(e.r - parse("1/(6*y)")) == Const(0)
    assert normalize(e.s) == Const(0)


def test_from_rhs_cuberoot_form():
    e = from_rhs(parse("5*p^2/(6*y) - b^2*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)"),
                 ParamEnv({"b": "nonzero"}))
    assert normalize(e.p + parse("b^2*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)")) == Const(0)
    assert normalize(e.r - parse("5/(18*y)")) == Const(0)


def test_from_rhs_zero():
    e = from_rhs(Const(0))
    assert all(normalize(c) == Const(0) for c in e.coeffs())


def test_from_rhs_reconstruction_round_trip():
    rhs = parse("p^3*y - 3*p^2/x + p*(x + y) - 1/y")
    e = from_rhs(rhs)
    assert normalize(e.rhs() - rhs) == Const(0)


@pytest.mark.parametrize(
    "bad",
    ["p^4 + y", "p^(1/2) + y", "1/(p + y)", "y/(1 - p^2)"],
)
def test_from_rhs_rejects_noncubic(bad):
    with pytest.raises(NotCubicError):
        from_rhs(parse(bad))


def test_undeclared_parameter_rejected_at_entry():
    from p34eq.errors import UndeclaredSymbolError

    with pytest.raises(UndeclaredSymbolError):
        from_rhs(parse("p^2 + c*y"), ParamEnv())


# ----- normalize_implicit ------------------------------------------------------


def test_normalize_implicit_unit_lead_matches_from_rhs():
    rhs = parse("p^2/(2*y) - 2*y^2")
    a = normalize_implicit(Const(1), rhs)
    b = from_rhs(rhs)
    assert coeffs_equal(a, b)


def test_normalize_implicit_scales():
    rhs = parse("p^2 + y")
    a = normalize_implicit(Const(2), rhs)
    b = from_rhs(parse("(p^2 + y)/2"))
    assert coeffs_equal(a, b)


def test_normalize_implicit_zero_lead_rejected():
    with pytest.raises(NotCubicError):
        normalize_implicit(Const(0), parse("p + y"))


def test_electrodiffusion_3b_coefficients():
    e = eqs.electrodiffusion_3b(1, 1, 1, 0)
    assert normalize(e.p - parse("2*y*(y + x)")) == Const(0)
    assert normalize(e.q - parse("1/(3*(y + x))")) == Const(0)
    assert normalize(e.r - parse("1/(6*(y + x))")) == Const(0)
    assert normalize(e.s) == Const(0)


# ----- apply_transform ----------------------------------------------------------


def test_identity_transform():
    e = eqs.p34_rational("b")
    xy = (Sym("x"), Sym("y"))
    assert coeffs_equal(apply_transform(e, PointTransform(*xy), xy), e)


def test_swap_maps_lines_to_lines():
    z = OdeCubic(0, 0, 0, 0)
    yx = (Sym("y"), Sym("x"))
    assert all(
        normalize(c) == Const(0) for c in apply_transform(z, PointTransform(*yx), yx).coeffs()
    )


def test_ince_to_cuberoot_form_symbolic():
    # y_new = -2a y^3, x_new = x / (2a)^(2/3) carries Ince XXXIV to the
    # cube-root normal form with beta^2 = 4 a^2.
    e = eqs.ince_xxxiv("a")
    t = PointTransform(
        normalize(parse("x/(2*a)^(2/3)")), normalize(parse("-2*a*y^3"))
    )
    inverse = (normalize(parse("x*(2*a)^(2/3)")), normalize(parse("(-y/(2*a))^(1/3)")))
    got = apply_transform(e, t, inverse)
    want = eqs.p34_cuberoot(parse("4*a^2"))
    assert coeffs_equal(got, want, ParamEnv({"a": "nonzero"}))


def test_composition_of_affine_transforms():
    rng = random.Random(64)
    e = eqs.p34_rational(1)
    for _ in range(3):
        a1, b1 = F(rng.randint(1, 3)), F(rng.randint(-2, 2))
        c2, d2 = F(rng.randint(1, 3)), F(rng.randint(-2, 2))
        x1 = normalize(Const(a1) * Sym("x") + Const(b1))
        x1_inv = normalize((Sym("x") - Const(b1)) / Const(a1))
        y2 = normalize(Const(c2) * Sym("y") + Const(d2))
        y2_inv = normalize((Sym("y") - Const(d2)) / Const(c2))
        t1 = PointTransform(x1, Sym("y"))
        t2 = PointTransform(Sym("x"), y2)
        chained = apply_transform(
            apply_transform(e, t1, (x1_inv, Sym("y"))), t2, (Sym("x"), y2_inv)
        )
        # t1 then t2, composed by hand
        direct = apply_transform(e, PointTransform(x1, y2), (x1_inv, y2_inv))
        assert coeffs_equal(chained, direct)


def test_affine_round_trip():
    e = eqs.p34_rational(1)
    t = PointTransform(
        normalize(parse("2*x + y + 1")), normalize(parse("x + y")),
    )
    inverse = (normalize(parse("x - y - 1")), normalize(parse("-x + 2*y + 1")))
    back = PointTransform(*inverse)
    there = apply_transform(e, t, inverse)
    assert coeffs_equal(apply_transform(there, back, (t.x_new, t.y_new)), e)


def test_transform_oracle_cross_validates_symbolic_path():
    # The jet oracle and the chain-rule transformer are independent paths;
    # they must agree on randomized source equations and affine transforms.
    rng = random.Random(12)
    for _ in range(3):
        e = from_rhs(
            parse("p^2/(2*y) - 2*y^2 - x*y")
            if rng.random() < 0.5
            else parse("p*y + x^2 - y^3/(x + 4)")
        )
        a, b = F(rng.randint(1, 3)), F(rng.randint(0, 2))
        c, d = F(rng.randint(1, 3)), F(rng.randint(0, 2))
        t = PointTransform(
            normalize(Const(a) * Sym("x") + Const(b)),
            normalize(Const(c) * Sym("y") + Const(d)),
        )
        inverse = (
            normalize((Sym("x") - Const(b)) / Const(a)),
            normalize((Sym("y") - Const(d)) / Const(c)),
        )
        dst = apply_transform(e, t, inverse)
        report = verify_transform(e, dst, t, n=14)
        assert report.passed, report


def test_pullback_is_cubic():
    e = eqs.p34_rational(1)
    t = PointTransform(normalize(parse("x + y^2/7")), normalize(parse("y - x^3/9")))
    pb = pullback_coefficients(e, t)  # no inverse needed for pullbacks
    assert len(pb) == 4
