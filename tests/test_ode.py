import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from p34eq import equations as eqs
from p34eq.cli import RunConfig, _build_equation
from p34eq.errors import NotCubicError
from p34eq.expr import ParamEnv, RatFunc, Sym, is_zero, normalize, parse, to_ratfunc
from p34eq.ode import OdeCubic, from_rhs, normalize_implicit, pullback_coefficients
from p34eq.oracle import verify_transform
from helpers import X, Y, apply_transform, rf, rhs, transform

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def coeffs_equal(e1: OdeCubic, e2: OdeCubic, env=None) -> bool:
    env = env or e1.env.merged(e2.env)
    return all(is_zero(a - b, env).is_zero for a, b in zip(e1.coeffs(), e2.coeffs()))


# ----- from_rhs ---------------------------------------------------------------


def test_from_rhs_rational_p34():
    e = from_rhs(rf("p^2/(2*y) - 2*y^2 - x*y - b^2/(2*y)"), ParamEnv({"b": "nonzero"}))
    assert (e.p - rf("-2*y^2 - x*y - b^2/(2*y)")).is_zero
    assert e.q.is_zero
    assert (e.r - rf("1/(6*y)")).is_zero
    assert e.s.is_zero


def test_from_rhs_cuberoot_form():
    e = from_rhs(rf("5*p^2/(6*y) - b^2*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)"),
                 ParamEnv({"b": "nonzero"}))
    assert (e.p + rf("b^2*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)")).is_zero
    assert (e.r - rf("5/(18*y)")).is_zero


def test_p34_cuberoot_builds_the_coefficients_a_parsed_rhs_gives():
    # the target form is built from RatFuncs; it must be the equation that
    # its printed right-hand side gives, coefficient for coefficient
    for b2, text in (("b", "b^2"), (4, "4"), (rf("a^2*2^(1/2)/(a + 1)"), "a^2*2^(1/2)/(a + 1)")):
        built = eqs.p34_cuberoot(b2)
        parsed = from_rhs(
            rf(f"5*p^2/(6*y) - ({text})*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)"), built.env
        )
        for a, b in zip(built.coeffs(), parsed.coeffs()):
            assert (a.coeff, a.num, a.den) == (b.coeff, b.num, b.den)


def _builder_call(name: str):
    """The catalog builder call a benchmark equation's name spells, such as
    electrodiffusion_3b(1,k1,1,0): pinned values as integers, symbols by name."""
    builder, args = re.fullmatch(r"(\w+)\((.*)\)", name).groups()
    values = (int(a) if a.lstrip("-").isdigit() else a for a in args.split(","))
    return getattr(eqs, builder)(*values)


@pytest.mark.parametrize(
    "equation",
    # p34_cuberoot reads a name s as beta^2 = s^2, so its symbolic text (beta^2
    # = b2) has no builder call; the test above covers that builder's names.
    [eq for eq in workloads.catalog() + workloads.electrodiffusion()
     if eq.name != "p34_cuberoot(b2)"],
    ids=lambda eq: eq.name,
)
def test_catalog_builders_give_the_equations_the_benchmark_types(equation):
    # the builders write their right-hand sides in RatFunc arithmetic; each
    # must be the equation the CLI reads from the text a user types for it,
    # coefficient for coefficient and declaration for declaration
    cli = equation.cli
    typed = _build_equation(RunConfig(
        rhs=cli.get("rhs"),
        implicit=tuple(cli["implicit"]) if "implicit" in cli else None,
        params=list(cli["params"]),
    ))
    built = _builder_call(equation.name)
    for a, b in zip(built.coeffs(), typed.coeffs()):
        assert (a.coeff, a.num, a.den) == (b.coeff, b.num, b.den)
    assert built.env.constraints == typed.env.constraints


def test_from_rhs_zero():
    e = from_rhs(rf("0"))
    assert all(c.is_zero for c in e.coeffs())


def test_from_rhs_reconstruction_round_trip():
    given = rf("p^3*y - 3*p^2/x + p*(x + y) - 1/y")
    assert to_ratfunc(rhs(from_rhs(given))) == given


@pytest.mark.parametrize(
    "bad",
    ["p^4 + y", "p^(1/2) + y", "1/(p + y)", "y/(1 - p^2)"],
)
def test_from_rhs_rejects_noncubic(bad):
    with pytest.raises(NotCubicError):
        from_rhs(rf(bad))


def test_undeclared_parameter_rejected_at_entry():
    from p34eq.errors import UndeclaredSymbolError

    with pytest.raises(UndeclaredSymbolError):
        from_rhs(rf("p^2 + c*y"), ParamEnv())


# ----- normalize_implicit ------------------------------------------------------


def test_normalize_implicit_unit_lead_matches_from_rhs():
    rhs = rf("p^2/(2*y) - 2*y^2")
    a = normalize_implicit(rf("1"), rhs)
    b = from_rhs(rhs)
    assert coeffs_equal(a, b)


def test_normalize_implicit_scales():
    rhs = rf("p^2 + y")
    a = normalize_implicit(rf("2"), rhs)
    b = from_rhs(rf("(p^2 + y)/2"))
    assert coeffs_equal(a, b)


def test_normalize_implicit_zero_lead_rejected():
    with pytest.raises(NotCubicError):
        normalize_implicit(rf("0"), rf("p + y"))


def test_electrodiffusion_3b_coefficients():
    e = eqs.electrodiffusion_3b(1, 1, 1, 0)
    assert (e.p - rf("2*y*(y + x)")).is_zero
    assert (e.q - rf("1/(3*(y + x))")).is_zero
    assert (e.r - rf("1/(6*(y + x))")).is_zero
    assert e.s.is_zero


# ----- apply_transform ----------------------------------------------------------


def test_identity_transform():
    e = eqs.p34_rational("b")
    xy = (Sym("x"), Sym("y"))
    assert coeffs_equal(apply_transform(e, transform(*xy), xy), e)


def test_swap_maps_lines_to_lines():
    zero = RatFunc.const(0)
    z = OdeCubic(zero, zero, zero, zero)
    yx = (Sym("y"), Sym("x"))
    assert all(c.is_zero for c in apply_transform(z, transform(*yx), yx).coeffs())


def test_ince_to_cuberoot_form_symbolic():
    # y_new = -2a y^3, x_new = x / (2a)^(2/3) carries Ince XXXIV to the
    # cube-root normal form with beta^2 = 4 a^2.
    e = eqs.ince_xxxiv("a")
    t = transform("x/(2*a)^(2/3)", "-2*a*y^3")
    inverse = (normalize(parse("x*(2*a)^(2/3)")), normalize(parse("(-y/(2*a))^(1/3)")))
    got = apply_transform(e, t, inverse)
    want = eqs.p34_cuberoot(rf("4*a^2"))
    assert coeffs_equal(got, want, ParamEnv({"a": "nonzero"}))


def test_composition_of_affine_transforms():
    rng = random.Random(64)
    e = eqs.p34_rational(1)
    for _ in range(3):
        a1, b1 = F(rng.randint(1, 3)), F(rng.randint(-2, 2))
        c2, d2 = F(rng.randint(1, 3)), F(rng.randint(-2, 2))
        x1 = X.scale(a1) + RatFunc.const(b1)
        x1_inv = (X - RatFunc.const(b1)).scale(1 / a1)
        y2 = Y.scale(c2) + RatFunc.const(d2)
        y2_inv = (Y - RatFunc.const(d2)).scale(1 / c2)
        t1 = transform(x1, Y)
        t2 = transform(X, y2)
        chained = apply_transform(apply_transform(e, t1, (x1_inv, Y)), t2, (X, y2_inv))
        # t1 then t2, composed by hand
        direct = apply_transform(e, transform(x1, y2), (x1_inv, y2_inv))
        assert coeffs_equal(chained, direct)


def test_affine_round_trip():
    e = eqs.p34_rational(1)
    t = transform("2*x + y + 1", "x + y")
    inverse = (normalize(parse("x - y - 1")), normalize(parse("-x + 2*y + 1")))
    back = transform(*inverse)
    there = apply_transform(e, t, inverse)
    assert coeffs_equal(apply_transform(there, back, (t.x_new, t.y_new)), e)


def test_transform_oracle_cross_validates_symbolic_path():
    # The jet oracle and the chain-rule transformer are independent paths;
    # they must agree on randomized source equations and affine transforms.
    rng = random.Random(12)
    for _ in range(3):
        e = from_rhs(
            rf("p^2/(2*y) - 2*y^2 - x*y")
            if rng.random() < 0.5
            else rf("p*y + x^2 - y^3/(x + 4)")
        )
        a, b = F(rng.randint(1, 3)), F(rng.randint(0, 2))
        c, d = F(rng.randint(1, 3)), F(rng.randint(0, 2))
        t = transform(X.scale(a) + RatFunc.const(b), Y.scale(c) + RatFunc.const(d))
        inverse = ((X - RatFunc.const(b)).scale(1 / a), (Y - RatFunc.const(d)).scale(1 / c))
        dst = apply_transform(e, t, inverse)
        report = verify_transform(e, dst, t, n=14)
        assert report.passed, report


def test_apply_transform_differentiates_the_transform_once(monkeypatch):
    # The Jacobian check and the pullback read one table of 10 partials.
    calls = []
    deriv = RatFunc.deriv

    def counting(self, var):
        calls.append(var)
        return deriv(self, var)

    monkeypatch.setattr(RatFunc, "deriv", counting)
    t = transform("2*x + y + 1", "x + y^2")
    inverse = (normalize(parse("x - y - 1")), normalize(parse("-x + 2*y + 1")))
    apply_transform(eqs.p34_rational(1), t, inverse)
    assert len(calls) == 10


def test_pullback_is_cubic():
    e = eqs.p34_rational(1)
    t = transform("x + y^2/7", "y - x^3/9")
    pb = pullback_coefficients(e, t)  # no inverse needed for pullbacks
    assert len(pb) == 4
