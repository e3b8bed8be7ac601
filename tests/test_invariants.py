import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from p34eq import equations as eqs
from p34eq.classify import Outcome, classify, test_p34, test_pii
from p34eq.errors import CaseError
from p34eq.expr import (
    Const,
    Poly,
    RatFunc,
    SamplePolicy,
    Sym,
    normalize,
    parse,
    rf_pow,
    rf_reduce_roots,
    rf_to_expr,
    to_ratfunc,
    to_string,
)
from p34eq.cli import _build_equation, run
from p34eq.invariants import _REPORTED, InvariantTower, compute_invariants
from p34eq.ode import from_rhs
from golden_cases import CASES
from helpers import apply_transform, p34_cuberoot_4_affine, rf, subst, transform


@pytest.fixture(scope="module")
def rational_tower():
    return InvariantTower(eqs.p34_rational("b"))


@pytest.fixture(scope="module")
def cuberoot_tower():
    return InvariantTower(eqs.p34_cuberoot("b"))


# ----- the rational-form table ------------------------------------------------


def test_alpha_components(rational_tower):
    t = rational_tower
    # A carries the second y-derivative of P plus the R-coupling terms.
    assert (t.A - rf("-3 - 3*b^2/(2*y^3)")).is_zero
    assert t.B.is_zero


def test_f5_vanishes(rational_tower):
    assert rational_tower.F5.is_zero


def test_omega_n_m_table(rational_tower):
    t = rational_tower
    assert t.omega.is_zero
    assert (t.n_pseudo - rf("5*b^2/(4*y^4) - 1/(2*y)")).is_zero
    assert (t.m_pseudo - rf("9/(10*y^2) - 63*b^2/(4*y^5)")).is_zero


def test_m_nonzero_with_zero_parameter():
    t = InvariantTower(eqs.p34_rational(0))
    assert (t.m_pseudo - rf("9/(10*y^2)")).is_zero
    assert t.verdict("M", t.m_pseudo).is_nonzero


def test_basic_invariants_rational_form(rational_tower):
    t = rational_tower
    assert (t.i1 - rf("-(36/5)*y^3*(35*b^2 - 2*y^3)/(5*b^2 - 2*y^3)^2")).is_zero
    assert t.i2.is_zero
    assert t.i7.is_zero


def test_syzygy_vanishes_for_the_family(rational_tower, cuberoot_tower):
    assert rational_tower.k_invariant.is_zero
    assert cuberoot_tower.k_invariant.is_zero


def test_syzygy_trivial_at_origin():
    # every monomial of the syzygy polynomial has an I1 or I4 factor
    zero = to_ratfunc(Const(0))
    i1 = zero
    i4 = zero
    k = (
        (i1**4).scale(500)
        - (i1**3).scale(7275)
        + (i4 * i1**2).scale(500)
        + (i1**2).scale(32940)
        - (i4 * i1).scale(5475)
        - i1.scale(47628)
        + (i4**2).scale(125)
        + i4.scale(13230)
    )
    assert k.is_zero


def test_syzygy_numeric_at_sample(cuberoot_tower):
    # frozen from the printed I1, I4 at y = 1: I1 = -132/5, I4 = -1080
    i1 = F(-132, 5)
    i4 = F(-1080)
    k = (
        500 * i1**4 - 7275 * i1**3 + 500 * i4 * i1**2 + 32940 * i1**2
        - 5475 * i4 * i1 - 47628 * i1 + 125 * i4**2 + 13230 * i4
    )
    assert k == 0


def _horner_k(t: InvariantTower) -> RatFunc:
    """The paper's syzygy polynomial in Horner form in I1."""
    i1, i4, c = t.i1, t.i4, RatFunc.const
    k = i1.scale(500) - c(7275)
    k = k * i1 + i4.scale(500) + c(32940)
    k = k * i1 - i4.scale(5475) - c(47628)
    return k * i1 + i4 * (i4.scale(125) + c(13230))


def _expanded_x(t: InvariantTower) -> RatFunc:
    """The paper's x recovery with its numerator expanded in the recovered y."""
    yt, i3, c = t.recovered_y, t.i3, RatFunc.const
    num = (
        (i3.scale(120) - c(8)) * yt**3
        + (i3.scale(180) + c(138)) * yt**2
        + (i3.scale(90) + c(35)) * yt
        + i3.scale(15)
    )
    return num / (rf_pow(yt, F(5, 3)) * (yt.scale(2) - c(35)).scale(2))


@pytest.mark.parametrize(
    "build, on_the_family",
    [
        (lambda: eqs.electrodiffusion_3b(2, 3, 5, 7), True),
        (lambda: eqs.electrodiffusion_3b(1, "k1", 1, 0), True),
        (eqs.electrodiffusion_3a, True),
        (lambda: eqs.ince_xxxiv(2), True),
        (p34_cuberoot_4_affine, True),
        (lambda: eqs.painleve_iv(1, 2), False),
    ],
    ids=["electrodiffusion_3b_2_3_5_7", "electrodiffusion_3b_k1", "electrodiffusion_3a",
         "ince_xxxiv_2", "p34_cuberoot_4_affine", "painleve_iv_1_2"],
)
def test_factored_k_and_x_equal_the_reference_forms(build, on_the_family):
    t = InvariantTower(build())
    assert t.k_invariant.is_zero is on_the_family
    for got, ref in ((t.k_invariant, _horner_k(t)), (t.recovered_x, _expanded_x(t))):
        assert (got.coeff, got.num, got.den) == (ref.coeff, ref.num, ref.den)


def test_recovered_x_takes_the_cube_of_the_recovered_y_out_of_its_root():
    # y recovers as a non-monomial perfect cube c L^3 here, so yt^(5/3) is
    # c^(5/3) L^5, and x recovers with no compound radicand
    t = InvariantTower(eqs.electrodiffusion_3b(2, 3, 5, 7))
    assert t.recovered_x == rf("(20*x + 28)/(2^(1/3)*5^(2/3))")
    assert InvariantTower(eqs.electrodiffusion_3b(1, 1, 1, 0)).recovered_x == rf("2*x")


def test_factored_k_and_x_take_few_poly_products(monkeypatch):
    # the factored forms keep their products as factor powers: the Horner K
    # and the expanded x numerator take 39 and 30 Poly products here
    t = InvariantTower(eqs.electrodiffusion_3b(2, 3, 5, 7))
    t.i1, t.i4, t.i3, t.recovered_y
    calls = []
    mul = Poly.__mul__

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    t.k_invariant
    k_products = len(calls)
    t.recovered_x
    assert k_products <= 24
    assert len(calls) - k_products <= 12


# ----- the zero-parameter branch ------------------------------------------------


def test_zero_parameter_invariants():
    t = InvariantTower(eqs.p34_rational(0))
    assert (t.i1 - to_ratfunc(Const(F(18, 5)))).is_zero
    assert (t.i3 - rf("(2*y + x)/(30*y)")).is_zero
    assert (t.i6 - rf("x/(5*y)")).is_zero
    assert (t.i9 - rf("-1/(1250*y^3)")).is_zero
    assert t.j_numerator.is_zero


# ----- the cube-root-form table --------------------------------------------------


def test_cuberoot_invariant_table(cuberoot_tower):
    t = cuberoot_tower
    assert (t.i1 - rf("(36/5)*y*(-35 + 2*y)/(2*y - 5)^2")).is_zero
    assert (t.i3 - rf("y*(4*y + 2*x*y^(2/3) + 1)*(-35 + 2*y)/(15*(2*y + 1)^3)")).is_zero
    assert (t.i4 - rf("-3240*(2*y + 7)*y*(2*y + 1)/(2*y - 5)^4")).is_zero
    assert (
        t.i9 - rf("-(64/625)*y^6*(2*y - 35)^4/(b^2*(2*y + 1)^8*(2*y - 5)^3)")
    ).is_zero


def test_recovery_round_trip(cuberoot_tower):
    t = cuberoot_tower
    assert (t.recovered_y - rf("y")).is_zero
    assert (t.recovered_x - rf("x")).is_zero
    assert (t.recovered_beta2 - rf("b^2")).is_zero


def test_recovered_y_is_exactly_y_on_cuberoot_normal_form():
    # The recovery denominator is nonzero for every beta^2, which is what
    # lets test_p34 read its vanishing as a failed condition.
    t = InvariantTower(eqs.p34_cuberoot("b2"))
    assert rf_to_expr(t.recovered_y) == Sym("y")


def test_recovered_beta2_on_transformed_fixture():
    got = InvariantTower(eqs.ince_xxxiv(1))
    assert (got.recovered_beta2 - to_ratfunc(Const(4))).is_zero


# ----- reference equation tables -------------------------------------------------


def test_pii_reference_values():
    t = InvariantTower(eqs.painleve_ii("a"))
    assert (t.A - rf("12*y")).is_zero
    assert t.B.is_zero
    assert t.F5.is_zero
    assert (t.i1 - to_ratfunc(Const(F(18, 5)))).is_zero
    assert t.i2.is_zero
    assert (t.i9 - rf("1/(2500*y^6)")).is_zero
    assert (t.j_squared - rf("a^2")).is_zero


def test_f5_zero_whenever_b_vanishes_identically():
    # With Q = R = S = 0 the second field has G = 0 and B = 0, so F^5 = 0
    # regardless of P; a genuinely general-case equation needs more coupling.
    t = InvariantTower(from_rhs(rf("y^5")))
    assert t.F5.is_zero
    assert t.verdict("A", t.A).is_nonzero


def test_f5_nonzero_fixture():
    t = InvariantTower(from_rhs(rf("y^2 + p^3*x^2")))
    assert t.verdict("F5", t.F5).is_nonzero


# ----- branch consistency ---------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_equation():
    # a linear mix of the rational form puts weight on both A and B
    t = transform("x + y/2", "x/3 + y")
    inverse = (normalize(parse("(6*x - 3*y)/5")), normalize(parse("(-2*x + 6*y)/5")))
    return apply_transform(eqs.p34_rational(1), t, inverse)


def test_both_branches_active(mixed_equation):
    t = InvariantTower(mixed_equation)
    assert t.verdict("A", t.A).is_nonzero
    assert t.verdict("B", t.B).is_nonzero
    assert t.F5.is_zero


def test_branch_agreement_exact(mixed_equation):
    t = InvariantTower(mixed_equation)
    for name in ("Omega", "N", "M"):
        assert (t.on_branch(name, "A") - t.on_branch(name, "B")).is_zero
    g_a = t.on_branch("gamma", "A")
    g_b = t.on_branch("gamma", "B")
    assert (g_a[0] - g_b[0]).is_zero
    assert (g_a[1] - g_b[1]).is_zero


XY_SWAP = transform("y", "x")


def _swapped(rf):
    """rf composed with the x <-> y swap."""
    return to_ratfunc(subst(rf_to_expr(rf), {"x": Sym("y"), "y": Sym("x")}))


@pytest.mark.parametrize(
    "ode",
    [eqs.painleve_iv(1, 2), eqs.p34_rational(3), from_rhs(rf("y*p + x*y"))],
    ids=["painleve_iv_1_2", "p34_rational_3", "yp_xy"],
)
def test_swap_symmetry(ode):
    # apply_transform pulls the equation back independently of the tower, so
    # the swapped equation's tower checks the B-frame rules of invariants.py
    t = InvariantTower(ode)
    s = InvariantTower(apply_transform(ode, XY_SWAP, (Sym("y"), Sym("x"))))
    assert t.B.is_zero and s.A.is_zero
    assert (s.B + _swapped(t.A)).is_zero
    assert (s.omega + _swapped(t.omega)).is_zero
    assert (s.n_pseudo - _swapped(t.n_pseudo)).is_zero
    assert (s.m_pseudo - _swapped(t.m_pseudo)).is_zero
    assert (s.gamma[0] + _swapped(t.gamma[1])).is_zero
    assert (s.gamma[1] + _swapped(t.gamma[0])).is_zero
    for name in ("i1", "i2", "i3", "i4", "i6", "i7", "i9"):
        assert (getattr(s, name) - _swapped(getattr(t, name))).is_zero, name


def test_branch_agreement_asserted_by_default(mixed_equation):
    t = InvariantTower(mixed_equation)
    assert t.omega is not None
    assert t.n_pseudo is not None
    assert t.m_pseudo is not None


def test_case_errors():
    zero = from_rhs(rf("0"))
    t = InvariantTower(zero)
    with pytest.raises(CaseError):
        _ = t.branch
    second_case = from_rhs(rf("y^2"))
    t2 = InvariantTower(second_case)
    assert t2.verdict("M", t2.m_pseudo).is_zero
    with pytest.raises(CaseError):
        t2.require_first_case()


# ----- verdict stability across seeds ----------------------------------------------


def test_predicate_stability_across_seeds():
    for seed in (1, 2, 3):
        t = InvariantTower(eqs.p34_rational("b"), policy=SamplePolicy(seed=seed))
        assert t.verdict("F5", t.F5).is_zero
        assert t.verdict("Omega", t.omega).is_zero
        assert t.verdict("I2", t.i2).is_zero
        assert t.verdict("I7", t.i7).is_zero


# ----- report assembly ---------------------------------------------------------------


def _decided_report(ode):
    """The tower after classification and both equivalence tests, and its report."""
    t = InvariantTower(ode)
    classify(ode, tower=t)
    pii, p34 = test_pii(ode, tower=t), test_p34(ode, tower=t)
    return t, pii, p34, compute_invariants(t)


def test_first_case_decides_no_zero_test_of_n():
    # M is linear in N and its derivatives, so M != 0 already rules out N = 0.
    t = InvariantTower(eqs.p34_rational("b"))
    classify(eqs.p34_rational("b"), tower=t)
    assert "M" in t._verdicts and "N" not in t._verdicts


def _reported_values(t) -> dict:
    """Each reported invariant the tower cached, by its report name."""
    out = {}
    for name, (stage, index) in _REPORTED.items():
        value = vars(t).get(stage)
        if value is not None:
            out[name] = value if index is None else value[index]
    return out


def _assert_texts_read_back(t, rep):
    """Each text of the report parses back to its value, with the root
    rewrite a print and parse does."""
    values = _reported_values(t)
    assert set(values) == {name for name, text in rep.items() if text is not None}
    for name, value in values.items():
        assert to_ratfunc(parse(rep[name])) == rf_reduce_roots(value), name


def test_compute_invariants_report():
    t, _, p34, rep = _decided_report(eqs.p34_rational("b"))
    assert p34.outcome is Outcome.EQUIVALENT_P34
    assert rep["B"] == rep["K"] == "0"
    _assert_texts_read_back(t, rep)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_invariant_text_reads_back(name):
    t, _, _, rep = _decided_report(_build_equation(CASES[name]))
    _assert_texts_read_back(t, rep)


def test_invariant_texts_are_the_same_fresh_and_after_other_decisions():
    # factors split as far as earlier decisions refined them; the text
    # groups them by exponent, so a new process prints what this one does
    name = "electrodiffusion_3b_2_3_5_7"
    code = (
        "import json\nfrom golden_cases import CASES\nfrom p34eq.cli import run\n"
        f"print(json.dumps(run(CASES[{name!r}])[1]['invariants']))"
    )
    src = str(Path(eqs.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])},
    )
    assert proc.returncode == 0, proc.stderr
    for other in sorted(CASES, reverse=True):
        if other != name:
            run(CASES[other])
    assert run(CASES[name])[1]["invariants"] == json.loads(proc.stdout)


def test_printing_the_invariants_expands_nothing(monkeypatch):
    # I9 here is four factors of at most 10 terms, and 1,091 terms expanded;
    # the report multiplies only factors that share an exponent
    ode = eqs.electrodiffusion_3b(2, 3, 5, 7)
    t = InvariantTower(ode)
    classify(ode, tower=t)
    test_pii(ode, tower=t)
    test_p34(ode, tower=t)
    assert t.i9._num is None and t.i9._den is None
    groups = sum(len({e for _, e in v.factors()}) for v in _reported_values(t).values())
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(None) or mul(a, b))
    compute_invariants(t)
    assert len(calls) <= groups
    assert t.i9._num is None and t.i9._den is None


def test_compute_invariants_j_zero_branch():
    t, pii, _, rep = _decided_report(eqs.p34_rational(0))
    assert pii.outcome is Outcome.EQUIVALENT_PII
    assert t.j_numerator.is_zero
    assert rep["I1"] == "18/5"
    assert rep["I9"] == to_string(rf_to_expr(rf("-1/(1250*y^3)")))


def test_compute_invariants_stops_on_degenerate_cases():
    _, pii, _, rep = _decided_report(from_rhs(rf("0")))
    assert pii.outcome is Outcome.OUT_OF_SCOPE
    assert rep["A"] == rep["B"] == "0"
    assert all(v is None for k, v in rep.items() if k not in ("A", "B"))
    _, pii, _, rep2 = _decided_report(from_rhs(rf("y^2 + p^3*x^2")))
    assert pii.failed_condition == "intermediate degeneration (F = 0)"
    assert rep2["F5"] is not None and rep2["Omega"] is None
