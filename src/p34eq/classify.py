"""Degeneration-case decision tree and the two equivalence tests.

Conditions are checked in the theorems' order; the first failure
short-circuits and is named in the result.  Every Equivalent outcome
carries a transform that passed the numeric jet oracle.  The candidate
transforms, the recovered P34 transform, the parameters and both target
equations are built from tower RatFuncs, and a decision neither prints nor
parses them.  A parameter is reported root-reduced (rf_reduce_roots), as a
transform holds its variables, and is rendered as an Expr only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from fractions import Fraction

from .errors import CaseError, UnknownVerdictError, VanishingRecoveryError
from .expr import (
    Expr,
    ParamEnv,
    RatFunc,
    SamplePolicy,
    is_zero,
    rf_pow,
    rf_reduce_roots,
    rf_to_expr,
    sample_any_quadrant,
)
from .equations import p34_cuberoot, painleve_ii
from .invariants import I1_PII, CaseTag, InvariantTower
from .ode import OdeCubic, PointTransform
from .oracle import ResidualReport, verify_transform

# Points the oracle checks a candidate transform at.
ORACLE_SAMPLES = 24


@dataclass
class Classification:
    tag: CaseTag
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def case_1_4(self) -> bool:
        return (
            self.tag is CaseTag.FIRST_CASE
            and self.flags.get("i2_zero", False)
            and self.flags.get("i7_zero", False)
        )

    def describe(self) -> str:
        if self.tag is CaseTag.FIRST_CASE:
            bits = [
                f"Omega{'=0' if self.flags.get('omega_zero') else '!=0'}",
                f"I2{'=0' if self.flags.get('i2_zero') else '!=0'}",
                f"I7{'=0' if self.flags.get('i7_zero') else '!=0'}",
            ]
            tail = " [case 1.4]" if self.case_1_4 else ""
            return f"{self.tag.value}: {', '.join(bits)}{tail}"
        return self.tag.value


class Outcome(Enum):
    EQUIVALENT_PII = "equivalent-pii"
    EQUIVALENT_P34 = "equivalent-p34"
    NOT_EQUIVALENT = "not-equivalent"
    OUT_OF_SCOPE = "out-of-scope"
    INCONCLUSIVE = "inconclusive"


@dataclass
class EquivalenceResult:
    outcome: Outcome
    detail: str = ""
    failed_condition: str | None = None
    a_rfs: tuple[RatFunc, ...] | None = None
    a_values: tuple[float, ...] | None = None
    beta2_rf: RatFunc | None = None
    beta_squared_value: float | None = None
    transform: PointTransform | None = None
    residual: ResidualReport | None = None

    @property
    def equivalent(self) -> bool:
        return self.outcome in (Outcome.EQUIVALENT_PII, Outcome.EQUIVALENT_P34)

    @cached_property
    def a_candidates(self) -> tuple[Expr, ...] | None:
        return None if self.a_rfs is None else tuple(map(rf_to_expr, self.a_rfs))

    @cached_property
    def beta_squared(self) -> Expr | None:
        return None if self.beta2_rf is None else rf_to_expr(self.beta2_rf)


def classify(
    ode: OdeCubic,
    policy: SamplePolicy | None = None,
    tower: InvariantTower | None = None,
) -> Classification:
    """Walk the degeneration decision tree; raises UnknownVerdictError when
    a predicate cannot be decided at the configured sampling effort."""
    t = tower or InvariantTower(ode, policy)
    if t.case is not CaseTag.FIRST_CASE:
        return Classification(t.case)
    flags = {
        "omega_zero": t.require("Omega", t.omega).is_zero,
        "i2_zero": t.require("I2 = 0", t.i2).is_zero,
        "i7_zero": t.require("I7 = 0", t.i7).is_zero,
    }
    return Classification(CaseTag.FIRST_CASE, flags=flags)


def _case_gate(t: InvariantTower) -> EquivalenceResult | None:
    """Common conditions 1 and 2 of both theorems; None when they hold."""
    try:
        case = t.case
    except UnknownVerdictError as exc:
        return EquivalenceResult(Outcome.INCONCLUSIVE, detail=str(exc))
    if case is CaseTag.GENERAL_CASE:
        return EquivalenceResult(
            Outcome.NOT_EQUIVALENT,
            failed_condition="intermediate degeneration (F = 0)",
            detail=case.value,
        )
    if case is not CaseTag.FIRST_CASE:
        return EquivalenceResult(Outcome.OUT_OF_SCOPE, detail=case.value)
    return None


def test_pii(
    ode: OdeCubic,
    policy: SamplePolicy | None = None,
    tower: InvariantTower | None = None,
) -> EquivalenceResult:
    """Equivalence test against y'' = 2y^3 + xy + a (parameter a = +-J)."""
    t = tower or InvariantTower(ode, policy)
    gate = _case_gate(t)
    if gate is not None:
        return gate
    try:
        if not t.require("Omega", t.omega).is_zero:
            return EquivalenceResult(
                Outcome.NOT_EQUIVALENT, failed_condition="Omega = 0"
            )
        if not t.require("I1 - 18/5", t.i1 - RatFunc.const(I1_PII)).is_zero:
            return EquivalenceResult(
                Outcome.NOT_EQUIVALENT, failed_condition="I1 = 18/5"
            )
        if not t.require("I9", t.i9).is_nonzero:
            return EquivalenceResult(Outcome.NOT_EQUIVALENT, failed_condition="I9 != 0")
        j2 = t.j_squared
        if not (
            t.require("dJ2/dx", j2.deriv("x")).is_zero
            and t.require("dJ2/dy", j2.deriv("y")).is_zero
        ):
            return EquivalenceResult(Outcome.NOT_EQUIVALENT, failed_condition="J constant")
        if _independent_pair(t) is None:
            return EquivalenceResult(
                Outcome.NOT_EQUIVALENT,
                failed_condition="two functionally independent invariants among I3, I6, I9",
            )
    except (UnknownVerdictError, CaseError) as exc:
        return EquivalenceResult(Outcome.INCONCLUSIVE, detail=str(exc))

    a_rf = rf_pow(j2, Fraction(1, 2))
    zero_j = t.verdict("J_numerator", t.j_numerator).is_zero or j2.is_zero
    if zero_j:
        a_rf = RatFunc.const(0)
    candidates = (a_rf,) if zero_j else (a_rf, -a_rf)
    a_rfs = tuple(map(rf_reduce_roots, candidates))
    a_values = tuple(_sample_value(c, ode.env, t.policy) for c in candidates)

    result = _build_pii_transform(ode, t, a_rf)
    if result is None:
        return EquivalenceResult(
            Outcome.INCONCLUSIVE,
            detail="all theorem conditions hold but no candidate transform "
            "passed the numeric oracle",
            a_rfs=a_rfs,
            a_values=a_values,
        )
    transform, report = result
    return EquivalenceResult(
        Outcome.EQUIVALENT_PII,
        a_rfs=a_rfs,
        a_values=a_values,
        transform=transform,
        residual=report,
        detail=f"verified against parameter a = {rf_to_expr(a_rfs[0])}",
    )


def _independent_pair(t: InvariantTower) -> tuple[str, str] | None:
    """The first functionally independent pair among I3, I6, I9, with the
    Jacobians built from the tower's cached gradients."""
    unknown = False
    for f, g in (("I3", "I6"), ("I3", "I9"), ("I6", "I9")):
        jac = t.d(f, 1, 0) * t.d(g, 0, 1) - t.d(f, 0, 1) * t.d(g, 1, 0)
        v = is_zero(jac, t.env, t.policy)
        if v.is_nonzero:
            return f, g
        unknown = unknown or v.is_unknown
    if unknown:
        raise UnknownVerdictError("functional independence of I3, I6, I9")
    return None


def _sample_value(rf: RatFunc, env: ParamEnv, policy: SamplePolicy) -> float:
    values, _ = sample_any_quadrant(rf.eval, rf.free_symbols(), env, policy, 1, need=1)
    return values[0] if values else float("nan")


def _pii_sigmas(t: InvariantTower) -> tuple[int, ...]:
    """The signs sigma to search, the sampled sign of I9 first.

    When I9 is a monomial ratio with every exponent even, its sign is that
    of its coefficient wherever it is real, so for the other sigma w is an
    even root of a negative value at every point and no candidate can pass.
    """
    i9 = t.i9
    if i9.is_monomial:
        coeff, exps = i9.monomial_parts()
        if all(e % 2 == 0 for e in exps.values()):
            return (1 if coeff > 0 else -1,)
    sigma_first = t.i9_sign or 1
    return sigma_first, -sigma_first


def _pii_candidates(t: InvariantTower, a_rf: RatFunc):
    """((sigma, tau, eps), transform, PII(a_rf)) in search order: x_new =
    5 sigma I6 w^-2 - (3/2) tau a w, y_new = eps / w, w = (2500 sigma I9)^(1/6).
    """
    target = painleve_ii(a_rf)
    for sigma in _pii_sigmas(t):
        w = rf_pow(t.i9.scale(2500 * sigma), Fraction(1, 6))
        w_inv = w ** (-1)
        base_x = t.i6.scale(5 * sigma) * w_inv * w_inv
        for tau in (1,) if a_rf.is_zero else (1, -1):
            x_new = base_x - (a_rf * w).scale(Fraction(3, 2) * tau)
            for eps in (1, -1):
                yield (sigma, tau, eps), PointTransform(x_new, w_inv.scale(eps)), target


def _build_pii_transform(ode: OdeCubic, t: InvariantTower, a_rf: RatFunc):
    """The first candidate transform to PII(a_rf) that the oracle passes.

    a is known only up to sign, but -a needs no search: y -> -y maps PII(a)
    onto PII(-a), so candidate (sigma, -a, tau, eps) is (sigma, a, -tau, -eps)
    with y_new negated and checks the same points to the same residuals, and
    the walk over both signs reached the +a one first.
    """
    for _, transform, target in _pii_candidates(t, a_rf):
        report = verify_transform(ode, target, transform, n=ORACLE_SAMPLES, policy=t.policy,
                                  fail_fast=True)
        if report.passed:
            return transform, report
    return None


def test_p34(
    ode: OdeCubic,
    policy: SamplePolicy | None = None,
    tower: InvariantTower | None = None,
) -> EquivalenceResult:
    """Equivalence test against the cube-root normal form with beta != 0."""
    t = tower or InvariantTower(ode, policy)
    gate = _case_gate(t)
    if gate is not None:
        return gate
    try:
        missing = [
            name
            for name, rf in (("I2 = 0", t.i2), ("I7 = 0", t.i7))
            if not t.require(name, rf).is_zero
        ]
        if missing:
            return EquivalenceResult(
                Outcome.NOT_EQUIVALENT, failed_condition=" and ".join(missing)
            )
        if not t.require("K", t.k_invariant).is_zero:
            return EquivalenceResult(Outcome.NOT_EQUIVALENT, failed_condition="K = 0")
        transform = PointTransform(t.recovered_x, t.recovered_y)
        if not t.require("recovered transform Jacobian", transform.jacobian()).is_nonzero:
            return EquivalenceResult(
                Outcome.NOT_EQUIVALENT,
                failed_condition="nondegenerate invariant change of variables",
            )
        b2 = t.recovered_beta2
        if not (
            t.require("d(beta^2)/dx", b2.deriv("x")).is_zero
            and t.require("d(beta^2)/dy", b2.deriv("y")).is_zero
        ):
            return EquivalenceResult(
                Outcome.NOT_EQUIVALENT, failed_condition="beta^2 constant"
            )
    except VanishingRecoveryError as exc:
        return EquivalenceResult(Outcome.NOT_EQUIVALENT, failed_condition=exc.condition)
    except (UnknownVerdictError, CaseError) as exc:
        return EquivalenceResult(Outcome.INCONCLUSIVE, detail=str(exc))

    b2_shown = rf_reduce_roots(b2)
    target = p34_cuberoot(b2_shown)
    report = verify_transform(ode, target, transform, n=ORACLE_SAMPLES, policy=t.policy)
    if not report.passed:
        return EquivalenceResult(
            Outcome.INCONCLUSIVE,
            detail=f"all theorem conditions hold but the recovered transform "
            f"did not pass the oracle ({report!r})",
            beta2_rf=b2_shown,
            transform=transform,
            residual=report,
        )
    return EquivalenceResult(
        Outcome.EQUIVALENT_P34,
        beta2_rf=b2_shown,
        beta_squared_value=_sample_value(b2, ode.env, t.policy),
        transform=transform,
        residual=report,
    )


test_pii.__test__ = False  # not a pytest case
test_p34.__test__ = False
