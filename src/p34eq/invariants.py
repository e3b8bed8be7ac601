"""The tower of pseudoinvariants and invariants for cubic-in-derivative ODEs.

Everything is computed exactly on reduced rational functions.  Both branch
formulas (pivoting on A or on B) are provided; the B-branch variants that
circulate with an inconsistent coupling term or sign are available behind
switches, with the default fixed by the x(t) <-> y(t) swap symmetry of the
field equations (the swap maps A to -B and the branch formulas onto each
other, which pins every sign).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import CaseError, UnknownVerdictError, VanishingRecoveryError
from .expr import (
    Expr,
    ParamEnv,
    RatFunc,
    SamplePolicy,
    ZeroVerdict,
    is_zero,
    rf_pow,
    rf_to_expr,
    sample_points,
)
from .errors import EvalDomainError, EvalPole
from .ode import OdeCubic


@dataclass(frozen=True)
class PseudoField:
    """Scalar or two-component field with its transformation weight."""

    components: tuple[Expr, ...]
    weight: int


@dataclass(frozen=True)
class TowerOptions:
    """Switches for the circulating B-branch formula variants.

    gamma_b_coupling: "AS" couples through A*S - B_y (swap-symmetric, the
    default); "AN" uses A*N - B_y instead.  B-branch results under "AN" do
    not satisfy the weight law and are flagged unverified.

    omega_b_term2_sign: +1 is swap-symmetric; -1 negates the second term.
    """

    gamma_b_coupling: str = "AS"
    omega_b_term2_sign: int = 1
    check_branch_agreement: bool = True


# I1 is this constant on Painleve II and on every equation equivalent to it.
I1_PII = Fraction(18, 5)


class InvariantTower:
    """Lazily computed invariants of one equation, shared across stages."""

    def __init__(
        self,
        ode: OdeCubic,
        policy: SamplePolicy | None = None,
        options: TowerOptions | None = None,
    ):
        self.ode = ode
        self.env = ode.env
        self.policy = policy or SamplePolicy()
        self.options = options or TowerOptions()
        self._derivs: dict[tuple[int, int, int], RatFunc] = {}
        self._verdicts: dict[str, ZeroVerdict] = {}
        p, q, r, s = ode.coeff_rfs()
        self._base = [p, q, r, s]

    # ----- derivative cache ----------------------------------------------

    def d(self, which: int, i: int, j: int) -> RatFunc:
        """K_{i.j} of the base coefficient (0=P, 1=Q, 2=R, 3=S)."""
        key = (which, i, j)
        if key in self._derivs:
            return self._derivs[key]
        if i == 0 and j == 0:
            out = self._base[which]
        elif i > 0:
            out = self.d(which, i - 1, j).deriv("x")
        else:
            out = self.d(which, i, j - 1).deriv("y")
        self._derivs[key] = out
        return out

    def verdict(self, name: str, rf: RatFunc) -> ZeroVerdict:
        if name not in self._verdicts:
            self._verdicts[name] = is_zero(rf, self.env, self.policy)
        return self._verdicts[name]

    def require(self, name: str, rf: RatFunc) -> ZeroVerdict:
        v = self.verdict(name, rf)
        if v.is_unknown:
            raise UnknownVerdictError(name, v)
        return v

    @property
    def verdicts(self) -> dict[str, ZeroVerdict]:
        return dict(self._verdicts)

    # ----- step 2: the two pseudovectorial fields and F -------------------

    @cached_property
    def A(self) -> RatFunc:
        P, Q, R, S = self._base
        d = self.d
        return (
            d(0, 0, 2)
            - d(1, 1, 1).scale(2)
            + d(2, 2, 0)
            + (P * d(3, 1, 0)).scale(2)
            + S * d(0, 1, 0)
            - (P * d(2, 0, 1)).scale(3)
            - (R * d(0, 0, 1)).scale(3)
            - (Q * d(2, 1, 0)).scale(3)
            + (Q * d(1, 0, 1)).scale(6)
        )

    @cached_property
    def B(self) -> RatFunc:
        P, Q, R, S = self._base
        d = self.d
        return (
            d(3, 2, 0)
            - d(2, 1, 1).scale(2)
            + d(1, 0, 2)
            - (S * d(0, 0, 1)).scale(2)
            - P * d(3, 0, 1)
            + (S * d(1, 1, 0)).scale(3)
            + (Q * d(3, 1, 0)).scale(3)
            + (R * d(1, 0, 1)).scale(3)
            - (R * d(2, 1, 0)).scale(6)
        )

    def _dAB(self, rf_name: str, i: int, j: int) -> RatFunc:
        key = (10 if rf_name == "A" else 11, i, j)
        if key in self._derivs:
            return self._derivs[key]
        if i == 0 and j == 0:
            out = self.A if rf_name == "A" else self.B
        elif i > 0:
            out = self._dAB(rf_name, i - 1, j).deriv("x")
        else:
            out = self._dAB(rf_name, i, j - 1).deriv("y")
        self._derivs[key] = out
        return out

    @cached_property
    def G(self) -> RatFunc:
        P, Q, R, S = self._base
        A, B = self.A, self.B
        dA, dB = self._dAB, self._dAB
        return (
            -(B * dB("B", 1, 0))
            - (A * dB("B", 0, 1)).scale(3)
            + (B * dA("A", 0, 1)).scale(4)
            + (S * A * A).scale(3)
            - (R * B * A).scale(6)
            + (Q * B * B).scale(3)
        )

    @cached_property
    def H(self) -> RatFunc:
        P, Q, R, S = self._base
        A, B = self.A, self.B
        d = self._dAB
        return (
            -(A * d("A", 0, 1))
            - (B * d("A", 1, 0)).scale(3)
            + (A * d("B", 1, 0)).scale(4)
            - (P * B * B).scale(3)
            + (Q * A * B).scale(6)
            - (R * A * A).scale(3)
        )

    @cached_property
    def F5(self) -> RatFunc:
        """The fifth power of the pseudoinvariant F: 3F^5 = AG + BH."""
        return (self.A * self.G + self.B * self.H).scale(Fraction(1, 3))

    # ----- branch selection ------------------------------------------------

    @cached_property
    def branch(self) -> str:
        va = self.require("A", self.A)
        if va.is_nonzero:
            return "A"
        vb = self.require("B", self.B)
        if vb.is_nonzero:
            return "B"
        raise CaseError("A and B both vanish: maximal degeneration, no branch applies")

    def _both_branches(self) -> bool:
        if not self.options.check_branch_agreement:
            return False
        va = self.verdict("A", self.A)
        vb = self.verdict("B", self.B)
        return va.is_nonzero and vb.is_nonzero

    def _assert_branch_agreement(self, name: str, a_val: RatFunc, b_val: RatFunc) -> None:
        diff = a_val - b_val
        v = is_zero(diff, self.env, self.policy)
        if not v.is_zero:
            raise CaseError(
                f"branch formulas for {name} disagree "
                f"(difference verdict {v.status.value}); "
                "this indicates an inconsistent input or a formula variant switch"
            )

    # ----- step 3: Omega, N, M ---------------------------------------------

    def omega_branch(self, branch: str) -> RatFunc:
        P, Q, R, S = self._base
        A, B = self.A, self.B
        d = self._dAB
        if branch == "A":
            A10 = d("A", 1, 0)
            return (
                (B * A10 * (B * P + A10)).scale(2) / (A**3)
                - ((d("B", 1, 0).scale(2) + (B * Q).scale(3)) * A10) / (A**2)
                + ((d("A", 0, 1) - d("B", 1, 0).scale(2)) * B * P) / (A**2)
                - (B * d("A", 2, 0) + B * B * self.d(0, 1, 0)) / (A**2)
                + d("B", 2, 0) / A
                + (
                    (d("B", 1, 0) * Q).scale(3)
                    + (B * self.d(1, 1, 0)).scale(3)
                    - d("B", 0, 1) * P
                    - B * self.d(0, 0, 1)
                )
                / A
                + self.d(1, 0, 1)
                - self.d(2, 1, 0).scale(2)
            )
        B01 = d("B", 0, 1)
        sign = self.options.omega_b_term2_sign
        return (
            (A * B01 * (A * S - B01)).scale(2) / (B**3)
            + ((d("A", 0, 1).scale(2) - (A * R).scale(3)) * B01).scale(sign) / (B**2)
            + ((d("B", 1, 0) - d("A", 0, 1).scale(2)) * A * S) / (B**2)
            + (A * d("B", 0, 2) - A * A * self.d(3, 0, 1)) / (B**2)
            - d("A", 0, 2) / B
            + (
                (d("A", 0, 1) * R).scale(3)
                + (A * self.d(2, 0, 1)).scale(3)
                - d("A", 1, 0) * S
                - A * self.d(3, 1, 0)
            )
            / B
            + self.d(2, 1, 0)
            - self.d(1, 0, 1).scale(2)
        )

    @cached_property
    def omega(self) -> RatFunc:
        out = self.omega_branch(self.branch)
        if self._both_branches():
            other = self.omega_branch("B" if self.branch == "A" else "A")
            self._assert_branch_agreement("Omega", out, other)
        return out

    def n_branch(self, branch: str) -> RatFunc:
        if branch == "A":
            return -self.H / self.A.scale(3)
        return self.G / self.B.scale(3)

    @cached_property
    def n_pseudo(self) -> RatFunc:
        out = self.n_branch(self.branch)
        if self._both_branches():
            other = self.n_branch("B" if self.branch == "A" else "A")
            self._assert_branch_agreement("N", out, other)
        return out

    def _dN(self, i: int, j: int) -> RatFunc:
        key = (12, i, j)
        if key in self._derivs:
            return self._derivs[key]
        if i == 0 and j == 0:
            out = self.n_pseudo
        elif i > 0:
            out = self._dN(i - 1, j).deriv("x")
        else:
            out = self._dN(i, j - 1).deriv("y")
        self._derivs[key] = out
        return out

    def m_branch(self, branch: str) -> RatFunc:
        P, Q, R, S = self._base
        A, B = self.A, self.B
        N = self.n_pseudo
        d = self._dAB
        N01, N10 = self._dN(0, 1), self._dN(1, 0)
        if branch == "A":
            return (
                -(B * N * (B * P + d("A", 1, 0))).scale(Fraction(12, 5)) / A
                + (B * N * Q).scale(Fraction(24, 5))
                + (N * d("B", 1, 0)).scale(Fraction(6, 5))
                + (N * d("A", 0, 1)).scale(Fraction(6, 5))
                - A * N01
                + B * N10
                - (A * N * R).scale(Fraction(12, 5))
            )
        return (
            -(A * N * (A * S - d("B", 0, 1))).scale(Fraction(12, 5)) / B
            + (A * N * R).scale(Fraction(24, 5))
            - (N * d("A", 0, 1)).scale(Fraction(6, 5))
            - (N * d("B", 1, 0)).scale(Fraction(6, 5))
            + B * N10
            - A * N01
            - (B * N * Q).scale(Fraction(12, 5))
        )

    @cached_property
    def m_pseudo(self) -> RatFunc:
        out = self.m_branch(self.branch)
        if self._both_branches():
            other = self.m_branch("B" if self.branch == "A" else "A")
            self._assert_branch_agreement("M", out, other)
        return out

    # ----- step 4: gamma and the invariants ---------------------------------

    def gamma_branch(self, branch: str) -> tuple[RatFunc, RatFunc]:
        P, Q, R, S = self._base
        A, B = self.A, self.B
        N, Om = self.n_pseudo, self.omega
        d = self._dAB
        N01, N10 = self._dN(0, 1), self._dN(1, 0)
        if branch == "A":
            core = B * P + d("A", 1, 0)
            g1 = (
                -(B * N * core).scale(Fraction(6, 5)) / (A**2)
                + (N * B * Q).scale(Fraction(18, 5)) / A
                + (N * (d("B", 1, 0) + d("A", 0, 1))).scale(Fraction(6, 5)) / A
                - N01
                - (N * R).scale(Fraction(12, 5))
                - (Om * B).scale(2)
            )
            g2 = (
                -(N * core).scale(Fraction(6, 5)) / A
                + N10
                + (N * Q).scale(Fraction(6, 5))
                + (Om * A).scale(2)
            )
            return g1, g2
        if self.options.gamma_b_coupling == "AS":
            core = A * S - d("B", 0, 1)
        else:  # the "AN" variant; fails the weight law, kept for comparison
            core = A * N - d("B", 0, 1)
        g1 = (
            -(N * core).scale(Fraction(6, 5)) / B
            - N01
            + (N * R).scale(Fraction(6, 5))
            - (Om * B).scale(2)
        )
        g2 = (
            -(A * N * core).scale(Fraction(6, 5)) / (B**2)
            + (N * A * R).scale(Fraction(18, 5)) / B
            - (N * (d("A", 0, 1) + d("B", 1, 0))).scale(Fraction(6, 5)) / B
            + N10
            - (N * Q).scale(Fraction(12, 5))
            + (Om * A).scale(2)
        )
        return g1, g2

    @cached_property
    def gamma(self) -> tuple[RatFunc, RatFunc]:
        self.require_first_case()
        return self.gamma_branch(self.branch)

    def require_first_case(self) -> None:
        if not self.require("M", self.m_pseudo).is_nonzero:
            raise CaseError("M vanishes: second case of intermediate degeneration")
        if not self.require("N", self.n_pseudo).is_nonzero:
            raise CaseError("N vanishes: basic invariants are undefined")

    @cached_property
    def gamma_hat(self) -> RatFunc:
        """The contracted connection component entering I3."""
        P, Q, R, S = self._base
        g1, g2 = self.gamma
        M = self.m_pseudo
        g1x, g1y = g1.deriv("x"), g1.deriv("y")
        g2x, g2y = g2.deriv("x"), g2.deriv("y")
        t1 = g1 * g2 * (g1x - g2y)
        t2 = g2 * g2 * g1y - g1 * g1 * g2x
        t3 = P * g1**3 + (Q * g1**2 * g2).scale(3) + (R * g1 * g2**2).scale(3) + S * g2**3
        return (t1 + t2 + t3) / M

    @cached_property
    def i1(self) -> RatFunc:
        self.require_first_case()
        return self.m_pseudo / (self.n_pseudo**2)

    @cached_property
    def i2(self) -> RatFunc:
        self.require_first_case()
        return (self.omega**2) / self.n_pseudo

    @cached_property
    def i3(self) -> RatFunc:
        return self.gamma_hat / self.m_pseudo

    def _directional(self, inv: RatFunc) -> tuple[RatFunc, RatFunc]:
        """(alpha-direction, gamma-direction) derivatives entering I4..I9."""
        ix, iy = inv.deriv("x"), inv.deriv("y")
        g1, g2 = self.gamma
        alpha_dir = (self.B * ix - self.A * iy) / self.n_pseudo
        # (c^2)/N^3 arranged as (c/N)^2/N: divisions happen before squaring,
        # which keeps the GCD operands small.
        scaled = (g1 * ix + g2 * iy) / self.n_pseudo
        gamma_dir = scaled**2 / self.n_pseudo
        return alpha_dir, gamma_dir

    @cached_property
    def _i4_i7(self) -> tuple[RatFunc, RatFunc]:
        return self._directional(self.i1)

    @cached_property
    def _i6_i9(self) -> tuple[RatFunc, RatFunc]:
        return self._directional(self.i3)

    @property
    def i4(self) -> RatFunc:
        return self._i4_i7[0]

    @property
    def i7(self) -> RatFunc:
        return self._i4_i7[1]

    @property
    def i6(self) -> RatFunc:
        return self._i6_i9[0]

    @property
    def i9(self) -> RatFunc:
        return self._i6_i9[1]

    # ----- J, K, and coordinate recovery -------------------------------------

    @cached_property
    def j_numerator(self) -> RatFunc:
        """4 + 10 I6 - 60 I3, the numerator of 50 sqrt(I9) J."""
        return RatFunc.const(4) + self.i6.scale(10) - self.i3.scale(60)

    @cached_property
    def j_squared(self) -> RatFunc:
        """J^2 = (4 + 10 I6 - 60 I3)^2 / (2500 I9); rational, so exact."""
        if not self.require("I9", self.i9).is_nonzero:
            raise CaseError("I9 vanishes: J is undefined")
        return self.j_numerator**2 / self.i9.scale(2500)

    @cached_property
    def i9_sign(self) -> int | None:
        """Sign of I9 on the sampling domain; None when mixed or undecided."""
        symbols = sorted(self.i9.free_symbols() | {"x", "y"})
        pts = sample_points(symbols, self.env, self.policy, n=self.policy.n_samples + 20)
        signs = set()
        kept = 0
        for a in pts:
            if kept >= self.policy.n_samples:
                break
            try:
                v = self.i9.eval(a)
            except (EvalPole, EvalDomainError):
                continue
            kept += 1
            if v > 0:
                signs.add(1)
            elif v < 0:
                signs.add(-1)
        if len(signs) == 1:
            return signs.pop()
        return None

    def j_expr(self) -> Expr | None:
        """J in closed form when representable over the reals; else None.

        When the numerator vanishes identically, J = 0 regardless of the
        branch of the square root.  Otherwise the root of |I9| is used with
        the recorded sign; for mixed-sign I9 no expression is reported.
        """
        if self.verdict("J_numerator", self.j_numerator).is_zero:
            return rf_to_expr(RatFunc.const(0))
        sign = self.i9_sign
        if sign is None:
            return None
        root = rf_pow(self.i9.scale(sign), Fraction(1, 2))
        return rf_to_expr(self.j_numerator / root.scale(50))

    @cached_property
    def k_invariant(self) -> RatFunc:
        """The syzygy polynomial in I1, I4 that vanishes for the target family."""
        i1, i4 = self.i1, self.i4
        return (
            (i1**4).scale(500)
            - (i1**3).scale(7275)
            + (i4 * i1**2).scale(500)
            + (i1**2).scale(32940)
            - (i4 * i1).scale(5475)
            - i1.scale(47628)
            + (i4**2).scale(125)
            + i4.scale(13230)
        )

    @cached_property
    def recovered_y(self) -> RatFunc:
        """Dependent-variable recovery from I1 and I4."""
        i1, i4 = self.i1, self.i4
        num = (i4 * (i1.scale(20) + RatFunc.const(3))) + (
            i1 * (i1.scale(5) - RatFunc.const(18)) * (i1.scale(5) - RatFunc.const(43))
        ).scale(3)
        den = (i4 * (i1.scale(10) - RatFunc.const(111))).scale(125) + (
            (i1.scale(5) - RatFunc.const(18))
            * (i1.scale(225) * i1 - i1.scale(5245) + RatFunc.const(27216))
        ).scale(3)
        if den.is_zero:
            raise VanishingRecoveryError("coordinate recovery")
        return (num / den).scale(Fraction(125, 2))

    @cached_property
    def recovered_x(self) -> RatFunc:
        """Independent-variable recovery from I3 and the recovered y."""
        yt = self.recovered_y
        i3 = self.i3
        num = (
            (i3.scale(120) - RatFunc.const(8)) * yt**3
            + (i3.scale(180) + RatFunc.const(138)) * yt**2
            + (i3.scale(90) + RatFunc.const(35)) * yt
            + i3.scale(15)
        )
        den = rf_pow(yt, Fraction(5, 3)) * (yt.scale(2) - RatFunc.const(35)).scale(2)
        if den.is_zero:
            raise VanishingRecoveryError("coordinate recovery")
        return num / den

    @cached_property
    def recovered_beta2(self) -> RatFunc:
        """Parameter recovery from I9 and the recovered y."""
        yt = self.recovered_y
        num = (yt**6) * ((yt.scale(2) - RatFunc.const(35)) ** 4)
        den = self.i9 * ((yt.scale(2) + RatFunc.const(1)) ** 8) * (
            (yt.scale(2) - RatFunc.const(5)) ** 3
        )
        if den.is_zero:
            raise VanishingRecoveryError("parameter recovery")
        return (num / den).scale(Fraction(-64, 625))


# ----- report assembly -------------------------------------------------------


@dataclass
class InvariantReport:
    """Everything the tower computed, in printable normal form."""

    label: str
    branch: str | None
    fields: dict[str, PseudoField] = field(default_factory=dict)
    invariants: dict[str, Expr | None] = field(default_factory=dict)
    verdicts: dict[str, ZeroVerdict] = field(default_factory=dict)
    i9_sign: int | None = None
    notes: list[str] = field(default_factory=list)


_WEIGHTS = {"A": 2, "B": 2, "F5": 5, "Omega": 1, "N": 2, "M": 4, "gamma": 3}


def compute_invariants(
    ode: OdeCubic,
    policy: SamplePolicy | None = None,
    options: TowerOptions | None = None,
    tower: InvariantTower | None = None,
) -> InvariantReport:
    """Run the tower as far as the degeneration case allows."""
    t = tower or InvariantTower(ode, policy, options)
    report = InvariantReport(label=ode.label, branch=None)
    report.fields["alpha"] = PseudoField(
        (rf_to_expr(t.B), rf_to_expr(-t.A)), _WEIGHTS["A"]
    )
    report.invariants["A"] = rf_to_expr(t.A)
    report.invariants["B"] = rf_to_expr(t.B)
    report.invariants["F5"] = rf_to_expr(t.F5)
    va = t.verdict("A", t.A)
    vb = t.verdict("B", t.B)
    if va.is_zero and vb.is_zero:
        report.notes.append("maximal degeneration: tower stops at alpha")
        report.verdicts = t.verdicts
        return report
    vf = t.verdict("F5", t.F5)
    if not vf.is_zero:
        report.notes.append("general case (F != 0): tower stops at F")
        report.verdicts = t.verdicts
        return report
    try:
        report.branch = t.branch
        report.invariants["Omega"] = rf_to_expr(t.omega)
        report.invariants["N"] = rf_to_expr(t.n_pseudo)
        report.invariants["M"] = rf_to_expr(t.m_pseudo)
        t.require_first_case()
        g1, g2 = t.gamma
        report.fields["gamma"] = PseudoField(
            (rf_to_expr(g1), rf_to_expr(g2)), _WEIGHTS["gamma"]
        )
        for name, rf in (
            ("I1", t.i1),
            ("I2", t.i2),
            ("I3", t.i3),
            ("I4", t.i4),
            ("I6", t.i6),
            ("I7", t.i7),
            ("I9", t.i9),
            ("K", t.k_invariant),
        ):
            report.invariants[name] = rf_to_expr(rf)
        if t.verdict("I9", t.i9).is_nonzero:
            report.invariants["J"] = t.j_expr()
            report.i9_sign = t.i9_sign
            if report.invariants["J"] is None:
                report.notes.append(
                    "I9 changes sign on the sampling domain: no real closed form for J"
                )
        else:
            report.invariants["J"] = None
            report.notes.append("I9 not certified nonzero: J omitted")
        if t.branch == "B" and t.options.gamma_b_coupling != "AS":
            report.notes.append("gamma computed with the 'AN' B-branch variant: unverified")
    except CaseError as exc:
        report.notes.append(str(exc))
    report.verdicts = t.verdicts
    return report


# ----- spec-facing operation wrappers -----------------------------------------


def alpha(ode: OdeCubic, policy: SamplePolicy | None = None) -> PseudoField:
    t = InvariantTower(ode, policy)
    return PseudoField((rf_to_expr(t.B), rf_to_expr(-t.A)), 2)


def f5(ode: OdeCubic, policy: SamplePolicy | None = None) -> Expr:
    return rf_to_expr(InvariantTower(ode, policy).F5)


def omega(ode: OdeCubic, policy: SamplePolicy | None = None, branch: str | None = None) -> Expr:
    t = InvariantTower(ode, policy)
    return rf_to_expr(t.omega_branch(branch) if branch else t.omega)


def n_pseudo(ode: OdeCubic, policy: SamplePolicy | None = None, branch: str | None = None) -> Expr:
    t = InvariantTower(ode, policy)
    return rf_to_expr(t.n_branch(branch) if branch else t.n_pseudo)


def m_pseudo(ode: OdeCubic, policy: SamplePolicy | None = None, branch: str | None = None) -> Expr:
    t = InvariantTower(ode, policy)
    return rf_to_expr(t.m_branch(branch) if branch else t.m_pseudo)


def gamma(ode: OdeCubic, policy: SamplePolicy | None = None) -> PseudoField:
    t = InvariantTower(ode, policy)
    g1, g2 = t.gamma
    return PseudoField((rf_to_expr(g1), rf_to_expr(g2)), 3)


def basic_invariants(ode: OdeCubic, policy: SamplePolicy | None = None) -> tuple[Expr, Expr, Expr]:
    t = InvariantTower(ode, policy)
    return rf_to_expr(t.i1), rf_to_expr(t.i2), rf_to_expr(t.i3)


def derived_invariants(
    ode: OdeCubic, policy: SamplePolicy | None = None
) -> tuple[Expr, Expr, Expr, Expr]:
    t = InvariantTower(ode, policy)
    return rf_to_expr(t.i4), rf_to_expr(t.i6), rf_to_expr(t.i7), rf_to_expr(t.i9)


def j_invariant(ode: OdeCubic, policy: SamplePolicy | None = None) -> Expr | None:
    return InvariantTower(ode, policy).j_expr()


def k_invariant(ode: OdeCubic, policy: SamplePolicy | None = None) -> Expr:
    return rf_to_expr(InvariantTower(ode, policy).k_invariant)


def recover_coordinates(
    ode: OdeCubic, policy: SamplePolicy | None = None
) -> tuple[Expr, Expr, Expr]:
    t = InvariantTower(ode, policy)
    return (
        rf_to_expr(t.recovered_y),
        rf_to_expr(t.recovered_x),
        rf_to_expr(t.recovered_beta2),
    )
