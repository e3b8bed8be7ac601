"""The tower of pseudoinvariants and invariants for cubic-in-derivative ODEs.

Everything is computed exactly on reduced rational functions.  Each formula
is written once, pivoting on A.  The x(t) <-> y(t) swap of the field
equations maps the A-pivot formulas onto the B-pivot ones, so the B side is
the same formula read in the B frame, where

    P, Q, R, S -> -S, -R, -Q, -P    A, B -> -B, -A    H, G -> G, H
    N -> N    M -> M    Omega -> -Omega    K_{i.j} -> K_{j.i}

for every derivative order (i, j).  Hence B is -A and G is H read in the
B frame, and the B-pivot Omega, N, M and gamma are -Omega, N, M and
(-gamma2, -gamma1) read there.  When A and B are both nonzero, Omega, N
and M are computed on both pivots and must agree exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import CaseError, UnknownVerdictError, VanishingRecoveryError
from .expr import (
    RatFunc,
    SamplePolicy,
    ZeroVerdict,
    is_zero,
    rf_pow,
    rf_to_factored_expr,
    to_string,
)
from .ode import OdeCubic


class CaseTag(Enum):
    MAXIMAL_DEGENERATION = "maximal degeneration"
    GENERAL_CASE = "general case (F != 0)"
    SECOND_CASE = "second case of intermediate degeneration (M = 0)"
    FIRST_CASE = "first case of intermediate degeneration (M != 0)"


# I1 is this constant on Painleve II and on every equation equivalent to it.
I1_PII = Fraction(18, 5)

# The B frame: name -> (sign, name read in its place).
_SWAP = {
    "P": (-1, "S"), "Q": (-1, "R"), "R": (-1, "Q"), "S": (-1, "P"),
    "A": (-1, "B"), "B": (-1, "A"), "H": (1, "G"), "G": (1, "H"),
    "N": (1, "N"), "M": (1, "M"), "Omega": (-1, "Omega"),
}

# The tower stage that computes each derived quantity the derivative cache holds.
_STAGE = {
    "A": "A", "B": "B", "G": "G", "H": "H", "N": "n_pseudo", "Omega": "omega",
    "I1": "i1", "I3": "i3", "I6": "i6", "I9": "i9",
}

# d(name, i, j) in one frame: name differentiated i times in x and j times in y.
_Deriv = Callable[..., RatFunc]


# ----- the formulas, pivoting on A ---------------------------------------------


def _a(d: _Deriv) -> RatFunc:
    P, Q, R, S = d("P"), d("Q"), d("R"), d("S")
    return (
        d("P", 0, 2)
        - d("Q", 1, 1).scale(2)
        + d("R", 2, 0)
        + (P * d("S", 1, 0)).scale(2)
        + S * d("P", 1, 0)
        - (P * d("R", 0, 1)).scale(3)
        - (R * d("P", 0, 1)).scale(3)
        - (Q * d("R", 1, 0)).scale(3)
        + (Q * d("Q", 0, 1)).scale(6)
    )


def _h(d: _Deriv) -> RatFunc:
    P, Q, R = d("P"), d("Q"), d("R")
    A, B = d("A"), d("B")
    return (
        -(A * d("A", 0, 1))
        - (B * d("A", 1, 0)).scale(3)
        + (A * d("B", 1, 0)).scale(4)
        - (P * B * B).scale(3)
        + (Q * A * B).scale(6)
        - (R * A * A).scale(3)
    )


def _omega(d: _Deriv) -> RatFunc:
    P, Q = d("P"), d("Q")
    A, B = d("A"), d("B")
    A10, B10 = d("A", 1, 0), d("B", 1, 0)
    return (
        (B * A10 * (B * P + A10)).scale(2) / (A**3)
        - ((B10.scale(2) + (B * Q).scale(3)) * A10) / (A**2)
        + ((d("A", 0, 1) - B10.scale(2)) * B * P) / (A**2)
        - (B * d("A", 2, 0) + B * B * d("P", 1, 0)) / (A**2)
        + d("B", 2, 0) / A
        + (
            (B10 * Q).scale(3)
            + (B * d("Q", 1, 0)).scale(3)
            - d("B", 0, 1) * P
            - B * d("P", 0, 1)
        )
        / A
        + d("Q", 0, 1)
        - d("R", 1, 0).scale(2)
    )


def _n(d: _Deriv) -> RatFunc:
    return -d("H") / d("A").scale(3)


def _m(d: _Deriv) -> RatFunc:
    P, Q, R = d("P"), d("Q"), d("R")
    A, B, N = d("A"), d("B"), d("N")
    return (
        -(B * N * (B * P + d("A", 1, 0))).scale(Fraction(12, 5)) / A
        + (B * N * Q).scale(Fraction(24, 5))
        + (N * d("B", 1, 0)).scale(Fraction(6, 5))
        + (N * d("A", 0, 1)).scale(Fraction(6, 5))
        - A * d("N", 0, 1)
        + B * d("N", 1, 0)
        - (A * N * R).scale(Fraction(12, 5))
    )


def _gamma(d: _Deriv) -> tuple[RatFunc, RatFunc]:
    P, Q, R = d("P"), d("Q"), d("R")
    A, B, N, Om = d("A"), d("B"), d("N"), d("Omega")
    core = B * P + d("A", 1, 0)
    g1 = (
        -(B * N * core).scale(Fraction(6, 5)) / (A**2)
        + (N * B * Q).scale(Fraction(18, 5)) / A
        + (N * (d("B", 1, 0) + d("A", 0, 1))).scale(Fraction(6, 5)) / A
        - d("N", 0, 1)
        - (N * R).scale(Fraction(12, 5))
        - (Om * B).scale(2)
    )
    g2 = (
        -(N * core).scale(Fraction(6, 5)) / A
        + d("N", 1, 0)
        + (N * Q).scale(Fraction(6, 5))
        + (Om * A).scale(2)
    )
    return g1, g2


_ON_BRANCH = {"Omega": _omega, "N": _n, "M": _m, "gamma": _gamma}


class InvariantTower:
    """Lazily computed invariants of one equation, shared across stages."""

    def __init__(self, ode: OdeCubic, policy: SamplePolicy | None = None):
        self.ode = ode
        self.env = ode.env
        self.policy = policy or SamplePolicy()
        self._verdicts: dict[str, ZeroVerdict] = {}
        self._derivs: dict[tuple[str, int, int], RatFunc] = {
            (name, 0, 0): rf for name, rf in zip("PQRS", ode.coeffs())
        }

    # ----- derivative cache ----------------------------------------------

    def d(self, name: str, i: int = 0, j: int = 0) -> RatFunc:
        """K_{i.j}: a coefficient P, Q, R, S, a quantity A, B, G, H, N, Omega
        or an invariant I1, I3, I6, I9 differentiated i times in x and j
        times in y."""
        key = (name, i, j)
        out = self._derivs.get(key)
        if out is None:
            if i > 0:
                out = self.d(name, i - 1, j).deriv("x")
            elif j > 0:
                out = self.d(name, i, j - 1).deriv("y")
            else:
                out = getattr(self, _STAGE[name])
            self._derivs[key] = out
        return out

    def _d_swapped(self, name: str, i: int = 0, j: int = 0) -> RatFunc:
        """d as the B frame reads it."""
        sign, other = _SWAP[name]
        out = self.d(other, j, i)
        return out if sign > 0 else -out

    def verdict(self, name: str, rf: RatFunc) -> ZeroVerdict:
        if name not in self._verdicts:
            self._verdicts[name] = is_zero(rf, self.env, self.policy)
        return self._verdicts[name]

    def require(self, name: str, rf: RatFunc) -> ZeroVerdict:
        v = self.verdict(name, rf)
        if v.is_unknown:
            raise UnknownVerdictError(name, v)
        return v

    # ----- step 2: the two pseudovectorial fields and F -------------------

    @cached_property
    def A(self) -> RatFunc:
        return _a(self.d)

    @cached_property
    def B(self) -> RatFunc:
        return -_a(self._d_swapped)

    @cached_property
    def H(self) -> RatFunc:
        return _h(self.d)

    @cached_property
    def G(self) -> RatFunc:
        return _h(self._d_swapped)

    @cached_property
    def F5(self) -> RatFunc:
        """The fifth power of the pseudoinvariant F: 3F^5 = AG + BH."""
        return (self.A * self.G + self.B * self.H).scale(Fraction(1, 3))

    # ----- branch and degeneration case -------------------------------------

    @cached_property
    def branch(self) -> str:
        va = self.require("A", self.A)
        if va.is_nonzero:
            return "A"
        vb = self.require("B", self.B)
        if vb.is_nonzero:
            return "B"
        raise CaseError("A and B both vanish: maximal degeneration, no branch applies")

    @cached_property
    def case(self) -> CaseTag:
        """The degeneration case, decided in the theorems' order: A and B, F, M.

        Raises UnknownVerdictError naming the first predicate that sampling
        cannot decide.
        """
        va = self.require("A", self.A)
        vb = self.require("B", self.B)
        if va.is_zero and vb.is_zero:
            return CaseTag.MAXIMAL_DEGENERATION
        if self.require("F5", self.F5).is_nonzero:
            return CaseTag.GENERAL_CASE
        if self.require("M", self.m_pseudo).is_zero:
            return CaseTag.SECOND_CASE
        return CaseTag.FIRST_CASE

    def on_branch(self, name: str, branch: str):
        """Omega, N, M or gamma by the formula pivoting on ``branch``."""
        if branch == "A":
            return _ON_BRANCH[name](self.d)
        value = _ON_BRANCH[name](self._d_swapped)
        if name == "gamma":
            return -value[1], -value[0]
        return value if _SWAP[name][0] > 0 else -value

    def _agreed(self, name: str) -> RatFunc:
        """``name`` on the branch; with A and B both nonzero, both pivots must agree."""
        out = self.on_branch(name, self.branch)
        if self.verdict("A", self.A).is_nonzero and self.verdict("B", self.B).is_nonzero:
            other = self.on_branch(name, "B" if self.branch == "A" else "A")
            v = is_zero(out - other, self.env, self.policy)
            if not v.is_zero:
                raise CaseError(
                    f"branch formulas for {name} disagree "
                    f"(difference verdict {v.status.value}); "
                    "this indicates an inconsistent input"
                )
        return out

    # ----- step 3: Omega, N, M ---------------------------------------------

    @cached_property
    def omega(self) -> RatFunc:
        return self._agreed("Omega")

    @cached_property
    def n_pseudo(self) -> RatFunc:
        return self._agreed("N")

    @cached_property
    def m_pseudo(self) -> RatFunc:
        return self._agreed("M")

    # ----- step 4: gamma and the invariants ---------------------------------

    @cached_property
    def gamma(self) -> tuple[RatFunc, RatFunc]:
        self.require_first_case()
        return self.on_branch("gamma", self.branch)

    def require_first_case(self) -> None:
        # M is linear in N, N_x and N_y, so M != 0 implies N != 0.
        if not self.require("M", self.m_pseudo).is_nonzero:
            raise CaseError("M vanishes: second case of intermediate degeneration")

    @cached_property
    def gamma_hat(self) -> RatFunc:
        """The contracted connection component entering I3."""
        P, Q, R, S = self.d("P"), self.d("Q"), self.d("R"), self.d("S")
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

    def _directional(self, name: str) -> tuple[RatFunc, RatFunc]:
        """(alpha-direction, gamma-direction) derivatives of the invariant
        name, entering I4..I9."""
        ix, iy = self.d(name, 1, 0), self.d(name, 0, 1)
        g1, g2 = self.gamma
        alpha_dir = (self.B * ix - self.A * iy) / self.n_pseudo
        # (c^2)/N^3 arranged as (c/N)^2/N: divisions happen before squaring,
        # which keeps the GCD operands small.
        scaled = (g1 * ix + g2 * iy) / self.n_pseudo
        gamma_dir = scaled**2 / self.n_pseudo
        return alpha_dir, gamma_dir

    @cached_property
    def _i4_i7(self) -> tuple[RatFunc, RatFunc]:
        return self._directional("I1")

    @cached_property
    def _i6_i9(self) -> tuple[RatFunc, RatFunc]:
        return self._directional("I3")

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
    def k_invariant(self) -> RatFunc:
        """The syzygy in I1, I4 that vanishes for the target family, factored as
        (5 I1 - 18)(20 I1 - 147)(I1 (5 I1 - 18) + 5 I4) + 125 I4^2, so that it
        takes two sums; at I4 = 0 it has a double root at the PII value 18/5."""
        i1, i4, c = self.i1, self.i4, RatFunc.const
        pii = i1.scale(5) - c(18)
        return pii * (i1.scale(20) - c(147)) * (i1 * pii + i4.scale(5)) + (i4**2).scale(125)

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
        """Independent-variable recovery from I3 and the recovered y.  Its
        numerator 15 I3 (2y + 1)^3 - y (2y - 35)(4y + 1) takes one sum."""
        yt, c = self.recovered_y, RatFunc.const
        shifted = yt.scale(2) - c(35)
        num = self.i3.scale(15) * (yt.scale(2) + c(1)) ** 3 - yt * shifted * (yt.scale(4) + c(1))
        den = rf_pow(yt, Fraction(5, 3)) * shifted.scale(2)
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


# ----- the report --------------------------------------------------------------

# Each reported invariant in report order, with the tower stage that caches
# it and, for a stage that computes a pair, its index in the pair.
_REPORTED = {
    "A": ("A", None), "B": ("B", None), "F5": ("F5", None), "Omega": ("omega", None),
    "N": ("n_pseudo", None), "M": ("m_pseudo", None), "I1": ("i1", None),
    "I2": ("i2", None), "I3": ("i3", None), "I4": ("_i4_i7", 0), "I6": ("_i6_i9", 0),
    "I7": ("_i4_i7", 1), "I9": ("_i6_i9", 1), "K": ("k_invariant", None),
}


def compute_invariants(tower: InvariantTower) -> dict[str, str | None]:
    """Every reported invariant: rendered from its factors where a stage the
    decision ran cached it, None elsewhere.  Nothing is computed here."""
    cached = vars(tower)
    out: dict[str, str | None] = {}
    for name, (stage, index) in _REPORTED.items():
        value = cached.get(stage)
        if value is not None and index is not None:
            value = value[index]
        out[name] = None if value is None else to_string(rf_to_factored_expr(value))
    return out
