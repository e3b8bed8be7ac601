"""Equations y'' = P + 3Q y' + 3R y'^2 + S y'^3 and point transformations.

The class is closed under invertible changes of both variables.  The
transformed coefficients are obtained by substituting the source equation
into the chain rule and re-extracting the cubic; this pullback writes them
as functions of the old variables and needs no inverse.  Rewriting them in
the new variables (`apply_transform`) takes the inverse map from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateTransformError, NotCubicError
from .expr import (
    Const,
    Expr,
    ParamEnv,
    RatFunc,
    SamplePolicy,
    Sym,
    as_expr,
    free_symbols,
    is_zero,
    normalize,
    rf_to_expr,
    subst,
    to_ratfunc,
    to_string,
)
from .expr.atoms import KIND_OPAQUE, KIND_SYMBOL, lookup_opaque, parse_gen
from .expr.poly import Poly

# The symbol that stands for the derivative y' in a right-hand side.
DERIV = "p"


class OdeCubic:
    """One equation of the cubic-in-derivative class."""

    def __init__(self, p, q, r, s, env: ParamEnv | None = None, label: str = ""):
        self.p = as_expr(p)
        self.q = as_expr(q)
        self.r = as_expr(r)
        self.s = as_expr(s)
        self.env = env or ParamEnv()
        self.label = label
        self._rfs: tuple[RatFunc, ...] | None = None
        syms = self.free_symbols()
        self.env.check_symbols(syms)

    def coeffs(self) -> tuple[Expr, Expr, Expr, Expr]:
        return self.p, self.q, self.r, self.s

    def coeff_rfs(self) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
        if self._rfs is None:
            self._rfs = tuple(to_ratfunc(c) for c in self.coeffs())
        return self._rfs  # type: ignore[return-value]

    def free_symbols(self) -> set[str]:
        out: set[str] = set()
        for c in self.coeffs():
            out |= free_symbols(c)
        return out

    def rhs(self) -> Expr:
        """P + 3Q p + 3R p^2 + S p^3 with p the formal derivative symbol."""
        d = Sym(DERIV)
        return (
            self.p
            + Const(Fraction(3)) * self.q * d
            + Const(Fraction(3)) * self.r * d**2
            + self.s * d**3
        )

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"OdeCubic{tag}(P={to_string(normalize(self.p))}, "
            f"Q={to_string(normalize(self.q))}, R={to_string(normalize(self.r))}, "
            f"S={to_string(normalize(self.s))})"
        )


@dataclass(frozen=True)
class PointTransform:
    """x_new(x, y), y_new(x, y)."""

    x_new: Expr
    y_new: Expr

    def jacobian(self) -> Expr:
        u, v = to_ratfunc(self.x_new), to_ratfunc(self.y_new)
        j = u.deriv("x") * v.deriv("y") - u.deriv("y") * v.deriv("x")
        return rf_to_expr(j)

    def check_nondegenerate(self, env: ParamEnv, policy: SamplePolicy | None = None) -> None:
        if is_zero(self.jacobian(), env, policy).is_zero:
            raise DegenerateTransformError(
                f"transform ({to_string(self.x_new)}, {to_string(self.y_new)}) has zero Jacobian"
            )

    def __repr__(self):
        return f"PointTransform(x_new={to_string(self.x_new)}, y_new={to_string(self.y_new)})"


# ----- construction from right-hand sides -----------------------------------


def _check_no_symbol_in_atoms(rf: RatFunc, symbol: str) -> None:
    for g in rf.gens():
        info = parse_gen(g)
        if info.kind == KIND_SYMBOL and info.base == symbol and info.q > 1:
            raise NotCubicError(f"derivative symbol {symbol!r} under a fractional power")
        if info.kind == KIND_OPAQUE:
            base = lookup_opaque(str(info.base))
            if symbol in base.free_symbols():  # type: ignore[attr-defined]
                raise NotCubicError(f"derivative symbol {symbol!r} under a fractional power")


def _coeffs_in_symbol(rf: RatFunc, symbol: str, max_degree: int) -> list[RatFunc]:
    """Split num/den as a polynomial in one symbol with RatFunc coefficients."""
    _check_no_symbol_in_atoms(rf, symbol)
    den = rf.den
    if den.degree(symbol) > 0:
        raise NotCubicError(f"not polynomial in {symbol!r}: it survives in the denominator")
    num = rf.num
    if num.degree(symbol) > max_degree:
        raise NotCubicError(
            f"degree {num.degree(symbol)} in {symbol!r} exceeds {max_degree}"
        )
    buckets: list[Poly] = [Poly.zero() for _ in range(max_degree + 1)]
    if symbol in num.gens:
        i = num.gens.index(symbol)
        rest_gens = num.gens[:i] + num.gens[i + 1 :]
        acc: list[dict] = [dict() for _ in range(max_degree + 1)]
        for mono, c in num.terms.items():
            k = mono[i]
            acc[k][mono[:i] + mono[i + 1 :]] = c
        buckets = [Poly(rest_gens, t)._compress() for t in acc]
    else:
        buckets[0] = num
    return [RatFunc(b, den, rf.coeff) for b in buckets]


def from_rhs(rhs: Expr, env: ParamEnv | None = None, label: str = "") -> OdeCubic:
    """Build an OdeCubic from y'' = rhs(x, y, p) with p the derivative."""
    env = env or ParamEnv()
    rf = to_ratfunc(rhs)
    c0, c1, c2, c3 = _coeffs_in_symbol(rf, DERIV, 3)
    third = Fraction(1, 3)
    return OdeCubic(
        rf_to_expr(c0),
        rf_to_expr(c1.scale(third)),
        rf_to_expr(c2.scale(third)),
        rf_to_expr(c3),
        env,
        label,
    )


def normalize_implicit(lead: Expr, rest: Expr, env: ParamEnv | None = None,
                       label: str = "") -> OdeCubic:
    """Build from lead(x,y) * y'' = rest(x, y, p) by dividing through."""
    env = env or ParamEnv()
    lead_rf = to_ratfunc(lead)
    if lead_rf.is_zero:
        raise NotCubicError("leading factor is identically zero")
    if is_zero(lead, env).is_zero:
        raise NotCubicError("leading factor is identically zero")
    rhs = rf_to_expr(to_ratfunc(rest) / lead_rf)
    return from_rhs(rhs, env, label)


# ----- applying point transformations ----------------------------------------


def _fresh_symbol(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def pullback_coefficients(
    e: OdeCubic, t: PointTransform
) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
    """Transformed coefficients composed with t, i.e. as functions of (x, y).

    Writes the total derivatives of (x_new, y_new) along solutions, replaces
    y'' by the source equation and y' by its expression through the new
    first derivative, and re-extracts the cubic in the latter.
    """
    taken = e.free_symbols() | free_symbols(t.x_new) | free_symbols(t.y_new) | {"x", "y"}
    psym = _fresh_symbol("p", taken)
    qsym = _fresh_symbol("q", taken | {psym})
    p = RatFunc.from_gen(psym)
    q = RatFunc.from_gen(qsym)

    u = to_ratfunc(t.x_new)
    v = to_ratfunc(t.y_new)
    ux, uy = u.deriv("x"), u.deriv("y")
    vx, vy = v.deriv("x"), v.deriv("y")
    uxx, uxy, uyy = ux.deriv("x"), ux.deriv("y"), uy.deriv("y")
    vxx, vxy, vyy = vx.deriv("x"), vx.deriv("y"), vy.deriv("y")

    cp, cq, cr, cs = e.coeff_rfs()
    three = RatFunc.const(3)
    ypp = cp + three * cq * p + three * cr * p**2 + cs * p**3

    du = ux + uy * p
    dv = vx + vy * p
    d2u = uxx + RatFunc.const(2) * uxy * p + uyy * p**2 + uy * ypp
    d2v = vxx + RatFunc.const(2) * vxy * p + vyy * p**2 + vy * ypp

    numerator = d2v * du - dv * d2u  # polynomial in p, degree <= 4
    p_coeffs = _coeffs_in_symbol(numerator, psym, 4)

    # y' through the new first derivative: p = (ux q - vx) / (vy - uy q).
    top = ux * q - vx
    bot = vy - uy * q
    acc = RatFunc.const(0)
    for k, ck in enumerate(p_coeffs):
        if ck.is_zero:
            continue
        acc = acc + ck * top**k * bot ** (4 - k)
    jac = ux * vy - uy * vx
    if jac.is_zero:
        raise DegenerateTransformError("transform has identically zero Jacobian")
    ynew_pp = acc / (jac**3 * bot)

    q_coeffs = _coeffs_in_symbol(ynew_pp, qsym, 3)
    third = Fraction(1, 3)
    return (
        q_coeffs[0],
        q_coeffs[1].scale(third),
        q_coeffs[2].scale(third),
        q_coeffs[3],
    )


def apply_transform(
    e: OdeCubic,
    t: PointTransform,
    inverse: tuple[Expr, Expr],
    policy: SamplePolicy | None = None,
) -> OdeCubic:
    """The equation satisfied by y_new(x_new) when y(x) solves e.

    The coefficients of the result are written in the new variables by
    composing the pullback with ``inverse``, the old variables as functions
    of the new ones, written in the same two symbols: x = inverse[0](x, y),
    y = inverse[1](x, y).  The inverse is not checked against t.
    """
    t.check_nondegenerate(e.env, policy)
    binding = {"x": inverse[0], "y": inverse[1]}
    pb = pullback_coefficients(e, t)
    coeffs = [normalize(subst(rf_to_expr(c), binding)) for c in pb]
    label = f"{e.label}|transformed" if e.label else "transformed"
    return OdeCubic(*coeffs, env=e.env, label=label)
