"""Equations y'' = P + 3Q y' + 3R y'^2 + S y'^3 and point transformations.

An equation holds its coefficients P, Q, R and S, and a transform its new
variables u = x_new(x, y) and v = y_new(x, y), as RatFuncs from the moment
they are built; Exprs appear only when one is printed (``x_new``, ``y_new``,
``repr``).  The class is closed under invertible changes of both variables:
`pullback_coefficients` substitutes the source equation into the chain rule
and re-extracts the cubic, which writes the transformed coefficients as
functions of the old variables and needs no inverse.
`PointTransform.parts` is the one derivative table of a transform: the
Jacobian check, the pullback and the numeric oracle all read it.

The coefficients split from a right-hand side and the variables of a
transform pass through rf_reduce_roots once, when they are built: a power of
a root generator whose exponent shares a factor with the root index becomes
a power of its radicand, as it would if the RatFunc were printed and read
back.  So the cube of (3y - 1)^(1/3) is the polynomial 3y - 1, and a
recovered x_new that equals 2x + 1 is held, and printed, as 2*x + 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import DegenerateTransformError, NotCubicError
from .expr import (
    Expr,
    ParamEnv,
    RatFunc,
    is_zero,
    rf_reduce_roots,
    rf_to_expr,
    to_ratfunc,
    to_string,
)
from .expr.atoms import KIND_OPAQUE, KIND_SYMBOL, lookup_opaque, parse_gen
from .expr.poly import Poly

# The symbol that stands for the derivative y' in a right-hand side.
DERIV = "p"


class OdeCubic:
    """One equation of the cubic-in-derivative class, its coefficients RatFuncs."""

    def __init__(self, p: RatFunc, q: RatFunc, r: RatFunc, s: RatFunc,
                 env: ParamEnv | None = None, label: str = ""):
        self.p, self.q, self.r, self.s = p, q, r, s
        self.env = env or ParamEnv()
        self.label = label
        self.env.check_symbols(self.free_symbols())

    def coeffs(self) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
        return self.p, self.q, self.r, self.s

    def free_symbols(self) -> set[str]:
        out: set[str] = set()
        for c in self.coeffs():
            out |= c.free_symbols()
        return out

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        p, q, r, s = (to_string(rf_to_expr(c)) for c in self.coeffs())
        return f"OdeCubic{tag}(P={p}, Q={q}, R={r}, S={s})"


class PointTransform:
    """x_new(x, y) and y_new(x, y), held as the RatFuncs u and v."""

    def __init__(self, u: RatFunc, v: RatFunc):
        self.u = rf_reduce_roots(u)
        self.v = rf_reduce_roots(v)

    @cached_property
    def x_new(self) -> Expr:
        return rf_to_expr(self.u)

    @cached_property
    def y_new(self) -> Expr:
        return rf_to_expr(self.v)

    @cached_property
    def parts(self) -> dict[str, RatFunc]:
        """u = x_new and v = y_new with their first and second partials,
        keyed u, v, ux, uy, vx, vy, uxx, uxy, uyy, vxx, vxy, vyy."""
        u, v = self.u, self.v
        ux, uy = u.deriv("x"), u.deriv("y")
        vx, vy = v.deriv("x"), v.deriv("y")
        return {
            "u": u,
            "v": v,
            "ux": ux,
            "uy": uy,
            "vx": vx,
            "vy": vy,
            "uxx": ux.deriv("x"),
            "uxy": ux.deriv("y"),
            "uyy": uy.deriv("y"),
            "vxx": vx.deriv("x"),
            "vxy": vx.deriv("y"),
            "vyy": vy.deriv("y"),
        }

    def jacobian(self) -> RatFunc:
        p = self.parts
        return p["ux"] * p["vy"] - p["uy"] * p["vx"]

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
        for mono, c in num.monomials():
            k = mono[i]
            acc[k][mono[:i] + mono[i + 1 :]] = c
        buckets = [Poly.from_terms(rest_gens, t) for t in acc]
    else:
        buckets[0] = num
    return [RatFunc(b, den, rf.coeff) for b in buckets]


def _from_ratfunc(rf: RatFunc, env: ParamEnv | None, label: str) -> OdeCubic:
    """The OdeCubic of y'' = rf(x, y, p): P, 3Q, 3R and S are rf's coefficients in p."""
    c0, c1, c2, c3 = _coeffs_in_symbol(rf, DERIV, 3)
    third = Fraction(1, 3)
    coeffs = (c0, c1.scale(third), c2.scale(third), c3)
    return OdeCubic(*(rf_reduce_roots(c) for c in coeffs), env, label)


def from_rhs(rhs: Expr, env: ParamEnv | None = None, label: str = "") -> OdeCubic:
    """Build an OdeCubic from y'' = rhs(x, y, p) with p the derivative."""
    return _from_ratfunc(to_ratfunc(rhs), env, label)


def normalize_implicit(lead: Expr, rest: Expr, env: ParamEnv | None = None,
                       label: str = "") -> OdeCubic:
    """Build from lead(x,y) * y'' = rest(x, y, p) by dividing through."""
    lead_rf = to_ratfunc(lead)
    if is_zero(lead_rf, env).is_zero:
        raise NotCubicError("leading factor is identically zero")
    return _from_ratfunc(to_ratfunc(rest) / lead_rf, env, label)


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
    taken = e.free_symbols() | t.u.free_symbols() | t.v.free_symbols() | {"x", "y"}
    psym = _fresh_symbol("p", taken)
    qsym = _fresh_symbol("q", taken | {psym})
    p = RatFunc.from_gen(psym)
    q = RatFunc.from_gen(qsym)

    parts = t.parts
    ux, uy, vx, vy = parts["ux"], parts["uy"], parts["vx"], parts["vy"]
    uxx, uxy, uyy = parts["uxx"], parts["uxy"], parts["uyy"]
    vxx, vxy, vyy = parts["vxx"], parts["vxy"], parts["vyy"]

    cp, cq, cr, cs = e.coeffs()
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
    jac = t.jacobian()
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
