"""Equations y'' = P + 3Q y' + 3R y'^2 + S y'^3 and point transformations.

The class is closed under invertible changes of both variables; the
transformed coefficients are obtained by substituting the source equation
into the chain rule and re-extracting the cubic, then rewriting the result
in the new variables through the inverse map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateTransformError,
    NotCubicError,
    TransformInversionError,
)
from .expr import (
    Const,
    Expr,
    ParamEnv,
    Pow,
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

    def rhs(self, deriv_symbol: str = "p") -> Expr:
        """P + 3Q p + 3R p^2 + S p^3 with p the formal derivative symbol."""
        d = Sym(deriv_symbol)
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
    """x_new(x, y), y_new(x, y); optionally with a closed-form inverse.

    The inverse pair is written in the same two symbols, read as the new
    variables: x = inverse[0](x_new, y_new), y = inverse[1](x_new, y_new).
    """

    x_new: Expr
    y_new: Expr
    inverse: tuple[Expr, Expr] | None = None

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


def compose(second: PointTransform, first: PointTransform) -> PointTransform:
    """The map first-then-second, as a single point transformation."""
    binding = {"x": first.x_new, "y": first.y_new}
    inv = None
    if first.inverse is not None and second.inverse is not None:
        inv_binding = {"x": second.inverse[0], "y": second.inverse[1]}
        inv = (
            normalize(subst(first.inverse[0], inv_binding)),
            normalize(subst(first.inverse[1], inv_binding)),
        )
    return PointTransform(
        normalize(subst(second.x_new, binding)),
        normalize(subst(second.y_new, binding)),
        inv,
    )


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


def from_rhs(rhs: Expr, env: ParamEnv | None = None, label: str = "",
             deriv_symbol: str = "p") -> OdeCubic:
    """Build an OdeCubic from y'' = rhs(x, y, p) with p the derivative."""
    env = env or ParamEnv()
    rf = to_ratfunc(rhs)
    c0, c1, c2, c3 = _coeffs_in_symbol(rf, deriv_symbol, 3)
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
                       label: str = "", deriv_symbol: str = "p") -> OdeCubic:
    """Build from lead(x,y) * y'' = rest(x, y, p) by dividing through."""
    env = env or ParamEnv()
    lead_rf = to_ratfunc(lead)
    if lead_rf.is_zero:
        raise NotCubicError("leading factor is identically zero")
    if is_zero(lead, env).is_zero:
        raise NotCubicError("leading factor is identically zero")
    rhs = rf_to_expr(to_ratfunc(rest) / lead_rf)
    return from_rhs(rhs, env, label, deriv_symbol)


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
    e: OdeCubic, t: PointTransform, policy: SamplePolicy | None = None
) -> OdeCubic:
    """The equation satisfied by y_new(x_new) when y(x) solves e.

    Coefficients of the result are expressed in the new variables, which
    requires a closed-form inverse: either supplied on the transform or
    derived automatically for affine and single-variable power maps.
    """
    t.check_nondegenerate(e.env, policy)
    inverse = t.inverse if t.inverse is not None else invert_point_transform(t)
    binding = {"x": inverse[0], "y": inverse[1]}
    pb = pullback_coefficients(e, t)
    coeffs = [normalize(subst(rf_to_expr(c), binding)) for c in pb]
    label = f"{e.label}|transformed" if e.label else "transformed"
    return OdeCubic(*coeffs, env=e.env, label=label)


# ----- closed-form inversion --------------------------------------------------


def invert_point_transform(t: PointTransform) -> tuple[Expr, Expr]:
    """Closed-form inverse for affine maps and separable power maps.

    Raises TransformInversionError when the shape is not recognized;
    callers that only need pullbacks (the numeric oracle) never invert.
    """
    u = to_ratfunc(t.x_new)
    v = to_ratfunc(t.y_new)
    affine = _try_affine_inverse(u, v)
    if affine is not None:
        return affine
    separable = _try_separable_inverse(u, v)
    if separable is not None:
        return separable
    raise TransformInversionError(
        "no closed-form inverse available; supply PointTransform.inverse explicitly"
    )


def _is_xy_free(rf: RatFunc) -> bool:
    return not (rf.free_symbols() & {"x", "y"})


def _try_affine_inverse(u: RatFunc, v: RatFunc) -> tuple[Expr, Expr] | None:
    comps = []
    for w in (u, v):
        wx, wy = w.deriv("x"), w.deriv("y")
        if not (_is_xy_free(wx) and _is_xy_free(wy)):
            return None
        c0 = w - wx * RatFunc.from_gen("x") - wy * RatFunc.from_gen("y")
        if not _is_xy_free(c0):
            return None
        comps.append((wx, wy, c0))
    (a, b, c), (d, e, f) = comps
    det = a * e - b * d
    if det.is_zero:
        return None
    xs = RatFunc.from_gen("x")
    ys = RatFunc.from_gen("y")
    x_old = (e * (xs - c) - b * (ys - f)) / det
    y_old = (a * (ys - f) - d * (xs - c)) / det
    return rf_to_expr(x_old), rf_to_expr(y_old)


def split_by_variable(rf: RatFunc, var: str) -> dict[Fraction, RatFunc] | None:
    """Write rf as sum of c_k * var**k with var-free coefficients.

    Requires a var-free denominator up to a monomial var power; returns
    None when the shape does not allow it (including var hidden inside a
    compound radicand).
    """
    for g in rf.gens():
        info = parse_gen(g)
        if info.kind == KIND_OPAQUE:
            base = lookup_opaque(str(info.base))
            if var in base.free_symbols():  # type: ignore[attr-defined]
                return None
    den = rf.den
    den_exp = Fraction(0)
    dgens = [
        g for g in den.gens
        if parse_gen(g).kind == KIND_SYMBOL and parse_gen(g).base == var
    ]
    if dgens:
        if not den.is_monomial:
            return None
        g = dgens[0]
        j = den.gens.index(g)
        dm, _ = den.leading()
        den_exp = Fraction(dm[j], parse_gen(g).q)
        terms = {m[:j] + m[j + 1 :]: c for m, c in den.terms.items()}
        den = Poly(den.gens[:j] + den.gens[j + 1 :], terms)._compress()
    num = rf.num
    ngens = [
        g for g in num.gens
        if parse_gen(g).kind == KIND_SYMBOL and parse_gen(g).base == var
    ]
    if not ngens:
        groups = {Fraction(0): num}
    else:
        g = ngens[0]
        i = num.gens.index(g)
        q = parse_gen(g).q
        rest = num.gens[:i] + num.gens[i + 1 :]
        acc: dict[Fraction, dict] = {}
        for mono, c in num.terms.items():
            acc.setdefault(Fraction(mono[i], q), {})[mono[:i] + mono[i + 1 :]] = c
        groups = {k: Poly(rest, t)._compress() for k, t in acc.items()}
    return {
        k - den_exp: RatFunc(p, den, rf.coeff) for k, p in groups.items() if not p.is_zero
    }


def _power_form(rf: RatFunc) -> tuple[str, RatFunc, Fraction, RatFunc] | None:
    """Match c * v**k + d with v in {x, y} and c, d, k free of x and y."""
    deps = rf.free_symbols() & {"x", "y"}
    if len(deps) != 1:
        return None
    var = deps.pop()
    terms = split_by_variable(rf, var)
    if terms is None:
        return None
    nonconst = {k: c for k, c in terms.items() if k != 0}
    if len(nonconst) != 1:
        return None
    k, c = next(iter(nonconst.items()))
    d = terms.get(Fraction(0), RatFunc.const(0))
    if not (_is_xy_free(c) and _is_xy_free(d)):
        return None
    return var, c, k, d


def _try_separable_inverse(u: RatFunc, v: RatFunc) -> tuple[Expr, Expr] | None:
    pu = _power_form(u)
    pv = _power_form(v)
    if pu is None or pv is None:
        return None
    if {pu[0], pv[0]} != {"x", "y"}:
        return None
    out: dict[str, Expr] = {}
    for (var, c, k, d), new_sym in ((pu, Sym("x")), (pv, Sym("y"))):
        # var = ((new - d) / c) ** (1/k)
        body = (new_sym - rf_to_expr(d)) / rf_to_expr(c)
        out[var] = normalize(Pow(body, Fraction(1) / k) if k != 1 else body)
    return out["x"], out["y"]
