"""Expr-level operations that only the tests use.

The package keeps Exprs to parsing and printing.  The tests also
differentiate, substitute into and evaluate expression trees, write a
transformed equation in the new variables, rebuild a right-hand side from its
coefficients and check the pseudotensor weight law; those paths live here,
with a check of a RatFunc's factors.
"""

from __future__ import annotations

from typing import Mapping

from p34eq.errors import DegenerateTransformError, EvalPole, UndeclaredSymbolError
from p34eq.expr import (
    Add,
    Const,
    Expr,
    Mul,
    Neg,
    ParamEnv,
    Point,
    Pow,
    RatFunc,
    SamplePolicy,
    Sym,
    is_zero,
    parse,
    rf_compose,
    rf_reduce_roots,
    rf_to_expr,
    sample,
    to_ratfunc,
)
from p34eq.expr.poly import Poly, poly_gcd
from p34eq.expr.ratfunc import _exps, _real_root
from p34eq.ode import DERIV, OdeCubic, PointTransform, pullback_coefficients
from p34eq.oracle import MIN_SAMPLES, ORACLE_REDRAWS


X, Y = RatFunc.from_gen("x"), RatFunc.from_gen("y")


def rf(text: str) -> RatFunc:
    """The RatFunc of an expression text."""
    return to_ratfunc(parse(text))


def assert_factored(rf: RatFunc) -> None:
    """rf's factors are primitive, positive-lead, non-constant, pairwise
    coprime, and expand to its num and den."""
    fs = [(f.poly, e) for f, e in _exps(rf).items()]
    num = den = Poly.const(1)
    for i, (p, e) in enumerate(fs):
        assert e and not p.is_const and p.primitive() == (1, p)
        if e > 0:
            num = num * p**e
        else:
            den = den * p ** (-e)
        for q, _ in fs[:i]:
            assert poly_gcd(p, q).is_const
    assert (num, den) == (rf.num, rf.den)


def _as_rf(e: str | Expr | RatFunc) -> RatFunc:
    if isinstance(e, RatFunc):
        return e
    return rf(e) if isinstance(e, str) else to_ratfunc(e)


def transform(x_new: str | Expr | RatFunc, y_new: str | Expr | RatFunc) -> PointTransform:
    """The PointTransform of two expression texts, trees or RatFuncs."""
    return PointTransform(_as_rf(x_new), _as_rf(y_new))


def ode(p, q, r, s, env: ParamEnv | None = None) -> OdeCubic:
    """The OdeCubic of four coefficient texts, trees or RatFuncs."""
    return OdeCubic(*(_as_rf(c) for c in (p, q, r, s)), env)


def p34_cuberoot_4_affine() -> OdeCubic:
    """p34_cuberoot(4) under x -> 2x + 1, y -> 3y - 1 (old in terms of new),
    as the golden case of that name gives its coefficients."""
    return ode(
        "-96*x*y + 32*x - 96*y*(3*y - 1)^(1/3) - 48*y + 24*(3*y - 1)^(1/3) + 16",
        "0", "5/(18*y - 6)", "0",
    )


def diff(e: Expr, x: int = 0, y: int = 0) -> Expr:
    """Partial derivative d^(x+y) e / dx^x dy^y, exact."""
    out = to_ratfunc(e)
    for _ in range(x):
        out = out.deriv("x")
    for _ in range(y):
        out = out.deriv("y")
    return rf_to_expr(out)


def subst(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of symbols by expressions."""
    if isinstance(e, Sym):
        return bindings.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return Neg(subst(e.arg, bindings))
    if isinstance(e, Pow):
        return Pow(subst(e.base, bindings), e.exp)
    if isinstance(e, Add):
        return Add(tuple(subst(t, bindings) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(subst(f, bindings) for f in e.factors))
    raise TypeError(f"unknown node {e!r}")


def eval_expr(e: Expr, assignment: Mapping[str, float]) -> float:
    """Direct tree evaluation, an independent path from the normal form.

    Raises EvalPole on division by (numerically) zero and EvalDomainError
    on an even root of a negative base.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(assignment[e.name])
        except KeyError:
            raise UndeclaredSymbolError(f"no value for symbol {e.name!r}") from None
    if isinstance(e, Neg):
        return -eval_expr(e.arg, assignment)
    if isinstance(e, Add):
        return sum(eval_expr(t, assignment) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_expr(f, assignment)
        return out
    if isinstance(e, Pow):
        base = eval_expr(e.base, assignment)
        p, q = e.exp.numerator, e.exp.denominator
        if p < 0 and abs(base) < 1e-300:
            raise EvalPole("negative power of zero")
        root = _real_root(base, q)
        try:
            return root**p
        except OverflowError:
            raise EvalPole("overflow in power evaluation") from None
    raise TypeError(f"unknown node {e!r}")


def rhs(e: OdeCubic) -> Expr:
    """P + 3Q p + 3R p^2 + S p^3 with p the formal derivative symbol."""
    p, q, r, s = e.coeffs()
    d = RatFunc.from_gen(DERIV)
    return rf_to_expr(p + (q * d).scale(3) + (r * d**2).scale(3) + s * d**3)


def apply_transform(
    e: OdeCubic,
    t: PointTransform,
    inverse: tuple[str | Expr | RatFunc, str | Expr | RatFunc],
) -> OdeCubic:
    """The equation satisfied by y_new(x_new) when y(x) solves e.

    The coefficients of the result are written in the new variables by
    composing the pullback with ``inverse`` (rf_compose), the old variables
    as functions of the new ones (texts, trees or RatFuncs), written in the
    same two symbols: x = inverse[0](x, y), y = inverse[1](x, y), and
    root-reduced as the split of a right-hand side is.  The inverse is not
    checked against t.
    """
    if is_zero(t.jacobian(), e.env).is_zero:
        raise DegenerateTransformError(f"{t!r} has zero Jacobian")
    images = {v: _as_rf(w) for v, w in zip("xy", inverse)}
    coeffs = [rf_reduce_roots(rf_compose(c, images)) for c in pullback_coefficients(e, t)]
    label = f"{e.label}|transformed" if e.label else "transformed"
    return OdeCubic(*coeffs, env=e.env, label=label)


def verify_weight_law(
    src_components: tuple,
    dst_components: tuple,
    t: PointTransform,
    weight: int,
    n: int = 12,
    policy: SamplePolicy | None = None,
    env: ParamEnv | None = None,
    tol: float = 1e-6,
) -> tuple[bool, float]:
    """Numerically check the pseudotensor law at corresponding points.

    For scalars: f_src = det(Jf)^m * f_dst(image).  For two-component
    fields with an upper index: f_src = det(Jf)^m * Jf^(-1) f_dst(image),
    where Jf is the forward Jacobian matrix of t at the source point.
    Components are RatFuncs.  Points where Jf is singular are skipped.
    Returns (law holds within tol at >= MIN_SAMPLES points, max deviation).
    """
    policy = policy or SamplePolicy()
    env = env or ParamEnv()
    parts = t.parts
    src_rfs, dst_rfs = list(src_components), list(dst_components)
    symbols = set().union(*(c.free_symbols() for c in src_rfs + dst_rfs + list(parts.values())))

    def deviation(a: dict[str, float]) -> float:
        ux, uy = parts["ux"].eval(a), parts["uy"].eval(a)
        vx, vy = parts["vx"].eval(a), parts["vy"].eval(a)
        det = ux * vy - uy * vx
        if abs(det) < 1e-9:
            raise EvalPole("singular Jacobian at the sample point")
        image = Point(a)
        image["x"], image["y"] = parts["u"].eval(a), parts["v"].eval(a)
        src_vals = [c.eval(a) for c in src_rfs]
        dst_vals = [c.eval(image) for c in dst_rfs]
        if len(src_rfs) > 1:
            f, g = dst_vals
            dst_vals = [(vy * f - uy * g) / det, (ux * g - vx * f) / det]
        predicted = [det**weight * d for d in dst_vals]
        scale = max(1.0, *map(abs, src_vals), *map(abs, predicted))
        return max(abs(s - p) for s, p in zip(src_vals, predicted)) / scale

    deviations, _ = sample(deviation, symbols, env, policy, n, redraws=ORACLE_REDRAWS)
    worst = max((0.0, *deviations))
    return len(deviations) >= MIN_SAMPLES and worst < tol, worst
