"""Catalog of the equations this package classifies against.

Parameters may be given as numbers (pinned exactly) or as symbol names
(declared in the returned equation's environment with the stated
constraint).  All builders return OdeCubic values in the variables x, y.
The two target forms, painleve_ii and p34_cuberoot, also take a RatFunc
parameter, and build their coefficients from RatFuncs alone: a decision
builds its targets from tower RatFuncs without printing or parsing.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import (
    Const,
    Expr,
    ParamEnv,
    RatFunc,
    Sym,
    free_symbols,
    parse,
    rf_reduce_roots,
    to_ratfunc,
)
from .ode import OdeCubic, from_rhs, normalize_implicit

_X, _Y = RatFunc.from_gen("x"), RatFunc.from_gen("y")
_ZERO = RatFunc.const(0)
# y^(1/3) (6y + 3x y^(2/3) + 3/2), the factor of beta^2 in the P34 cube-root form
_CUBEROOT = RatFunc.from_gen("y^(1/3)") * (
    _Y.scale(6) + (_X * RatFunc.from_gen("y^(1/3)", 2)).scale(3) + RatFunc.const(Fraction(3, 2))
)


def _param(value, name_constraints: dict[str, str], constraint: str):
    """Turn a number-or-name into an Expr, recording declarations."""
    if isinstance(value, str):
        name_constraints[value] = constraint
        return Sym(value)
    if isinstance(value, Expr):
        for s in free_symbols(value):
            name_constraints.setdefault(s, "free")
        return value
    return Const(Fraction(value))


def _param_rf(value, name_constraints: dict[str, str], constraint: str) -> RatFunc:
    """_param as a RatFunc, root-reduced as a parsed one would be; a RatFunc
    declares its symbols free."""
    if not isinstance(value, RatFunc):
        return to_ratfunc(_param(value, name_constraints, constraint))
    for s in value.free_symbols():
        name_constraints.setdefault(s, "free")
    return rf_reduce_roots(value)


def painleve_ii(a="a") -> OdeCubic:
    """y'' = 2 y^3 + x y + a."""
    decls: dict[str, str] = {}
    a_rf = _param_rf(a, decls, "free")
    p = rf_reduce_roots((_Y**3).scale(2) + _X * _Y + a_rf)
    return OdeCubic(p, _ZERO, _ZERO, _ZERO, ParamEnv(decls), label="Painleve II")


def p34_rational(beta="b") -> OdeCubic:
    """y'' = y'^2/(2y) - 2y^2 - x y - beta^2/(2y), the rational P34 form."""
    decls: dict[str, str] = {}
    b_e = _param(beta, decls, "nonzero")
    rhs = parse("p^2/(2*y) - 2*y^2 - x*y") - b_e**2 / (2 * Sym("y"))
    return from_rhs(rhs, ParamEnv(decls), label="P34 rational form")


def p34_cuberoot(beta_squared="b") -> OdeCubic:
    """y'' = 5y'^2/(6y) - beta^2 y^(1/3) (6y + 3x y^(2/3) + 3/2).

    This is the normal form that equivalence and parameter recovery refer
    to.  ``beta_squared`` is the value of beta^2; a bare symbol name s is
    shorthand for s^2 with s declared nonzero.
    """
    decls: dict[str, str] = {}
    b2 = _param_rf(beta_squared, decls, "nonzero")
    if isinstance(beta_squared, str):
        b2 = b2**2
    p = rf_reduce_roots(-(b2 * _CUBEROOT))
    r = _Y.inverse().scale(Fraction(5, 18))
    return OdeCubic(p, _ZERO, r, _ZERO, ParamEnv(decls), label="P34 cube-root normal form")


def ince_xxxiv(a="a") -> OdeCubic:
    """y'' = y'^2/(2y) + 4 a y^2 - x y - 1/(2y)  (Ince's equation XXXIV)."""
    decls: dict[str, str] = {}
    a_e = _param(a, decls, "nonzero")
    rhs = parse("p^2/(2*y) - x*y - 1/(2*y)") + 4 * a_e * Sym("y") ** 2
    return from_rhs(rhs, ParamEnv(decls), label="Ince XXXIV")


def painleve_iv(alpha="alpha", beta="beta") -> OdeCubic:
    """y'' = y'^2/(2y) + 3y^3/2 + 4xy^2 + 2(x^2 - alpha)y - beta^3/(2y)."""
    decls: dict[str, str] = {}
    al = _param(alpha, decls, "free")
    be = _param(beta, decls, "free")
    rhs = (
        parse("p^2/(2*y) + 3*y^3/2 + 4*x*y^2 + 2*x^2*y")
        - 2 * al * Sym("y")
        - be**3 / (2 * Sym("y"))
    )
    return from_rhs(rhs, ParamEnv(decls), label="Painleve IV")


def electrodiffusion_3a(nu1="nu1", k1="k1", k2="k2", C="C", K="K") -> OdeCubic:
    """Three-ion electrodiffusion, case (a):

    w'' - w'^2/(2w) + nu1^2 (-2 k1 w^2 - (C x + K) w + k2 / w) = 0,
    written here with w as the dependent variable y.
    """
    decls: dict[str, str] = {}
    nu = _param(nu1, decls, "nonzero")
    k1_e = _param(k1, decls, "nonzero")
    k2_e = _param(k2, decls, "free")
    c_e = _param(C, decls, "nonzero")
    k_e = _param(K, decls, "free")
    y = Sym("y")
    rhs = parse("p^2/(2*y)") + nu**2 * (
        2 * k1_e * y**2 + (c_e * Sym("x") + k_e) * y - k2_e / y
    )
    return from_rhs(rhs, ParamEnv(decls), label="electrodiffusion 3-ion (a)")


def electrodiffusion_3b(nu1="nu1", k1="k1", C="C", K="K") -> OdeCubic:
    """Three-ion electrodiffusion, case (b), an implicit equation:

    (w + (Cx+K)/k1) w'' - w'^2/2 - C w'/k1
        - 2 k1 nu1^2 w^3 - 4 nu1^2 (Cx+K) w^2 - 2 nu1^2 (Cx+K)^2 w / k1 = 0.
    """
    decls: dict[str, str] = {}
    nu = _param(nu1, decls, "nonzero")
    k1_e = _param(k1, decls, "nonzero")
    c_e = _param(C, decls, "nonzero")
    k_e = _param(K, decls, "free")
    x, y, p = Sym("x"), Sym("y"), Sym("p")
    line = c_e * x + k_e
    lead = y + line / k1_e
    rest = (
        p**2 / 2
        + c_e * p / k1_e
        + 2 * k1_e * nu**2 * y**3
        + 4 * nu**2 * line * y**2
        + 2 * nu**2 * line**2 * y / k1_e
    )
    return normalize_implicit(lead, rest, ParamEnv(decls), label="electrodiffusion 3-ion (b)")
