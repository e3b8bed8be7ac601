"""Catalog of the equations this package classifies against.

Parameters may be given as numbers (pinned exactly), as symbol names
(declared in the returned equation's environment with the stated
constraint) or as RatFuncs (their symbols declared free).  All builders
return OdeCubic values in the variables x, y, and write their right-hand
sides in RatFunc arithmetic: no builder parses or prints, so a decision
builds its targets from tower RatFuncs directly.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import ParamEnv, RatFunc, rf_reduce_roots
from .ode import OdeCubic, from_rhs, normalize_implicit

_X, _Y, _P = RatFunc.from_gen("x"), RatFunc.from_gen("y"), RatFunc.from_gen("p")
_ZERO, _ONE = RatFunc.const(0), RatFunc.const(1)
# y^(1/3) (6y + 3x y^(2/3) + 3/2), the factor of beta^2 in the P34 cube-root form
_CUBEROOT = RatFunc.from_gen("y^(1/3)") * (
    _Y.scale(6) + (_X * RatFunc.from_gen("y^(1/3)", 2)).scale(3) + RatFunc.const(Fraction(3, 2))
)


def _param(value, name_constraints: dict[str, str], constraint: str) -> RatFunc:
    """Turn a number, a name or a RatFunc into a RatFunc, recording
    declarations; a RatFunc declares its symbols free and is root-reduced
    (rf_reduce_roots) once, as a parsed one would be."""
    if isinstance(value, str):
        name_constraints[value] = constraint
        return RatFunc.from_gen(value)
    if isinstance(value, RatFunc):
        for s in value.free_symbols():
            name_constraints.setdefault(s, "free")
        return rf_reduce_roots(value)
    return RatFunc.const(Fraction(value))


def painleve_ii(a="a") -> OdeCubic:
    """y'' = 2 y^3 + x y + a."""
    decls: dict[str, str] = {}
    a_rf = _param(a, decls, "free")
    p = (_Y**3).scale(2) + _X * _Y + a_rf
    return OdeCubic(p, _ZERO, _ZERO, _ZERO, ParamEnv(decls), label="Painleve II")


def p34_rational(beta="b") -> OdeCubic:
    """y'' = y'^2/(2y) - 2y^2 - x y - beta^2/(2y), the rational P34 form."""
    decls: dict[str, str] = {}
    b = _param(beta, decls, "nonzero")
    rhs = (_P**2 - b**2) / _Y.scale(2) - (_Y**2).scale(2) - _X * _Y
    return from_rhs(rhs, ParamEnv(decls), label="P34 rational form")


def p34_cuberoot(beta_squared="b") -> OdeCubic:
    """y'' = 5y'^2/(6y) - beta^2 y^(1/3) (6y + 3x y^(2/3) + 3/2).

    This is the normal form that equivalence and parameter recovery refer
    to.  ``beta_squared`` is the value of beta^2; a bare symbol name s is
    shorthand for s^2 with s declared nonzero.
    """
    decls: dict[str, str] = {}
    b2 = _param(beta_squared, decls, "nonzero")
    if isinstance(beta_squared, str):
        b2 = b2**2
    p = -(b2 * _CUBEROOT)
    r = _Y.inverse().scale(Fraction(5, 18))
    return OdeCubic(p, _ZERO, r, _ZERO, ParamEnv(decls), label="P34 cube-root normal form")


def ince_xxxiv(a="a") -> OdeCubic:
    """y'' = y'^2/(2y) + 4 a y^2 - x y - 1/(2y)  (Ince's equation XXXIV)."""
    decls: dict[str, str] = {}
    a_rf = _param(a, decls, "nonzero")
    rhs = (_P**2 - _ONE) / _Y.scale(2) - _X * _Y + (a_rf * _Y**2).scale(4)
    return from_rhs(rhs, ParamEnv(decls), label="Ince XXXIV")


def painleve_iv(alpha="alpha", beta="beta") -> OdeCubic:
    """y'' = y'^2/(2y) + 3y^3/2 + 4xy^2 + 2(x^2 - alpha)y - beta^3/(2y)."""
    decls: dict[str, str] = {}
    al = _param(alpha, decls, "free")
    be = _param(beta, decls, "free")
    rhs = (
        (_P**2 - be**3) / _Y.scale(2)
        + (_Y**3).scale(Fraction(3, 2))
        + (_X * _Y**2).scale(4)
        + ((_X**2 - al) * _Y).scale(2)
    )
    return from_rhs(rhs, ParamEnv(decls), label="Painleve IV")


def electrodiffusion_3a(nu1="nu1", k1="k1", k2="k2", C="C", K="K") -> OdeCubic:
    """Three-ion electrodiffusion, case (a):

    w'' - w'^2/(2w) + nu1^2 (-2 k1 w^2 - (C x + K) w + k2 / w) = 0,
    written here with w as the dependent variable y.
    """
    decls: dict[str, str] = {}
    nu = _param(nu1, decls, "nonzero")
    k1_rf = _param(k1, decls, "nonzero")
    k2_rf = _param(k2, decls, "free")
    c_rf = _param(C, decls, "nonzero")
    k_rf = _param(K, decls, "free")
    rhs = _P**2 / _Y.scale(2) + nu**2 * (
        (k1_rf * _Y**2).scale(2) + (c_rf * _X + k_rf) * _Y - k2_rf / _Y
    )
    return from_rhs(rhs, ParamEnv(decls), label="electrodiffusion 3-ion (a)")


def electrodiffusion_3b(nu1="nu1", k1="k1", C="C", K="K") -> OdeCubic:
    """Three-ion electrodiffusion, case (b), an implicit equation:

    (w + (Cx+K)/k1) w'' - w'^2/2 - C w'/k1
        - 2 k1 nu1^2 w^3 - 4 nu1^2 (Cx+K) w^2 - 2 nu1^2 (Cx+K)^2 w / k1 = 0.
    """
    decls: dict[str, str] = {}
    nu = _param(nu1, decls, "nonzero")
    k1_rf = _param(k1, decls, "nonzero")
    c_rf = _param(C, decls, "nonzero")
    k_rf = _param(K, decls, "free")
    line = c_rf * _X + k_rf
    lead = _Y + line / k1_rf
    rest = (
        (_P**2).scale(Fraction(1, 2))
        + c_rf * _P / k1_rf
        + (k1_rf * nu**2 * _Y**3).scale(2)
        + (nu**2 * line * _Y**2).scale(4)
        + (nu**2 * line**2 * _Y / k1_rf).scale(2)
    )
    return normalize_implicit(lead, rest, ParamEnv(decls), label="electrodiffusion 3-ion (b)")
