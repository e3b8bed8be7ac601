"""Independent checker for the benchmark's answers, built on sympy.

It never imports p34eq.  Every expression arrives as text: the equation as a
user typed it, and the transform and parameter the program reported.  An
equivalence answer is accepted when pulling the normal form (Painleve II with
the reported a, or the P34 cube-root form with the reported beta^2) back
through the reported transform gives the input equation at random points,
compared at 50 significant digits.

Rational powers with an odd denominator are read as real roots, as the
program reads them; even roots of negative numbers make a point invalid.
Points are drawn per sign region of (x, y) and of the parameters, because a
transform built from even roots holds on part of the plane only.

Run as a filter: a JSON list of cases on standard input, a JSON list of
{"ok": bool, "why": str} on standard output.
"""

from __future__ import annotations

import json
import random
import re
import sys

import mpmath
import sympy as sp
from sympy.parsing.sympy_parser import parse_expr

DIGITS = 50
TOLERANCE = mpmath.mpf(10) ** -30
MIN_POINTS = 8
MAX_DRAWS = 200

X, Y, P = sp.symbols("x y p")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class InvalidPoint(ArithmeticError):
    """A pole or an even root of a negative number at the sample point."""


def to_sympy(text: str) -> sp.Expr:
    """Parse the program's expression syntax (``^`` for powers) into sympy.

    Every identifier becomes a plain symbol, so names such as ``beta`` or
    ``C`` never turn into sympy functions or constants.
    """
    names = {n: sp.Symbol(n) for n in set(_IDENT.findall(text))}
    return parse_expr(text.replace("^", "**"), local_dict=names)


def cubic_coefficients(spec: dict) -> tuple[sp.Expr, ...]:
    """(P, 3Q, 3R, S) of y'' = P + 3Q p + 3R p^2 + S p^3 from CLI input text."""
    if spec.get("coeffs"):
        p, q, r, s = (to_sympy(c) for c in spec["coeffs"])
        return p, 3 * q, 3 * r, s
    if spec.get("implicit"):
        lead, rest = (to_sympy(t) for t in spec["implicit"])
        rhs = rest / lead
    else:
        rhs = to_sympy(spec["rhs"])
    out = []
    term = rhs
    for k in range(4):
        out.append(term.subs(P, 0) / sp.factorial(k))
        term = sp.diff(term, P)
    if term != 0:
        raise ValueError("input is not cubic in the derivative")
    return tuple(out)


def painleve_ii(a: sp.Expr) -> tuple[sp.Expr, ...]:
    """(P, 3Q, 3R, S) of y'' = 2y^3 + xy + a."""
    return 2 * Y**3 + X * Y + a, sp.Integer(0), sp.Integer(0), sp.Integer(0)


def p34_cuberoot(beta2: sp.Expr) -> tuple[sp.Expr, ...]:
    """(P, 3Q, 3R, S) of y'' = 5y'^2/(6y) - beta^2 y^(1/3) (6y + 3x y^(2/3) + 3/2)."""
    third = sp.Rational(1, 3)
    p = -beta2 * Y**third * (6 * Y + 3 * X * Y ** (2 * third) + sp.Rational(3, 2))
    return p, sp.Integer(0), 5 / (6 * Y), sp.Integer(0)


# ----- the pullback ---------------------------------------------------------


def pullback(target: tuple[sp.Expr, ...], u: sp.Expr, v: sp.Expr) -> tuple[sp.Expr, ...]:
    """(P, 3Q, 3R, S) in (x, y) of the equation that y(x) solves when
    v(u) = V(x, y(x)) at u = U(x, y(x)) solves the target equation in (x, y).

    With A = U_x + U_y p and B = V_x + V_y p the chain rule gives
    J y'' = P_t A^3 + 3Q_t B A^2 + 3R_t B^2 A + S_t B^3 - D(p), where
    D = (V_xx + 2V_xy p + V_yy p^2) A - (U_xx + 2U_xy p + U_yy p^2) B and J
    is the Jacobian U_x V_y - U_y V_x.  Coefficients stay unsimplified.
    """
    ux, uy = sp.diff(u, X), sp.diff(u, Y)
    vx, vy = sp.diff(v, X), sp.diff(v, Y)
    a = [ux, uy]
    b = [vx, vy]
    d2u = [sp.diff(ux, X), 2 * sp.diff(ux, Y), sp.diff(uy, Y)]
    d2v = [sp.diff(vx, X), 2 * sp.diff(vx, Y), sp.diff(vy, Y)]
    at_image = {X: u, Y: v}
    pt, q3, r3, st = (c.xreplace(at_image) for c in target)
    lhs = _padd(
        _padd(_pscale(_pmul(a, _pmul(a, a)), pt), _pscale(_pmul(b, _pmul(a, a)), q3)),
        _padd(_pscale(_pmul(b, _pmul(b, a)), r3), _pscale(_pmul(b, _pmul(b, b)), st)),
    )
    dterm = _padd(_pmul(d2v, a), _pscale(_pmul(d2u, b), -1))
    jac = ux * vy - uy * vx
    out = _padd(lhs, _pscale(dterm, -1))
    out += [sp.Integer(0)] * (4 - len(out))
    return tuple(c / jac for c in out[:4])


def _pmul(f: list, g: list) -> list:
    out = [sp.Integer(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def _padd(f: list, g: list) -> list:
    n = max(len(f), len(g))
    f = f + [sp.Integer(0)] * (n - len(f))
    g = g + [sp.Integer(0)] * (n - len(g))
    return [a + b for a, b in zip(f, g)]


def _pscale(f: list, c) -> list:
    return [c * a for a in f]


# ----- evaluation at 50 digits ----------------------------------------------


def evaluate(e: sp.Expr, point: dict) -> mpmath.mpf:
    """Value of e at a point of exact rationals, with real odd roots."""
    with mpmath.workdps(DIGITS + 10):
        return _eval(e, point)


def _eval(e, point):
    if e.is_Symbol:
        return mpmath.mpf(point[e].p) / point[e].q
    if e.is_Rational:
        return mpmath.mpf(e.p) / e.q
    if e.is_Add:
        return mpmath.fsum(_eval(t, point) for t in e.args)
    if e.is_Mul:
        out = mpmath.mpf(1)
        for f in e.args:
            out *= _eval(f, point)
        return out
    if e.is_Pow:
        base = _eval(e.base, point)
        exp = e.exp
        if not exp.is_Rational:
            raise InvalidPoint(f"non-rational exponent {exp}")
        p, q = int(exp.p), int(exp.q)
        if q == 1:
            root = base
        elif base < 0:
            if q % 2 == 0:
                raise InvalidPoint("even root of a negative number")
            root = -mpmath.root(-base, q)
        else:
            root = mpmath.root(base, q)
        if p < 0:
            if root == 0:
                raise InvalidPoint("pole")
            return 1 / root ** (-p)
        return root**p
    raise InvalidPoint(f"cannot evaluate {type(e).__name__}")


def _close(a: mpmath.mpf, b: mpmath.mpf) -> bool:
    return abs(a - b) <= TOLERANCE * max(1, abs(a), abs(b))


def _regions(params: list[sp.Symbol]):
    """Sign patterns: each (x, y) quadrant, with random then positive parameters."""
    for sx in (1, -1):
        for sy in (1, -1):
            yield sx, sy, None
            if params:
                yield sx, sy, 1


def _draw(rng: random.Random, sign: int | None) -> sp.Rational:
    magnitude = sp.Rational(rng.randint(50, 300), 100)
    if sign is None:
        sign = rng.choice((1, -1))
    return sign * magnitude


def agree(lhs: tuple, rhs: tuple, params: list[sp.Symbol]) -> tuple[bool, str]:
    """Whether two tuples of expressions agree on every valid point of some
    sign region; both sides must be defined at a point for it to count."""
    worst = "no region had enough valid points"
    for sx, sy, psign in _regions(params):
        rng = random.Random(f"{sx}/{sy}/{psign}")
        good = 0
        for _ in range(MAX_DRAWS):
            if good >= MIN_POINTS:
                break
            point = {X: sx * _draw(rng, 1), Y: sy * _draw(rng, 1)}
            point.update({s: _draw(rng, psign) for s in params})
            try:
                left = [evaluate(e, point) for e in lhs]
                right = [evaluate(e, point) for e in rhs]
            except (InvalidPoint, ZeroDivisionError):
                continue
            if not all(_close(a, b) for a, b in zip(left, right)):
                worst = f"mismatch at {point}"
                good = -1
                break
            good += 1
        if good >= MIN_POINTS:
            return True, ""
    return False, worst


def _params_of(*exprs) -> list[sp.Symbol]:
    syms: set = set()
    for e in exprs:
        syms |= e.free_symbols
    return sorted(syms - {X, Y, P}, key=str)


def check_case(case: dict) -> tuple[bool, str]:
    """Check one equivalence answer.

    case = {"input": CLI input spec, "kind": "pii" | "p34", "known": text of
    the known parameter (a or beta^2), "params": candidate parameter texts,
    "x_new": text, "y_new": text}.
    """
    source = cubic_coefficients(case["input"])
    known = to_sympy(case["known"])
    u, v = to_sympy(case["x_new"]), to_sympy(case["y_new"])
    reasons = []
    for text in case["params"]:
        value = to_sympy(text)
        params = _params_of(*source, known, value, u, v)
        if case["kind"] == "pii":
            same, why = agree((value**2,), (known**2,), params)
            target = painleve_ii(value)
        else:
            same, why = agree((value,), (known,), params)
            target = p34_cuberoot(value)
        if not same:
            reasons.append(f"parameter {text} differs from the known {case['known']}: {why}")
            continue
        ok, why = agree(pullback(target, u, v), source, params)
        if ok:
            return True, ""
        reasons.append(f"pullback with parameter {text} differs from the input: {why}")
    return False, "; ".join(reasons) or "no parameter reported"


def main() -> int:
    cases = json.load(sys.stdin)
    results = []
    for case in cases:
        try:
            ok, why = check_case(case)
        except Exception as exc:  # a case the checker cannot finish is rejected
            ok, why = False, f"checker failed on the case: {exc!r}"
        results.append({"ok": ok, "why": why})
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
