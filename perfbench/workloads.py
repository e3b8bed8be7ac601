"""The benchmark's equations, as CLI text, with their known answers.

Known answers come from the equations' definitions and the paper's
statements, never from a run of the program:

- Painleve II is equivalent to PII with parameter a (up to sign: y -> -y
  maps a to -a) and not equivalent to P34.
- The P34 rational form with beta, the cube-root form with beta^2, Ince
  XXXIV and both electrodiffusion cases are equivalent to P34 and not to
  PII.  Their beta^2 follows from scalings of the definitions (README.md):
  beta^2 for Ince XXXIV(a) is 4a^2, for electrodiffusion (a) it is
  2 k1^2 k2 nu1^2 / C^2, and electrodiffusion (b) is case (a) with
  k2 = C^2 / (2 k1^2 nu1^2) after z = w + (Cx + K)/k1, so beta^2 = 1/4.
- Painleve IV is equivalent to neither.
- A transformed equation has the outcome and parameter of its source.

``faults`` names the operations that fail today because of a kept fault,
keyed by test; README.md describes each fault.  ``FAULTS`` gives the failure
each fault produces: an operation is charged to its fault only when it fails
in that way, so any other failure of the same operation is unexpected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

EQ_PII = "equivalent-pii"
EQ_P34 = "equivalent-p34"
NOT_EQ = "not-equivalent"
INCONCLUSIVE = "inconclusive"

# fault -> (outcome, text in the result's detail) of the failure it produces
FAULTS = {
    "F1": (INCONCLUSIVE, "coordinate recovery denominator vanishes identically"),
    "F2": (INCONCLUSIVE, "no candidate transform passed the numeric oracle"),
    "F3": (INCONCLUSIVE, "no candidate transform passed the numeric oracle"),
    "F4": (INCONCLUSIVE, "inconclusive zero-test for predicate 'recovered transform Jacobian'"),
    "F5": (INCONCLUSIVE, "inconclusive zero-test for predicate 'I7 = 0'"),
    "F6": (INCONCLUSIVE, "inconclusive zero-test for predicate 'I1 - 18/5'"),
}


@dataclass(frozen=True)
class Equation:
    name: str
    cli: dict  # one of rhs / implicit / coeffs, plus params, as a user types them
    pii: tuple[str, str | None]  # known outcome of test_pii and its a (or None)
    p34: tuple[str, str | None]  # known outcome of test_p34 and its beta^2 (or None)
    faults: dict[str, str] = field(default_factory=dict)

    def fault_of(self, test: str, outcome: str, detail: str) -> str | None:
        """The kept fault that explains this failed answer, or None."""
        fault = self.faults.get(test)
        if fault is None:
            return None
        expected_outcome, expected_detail = FAULTS[fault]
        return fault if outcome == expected_outcome and expected_detail in detail else None


def pin(text: str, values: dict) -> str:
    """Substitute pinned parameter values into template text."""
    if not values:
        return text
    pattern = r"\b(" + "|".join(map(re.escape, values)) + r")\b"
    return re.sub(pattern, lambda m: f"({values[m.group(1)]})", text)


def _decl_name(decl: str) -> str:
    return re.match(r"\w+", decl).group(0)


PII = ("painleve_ii", {"rhs": "2*y^3 + x*y + a"}, ["a"], "a", "pii")
P34_RATIONAL = ("p34_rational", {"rhs": "p^2/(2*y) - 2*y^2 - x*y - b^2/(2*y)"}, ["b!=0"], "b^2", "p34")
P34_CUBEROOT = ("p34_cuberoot", {"rhs": "5*p^2/(6*y) - b2*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)"},
                ["b2!=0"], "b2", "p34")
INCE = ("ince_xxxiv", {"rhs": "p^2/(2*y) - x*y - 1/(2*y) + 4*a*y^2"}, ["a!=0"], "4*a^2", "p34")
PIV = ("painleve_iv", {"rhs": "p^2/(2*y) + 3*y^3/2 + 4*x*y^2 + 2*x^2*y - 2*alpha*y - beta^3/(2*y)"},
       ["alpha", "beta"], None, "neither")
E3A = ("electrodiffusion_3a", {"rhs": "p^2/(2*y) + nu1^2*(2*k1*y^2 + (C*x + K)*y - k2/y)"},
       ["nu1!=0", "k1!=0", "k2", "C!=0", "K"], "2*k1^2*k2*nu1^2/C^2", "p34")
E3B = ("electrodiffusion_3b", {"implicit": [
    "y + (C*x + K)/k1",
    "p^2/2 + C*p/k1 + 2*k1*nu1^2*y^3 + 4*nu1^2*(C*x + K)*y^2 + 2*nu1^2*(C*x + K)^2*y/k1",
]}, ["nu1!=0", "k1!=0", "C!=0", "K"], "1/4", "p34")


def _eq(family, values=None, faults=None) -> Equation:
    """One equation of a family (name, template, declarations, known
    parameter, kind 'pii' / 'p34' / 'neither'), some parameters pinned."""
    name, template, decls, known, kind = family
    values = values or {}
    cli = {"params": [d for d in decls if _decl_name(d) not in values]}
    if "rhs" in template:
        cli["rhs"] = pin(template["rhs"], values)
    else:
        cli["implicit"] = [pin(t, values) for t in template["implicit"]]
    known_text = pin(known, values) if known else None
    if kind == "pii":
        pii, p34 = (EQ_PII, known_text), (NOT_EQ, None)
    elif kind == "p34":
        pii, p34 = (NOT_EQ, None), (EQ_P34, known_text)
    else:
        pii, p34 = (NOT_EQ, None), (NOT_EQ, None)
    label = ",".join(str(values.get(_decl_name(d), _decl_name(d))) for d in decls)
    return Equation(f"{name}({label})", cli, pii, p34, dict(faults or {}))


def catalog() -> list[Equation]:
    """Every catalog equation except electrodiffusion (b): symbolic, small
    pinned and large pinned (3-5 digit integers)."""
    return [
        _eq(PII, faults={"pii": "F2", "p34": "F1"}),
        _eq(P34_RATIONAL),
        _eq(P34_CUBEROOT),
        _eq(INCE),
        _eq(PIV),
        _eq(E3A),
        _eq(PII, {"a": 3}, {"p34": "F1"}),
        _eq(P34_RATIONAL, {"b": 3}),
        _eq(P34_CUBEROOT, {"b2": 4}),
        _eq(INCE, {"a": 2}),
        _eq(PIV, {"alpha": 1, "beta": 2}),
        _eq(E3A, {"nu1": 2, "k1": 3, "k2": 11, "C": 5, "K": 7}),
        _eq(PII, {"a": 12345}, {"pii": "F3", "p34": "F1"}),
        _eq(P34_RATIONAL, {"b": 9871}, {"p34": "F4"}),
        _eq(P34_CUBEROOT, {"b2": 4913}),
        _eq(INCE, {"a": 7919}),
        _eq(PIV, {"alpha": 101, "beta": 997}, {"p34": "F5"}),
        _eq(E3A, {"nu1": 101, "k1": 997, "k2": 7919, "C": 1009, "K": 4001}),
    ]


def electrodiffusion() -> list[Equation]:
    """Electrodiffusion (b) at small, mid and large coefficients, and with one
    parameter symbolic.  Variants with two symbolic parameters are left out:
    none finishes within the equation budget today."""
    return [
        _eq(E3B, {"nu1": 1, "k1": 1, "C": 1, "K": 0}),
        _eq(E3B, {"nu1": 2, "k1": 3, "C": 5, "K": 7}),
        _eq(E3B, {"nu1": 101, "k1": 997, "C": 1009, "K": 4001}, {"pii": "F6"}),
        _eq(E3B, {"nu1": 1, "C": 1, "K": 0}),
        _eq(E3B, {"nu1": 1, "k1": 1, "K": 0}),
        _eq(E3B, {"k1": 1, "C": 1, "K": 0}),
    ]


SOURCE_ANSWERS = {
    "painleve_ii(3)": _eq(PII, {"a": 3}, {"p34": "F1"}),
    "p34_rational(3)": _eq(P34_RATIONAL, {"b": 3}),
    "p34_cuberoot(4)": _eq(P34_CUBEROOT, {"b2": 4}),
    "ince_xxxiv(2)": _eq(INCE, {"a": 2}),
    "electrodiffusion_3a(2,3,11,5,7)": _eq(E3A, {"nu1": 2, "k1": 3, "k2": 11, "C": 5, "K": 7}),
    "painleve_iv(1,2)": _eq(PIV, {"alpha": 1, "beta": 2}),
}


def transformed(inputs: list[dict]) -> list[Equation]:
    """Generated inputs (gen_transformed.py) with their sources' answers."""
    out = []
    for item in inputs:
        src = SOURCE_ANSWERS[item["source"]]
        cli = {"coeffs": item["coeffs"], "params": []}
        out.append(Equation(item["name"], cli, src.pii, src.p34, dict(src.faults)))
    return out
