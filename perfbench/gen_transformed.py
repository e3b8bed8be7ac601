"""Inputs of the ``transformed`` workload: catalog equations with small pinned
parameters, pushed through invertible point transforms with sympy.

Each slot pairs a source equation with a transform family.  The seed picks
one constant tuple per slot from that slot's short list; every tuple on every
list has been run through the program, so no seed reaches an input that was
never tried.  The two Painleve II slots have a single tuple each: their P34
test fails on every input (a kept fault), and a kept failure may not depend
on the seed.

A transform is written as the old coordinates in terms of the new ones,
x -> f(x, y), y -> g(x, y); the generated equation is the one the new
coordinates satisfy, handed to the program as ``--coeffs`` text.

    python3 perfbench/gen_transformed.py --seed 7        # print one input set
    python3 perfbench/gen_transformed.py --all           # every tuple of every slot
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import sympy as sp
from sympy.printing.str import StrPrinter

from check import X, Y, cubic_coefficients, pullback
from workloads import SOURCE_ANSWERS


def affine(a, b, c, d):
    return a * X + b, c * Y + d


def power(a, c, k):
    return a * X, c * Y**k


def reciprocal(a, b, c):
    return a * X + b, c / Y


def shear(c, k):
    return X, Y + c * X**k


def then(first, second):
    """first applied to the old coordinates, then second: x -> f1(f2(x, y))."""

    def build(args1, args2):
        f1, g1 = first(*args1)
        f2, g2 = second(*args2)
        return f1.xreplace({X: f2, Y: g2}), g1.xreplace({X: f2, Y: g2})

    return build


# (slot name, source, family, family name, constant tuples)
SLOTS = [
    ("pii.affine", "painleve_ii(3)", affine, "affine", [(2, 1, 3, -1)]),
    ("pii.power", "painleve_ii(3)", power, "power", [(1, 1, 2)]),
    ("p34r.reciprocal", "p34_rational(3)", reciprocal, "reciprocal",
     [(2, 1, 3), (-2, 1, 2), (3, -1, -2), (1, 2, 3), (-3, 2, 1), (2, -2, -3)]),
    ("p34r.shear", "p34_rational(3)", shear, "shear",
     [(1, 1), (-2, 1), (3, 1), (1, 2), (-1, 2), (2, 2)]),
    ("p34c.affine", "p34_cuberoot(4)", affine, "affine",
     [(2, 1, 3, -1), (-3, 2, 2, 1), (3, -1, -2, 2), (2, 2, 3, 1), (-2, -1, 2, -2), (3, 1, -3, -1)]),
    ("p34c.power", "p34_cuberoot(4)", power, "power",
     [(1, 1, 2), (2, 1, 2), (-1, 2, 2), (1, 1, 3), (2, -1, 3), (-2, 2, 3)]),
    ("ince.shear", "ince_xxxiv(2)", shear, "shear",
     [(2, 1), (3, 1), (2, 2), (3, 2)]),
    ("ince.affine_reciprocal", "ince_xxxiv(2)", then(affine, reciprocal), "affine then reciprocal",
     [((2, 1, 3, -1), (1, 0, 1)), ((-3, 2, 2, 1), (2, 1, 1)), ((2, -1, -2, 1), (1, 1, 2)),
      ((3, 1, 2, -2), (-1, 0, 1)), ((2, 2, -3, 1), (1, -1, 1)), ((-2, 1, 3, 2), (1, 0, -1))]),
    ("e3a.affine", "electrodiffusion_3a(2,3,11,5,7)", affine, "affine",
     [(2, 1, 3, -1), (-3, 2, 2, 1), (3, -1, -2, 2), (2, 2, 3, 1), (-2, -1, 2, -2), (3, 1, -3, -1)]),
    ("e3a.shear_power", "electrodiffusion_3a(2,3,11,5,7)", then(shear, power), "shear then power",
     [((1, 1), (1, 2, 2)), ((1, 1), (2, 1, 2)), ((2, 1), (1, 1, 2)), ((2, 1), (1, 1, 3))]),
]


class _Printer(StrPrinter):
    """sympy's text, but every power in the program's form base^n or base^(p/q)."""

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.as_base_exp()
        text = self.parenthesize(base, 100)
        if exp.is_Integer:
            return f"{text}^{exp}"
        return f"{text}^({exp.p}/{exp.q})"


def program_text(e: sp.Expr) -> str:
    return _Printer().doprint(e)


def transformed(slot, args) -> dict:
    name, source, family, family_name, _ = slot
    f, g = family(*args)
    coeffs = pullback(cubic_coefficients(SOURCE_ANSWERS[source].cli), f, g)
    p, q3, r3, s = (sp.cancel(c) for c in coeffs)
    return {
        "name": f"{name}{list(args)}",
        "source": source,
        "transform": f"x -> {program_text(f)}, y -> {program_text(g)} ({family_name})",
        "coeffs": [program_text(c) for c in (p, sp.cancel(q3 / 3), sp.cancel(r3 / 3), s)],
    }


def inputs_for_seed(seed: int) -> list[dict]:
    rng = random.Random(f"transformed/{seed}")
    return [transformed(slot, rng.choice(slot[4])) for slot in SLOTS]


def every_input() -> list[dict]:
    return [transformed(slot, args) for slot in SLOTS for args in slot[4]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int)
    group.add_argument("--all", action="store_true")
    args = ap.parse_args()
    json.dump(every_input() if args.all else inputs_for_seed(args.seed), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
