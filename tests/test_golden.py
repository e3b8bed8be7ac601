"""Golden CLI reports: the JSON of `p34eq --json` for a fixed set of inputs.

Each file under tests/golden/ holds ``json.dumps(report, indent=2)`` of one
input below, and the test compares it byte for byte, so a change that moves
any verdict, rendered expression, float sample or residual shows up here.
After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from p34eq.cli import RunConfig, run

GOLDEN = Path(__file__).parent / "golden"

E3A = "p^2/(2*y) + nu1^2*(2*k1*y^2 + (C*x + K)*y - k2/y)"
E3B = (
    "y + (C*x + K)/k1",
    "p^2/2 + C*p/k1 + 2*k1*nu1^2*y^3 + 4*nu1^2*(C*x + K)*y^2 + 2*nu1^2*(C*x + K)^2*y/k1",
)


def pin(text: str, **values) -> str:
    """Substitute parenthesized values for the named parameters."""
    pattern = r"\b(" + "|".join(values) + r")\b"
    return re.sub(pattern, lambda m: f"({values[m.group(1)]})", text)


def e3b(nu1, k1, C, K) -> RunConfig:
    v = dict(nu1=nu1, k1=k1, C=C, K=K)
    return RunConfig(implicit=tuple(pin(t, **v) for t in E3B))


CASES = {
    # the catalog with small pinned parameters
    "painleve_ii_3": RunConfig(rhs="2*y^3 + x*y + (3)"),
    "p34_rational_3": RunConfig(rhs="p^2/(2*y) - 2*y^2 - x*y - (3)^2/(2*y)"),
    "p34_cuberoot_4": RunConfig(rhs="5*p^2/(6*y) - (4)*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)"),
    "ince_xxxiv_2": RunConfig(rhs="p^2/(2*y) - x*y - 1/(2*y) + 4*(2)*y^2"),
    "painleve_iv_1_2": RunConfig(
        rhs="p^2/(2*y) + 3*y^3/2 + 4*x*y^2 + 2*x^2*y - 2*(1)*y - (2)^3/(2*y)"
    ),
    "electrodiffusion_3a_2_3_11_5_7": RunConfig(rhs=pin(E3A, nu1=2, k1=3, k2=11, C=5, K=7)),
    # failed PII searches: a symbolic (sqrt(a^2) stays opaque) and a large
    # a, where the oracle rejects every candidate
    "painleve_ii_12345": RunConfig(rhs="2*y^3 + x*y + (12345)"),
    # symbolic parameters
    "painleve_ii_a": RunConfig(rhs="2*y^3 + x*y + a", params=["a"]),
    "p34_cuberoot_b2": RunConfig(
        rhs="5*p^2/(6*y) - b2*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)", params=["b2!=0"]
    ),
    "ince_xxxiv_a": RunConfig(rhs="p^2/(2*y) - x*y - 1/(2*y) + 4*a*y^2", params=["a!=0"]),
    "electrodiffusion_3a_sym": RunConfig(rhs=E3A, params=["nu1!=0", "k1!=0", "k2", "C!=0", "K"]),
    # the implicit electrodiffusion equation, small and mid coefficients
    "electrodiffusion_3b_1_1_1_0": e3b(1, 1, 1, 0),
    "electrodiffusion_3b_2_3_5_7": e3b(2, 3, 5, 7),
    # point-transformed inputs: painleve_ii(3) under x -> x, y -> y^2, and
    # p34_cuberoot(4) under x -> 2x + 1, y -> 3y - 1 (old in terms of new)
    "painleve_ii_3_power": RunConfig(
        coeffs=("(x*y^2 + 2*y^6 + 3)/(2*y)", "0", "-1/(3*y)", "0")
    ),
    # painleve_ii(3) under x -> x, y -> -y^2: the PII oracle passes only at
    # the fourth sign candidate (tau = -1, eps = -1)
    "painleve_ii_3_neg_square": RunConfig(
        coeffs=("(2*y^6 + x*y^2 - 3)/(2*y)", "0", "-1/(3*y)", "0")
    ),
    "p34_cuberoot_4_affine": RunConfig(
        coeffs=(
            "-96*x*y + 32*x - 96*y*(3*y - 1)^(1/3) - 48*y + 24*(3*y - 1)^(1/3) + 16",
            "0",
            "5/(18*y - 6)",
            "0",
        )
    ),
    # B-branch inputs: the x <-> y swap (x -> y, y -> x) maps A to -B, so
    # these run the B side of the tower; y*p + x*y has Omega != 0
    "p34_rational_3_swap": RunConfig(coeffs=("0", "-1/6/x", "0", "(2*x^3 + x^2*y + 9/2)/x")),
    "painleve_ii_3_swap": RunConfig(coeffs=("0", "0", "0", "-2*x^3 - x*y - 3")),
    "yp_xy_swap": RunConfig(coeffs=("0", "0", "-1/3*x", "-1*x*y")),
    # p34_rational(1) under a linear map with A != 0 and B != 0, so both
    # branches run and must agree
    "p34_rational_1_mixed": RunConfig(
        coeffs=(
            "((144/625)*x^3 - (216/625)*x^2*y - (2592/625)*x*y^2 + (5832/625)*y^3 + 8/5)"
            "/(x - 3*y)",
            "(-(72/625)*x^3 + (108/625)*x^2*y + (1296/625)*x*y^2 - (2916/625)*y^3 - 7/15)"
            "/(x - 3*y)",
            "((36/625)*x^3 - (54/625)*x^2*y - (648/625)*x*y^2 + (1458/625)*y^3 - 7/20)"
            "/(x - 3*y)",
            "(-(18/625)*x^3 + (27/625)*x^2*y + (324/625)*x*y^2 - (729/625)*y^3 + 27/40)"
            "/(x - 3*y)",
        )
    ),
    # the degeneration cases short of the first: maximal (A = B = 0),
    # general (F != 0) and second (M = 0)
    "maximal_zero": RunConfig(rhs="0"),
    "general_y2_p3x2": RunConfig(rhs="y^2 + p^3*x^2"),
    "second_y2": RunConfig(rhs="y^2"),
}


def render(cfg: RunConfig) -> str:
    return json.dumps(run(cfg)[1], indent=2)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert render(CASES[name]) == expected


def _equivalent_kinds(name: str) -> list[str]:
    path = GOLDEN / f"{name}.json"
    if not path.exists():  # while the files are written
        return []
    report = json.loads(path.read_text())
    return [k for k in ("pii", "p34") if report[k]["outcome"].startswith("equivalent")]


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if _equivalent_kinds(n)])
def test_text_report_shows_the_json_transform_and_parameter(name):
    _, report, text = run(CASES[name])
    for kind in _equivalent_kinds(name):
        result = report[kind]
        t = result["transform"]
        assert f"transform x_new = {t['x_new']}, y_new = {t['y_new']}" in text
        if kind == "p34":
            assert f"beta^2 = {result['beta_squared']}" in text
        else:  # the text gives the values of the a candidates
            assert f"a candidates {tuple(result['a_values'])}" in text


def verdicts(report: dict) -> tuple:
    return (
        report["pii"]["outcome"],
        report["pii"]["a_candidates"],
        report["p34"]["outcome"],
        report["p34"]["beta_squared"],
    )


# The oracle's verdict on painleve_ii(12345) depends on the seed: every
# candidate fails at the default seed and at seed 1, one passes at seed 2.
SEED_DEPENDENT = {"painleve_ii_12345"}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(set(CASES) - SEED_DEPENDENT))
def test_verdicts_invariant_across_seeds(name, seed):
    # the golden files hold the default seed's report
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert verdicts(run(replace(CASES[name], seed=seed))[1]) == verdicts(expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cfg in CASES.items():
        (GOLDEN / f"{name}.json").write_text(render(cfg))
        print(f"wrote {name}.json", file=sys.stderr)
