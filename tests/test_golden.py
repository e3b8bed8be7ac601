"""Golden CLI reports: the JSON of `p34eq --json` for the fixed inputs of
golden_cases.py.

The test compares each report with its file under tests/golden/ byte for
byte, so a change that moves any verdict, rendered expression, float sample
or residual shows up here.  After a deliberate change of output, rewrite the
files with

    PYTHONPATH=src python tests/golden_cases.py
"""

import json
from dataclasses import replace

import pytest

from golden_cases import CASES, GOLDEN, render
from p34eq.cli import run


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
