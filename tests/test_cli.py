import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p34eq
from p34eq.cli import RunConfig, build_arg_parser, main, run
from p34eq.expr import SamplePolicy
from p34eq.expr import parse as parse_expr
from p34eq.invariants import InvariantTower

P34_RHS = "p^2/(2*y) - 2*y^2 - x*y - b^2/(2*y)"
PIV_RHS = "p^2/(2*y) + 3*y^3/2 + 4*x*y^2 + 2*(x^2 - 2)*y - 27/(2*y)"
PIV_1_2_RHS = "p^2/(2*y) + 3*y^3/2 + 4*x*y^2 + 2*x^2*y - 2*(1)*y - (2)^3/(2*y)"


def test_rational_form_exits_zero(capsys):
    code = main(["--rhs", P34_RHS, "--param", "b!=0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P34: equivalent" in out
    assert "beta^2 = b^2" in out


def test_zero_coeffs_exit_one(capsys):
    code = main(["--coeffs", "0", "0", "0", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "maximal degeneration" in out


def test_piv_fails_on_i7(capsys):
    code = main(["--rhs", PIV_RHS])
    out = capsys.readouterr().out
    assert code == 1
    assert "I7" in out


def test_input_error_exit_three(capsys):
    assert main(["--rhs", "p^2 +"]) == 3
    assert main(["--rhs", "p^2 + c*y"]) == 3  # undeclared parameter


@pytest.mark.parametrize(
    "argv",
    [
        ["--rhs", "1/0"],
        ["--rhs", "1/(x-x)"],
        ["--rhs", "0^(-1/2)"],
        ["--rhs", "(y-y)^(-1/3)"],
        ["--coeffs", "1/0", "0", "0", "0"],
        ["--implicit", "x", "1/0"],
        ["--implicit", "1/0", "y"],
    ],
)
def test_division_by_zero_is_an_input_error(capsys, argv):
    assert main([*argv, "--json"]) == 3
    assert "error" in json.loads(capsys.readouterr().out)
    assert main(argv) == 3
    assert capsys.readouterr().out.startswith("input error: ")


def test_inconclusive_case_predicate_exits_two(capsys):
    # sqrt(-y^2 - 1) has no real sample in any quadrant, so the zero test
    # of A is inconclusive: a valid input whose degeneration case is undecided
    code = main(["--rhs", "(-y^2 - 1)^(1/2)", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["classification"] == {"tag": "inconclusive", "predicate": "A"}
    assert report["pii"]["outcome"] == report["p34"]["outcome"] == "inconclusive"
    detail = "inconclusive zero-test for predicate 'A'"
    assert report["pii"]["detail"] == report["p34"]["detail"] == detail
    code, _, text = run(RunConfig(rhs="(-y^2 - 1)^(1/2)"))
    assert f"PII: inconclusive ({detail})" in text


def test_equation_real_only_for_negative_y_is_decided():
    # sqrt(-y) is real only for y < 0; the zero tests sample there
    code, report, _ = run(RunConfig(rhs="(-y)^(1/2)"))
    assert code == 1
    assert report["pii"]["outcome"] == report["p34"]["outcome"] == "not-equivalent"


def test_overflowing_input_gets_a_report():
    code, report, _ = run(RunConfig(rhs="x^800*y^3"))
    assert code == 1
    assert report["classification"]["tag"].startswith("first case")


def test_param_declarations():
    code, report, _ = run(RunConfig(rhs="k*y + p^2", params=["k!=0"]))
    assert report["params"] == {"k": "nonzero"}
    code, report, _ = run(RunConfig(rhs="k*y + p^2", params=["k>0"]))
    assert report["params"] == {"k": "positive"}


def test_json_schema_keys():
    code, report, _ = run(RunConfig(rhs=P34_RHS, params=["b!=0"]))
    assert code == 0
    assert list(report) == [
        "input", "params", "invariants", "classification", "pii", "p34", "seed",
    ]
    assert list(report["invariants"]) == [
        "A", "B", "F5", "Omega", "N", "M",
        "I1", "I2", "I3", "I4", "I6", "I7", "I9", "K",
    ]
    assert set(report["pii"]) >= {"outcome", "a_candidates", "transform", "residual"}
    assert set(report["p34"]) >= {"outcome", "beta_squared", "transform", "residual"}
    assert report["p34"]["outcome"] == "equivalent-p34"
    assert report["p34"]["residual"] < 1e-7
    assert report["seed"] == 2034


def test_report_prints_only_what_the_verdicts_computed(monkeypatch):
    # PII fails at I1 and P34 at I7, so no verdict reads I3, I6, I9 or K:
    # the report must neither compute them nor print them
    def unread(self):
        raise AssertionError("the report computed a stage no verdict read")

    monkeypatch.setattr(InvariantTower, "_i6_i9", property(unread))
    monkeypatch.setattr(InvariantTower, "k_invariant", property(unread))
    code, report, text = run(RunConfig(rhs=PIV_1_2_RHS))
    assert code == 1
    assert report["pii"]["failed_condition"] == "I1 = 18/5"
    assert report["p34"]["failed_condition"] == "I7 = 0"
    inv = report["invariants"]
    assert [k for k in ("I3", "I6", "I9", "K") if inv[k] is not None] == []
    assert inv["I1"] is not None and inv["I7"] is not None
    assert "  I7 = " in text and "  I9 = " not in text


def test_json_byte_identical_for_same_seed():
    cfg = RunConfig(rhs=P34_RHS, params=["b!=0"], seed=7)
    _, r1, _ = run(cfg)
    _, r2, _ = run(cfg)
    assert json.dumps(r1) == json.dumps(r2)


def test_text_and_json_carry_same_verdicts():
    code, report, text = run(RunConfig(rhs=P34_RHS, params=["b!=0"]))
    assert ("P34: equivalent" in text) == (report["p34"]["outcome"] == "equivalent-p34")
    assert ("not equivalent" in text) == (report["pii"]["outcome"] == "not-equivalent")


def test_report_expressions_reparse():
    _, report, _ = run(RunConfig(rhs=P34_RHS, params=["b!=0"]))
    for key, text in report["invariants"].items():
        if text is not None:
            parse_expr(text)
    t = report["p34"]["transform"]
    parse_expr(t["x_new"])
    parse_expr(t["y_new"])


def test_implicit_mode():
    code, report, _ = run(
        RunConfig(implicit=("y + x", "p^2/2 + p + 2*y^3 + 4*x*y^2 + 2*x^2*y"))
    )
    assert code == 0
    assert report["p34"]["beta_squared"] == "1/4"


def test_verify_flag_adds_block():
    code, report, _ = run(RunConfig(rhs="2*y^3 + x*y", verify=True))
    assert code == 0
    assert report["verification"]["pii"]["passed"]


def test_arg_parser_requires_one_mode():
    ap = build_arg_parser()
    with pytest.raises(SystemExit):
        ap.parse_args(["--json"])


def test_runtime_needs_no_numpy():
    # numpy is a test dependency only; the PII verdict below is certified
    # exactly and the P34 one passes the jet oracle
    code = """
import sys
sys.modules["numpy"] = None
from p34eq.cli import main
for rhs in ("2*y^3 + x*y + 3", "p^2/(2*y) - 2*y^2 - x*y - 9/(2*y)"):
    assert main(["--rhs", rhs]) == 0, rhs
"""
    src = str(Path(p34eq.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("oracle residual") == 1, proc.stdout
    assert proc.stdout.count("; certified") == 1, proc.stdout


def test_cli_defaults_are_the_sampling_defaults():
    args = build_arg_parser().parse_args(["--rhs", "y"])
    got = SamplePolicy(seed=args.seed, n_samples=args.samples, abs_tol=args.abs_tol)
    assert got == SamplePolicy()
