"""Only the failure a kept fault produces is charged to it.

    python3 -m pytest perfbench -q
"""

import run
import workloads

PII_3 = next(eq for eq in workloads.catalog() if eq.name == "painleve_ii(3)")
F1_DETAIL = workloads.FAULTS["F1"][1]


def _answer(outcome, detail=""):
    return {"outcome": outcome, "detail": detail, "params": [], "x_new": None, "y_new": None,
            "cli_x_new": None, "cli_y_new": None}


def test_the_kept_failure_is_charged_to_its_fault():
    reason, fault, _ = run.judge(PII_3, "p34", _answer(workloads.INCONCLUSIVE, F1_DETAIL))
    assert reason is not None and fault == "F1"


def test_a_wrong_verdict_on_a_faulty_operation_is_unexpected():
    reason, fault, _ = run.judge(PII_3, "p34", _answer(workloads.EQ_P34))
    assert reason is not None and fault is None


def test_another_inconclusive_reason_is_unexpected():
    answer = _answer(workloads.INCONCLUSIVE, "inconclusive zero-test for predicate 'I9 = 0'")
    reason, fault, _ = run.judge(PII_3, "p34", answer)
    assert reason is not None and fault is None


def test_a_timeout_or_an_error_is_unexpected():
    for error in ("timeout", "raised KeyError: 'x'"):
        reason, fault, _ = run.judge(PII_3, "p34", {"error": error})
        assert reason == error and fault is None


def test_a_cli_report_that_disagrees_is_unexpected():
    answer = _answer(workloads.INCONCLUSIVE, F1_DETAIL)
    answer["cli"] = {"outcome": workloads.NOT_EQ, "params": [], "x_new": None, "y_new": None}
    reason, fault, _ = run.judge(PII_3, "p34", answer)
    assert "CLI report" in reason and fault is None


def test_the_checker_failing_rejects_every_case(monkeypatch):
    monkeypatch.setattr(run, "HERE", run.HERE / "no-such-directory")
    results = run.run_checker([{"kind": "p34"}, {"kind": "pii"}], timeout=60)
    assert [r["ok"] for r in results] == [False, False]
