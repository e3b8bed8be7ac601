"""Time to verdict and to report, on checked answers.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.  One
process, one thread, one client in a closed loop: operations run one after
another.  A round takes every equation of the workload through

- the library: InvariantTower, classify, test_pii and test_p34 on one tower
  (a *decision*), a fixed number of times per workload, each time on a
  freshly built equation, and
- what ``p34eq --json`` does: cli.run on the equation's text, then
  json.dumps of the report (a *report*), once,

all of them in an order drawn from the seed.  A round is never cut short,
and a new round starts only while the time so far plus the mean round time
fits in --seconds (there is always one).  An operation is one (equation,
test) pair of one decision.  It fails when its outcome differs from the known
answer, when it raises, when it exceeds the budget, when the independent
checker (check.py, run in a child process after the timed rounds) rejects
its transform or parameter, or when the CLI report disagrees with the
library.  A failure is charged to a kept fault only when it is the failure
that fault produces (workloads.FAULTS).

Every timed decision and report lies between two reference samples and
takes more inside itself (hostspeed.py); end-to-end times are reported at
the host speed of hostspeed.REFERENCE_S, and also as measured in the run's
result file.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1 it
holds the per-layer metrics, per round, of traced rounds run for --seconds;
each equation is also decided untraced just before its traced decision, and
the tracing overhead is measured against those decisions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads
from hostspeed import host_factor, reference_s, reference_sample
from spans import STAGES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"  # one result file per run, and the spans of traced runs

OP_BUDGET_S = 60.0  # one decision or one report
RUN_BUDGET_S = 120.0  # from the start of the run; later operations time out at once
EXIT_BY_S = 170.0  # the checker gets what is left of this, from the start of the run
SETUP_REPEATS = 7
# Decisions per equation and round.  A round of electrodiffusion already takes
# 15-37 s with one; the other workloads' decisions take 0.1-0.3 s (median), and
# decide_s.p50 on transformed, the median of ten such times, needs three.
DECIDE_REPEATS = {"catalog": 2, "electrodiffusion": 1, "transformed": 3}
TESTS = ("pii", "p34")
# Process CPU seconds between reference samples taken inside an operation.
SAMPLE_EVERY_S = 0.2

# The import, timed in a fresh interpreter, then a reference sample there.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import p34eq.cli; d = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
    "print(d, hostspeed.reference_s())"
)


class BudgetExceeded(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the program catches it."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----- inputs ---------------------------------------------------------------


def load_equations(workload: str, seed: int):
    if workload == "catalog":
        return workloads.catalog()
    if workload == "electrodiffusion":
        return workloads.electrodiffusion()
    out = subprocess.run(
        [sys.executable, str(HERE / "gen_transformed.py"), "--seed", str(seed)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
    )
    return workloads.transformed(json.loads(out.stdout))


def run_config(cli_spec: dict):
    from p34eq.cli import RunConfig

    return RunConfig(
        rhs=cli_spec.get("rhs"),
        coeffs=tuple(cli_spec["coeffs"]) if "coeffs" in cli_spec else None,
        implicit=tuple(cli_spec["implicit"]) if "implicit" in cli_spec else None,
        params=list(cli_spec["params"]),
    )


def measure_setup(equations) -> tuple[float, float]:
    """Median import time of p34eq.cli in fresh interpreters, plus the median
    time to build every equation of the workload from its text, as the CLI
    builds it: (at the reference host speed, as measured)."""
    from p34eq import cli

    configs = [run_config(eq.cli) for eq in equations]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, builds = [], []  # (seconds, host factor)
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, check=True, env=env, cwd=ROOT, timeout=60,
        )
        seconds, ref = map(float, out.stdout.split())
        imports.append((seconds, host_factor([ref])))
        before = reference_s()
        t0 = time.perf_counter()
        for cfg in configs:
            cli._build_equation(cfg)
        seconds = time.perf_counter() - t0
        builds.append((seconds, host_factor([before, reference_s()])))

    def median(pairs, scaled):
        return statistics.median(t * (f if scaled else 1.0) for t, f in pairs)

    return (median(imports, True) + median(builds, True),
            median(imports, False) + median(builds, False))


# ----- one equation ---------------------------------------------------------


def decide(ode, policy):
    """Both verdicts through the library, sharing one tower."""
    # Imported at call time here and below, so that a traced run calls the wrappers.
    from p34eq.classify import classify, test_p34, test_pii
    from p34eq.errors import UnknownVerdictError
    from p34eq.invariants import InvariantTower

    tower = InvariantTower(ode, policy)
    try:
        classify(ode, policy, tower=tower)
    except UnknownVerdictError:
        pass  # classification is not an operation; the tests report their own verdicts
    return test_pii(ode, policy, tower=tower), test_p34(ode, policy, tower=tower)


def report(cfg) -> tuple[int, dict]:
    """What ``p34eq --json`` does in-process: (report size in bytes, report)."""
    from p34eq import cli

    _, rep, _ = cli.run(cfg)
    return len(json.dumps(rep, indent=2).encode()), rep


def _answer(test: str, result) -> dict:
    """The library's answer for one test, as text for comparison and checking."""
    from p34eq.expr import normalize, to_string

    out = {"outcome": result.outcome.value, "detail": result.detail, "params": [],
           "x_new": None, "y_new": None, "cli_x_new": None, "cli_y_new": None}
    if test == "pii" and result.a_candidates:
        out["params"] = [to_string(a) for a in result.a_candidates]
    if test == "p34" and result.beta_squared is not None:
        out["params"] = [to_string(result.beta_squared)]
    if result.transform is not None:
        out["x_new"] = to_string(result.transform.x_new)
        out["y_new"] = to_string(result.transform.y_new)
        out["cli_x_new"] = to_string(normalize(result.transform.x_new))
        out["cli_y_new"] = to_string(normalize(result.transform.y_new))
    return out


def _cli_answer(test: str, rep: dict) -> dict:
    section = rep[test]
    if test == "pii":
        params = section.get("a_candidates") or []
    else:
        params = [section["beta_squared"]] if section.get("beta_squared") else []
    transform = section.get("transform") or {}
    return {"outcome": section["outcome"], "params": params,
            "x_new": transform.get("x_new"), "y_new": transform.get("y_new")}


def _timed(fn, deadline: float, sample: bool) -> tuple[float, object, str | None, list]:
    """(seconds, value, error, reference samples) of fn() within the
    operation budget.

    With ``sample``, a reference sample is taken inside the operation every
    SAMPLE_EVERY_S of process CPU time, from SIGPROF; the samples' own time
    is not counted in the operation's.
    """
    inside: list[float] = []
    budget = min(OP_BUDGET_S, deadline - time.perf_counter())
    if budget <= 0:
        return 0.0, None, "timeout", inside
    if sample:
        signal.signal(signal.SIGPROF, lambda signum, frame: inside.append(reference_sample()))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    value = error = None
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_PROF, 0)
    except BudgetExceeded:
        error = "timeout"
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0 - sum(inside), value, error, inside


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def decide_op(eq, deadline: float, sample: bool, tracer=None) -> tuple[float, list, dict]:
    """One decision of a freshly built equation (the build is not timed):
    (seconds, reference samples inside, {test: answer or error})."""
    from p34eq import cli
    from p34eq.expr import SamplePolicy

    cfg = run_config(eq.cli)
    policy = SamplePolicy(seed=cfg.seed, n_samples=cfg.samples, abs_tol=cfg.abs_tol)
    try:
        ode = cli._build_equation(cfg)
    except Exception as exc:
        return 0.0, [], {t: {"error": f"build raised {type(exc).__name__}: {exc}"} for t in TESTS}

    def run():
        with _span(tracer, "bench.decide"):
            return decide(ode, policy)

    seconds, results, error, inside = _timed(run, deadline, sample)
    if error is not None:
        return seconds, inside, {t: {"error": error} for t in TESTS}
    with tracer.suspended() if tracer is not None else nullcontext():
        return seconds, inside, {t: _answer(t, r) for t, r in zip(TESTS, results)}


def report_op(eq, deadline: float, sample: bool, tracer=None) -> tuple[float, list, int, dict]:
    """One report: (seconds, reference samples inside, bytes, {test: the
    report's answer}, or {"error": ...})."""
    cfg = run_config(eq.cli)

    def run():
        with _span(tracer, "bench.report"):
            size, rep = report(cfg)
        return size, {t: _cli_answer(t, rep) for t in TESTS}

    seconds, value, error, inside = _timed(run, deadline, sample)
    if error is not None:
        return seconds, inside, 0, {"error": f"report {error}"}
    return (seconds, inside, *value)


# ----- judging answers ------------------------------------------------------


def judge(eq, test: str, answer: dict) -> tuple[str | None, str | None, dict | None]:
    """(failure reason or None, kept fault or None, checker case or None) for
    one operation."""
    if "error" in answer:
        return answer["error"], None, None
    if "cli" in answer:
        cli = answer["cli"]
        lib = {"outcome": answer["outcome"], "params": answer["params"],
               "x_new": answer["cli_x_new"], "y_new": answer["cli_y_new"]}
        if cli != lib:
            return f"CLI report {cli} disagrees with the library {lib}", None, None
    known_outcome, known_param = getattr(eq, test)
    if answer["outcome"] != known_outcome:
        reason = f"outcome {answer['outcome']} ({answer['detail']}), known {known_outcome}"
        return reason, eq.fault_of(test, answer["outcome"], answer["detail"]), None
    if known_param is None:
        return None, None, None
    if answer["x_new"] is None:
        return "equivalent without a transform", None, None
    case = {"input": eq.cli, "kind": test, "known": known_param, "params": answer["params"],
            "x_new": answer["x_new"], "y_new": answer["y_new"]}
    return None, None, case


def run_checker(cases: list[dict], timeout: float) -> list[dict]:
    """The checker's verdict on every case; a checker that fails or runs out
    of time rejects every case."""
    if not cases:
        return []
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "check.py")], input=json.dumps(cases),
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=timeout,
        )
        results = json.loads(out.stdout)
    except subprocess.TimeoutExpired:
        why = f"checker did not finish within {timeout:.0f} s"
    except subprocess.CalledProcessError as exc:
        why = f"checker exited with {exc.returncode}: {exc.stderr.strip()[-300:]}"
    except json.JSONDecodeError as exc:
        why = f"checker printed no result: {exc}"
    else:
        if len(results) == len(cases):
            return results
        why = f"checker answered {len(results)} of {len(cases)} cases"
    return [{"ok": False, "why": why}] * len(cases)


# ----- the run --------------------------------------------------------------


@dataclass
class Visit:
    """One equation in one round: timings, each with the host_factor of the
    reference samples around it, and the answers of every decision."""

    decide_s: list = field(default_factory=list)
    decide_factor: list = field(default_factory=list)
    untraced_s: list = field(default_factory=list)  # traced runs only
    report_s: float = 0.0
    report_factor: float = 1.0
    report_bytes: int = 0
    answers: list = field(default_factory=list)  # {test: answer} per decision
    cli: dict = field(default_factory=dict)  # {test: answer} of the report, or {"error": ...}

    def judged_answers(self) -> list[dict]:
        """Every decision's answers, with the report's answer attached."""
        out = []
        for answers in self.answers:
            row = {}
            for test, answer in answers.items():
                if "error" in answer:
                    row[test] = answer
                elif "error" in self.cli:
                    row[test] = {"error": self.cli["error"]}
                else:
                    row[test] = {**answer, "cli": self.cli[test]}
            out.append(row)
        return out


def _round_tasks(n: int, decides: int, traced: bool, rng) -> list[tuple[int, str]]:
    """The operations of one round, in the seed's order.  A traced round keeps
    each equation's untraced decision, traced decision and report together,
    so that both decisions see the same state of the host."""
    if traced:
        order = list(range(n))
        rng.shuffle(order)
        return [(i, op) for i in order for op in ("untraced", "decide", "report")]
    tasks = [(i, "decide") for i in range(n) for _ in range(decides)]
    tasks += [(i, "report") for i in range(n)]
    rng.shuffle(tasks)
    return tasks


def measure(equations, seed: int, seconds: float, deadline: float, decides: int, tracer=None):
    """Whole rounds while the next is expected to end within ``seconds`` (at
    least one).

    Every operation lies between two reference samples; an untraced run also
    samples the reference inside each operation.  Returns a list of Visits
    per equation, one per round, and the timeline: (equation, operation,
    seconds, host factor, samples inside) in the order run.
    """
    rng = random.Random(f"order/{seed}")
    sample = tracer is None
    timeline = []
    per_eq: list[list[Visit]] = [[] for _ in equations]
    start = time.perf_counter()
    rounds = 0
    before = reference_s()
    while True:
        visits = [Visit() for _ in equations]
        for i, op in _round_tasks(len(equations), decides, tracer is not None, rng):
            visit, eq = visits[i], equations[i]
            if op == "report":
                t, inside, visit.report_bytes, visit.cli = report_op(eq, deadline, sample, tracer)
            elif op == "untraced":
                with tracer.suspended():
                    t, inside, answers = decide_op(eq, deadline, sample)
                visit.untraced_s.append(t)
                visit.answers.append(answers)
            else:
                t, inside, answers = decide_op(eq, deadline, sample, tracer)
                visit.answers.append(answers)
            after = reference_s()
            factor = host_factor([before, after, *inside])
            before = after
            timeline.append((i, op, t, factor, len(inside)))
            if op == "report":
                visit.report_s, visit.report_factor = t, factor
            elif op == "decide":
                visit.decide_s.append(t)
                visit.decide_factor.append(factor)
        for i, visit in enumerate(visits):
            per_eq[i].append(visit)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return per_eq, timeline


def verdicts(equations, per_eq, checker_timeout: float) -> tuple[int, list[dict]]:
    """(attempted, failures) after checking every answer; a failure names
    its kept fault, or None when no kept fault explains it."""
    attempted = 0
    failures: list[dict] = []
    cases: dict[str, dict] = {}
    pending: list[tuple] = []  # (case key, equation, test)
    for eq, visits in zip(equations, per_eq):
        for visit in visits:
            for answers in visit.judged_answers():
                for test in TESTS:
                    attempted += 1
                    reason, fault, case = judge(eq, test, answers[test])
                    if reason is not None:
                        failures.append({"equation": eq.name, "test": test, "reason": reason,
                                         "fault": fault})
                    elif case is not None:
                        key = json.dumps(case, sort_keys=True)
                        cases[key] = case
                        pending.append((key, eq, test))
    keys = list(cases)
    results = dict(zip(keys, run_checker([cases[k] for k in keys], checker_timeout)))
    for key, eq, test in pending:
        if not results[key]["ok"]:
            failures.append({"equation": eq.name, "test": test, "fault": None,
                             "reason": f"checker rejects: {results[key]['why']}"})
    return attempted, failures


def _times(per_eq, setup_s: float, scaled: bool) -> dict:
    """Time metrics from per-equation medians, at the reference host speed
    (scaled) or as measured."""
    decide_med, report_med = [], []
    for visits in per_eq:
        decide_med.append(statistics.median(
            t * (f if scaled else 1.0)
            for v in visits for t, f in zip(v.decide_s, v.decide_factor)))
        report_med.append(statistics.median(
            v.report_s * (v.report_factor if scaled else 1.0) for v in visits))
    return {
        "setup_s": (setup_s, "s"),
        "decide_s": (sum(decide_med), "s"),
        "decide_s.p50": (statistics.median(decide_med), "s"),
        "report_s": (sum(report_med), "s"),
    }


def end_to_end(equations, seed: int, seconds: float, deadline: float, decides: int):
    """End-to-end metrics at the reference host speed, and the same times as
    measured."""
    setup_s, setup_measured_s = measure_setup(equations)
    per_eq, timeline = measure(equations, seed, seconds, deadline, decides)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = _times(per_eq, setup_s, scaled=True)
    metrics["report_mb"] = (sum(visits[0].report_bytes for visits in per_eq) / 1e6, "MB")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, _times(per_eq, setup_measured_s, scaled=False), per_eq, timeline


LAYER_COUNTS = {
    "poly.gcd_calls": "poly.gcd", "poly.mul_calls": "poly.mul", "poly.div_calls": "poly.div",
    "ratfunc.add_calls": "ratfunc.add", "ratfunc.mul_calls": "ratfunc.mul",
    "engine.is_zero_calls": "engine.is_zero", "engine.rf_pow_calls": "engine.rf_pow",
    "oracle.verify_calls": "oracle.verify", "parser.calls": "parser",
}
LAYER_TIMES = {
    "poly.gcd_s": "poly.gcd", "poly.mul_s": "poly.mul", "poly.div_s": "poly.div",
    "ratfunc.add_s": "ratfunc.add", "ratfunc.mul_s": "ratfunc.mul",
    "ratfunc.deriv_s": "ratfunc.deriv", "engine.is_zero_s": "engine.is_zero",
    "engine.to_ratfunc_s": "engine.to_ratfunc", "engine.rf_to_expr_s": "engine.rf_to_expr",
    "ast.to_string_s": "ast.to_string", "oracle.verify_s": "oracle.verify",
    "invariants.compute_invariants_s": "invariants.compute_invariants",
    "classify.classify_s": "classify.classify", "classify.test_pii_s": "classify.test_pii",
    "classify.test_p34_s": "classify.test_p34", "parser.s": "parser",
    "ode.build_s": "ode.build", "cli.run_s": "cli.run",
}
EXTRA_COUNTS = ("engine.is_zero_unknown", "engine.is_zero_exact", "ast.to_string_chars",
                "oracle.verify_passed", "oracle.samples")
STAGE_NAMES = tuple(dict.fromkeys(STAGES.values()))
# self time of these spans, split into the part under bench.decide and under bench.report
SPLIT_SPANS = tuple(span for span in LAYER_TIMES.values() if span != "cli.run")
ROOTS = {"bench.decide": "decide_s", "bench.report": "report_s"}


def layer_metrics(tracer, rounds: int, untraced_decide_s: float, traced_decide_s: float) -> dict:
    """Counts and self times per round; maxima over all rounds."""
    calls, self_s, under = tracer.totals(tuple(ROOTS))
    calls = {k: v / rounds for k, v in calls.items()}
    self_s = {k: v / rounds for k, v in self_s.items()}
    under = {k: v / rounds for k, v in under.items()}
    counts = {k: v / rounds for k, v in tracer.counts.items()}
    out: dict = {}
    for key, span in LAYER_COUNTS.items():
        out[key] = (calls.get(span, 0), "count")
    for key, span in LAYER_TIMES.items():
        out[key] = (self_s.get(span, 0.0), "s")
    for span in SPLIT_SPANS:
        for root, suffix in ROOTS.items():
            out[f"{span}.{suffix}"] = (under.get((span, root), 0.0), "s")
    for key in EXTRA_COUNTS:
        out[key] = (counts.get(key, 0), "count")
    out["poly.gcd_max_bits"] = (tracer.maxima.get("poly.gcd_max_bits", 0), "bits")
    verify_calls = calls.get("oracle.verify", 0)
    passed = counts.get("oracle.verify_passed", 0)
    out["oracle.verify_pass_pct"] = (100.0 * passed / verify_calls if verify_calls else 0.0, "%")
    for stage in STAGE_NAMES:
        out[f"invariants.{stage}_s"] = (self_s.get(f"invariants.{stage}", 0.0), "s")
        out[f"invariants.{stage}_terms"] = (counts.get(f"invariants.{stage}_terms", 0), "count")
        out[f"invariants.{stage}_bits"] = (tracer.maxima.get(f"invariants.{stage}_bits", 0), "bits")
    out["trace.decide_s"] = (traced_decide_s, "s")
    out["trace.untraced_decide_s"] = (untraced_decide_s, "s")
    out["trace.overhead_pct"] = (100.0 * (traced_decide_s / untraced_decide_s - 1.0), "%")
    return out


def traced(equations, seed: int, seconds: float, deadline: float):
    """Per-layer metrics of traced rounds, per round, and the overhead of
    tracing against untraced decisions of the same equations (as measured)."""
    tracer = Tracer()
    tracer.install()
    try:
        per_eq, timeline = measure(equations, seed, seconds, deadline, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_decide_s = sum(statistics.median(t for v in vs for t in v.untraced_s) for vs in per_eq)
    traced_decide_s = sum(statistics.median(t for v in vs for t in v.decide_s) for vs in per_eq)
    rounds = len(per_eq[0])
    metrics = layer_metrics(tracer, rounds, untraced_decide_s, traced_decide_s)
    return metrics, per_eq, timeline, tracer


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("catalog", "electrodiffusion", "transformed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "p34eq" / "__init__.py").is_file():
        return fail(f"no program to measure: {SRC / 'p34eq'} is missing")
    sys.path.insert(0, str(SRC))
    import p34eq

    if Path(p34eq.__file__).resolve().parent != (SRC / "p34eq").resolve():
        return fail(f"p34eq was imported from {p34eq.__file__}, not from {SRC}")
    signal.signal(signal.SIGALRM, _alarm)

    equations = load_equations(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    deadline = started + RUN_BUDGET_S
    if args.trace:
        metrics, per_eq, timeline, tracer = traced(equations, args.seed, args.seconds, deadline)
        tracer.save(RESULTS / f"{stem}-spans.npz")
    else:
        decides = DECIDE_REPEATS[args.workload]
        metrics, measured, per_eq, timeline = end_to_end(equations, args.seed, args.seconds, deadline,
                                               decides)
    checker_timeout = max(10.0, started + EXIT_BY_S - time.perf_counter())
    attempted, failures = verdicts(equations, per_eq, checker_timeout)
    unexpected = [f for f in failures if f["fault"] is None]
    for f in unexpected:
        print(f"unexpected failure: {f['equation']} {f['test']}: {f['reason']}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "equations": [
            {"name": eq.name, "rounds": [
                {k: v for k, v in asdict(visit).items() if k not in ("answers", "cli")}
                for visit in visits
            ]}
            for eq, visits in zip(equations, per_eq)
        ],
        "failures": failures,
        "timeline": timeline,
    }
    if not args.trace:
        details["measured"] = {k: v for k, (v, _) in measured.items()}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, **details}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
