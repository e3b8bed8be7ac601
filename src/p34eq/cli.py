"""Command-line front end: declare an equation, classify it, test equivalence.

The JSON report has the keys ``input`` (the equation as given and its
coefficients P, Q, R, S), ``params``, ``invariants``, ``classification``,
``pii``, ``p34`` and ``seed``, and ``verification`` under ``--verify``.
``invariants`` maps A, B, F5, Omega, N, M, I1, I2, I3, I4, I6, I7, I9 and K
to their factored forms, coeff * monomial * prod P_e^e with P_e the product
of the factors of exponent e, not to their expanded normal forms; an
invariant is null when no verdict computed it.
The text report prints the same verdicts and the invariants that are not null.

Exit codes: 0 equivalent to PII or P34, 1 not equivalent or out of scope,
2 inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .classify import Outcome, classify, test_p34, test_pii
from .errors import P34Error, UnknownVerdictError
from .expr import ParamEnv, SamplePolicy, parse, rf_to_expr, to_ratfunc, to_string
from .invariants import InvariantTower, compute_invariants
from .ode import OdeCubic, from_rhs, normalize_implicit
from .oracle import verify_transform


@dataclass
class RunConfig:
    """One CLI invocation; exactly one of rhs / coeffs / implicit is set."""

    rhs: str | None = None
    coeffs: tuple[str, str, str, str] | None = None
    implicit: tuple[str, str] | None = None
    params: list[str] = field(default_factory=list)
    seed: int = SamplePolicy.seed
    abs_tol: float = SamplePolicy.abs_tol
    samples: int = SamplePolicy.n_samples
    json_output: bool = False
    verify: bool = False


def _parse_param(spec: str) -> tuple[str, str]:
    if spec.endswith("!=0"):
        name, constraint = spec[:-3], "nonzero"
    elif spec.endswith(">0"):
        name, constraint = spec[:-2], "positive"
    else:
        name, constraint = spec, "free"
    name = name.strip()
    if not name.isidentifier():
        raise P34Error(f"invalid parameter declaration {spec!r}")
    return name, constraint


def _build_equation(cfg: RunConfig) -> OdeCubic:
    env = ParamEnv(dict(_parse_param(p) for p in cfg.params))
    if cfg.rhs is not None:
        return from_rhs(to_ratfunc(parse(cfg.rhs)), env, label="cli")
    if cfg.coeffs is not None:
        p, q, r, s = (to_ratfunc(parse(c)) for c in cfg.coeffs)
        return OdeCubic(p, q, r, s, env, label="cli")
    assert cfg.implicit is not None
    lead, rest = (to_ratfunc(parse(t)) for t in cfg.implicit)
    return normalize_implicit(lead, rest, env, label="cli")


def _transform_dict(result) -> dict | None:
    if result.transform is None:
        return None
    return {
        "x_new": to_string(result.transform.x_new),
        "y_new": to_string(result.transform.y_new),
    }


def _equivalence_dict(result, kind: str) -> dict:
    out: dict = {"outcome": result.outcome.value}
    if kind == "pii":
        out["a_candidates"] = (
            [to_string(a) for a in result.a_candidates] if result.a_candidates else None
        )
        out["a_values"] = list(result.a_values) if result.a_values else None
    else:
        out["beta_squared"] = (
            to_string(result.beta_squared) if result.beta_squared is not None else None
        )
        out["beta_squared_value"] = result.beta_squared_value
    out["transform"] = _transform_dict(result)
    out["residual"] = (
        result.residual.max_residual
        if result.residual is not None and not result.residual.insufficient
        else None
    )
    if result.failed_condition:
        out["failed_condition"] = result.failed_condition
    if result.detail:
        out["detail"] = result.detail
    return out


def run(cfg: RunConfig) -> tuple[int, dict, str]:
    """Execute one classification run; returns (exit code, report, text)."""
    policy = SamplePolicy(seed=cfg.seed, n_samples=cfg.samples, abs_tol=cfg.abs_tol)
    try:
        ode = _build_equation(cfg)
    except P34Error as exc:
        report = {"error": str(exc)}
        return 3, report, f"input error: {exc}"

    tower = InvariantTower(ode, policy)
    try:
        classification = classify(ode, policy, tower=tower)
        cls_dict: dict = {
            "tag": classification.tag.value,
            "flags": classification.flags,
            "case_1_4": classification.case_1_4,
        }
        cls_text = classification.describe()
    except UnknownVerdictError as exc:
        cls_dict = {"tag": "inconclusive", "predicate": exc.predicate}
        cls_text = f"inconclusive ({exc.predicate})"

    pii = test_pii(ode, policy, tower=tower)
    p34 = test_p34(ode, policy, tower=tower)
    invariants = compute_invariants(tower)

    p, q, r, s = (to_string(rf_to_expr(c)) for c in ode.coeffs())
    report = {
        "input": {
            "rhs": cfg.rhs,
            "coeffs": list(cfg.coeffs) if cfg.coeffs else None,
            "implicit": list(cfg.implicit) if cfg.implicit else None,
            "label": ode.label,
            "P": p,
            "Q": q,
            "R": r,
            "S": s,
        },
        "params": {
            name: ode.env.constraints[name].value for name in sorted(ode.env.constraints)
        },
        "invariants": invariants,
        "classification": cls_dict,
        "pii": _equivalence_dict(pii, "pii"),
        "p34": _equivalence_dict(p34, "p34"),
        "seed": cfg.seed,
    }

    if cfg.verify:
        report["verification"] = _verification_block(ode, pii, p34, policy)

    lines = [
        f"equation: {ode.label}",
        f"  P = {report['input']['P']}",
        f"  Q = {report['input']['Q']}",
        f"  R = {report['input']['R']}",
        f"  S = {report['input']['S']}",
        f"classification: {cls_text}",
    ]
    for key, text in invariants.items():
        if text is not None:
            lines.append(f"  {key} = {text}")
    lines.append(_describe_result("PII", pii))
    lines.append(_describe_result("P34", p34))

    if pii.equivalent or p34.equivalent:
        code = 0
    elif pii.outcome is Outcome.INCONCLUSIVE or p34.outcome is Outcome.INCONCLUSIVE:
        code = 2
    else:
        code = 1
    return code, report, "\n".join(lines)


def _describe_result(tag: str, result) -> str:
    if result.outcome in (Outcome.EQUIVALENT_PII, Outcome.EQUIVALENT_P34):
        bits = [f"{tag}: equivalent"]
        if result.a_values:
            bits.append(f"a candidates {result.a_values}")
        if result.beta_squared is not None:
            bits.append(f"beta^2 = {to_string(result.beta_squared)}")
        if result.transform is not None:
            bits.append(
                f"transform x_new = {to_string(result.transform.x_new)}, "
                f"y_new = {to_string(result.transform.y_new)}"
            )
        if result.residual is not None:
            bits.append(f"oracle residual {result.residual.max_residual:.2e}")
        return "; ".join(bits)
    if result.outcome is Outcome.NOT_EQUIVALENT:
        return f"{tag}: not equivalent (failed: {result.failed_condition})"
    if result.outcome is Outcome.OUT_OF_SCOPE:
        return f"{tag}: out of scope ({result.detail})"
    return f"{tag}: inconclusive ({result.detail})"


def _verification_block(ode, pii, p34, policy) -> dict:
    out: dict = {}
    from .equations import p34_cuberoot, painleve_ii

    if pii.equivalent and pii.transform is not None and pii.a_rfs:
        target = painleve_ii(pii.a_rfs[0])
        rep = verify_transform(ode, target, pii.transform, n=40, policy=policy)
        out["pii"] = {"max_residual": rep.max_residual, "samples": rep.samples_used,
                      "passed": rep.passed}
    if p34.equivalent and p34.transform is not None and p34.beta2_rf is not None:
        target = p34_cuberoot(p34.beta2_rf)
        rep = verify_transform(ode, target, p34.transform, n=40, policy=policy)
        out["p34"] = {"max_residual": rep.max_residual, "samples": rep.samples_used,
                      "passed": rep.passed}
    return out


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="p34eq",
        description="Decide point-equivalence of a cubic-in-derivative ODE "
        "to Painleve II or Painleve 34.",
    )
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rhs", help="right-hand side of y'' = f(x, y, p), p the derivative")
    mode.add_argument("--coeffs", nargs=4, metavar=("P", "Q", "R", "S"),
                      help="the four coefficient expressions")
    mode.add_argument("--implicit", nargs=2, metavar=("LEAD", "REST"),
                      help="equation LEAD * y'' = REST")
    ap.add_argument("--param", action="append", default=[],
                    help="declare a parameter: NAME, NAME!=0, or NAME>0 (repeatable)")
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    ap.add_argument("--verify", action="store_true",
                    help="re-verify any successful transform at a higher sample count")
    ap.add_argument("--seed", type=int, default=RunConfig.seed, help="sampling seed")
    ap.add_argument("--abs-tol", type=float, default=RunConfig.abs_tol, help="zero-test tolerance")
    ap.add_argument("--samples", type=int, default=RunConfig.samples,
                    help="samples per zero test")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    cfg = RunConfig(
        rhs=args.rhs,
        coeffs=tuple(args.coeffs) if args.coeffs else None,
        implicit=tuple(args.implicit) if args.implicit else None,
        params=args.param,
        seed=args.seed,
        abs_tol=args.abs_tol,
        samples=args.samples,
        json_output=args.json,
        verify=args.verify,
    )
    try:
        code, report, text = run(cfg)
    except P34Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.json_output:
        print(json.dumps(report, indent=2))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
