"""Print a sha256 of the JSON and of the text report of many inputs.

    python tools/report_hashes.py [--seed N] [--verify] [--mask-residuals]

The inputs are every catalog and electrodiffusion equation of the benchmark
(perfbench/workloads.py), every transformed input it can generate
(perfbench/gen_transformed.py --all, which needs sympy) and every golden
input (tests/golden_cases.py).  Each line is

    <sha256 of the JSON report> <sha256 of the text report> <exit code> <input>

for the report `p34eq --json` and `p34eq` print at that seed, with
--verify when given.  Two checkouts give the same lines exactly when they
give the same reports, so a change meant to keep every report can be
checked by diffing the output of the parent and of the change.  With
--mask-residuals the residual figures (the JSON "residual" and
"max_residual" values, the text's "oracle residual" figure, and the
"max=" figure of a "ResidualReport(...)" quoted in a JSON "detail" or in
the text) are masked before hashing, for a change that may move only
their last digits, such as one that sums the terms of a RatFunc in
another order.  The benchmark's files are read, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from p34eq.cli import RunConfig, run  # noqa: E402


def _config(cli: dict) -> RunConfig:
    return RunConfig(
        rhs=cli.get("rhs"),
        coeffs=tuple(cli["coeffs"]) if "coeffs" in cli else None,
        implicit=tuple(cli["implicit"]) if "implicit" in cli else None,
        params=list(cli.get("params", [])),
    )


def inputs() -> list[tuple[str, RunConfig]]:
    """(label, configuration) of every input, in a fixed order."""
    import gen_transformed
    import workloads
    from golden_cases import CASES

    out = [(f"catalog {eq.name}", _config(eq.cli)) for eq in workloads.catalog()]
    out += [(f"electrodiffusion {eq.name}", _config(eq.cli)) for eq in workloads.electrodiffusion()]
    out += [
        (f"transformed {item['name']} from {item['source']}", _config({"coeffs": item["coeffs"]}))
        for item in gen_transformed.every_input()
    ]
    out += [(f"golden {name}", cfg) for name, cfg in sorted(CASES.items())]
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_RESIDUAL_KEYS = ("residual", "max_residual")
_MASK = "<masked>"


def _mask_quoted(text: str) -> str:
    """text with the max= figure of every quoted ResidualReport masked."""
    return re.sub(r"(ResidualReport\(\w+, max=)[^,)]+", rf"\g<1>{_MASK}", text)


def mask_residuals(report):
    """The report with every residual value that is not None masked."""
    if isinstance(report, dict):
        return {
            k: _MASK if k in _RESIDUAL_KEYS and v is not None else mask_residuals(v)
            for k, v in report.items()
        }
    if isinstance(report, list):
        return [mask_residuals(v) for v in report]
    if isinstance(report, str):
        return _mask_quoted(report)
    return report


def mask_text_residuals(text: str) -> str:
    return _mask_quoted(re.sub(r"oracle residual \S+", f"oracle residual {_MASK}", text))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2034, help="sampling seed of every report")
    ap.add_argument("--verify", action="store_true", help="report as p34eq --verify does")
    ap.add_argument(
        "--mask-residuals", action="store_true", help="hash with residual figures masked"
    )
    args = ap.parse_args(argv)
    for label, cfg in inputs():
        start = time.perf_counter()
        code, report, text = run(replace(cfg, seed=args.seed, verify=args.verify))
        if args.mask_residuals:
            report, text = mask_residuals(report), mask_text_residuals(text)
        print(sha(json.dumps(report, indent=2)), sha(text), code, label, flush=True)
        print(f"{time.perf_counter() - start:7.2f} s  {label}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
