"""Independent numeric verification of transforms and of the weight law.

The transform check propagates second-order jets (y, y', y'') of the source
equation through the map pointwise.  The effective cubic coefficients at the
image point are those of the cubic through the four image (slope, y'') pairs,
found by divided differences.  This path is disjoint from the symbolic
chain-rule transformer, so the two validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EvalPole
from .expr import QUADRANTS, ParamEnv, Point, RatFunc, SamplePolicy, sample, to_ratfunc
from .ode import OdeCubic, PointTransform

PASS_RESIDUAL = 1e-7
WARN_RESIDUAL = 1e-4
MIN_SAMPLES = 10
# Extra draws per quadrant for points where the jets are undefined.
ORACLE_REDRAWS = 400
_SEEDS = (-1.3, -0.45, 0.6, 1.7)


@dataclass
class ResidualReport:
    """Coefficient residuals of a transform check."""

    samples_used: int = 0
    poles_skipped: int = 0
    max_residual: float = float("inf")
    quadrant: tuple[int, int] = (1, 1)
    insufficient: bool = True

    @property
    def passed(self) -> bool:
        return not self.insufficient and self.max_residual < PASS_RESIDUAL

    @property
    def warned(self) -> bool:
        return not self.insufficient and self.max_residual < WARN_RESIDUAL

    def __repr__(self):
        status = "pass" if self.passed else ("warn" if self.warned else "fail")
        if self.insufficient:
            status = "insufficient"
        return (
            f"ResidualReport({status}, max={self.max_residual:.3g}, "
            f"samples={self.samples_used}, poles={self.poles_skipped}, "
            f"quadrant={self.quadrant})"
        )


def _jet_slopes(t_parts: dict[str, float]) -> tuple[list[float], ...]:
    """du, dv and q = dv/du of the image jet at each seed slope y' = s.

    Reads only first derivatives of the transform, so a point where the jets
    degenerate (du vanishes or two q collide) raises EvalPole before the rest
    is evaluated there.
    """
    du = [t_parts["ux"] + t_parts["uy"] * s for s in _SEEDS]
    if any(abs(d) < 1e-9 for d in du):
        raise EvalPole("degenerate jets at the sample point")
    dv = [t_parts["vx"] + t_parts["vy"] * s for s in _SEEDS]
    q = [b / a for a, b in zip(du, dv)]
    if any(abs(q[i] - q[j]) < 1e-6 for i in range(4) for j in range(i + 1, 4)):
        raise EvalPole("degenerate jets at the sample point")
    return du, dv, q


def _jet_coefficients(
    src_vals: tuple[float, float, float, float],
    t_parts: dict[str, float],
    jets: tuple[list[float], ...],
) -> tuple[float, float, float, float]:
    """Effective (P, 3Q, 3R, S) at the image point from four jets."""
    P, Q3, R3, S = src_vals
    ws = []
    for s, du, dv in zip(_SEEDS, jets[0], jets[1]):
        ypp = P + Q3 * s + R3 * s * s + S * s**3
        d2u = (
            t_parts["uxx"]
            + 2 * t_parts["uxy"] * s
            + t_parts["uyy"] * s * s
            + t_parts["uy"] * ypp
        )
        d2v = (
            t_parts["vxx"]
            + 2 * t_parts["vxy"] * s
            + t_parts["vyy"] * s * s
            + t_parts["vy"] * ypp
        )
        ws.append((d2v * du - dv * d2u) / du**3)
    return _cubic_through(jets[2], ws)


def _cubic_through(q, w):
    """(c0, c1, c2, c3) with c0 + c1 q + c2 q^2 + c3 q^3 = w at four points of distinct q.

    Björck and Pereyra (1970): Newton divided differences, then the Newton
    form expanded by Horner steps.  Only + - * / touch the inputs, so Decimal
    inputs give Decimal coefficients.
    """
    c = list(w)
    for k in range(1, 4):
        for i in range(3, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (q[i] - q[i - k])
    for k in range(2, -1, -1):
        for i in range(k, 3):
            c[i] -= q[k] * c[i + 1]
    return tuple(c)


class _Failed(Exception):
    """A residual at which a quadrant can no longer pass."""


def verify_transform(
    src: OdeCubic,
    dst: OdeCubic,
    t: PointTransform,
    n: int = 20,
    policy: SamplePolicy | None = None,
    fail_fast: bool = False,
) -> ResidualReport:
    """Check that t maps solutions of src onto solutions of dst.

    Sampling tries the four sign quadrants of the (x, y) box in turn, since
    transforms with radicals are often real on only some of them; the first
    quadrant that yields a passing report wins, otherwise the best report
    (most samples, then smallest residual) is returned.  A point where the
    jets degenerate counts as a pole.  With fail_fast, for callers that read
    only whether the check passed, a quadrant stops at its first residual of
    PASS_RESIDUAL or more and gives no report; the passing report is the same.
    """
    policy = policy or SamplePolicy()
    parts = t.parts
    src_rfs = src.coeff_rfs()
    dst_rfs = dst.coeff_rfs()
    symbols = (
        src.free_symbols()
        | dst.free_symbols()
        | set().union(*(p.free_symbols() for p in parts.values()))
    )

    def residual(a: dict[str, float]) -> float:
        pv = {k: parts[k].eval(a) for k in ("ux", "uy", "vx", "vy")}
        jets = _jet_slopes(pv)
        pv.update((k, rf.eval(a)) for k, rf in parts.items() if k not in pv)
        sv = tuple(rf.eval(a) for rf in src_rfs)
        image = Point(a)
        image["x"], image["y"] = pv["u"], pv["v"]
        dv = tuple(rf.eval(image) for rf in dst_rfs)
        eff = _jet_coefficients((sv[0], 3 * sv[1], 3 * sv[2], sv[3]), pv, jets)
        dst_vals = (dv[0], 3 * dv[1], 3 * dv[2], dv[3])
        r = max(abs(e - d) / max(1.0, abs(e), abs(d)) for e, d in zip(eff, dst_vals))
        if fail_fast and r >= PASS_RESIDUAL:
            raise _Failed
        return r

    best: ResidualReport | None = None
    for quadrant in QUADRANTS:
        try:
            residuals, skipped = sample(
                residual, symbols, src.env.merged(dst.env), policy, n, quadrant, ORACLE_REDRAWS
            )
        except _Failed:
            continue
        report = ResidualReport(
            samples_used=len(residuals), poles_skipped=skipped, quadrant=quadrant
        )
        if report.samples_used >= MIN_SAMPLES:
            report.insufficient = False
            report.max_residual = max(residuals)
        if report.passed:
            return report
        if best is None or (report.samples_used, -report.max_residual) > (
            best.samples_used,
            -best.max_residual,
        ):
            best = report
    return best or ResidualReport()


def verify_weight_law(
    src_components: tuple,
    dst_components: tuple,
    t: PointTransform,
    weight: int,
    n: int = 12,
    policy: SamplePolicy | None = None,
    env: ParamEnv | None = None,
    tol: float = 1e-6,
) -> tuple[bool, float]:
    """Numerically check the pseudotensor law at corresponding points.

    For scalars: f_src = det(Jf)^m * f_dst(image).  For two-component
    fields with an upper index: f_src = det(Jf)^m * Jf^(-1) f_dst(image),
    where Jf is the forward Jacobian matrix of t at the source point.
    Points where Jf is singular are skipped.
    Returns (law holds within tol at >= MIN_SAMPLES points, max deviation).
    """
    policy = policy or SamplePolicy()
    env = env or ParamEnv()
    parts = t.parts
    src_rfs = [to_ratfunc(c) if not isinstance(c, RatFunc) else c for c in src_components]
    dst_rfs = [to_ratfunc(c) if not isinstance(c, RatFunc) else c for c in dst_components]
    symbols = set().union(*(c.free_symbols() for c in src_rfs + dst_rfs + list(parts.values())))

    def deviation(a: dict[str, float]) -> float:
        ux, uy = parts["ux"].eval(a), parts["uy"].eval(a)
        vx, vy = parts["vx"].eval(a), parts["vy"].eval(a)
        det = ux * vy - uy * vx
        if abs(det) < 1e-9:
            raise EvalPole("singular Jacobian at the sample point")
        image = Point(a)
        image["x"], image["y"] = parts["u"].eval(a), parts["v"].eval(a)
        src_vals = [c.eval(a) for c in src_rfs]
        dst_vals = [c.eval(image) for c in dst_rfs]
        if len(src_rfs) > 1:
            f, g = dst_vals
            dst_vals = [(vy * f - uy * g) / det, (ux * g - vx * f) / det]
        predicted = [det**weight * d for d in dst_vals]
        scale = max(1.0, *map(abs, src_vals), *map(abs, predicted))
        return max(abs(s - p) for s, p in zip(src_vals, predicted)) / scale

    deviations, _ = sample(deviation, symbols, env, policy, n, redraws=ORACLE_REDRAWS)
    worst = max((0.0, *deviations))
    return len(deviations) >= MIN_SAMPLES and worst < tol, worst
