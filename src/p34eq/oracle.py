"""Independent numeric verification of transforms.

The transform check propagates second-order jets (y, y', y'') of the source
equation through the map pointwise.  The effective cubic coefficients at the
image point are those of the cubic through the four image (slope, y'') pairs,
found by divided differences.  This path is disjoint from the symbolic
chain-rule transformer, so the two validate each other.

A point where the jets degenerate counts as a pole: where the Jacobian
J = ux vy - uy vx is negligible against |ux vy| + |uy vx| (two image slopes
meet), or some du = ux + uy s against |ux| + |uy s|.  Both tests are
unchanged when u or v is rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EvalPole
from .expr import QUADRANTS, Point, SamplePolicy, sample
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

    The slopes q = (vx + vy s)/(ux + uy s) are a Möbius image of the seeds,
    so two of them meet only where J = ux vy - uy vx vanishes.  The jets
    degenerate, and EvalPole is raised before anything else is evaluated at
    the point, when |J| <= 1e-6 (|ux vy| + |uy vx|) or some
    |du| <= 1e-9 (|ux| + |uy s|).  Both tests are invariant under u -> lambda u,
    v -> mu v, and a constant u or v (J and its scale both 0) fails the first.
    """
    ux, uy, vx, vy = (t_parts[k] for k in ("ux", "uy", "vx", "vy"))
    if abs(ux * vy - uy * vx) <= 1e-6 * (abs(ux * vy) + abs(uy * vx)):
        raise EvalPole("degenerate jets at the sample point")
    du = [ux + uy * s for s in _SEEDS]
    if any(abs(d) <= 1e-9 * (abs(ux) + abs(uy * s)) for d, s in zip(du, _SEEDS)):
        raise EvalPole("degenerate jets at the sample point")
    dv = [vx + vy * s for s in _SEEDS]
    q = [b / a for a, b in zip(du, dv)]
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
    src_rfs = src.coeffs()
    dst_rfs = dst.coeffs()
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
