"""The speed of the host, from a fixed reference computation.

A reference sample times a fixed product of two sparse polynomials.  Times
measured among such samples are brought to one host speed: the speed at
which a sample takes REFERENCE_S (host_factor).  Kept apart from run.py so
that a fresh interpreter can take a sample right after timing an import.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# A reference sample's median time on the 2-core VM of README.md.
REFERENCE_S = 0.0045

# Two sparse bivariate polynomials with Fraction coefficients, as the
# program's Poly holds them; the benchmark's own code, never p34eq's.
_REF_A = {(i, j): Fraction(7919 * i + j + 1, 13 * j + 7) for i in range(5) for j in range(5)}
_REF_B = {(i, j): Fraction(3 * i + 104729 * j + 3, 17 * i + 5) for i in range(5) for j in range(5)}


def _reference_product() -> int:
    out: dict = {}
    for (i, j), c in _REF_A.items():
        for (k, m), d in _REF_B.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d
    return len(out)


def reference_sample() -> float:
    """Seconds for one fixed product of sparse polynomials.

    It does the kind of work the program spends its time on (dicts of
    monomials, Fraction arithmetic), so a change in the speed of the host
    changes it as it changes the program.  It keeps no object alive and runs
    with the garbage collector off, so neither the program nor the size of
    its heap changes its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_product()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_s() -> float:
    """Median of five reference samples, taken between operations."""
    return statistics.median(reference_sample() for _ in range(5))


def host_factor(samples) -> float:
    """Factor that brings a time measured among these reference samples to
    the host speed at which a sample takes REFERENCE_S."""
    return REFERENCE_S / statistics.fmean(samples)
