"""Minimal computer-algebra core: parse and print expressions in x, y and
named parameters, and normalize, differentiate, evaluate and zero-test them
as rational functions."""

from .ast import (
    Add,
    Const,
    Expr,
    Mul,
    Neg,
    Pow,
    Sym,
    to_string,
)
from .engine import (
    Constraint,
    ParamEnv,
    SamplePolicy,
    ZeroStatus,
    ZeroVerdict,
    is_zero,
    normalize,
    rf_compose,
    rf_fold_roots,
    rf_pow,
    rf_pow_signfree,
    rf_reduce_roots,
    rf_to_expr,
    rf_to_factored_expr,
    to_ratfunc,
    QUADRANTS,
    sample,
    sample_any_quadrant,
)
from .parser import parse
from .poly import Poly, poly_gcd
from .ratfunc import Point, RatFunc

__all__ = [
    "Add",
    "Const",
    "Constraint",
    "Expr",
    "Mul",
    "Neg",
    "ParamEnv",
    "Point",
    "Poly",
    "Pow",
    "QUADRANTS",
    "RatFunc",
    "SamplePolicy",
    "Sym",
    "ZeroStatus",
    "ZeroVerdict",
    "is_zero",
    "normalize",
    "parse",
    "poly_gcd",
    "rf_compose",
    "rf_fold_roots",
    "rf_pow",
    "rf_pow_signfree",
    "rf_reduce_roots",
    "rf_to_expr",
    "rf_to_factored_expr",
    "sample",
    "sample_any_quadrant",
    "to_ratfunc",
    "to_string",
]
