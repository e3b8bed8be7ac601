import random
from fractions import Fraction

import pytest

from p34eq.expr import Add, Const, Mul, Neg, ParamEnv, Pow, SamplePolicy, Sym


@pytest.fixture(scope="session")
def policy():
    return SamplePolicy()


@pytest.fixture
def env_b():
    return ParamEnv({"b": "nonzero"})


def random_expr(rng: random.Random, depth: int = 3, symbols=("x", "y", "b")):
    """Small random expression tree over rationals and the given symbols."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return Sym(rng.choice(symbols))
    op = rng.randrange(4)
    a = random_expr(rng, depth - 1, symbols)
    b = random_expr(rng, depth - 1, symbols)
    if op == 0:
        return Add((a, b))
    if op == 1:
        return Add((a, Neg(b)))
    if op == 2:
        return Mul((a, b))
    return Pow(a, Fraction(rng.randint(1, 3)))


def random_rational_expr(rng: random.Random, symbols=("x", "y")):
    """Random expression including one division, poles possible."""
    num = random_expr(rng, 3, symbols)
    den = Add((random_expr(rng, 2, symbols), Const(Fraction(rng.randint(1, 3)))))
    return Mul((num, Pow(den, Fraction(-1))))


def sample_xyb(rng: random.Random):
    return {
        "x": rng.uniform(0.6, 2.8),
        "y": rng.uniform(0.6, 2.8),
        "b": rng.choice([-1, 1]) * rng.uniform(0.6, 2.8),
    }
