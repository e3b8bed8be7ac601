"""The compiled RatFunc evaluator against a term-by-term reference loop.

The reference below is the interpreted evaluation the compiled code
replaces: it must agree to the bit, and raise the same exception types.
"""

import random
from fractions import Fraction as F

import pytest

from p34eq import oracle
from p34eq.errors import EvalDomainError, EvalPole
from p34eq.expr import Point, Poly, RatFunc, engine, parse, to_ratfunc
from p34eq.expr.atoms import KIND_SURD, KIND_SYMBOL, lookup_opaque, parse_gen
from p34eq.oracle import MIN_SAMPLES, verify_transform
import helpers


def ref_poly(p, gv, coeff=F(1), absolute=False):
    """coeff * p, or the sum of its |terms|: each term the correctly rounded
    (num * c) / den, times each generator power in monomial order, summed
    from 0.0 in descending lex order."""
    num, den = coeff.numerator, coeff.denominator
    vals = [abs(gv[g]) if absolute else gv[g] for g in p.gens]
    total = 0.0
    for mono, c in p.sorted_terms():
        v = (num * c) / den
        if absolute:
            v = abs(v)
        for i, e in enumerate(mono):
            if e:
                v *= vals[i] ** e
        total += v
    return total


def ref_root(v, q):
    if q == 1:
        return v
    if v >= 0:
        return v ** (1.0 / q)
    if q % 2 == 0:
        raise EvalDomainError(f"even root of negative value {v!r}")
    return -((-v) ** (1.0 / q))


def ref_gen(g, values):
    info = parse_gen(g)
    if info.kind == KIND_SYMBOL:
        return ref_root(float(values[info.base]), info.q)
    if info.kind == KIND_SURD:
        return float(info.base) ** (1.0 / info.q)
    return ref_root(ref_eval(lookup_opaque(info.base), values), info.q)


def ref_eval(rf, values, relative=False):
    gv = {g: ref_gen(g, values) for g in rf.gens()}
    d = ref_poly(rf.den, gv)
    s = ref_poly(rf.den, gv, absolute=True)
    if abs(d) <= 1e-12 * max(s, 1e-300):
        raise EvalPole("denominator vanishes at the sample point")
    n = ref_poly(rf.num, gv, rf.coeff)
    if not relative:
        return n / d
    m = ref_poly(rf.num, gv, rf.coeff, absolute=True)
    return (n / d) / max(1.0, m / abs(d))


def outcome(f, *args):
    """repr of the value (equal reprs are equal bits), or the exception type."""
    try:
        return repr(f(*args))
    except (EvalPole, EvalDomainError, OverflowError) as exc:
        return type(exc)


ATOMS = [
    "x", "y", "b", "y^(1/2)", "x^(1/3)", "b^(1/2)", "2^(1/2)", "3^(1/3)", "5^(1/2)",
    "(1 + x^2 + y)^(1/2)", "(x - 2*y)^(1/3)", "((1 + x^2)^(1/3) + y^2 - b)^(1/2)",
]


def random_poly_text(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [str(F(rng.randint(-40, 40) or 1, rng.randint(1, 9)))]
        factors += [f"({rng.choice(ATOMS)})^{rng.randint(1, 3)}" for _ in range(rng.randint(0, 3))]
        terms.append("(" + "*".join(f"({f})" for f in factors) + ")")
    return " + ".join(terms)


def random_ratfuncs(seed, count):
    rng = random.Random(seed)
    return [
        to_ratfunc(parse(f"({random_poly_text(rng)}) / ({random_poly_text(rng)})"))
        for _ in range(count)
    ]


def random_points(seed, count):
    rng = random.Random(seed)
    return [
        {s: rng.choice((-1, 1)) * rng.uniform(0.5, 3.0) for s in ("x", "y", "b")}
        for _ in range(count)
    ]


def test_compiled_evaluation_matches_the_reference_bit_for_bit():
    rfs = random_ratfuncs(7, 40)
    points = random_points(8, 25)
    kinds = {parse_gen(g).kind for rf in rfs for g in rf.gens()}
    assert kinds == {"symbol", "surd", "opaque"}
    values = 0
    for values_dict in points:
        # every RatFunc at one Point shares its generator values
        point = Point(values_dict)
        for rf in rfs:
            for relative in (False, True):
                expected = outcome(ref_eval, rf, values_dict, relative)
                f = rf.eval_relative if relative else rf.eval
                assert outcome(f, point) == expected
                assert outcome(f, dict(values_dict)) == expected
                values += isinstance(expected, str)
    assert values > 1000  # most evaluations give a value, not an exception


def test_values_depend_only_on_the_normal_form():
    # Equal RatFuncs whose terms were inserted in two orders sum them in one.
    a = RatFunc(Poly.from_terms(("x",), {(2,): 10**17, (1,): 1, (0,): -(10**17)}))
    b = RatFunc(Poly.from_terms(("x",), {(2,): 10**17, (0,): -(10**17), (1,): 1}))
    assert a == b
    assert repr(a.eval({"x": 1.0})) == repr(b.eval({"x": 1.0}))


def test_exceptions_match_the_reference():
    x, y = Poly.gen("x"), Poly.gen("y")
    cases = [
        # a pole
        (to_ratfunc(parse("1/(x - y)")), {"x": 1.5, "y": 1.5}, EvalPole),
        # an even root of a negative value, direct and inside a radicand
        (to_ratfunc(parse("x + y^(1/2)")), {"x": 1.0, "y": -2.0}, EvalDomainError),
        (to_ratfunc(parse("(1 + (x - y)^(1/2))^(1/3)")), {"x": 1.0, "y": 2.0}, EvalDomainError),
        # a coefficient beyond float range, in the numerator and in the denominator
        (RatFunc(x, coeff=F(10**400, 3), reduced=True), {"x": 1.0, "y": 1.0}, OverflowError),
        (RatFunc(x, y + Poly.const(10**400)), {"x": 1.0, "y": 1.0}, OverflowError),
        # a power beyond float range
        (RatFunc(x**200), {"x": 1e3, "y": 1.0}, OverflowError),
    ]
    for rf, values, exc in cases:
        for relative in (False, True):
            f = rf.eval_relative if relative else rf.eval
            assert outcome(ref_eval, rf, values, relative) is exc
            assert outcome(f, values) is exc
            assert outcome(f, Point(values)) is exc


def test_point_copies_and_writes_drop_generator_values():
    w = to_ratfunc(parse("(1 + x^2)^(1/2) + y^(1/2)"))
    a = Point(x=0.7, y=1.2)
    at_a = w.eval(a)
    assert a.memo  # the roots are kept for the next evaluation at a
    image = Point(a)
    image["x"] = 2.0
    assert w.eval(image) == w.eval({"x": 2.0, "y": 1.2}) != at_a
    a["y"] = 3.0
    assert w.eval(a) == w.eval({"x": 0.7, "y": 3.0})


def _fresh_points(monkeypatch):
    """Make sample(), the oracle and the weight law hand out plain dicts, so
    that every evaluation computes its generator values afresh."""
    monkeypatch.setattr(engine, "Point", dict)
    monkeypatch.setattr(oracle, "Point", dict)
    monkeypatch.setattr(helpers, "Point", dict)


def test_oracle_never_reads_source_generator_values_at_the_image(monkeypatch):
    # the transform's parts and the target's coefficients share the
    # generator (1 + x^2)^(1/2), which the image point x + (1 + x^2)^(1/2)
    # gives another value than the source point
    root = "(1 + x^2)^(1/2)"
    src = helpers.ode(f"y*{root}", "x", f"1/{root}", "0")
    dst = helpers.ode(f"y*{root} - x", f"2*{root}", "y", "1")
    t = helpers.transform(f"x + {root}", f"y + x*{root}")
    shared = verify_transform(src, dst, t, n=MIN_SAMPLES)
    assert shared.samples_used >= MIN_SAMPLES
    _fresh_points(monkeypatch)
    fresh = verify_transform(src, dst, t, n=MIN_SAMPLES)
    assert repr(shared.max_residual) == repr(fresh.max_residual)
    assert (shared.samples_used, shared.poles_skipped, shared.quadrant) == (
        fresh.samples_used,
        fresh.poles_skipped,
        fresh.quadrant,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_weight_law_never_reads_source_generator_values_at_the_image(monkeypatch, seed):
    root = "(1 + x^2)^(1/2)"
    src = (helpers.rf(f"x*{root} + y"),)
    dst = (helpers.rf(f"{root} - y^2"),)
    t = helpers.transform(f"2*x + {root}", "y")
    policy = engine.SamplePolicy(seed=seed)
    shared = helpers.verify_weight_law(src, dst, t, 1, policy=policy)
    _fresh_points(monkeypatch)
    fresh = helpers.verify_weight_law(src, dst, t, 1, policy=policy)
    assert repr(shared) == repr(fresh)
    assert shared[1] > 0
