"""The independent checker accepts correct answers and rejects wrong ones.

    python3 -m pytest perfbench -q
"""

import gen_transformed
from check import check_case

CUBEROOT_4 = {"rhs": "5*p^2/(6*y) - 4*y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)", "params": []}
PII_3 = {"rhs": "2*y^3 + x*y + 3", "params": []}


def _case(spec, kind, known, params, x_new, y_new):
    return {"input": spec, "kind": kind, "known": known, "params": params,
            "x_new": x_new, "y_new": y_new}


def _affine_input():
    """p34_cuberoot(4) with old coordinates x -> 2x + 1, y -> 3y - 1."""
    slot = next(s for s in gen_transformed.SLOTS if s[0] == "p34c.affine")
    item = gen_transformed.transformed(slot, (2, 1, 3, -1))
    return {"coeffs": item["coeffs"], "params": []}


def test_accepts_identity_on_the_normal_form():
    assert check_case(_case(CUBEROOT_4, "p34", "4", ["4"], "x", "y"))[0]


def test_accepts_the_transform_back_to_the_source():
    spec = _affine_input()
    assert check_case(_case(spec, "p34", "4", ["4"], "2*x + 1", "3*y - 1"))[0]


def test_rejects_a_perturbed_transform():
    spec = _affine_input()
    ok, why = check_case(_case(spec, "p34", "4", ["4"], "2*x + 1 + x^2/1000", "3*y - 1"))
    assert not ok and "pullback" in why
    ok, _ = check_case(_case(spec, "p34", "4", ["4"], "2*x + 1", "(3001/1000)*y - 1"))
    assert not ok


def test_rejects_a_wrong_beta_squared():
    spec = _affine_input()
    ok, why = check_case(_case(spec, "p34", "4", ["5"], "2*x + 1", "3*y - 1"))
    assert not ok and "parameter" in why
    # Even when the known answer is wrong too, the pullback does not match.
    ok, why = check_case(_case(spec, "p34", "5", ["5"], "2*x + 1", "3*y - 1"))
    assert not ok and "pullback" in why


def test_compares_parameters_by_value():
    assert check_case(_case(CUBEROOT_4, "p34", "4", ["4*y^(7/3)/y^(7/3)"], "x", "y"))[0]
    assert check_case(_case(CUBEROOT_4, "p34", "2^2", ["(8/2)"], "x", "y"))[0]


def test_painleve_ii_sign_of_a():
    # y -> -y maps PII with a to PII with -a; either candidate may carry the transform.
    assert check_case(_case(PII_3, "pii", "3", ["3", "-3"], "x", "y"))[0]
    assert check_case(_case(PII_3, "pii", "3", ["3", "-3"], "x", "-y"))[0]
    assert not check_case(_case(PII_3, "pii", "3", ["4", "-4"], "x", "y"))[0]


def test_symbolic_parameter():
    spec = {"rhs": "p^2/(2*y) + nu1^2*(2*k1*y^2 + (C*x + K)*y - k2/y)",
            "params": ["nu1!=0", "k1!=0", "k2", "C!=0", "K"]}
    beta2 = "2*k1^2*k2*nu1^2/C^2"
    # The scaling w = lambda*Y, x = mu*t - K/C with mu^3 = -1/(nu1^2 C) and
    # lambda = -1/(k1 mu^2 nu1^2) maps case (a) to the rational P34 form;
    # u = x / beta^(2/3), v = y^3 / beta^2 maps that to the cube-root form.
    # Their composition, worked by hand, is the pair below.
    x_new = "(-x*C - K)/(k1^(2/3)*k2^(1/3)*2^(1/3))"
    y_new = "-1/2*y^3*k1/k2"
    assert check_case(_case(spec, "p34", beta2, [beta2], x_new, y_new))[0]
    assert not check_case(_case(spec, "p34", beta2, [beta2], x_new, "-1/2*y^3*k1^2/k2"))[0]
