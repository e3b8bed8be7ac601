import pytest

from p34eq.errors import ExprSyntaxError
from p34eq.expr import normalize, parse, to_string
from p34eq.expr.ast import Add, Const, Mul, Neg, Pow, Sym


def test_coefficient_expression_parses():
    e = parse("-2*y^2 - x*y - b^2/(2*y)")
    assert isinstance(e, Add)
    assert to_string(normalize(e)) == "(-x*y^2 - 2*y^3 - (1/2)*b^2)/y"


def test_zero_literal():
    assert parse("0") == Const(0)


def test_rational_exponents():
    e = parse("y^(1/3)*(6*y + 3*x*y^(2/3) + 3/2)")
    n = normalize(e)
    assert to_string(n) == "3*x*y + 6*y^(4/3) + (3/2)*y^(1/3)"


def test_precedence_and_unary_minus():
    # '-' binds looser than '^': -x^2 is -(x^2)
    e = parse("-x^2")
    assert isinstance(e, Neg) and isinstance(e.arg, Pow)
    # a/b*c groups left to right
    assert to_string(normalize(parse("8/2*2"))) == "8"


def test_division_chain():
    assert to_string(normalize(parse("b^2/(2*y)"))) == "(1/2)*b^2/y"


@pytest.mark.parametrize(
    "text",
    [
        "2*y^3 + x*y + a",
        "(x + y)^2/(x - y)",
        "x^(-2/3) - 5/7",
        "-(x - 1)*(y + 1)",
        "1/(1250*y^3)",
    ],
)
def test_print_parse_round_trip(text):
    once = normalize(parse(text))
    again = normalize(parse(to_string(once)))
    assert once == again


@pytest.mark.parametrize(
    "text, printed",
    [
        # negative and fractional coefficients, leading and inside products
        ("-3/2*x + y", "-(3/2)*x + y"),
        ("y - 2/3*x", "-(2/3)*x + y"),
        ("-x", "-x"),
        ("-x + y", "-x + y"),
        ("x*y*2/3", "(2/3)*x*y"),
        ("(2/3)*x*y - 5/7*y^2", "(2/3)*x*y - (5/7)*y^2"),
        ("-3/(2*x)", "-3/2/x"),
        ("-3*x/(2*x + 2*y)", "-3/2*x/(x + y)"),
        # lone constants
        ("-3/2", "-3/2"),
        ("0", "0"),
        # monomial and sum denominators
        ("1/(x*y)", "1/(x*y)"),
        ("(x + 1)/(x*y)", "(x + 1)/(x*y)"),
        ("x/(x*y + 1)", "x/(x*y + 1)"),
        # prime surds and symbol roots
        ("x*2^(1/2) + 3^(1/3)", "x*2^(1/2) + 3^(1/3)"),
        ("-2^(1/2)*x", "-x*2^(1/2)"),
        ("(x*y - 1)/y^(1/3)", "(x*y - 1)/y^(1/3)"),
        # one compound radicand, twice in one string
        ("(x + 1)^(1/3) + x*(x + 1)^(2/3)", "x*(x + 1)^(2/3) + (x + 1)^(1/3)"),
        ("-(x + 1)^(1/3)*y + (x + 1)^(1/3)/y", "(-y^2*(x + 1)^(1/3) + (x + 1)^(1/3))/y"),
        ("-(1/y^6)^(1/2)*y^3", "-y^3*(1/y^6)^(1/2)"),
    ],
)
def test_printed_normal_forms(text, printed):
    assert to_string(normalize(parse(text))) == printed


@pytest.mark.parametrize(
    "bad, pos",
    [
        ("x +", 3),
        ("(x + y", 6),
        ("x ^ y", 4),  # symbolic exponent rejected
        ("x^(2/y)", 5),
        ("2.5*x", 1),
        ("x $ y", 2),
    ],
)
def test_syntax_errors_carry_position(bad, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse(bad)
    assert err.value.position == pos


def test_nested_power_requires_parens():
    with pytest.raises(ExprSyntaxError):
        parse("x^2^3")


def test_identifiers():
    e = parse("nu1*k_2 + C")
    assert Sym("nu1") in e.terms[0].factors  # type: ignore[attr-defined]


def test_negative_exponent_forms():
    assert normalize(parse("x^-2")) == normalize(parse("1/x^2"))
    assert normalize(parse("x^(-2/3)")) == normalize(parse("1/x^(2/3)"))
