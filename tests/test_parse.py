import pytest

from toricpolar.errors import ParseError, PreconditionError
from toricpolar.field import PrimeField
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial

F = PrimeField()
VARS = ("x0", "x1", "x2")


def P(text):
    return parse_polynomial(text, VARS, F)


def test_cuspidal_cubic_parses_to_five_terms():
    f = P("4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2")
    assert len(f.terms) == 5
    assert f.is_homogeneous() and f.homogeneous_degree() == 3
    assert f.coefficient((0, 3, 0)) == 4
    assert f.coefficient((1, 1, 1)) == -18 % F.p


def test_cancellation_gives_zero():
    assert P("x0 - x0").is_zero()


def test_binomial_expansion():
    f = parse_polynomial("(x0+x1)^2", ("x0", "x1"), F)
    assert f == parse_polynomial("x0^2 + 2*x0*x1 + x1^2", ("x0", "x1"), F)


def test_whitespace_insignificant():
    assert P("x0   +\t x1") == P("x0+x1")


def test_integer_literals_reduced_mod_p():
    big = F.p + 5
    assert P(f"{big}*x0") == P("5*x0")
    assert P(f"{F.p}") .is_zero()


def test_nested_parentheses_and_powers():
    f = P("((x0 + x1)^2)^2")
    assert f == P("(x0+x1)^4")
    assert P("2^3") == Polynomial.constant(F, 3, 8)


def test_leading_minus_accepted():
    assert P("-x0 + x1") == P("x1 - x0")


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        P("x0 + * x1")
    assert err.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        P("x0 + y")
    assert "y" in str(err.value)
    assert err.value.position == 5


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        P("x0^-2")
    assert "negative exponent" in str(err.value)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        P("x0 x1")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        P("(x0 + x1")


def test_bad_character():
    with pytest.raises(ParseError) as err:
        P("x0 + $")
    assert err.value.position == 5


def test_juxtaposition_needs_star():
    with pytest.raises(ParseError):
        P("2x0")


@pytest.mark.parametrize("name", ["1x", "x 1", "", "x-1", "x1 ", "_x", "x\u00e9"])
def test_variable_names_must_be_identifiers(name):
    # a name the grammar cannot write would be a coordinate no text mentions
    with pytest.raises(PreconditionError, match="is not an identifier"):
        parse_polynomial("x0", ("x0", name), F)


def test_identifier_variable_names_accepted():
    f = parse_polynomial("a_1 + Z9*b", ("a_1", "Z9", "b"), F)
    assert f.terms == {(1, 0, 0): 1, (0, 1, 1): 1}


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=300)
@given(st.text(alphabet="x012+-*^() \t", max_size=30))
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises ParseError with a position
    try:
        P(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


@settings(max_examples=100)
@given(st.text(max_size=20))
def test_parser_handles_arbitrary_unicode(text):
    try:
        P(text)
    except ParseError:
        pass
