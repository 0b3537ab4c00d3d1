import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpolar.errors import ParseError, PreconditionError
from toricpolar.field import PrimeField
from toricpolar.parse import MAX_NESTING, _tokenize, parse_polynomial
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


class PolynomialParser:
    """The reference: the grammar evaluated with `Polynomial` arithmetic,
    one `Polynomial` per atom, left to right, as the parser did before it
    worked on term dicts.  Errors are left to the parser under test."""

    def __init__(self, text, field, variables):
        self.tokens = _tokenize(text)
        self.i = 0
        self.field = field
        self.index = {name: i for i, name in enumerate(variables)}

    def peek(self, *token):
        return self.tokens[self.i][:2] == token

    def expr(self):
        negate = self.peek("op", "-")
        self.i += negate
        result = self.term()
        if negate:
            result = -result
        while self.peek("op", "+") or self.peek("op", "-"):
            plus = self.peek("op", "+")
            self.i += 1
            rhs = self.term()
            result = result + rhs if plus else result - rhs
        return result

    def term(self):
        result = self.factor()
        while self.peek("op", "*"):
            self.i += 1
            result = result * self.factor()
        return result

    def factor(self):
        base = self.atom()
        if not self.peek("op", "^"):
            return base
        self.i += 2
        n = int(self.tokens[self.i - 1][1])
        # square-and-multiply on polynomials, from the constant 1
        result = Polynomial.constant(self.field, len(self.index), 1)
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def atom(self):
        kind, value, _ = self.tokens[self.i]
        self.i += 1
        arity = len(self.index)
        if kind == "uint":
            return Polynomial.constant(self.field, arity, int(value))
        if kind == "ident":
            return Polynomial.variable(self.field, arity, self.index[value])
        inner = self.expr()
        self.i += 1  # ')'
        return inner


def expressions(p):
    """Texts of the grammar: sums and differences with an optional leading
    minus, integer literals up to 3p, repeated variables, powers (of 0 and
    of parenthesised sums too), nesting, and differences of equal terms."""
    variable = st.sampled_from(VARS)
    atom = st.one_of(st.integers(0, 3 * p).map(str), variable, variable)

    def power(base):
        return st.tuples(base, st.none() | st.integers(0, 3)).map(
            lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}")

    def product(factor):
        return st.lists(power(factor), min_size=1, max_size=3).map("*".join)

    def total(term):
        signed = st.tuples(st.sampled_from("+-"), term)
        return st.tuples(st.booleans(), term,
                         st.lists(signed, max_size=3)).map(
            lambda t: ("-" if t[0] else "") + t[1]
            + "".join(f" {sign} {u}" for sign, u in t[2]))

    def extend(inner):
        factor = st.one_of(atom, inner.map(lambda e: f"({e})"))
        term = st.one_of(product(factor),
                         product(factor).map(lambda t: f"{t} - {t}"))
        return total(term)

    return st.recursive(total(product(atom)), extend, max_leaves=6)


@st.composite
def parse_cases(draw):
    p = draw(st.sampled_from([5, 13, 32003, 2**31 - 1]))
    return p, draw(expressions(p))


@settings(max_examples=150, deadline=None)
@given(parse_cases())
def test_parser_matches_polynomial_arithmetic_and_sympy(case):
    """Term dicts end to end give the terms of `Polynomial` arithmetic, in
    items and insertion order; the values equal sympy's expansion mod p;
    and printing then parsing gives the polynomial back."""
    p, text = case
    field = PrimeField(p)
    f = parse_polynomial(text, VARS, field)
    reference = PolynomialParser(text, field, VARS).expr()
    assert list(f.terms.items()) == list(reference.terms.items())
    symbols = sympy.symbols(VARS)
    expanded = sympy.Poly(sympy.sympify(text.replace("^", "**")), *symbols,
                          modulus=p)
    assert f.terms == {e: c % p for e, c in expanded.as_dict().items()
                       if c % p}
    assert parse_polynomial(f.to_text(VARS), VARS, field) == f


@pytest.mark.parametrize("text", [
    "x0*(x1 + x2)*(x0 - x1)*x2^2*(x1 + 3)^3 - 2*x0^2*(x1 - x2)^2*(x0 + x1)",
    "(x0 + 2*x1 - x2)^3*(x1 - x0)^2 - x0*(x1 + x2 + 1)^4 + (x0 - x0)^0",
    "-(3*x0^2 - x1*x2)^2*(x0 + x1)*x2 + (x1 - (x2 + x0)^2)^3 - x1^3*5^2",
])
def test_products_of_sums_keep_the_order_of_polynomial_arithmetic(text):
    """Several factors with several terms, with single-term factors before,
    between and after them."""
    for p in (5, 2**31 - 1):
        field = PrimeField(p)
        f = parse_polynomial(text, VARS, field)
        reference = PolynomialParser(text, field, VARS).expr()
        assert len(f.terms) > 10
        assert list(f.terms.items()) == list(reference.terms.items())


def test_parser_reaches_the_nesting_limit():
    """Two frames per level of parentheses: the deepest allowed text parses
    far below the recursion limit."""
    f = P("(" * MAX_NESTING + "x0 + 2" + ")" * MAX_NESTING + "^2")
    assert f == P("x0^2 + 4*x0 + 4")
