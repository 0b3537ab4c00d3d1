import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpolar.errors import PreconditionError
from toricpolar.field import PrimeField
from toricpolar.parse import parse_polynomial
from toricpolar.poly import (GREVLEX, LEX, Polynomial, block_order,
                             euler_identity_check)

from conftest import random_homogeneous, random_polynomial

F = PrimeField()


def P(text, vars=("x0", "x1", "x2")):
    return parse_polynomial(text, vars, F)


# --- hypothesis strategies -------------------------------------------------

def polys(arity=3, max_degree=3, max_terms=4):
    exps = st.tuples(*([st.integers(0, max_degree)] * arity))
    coeffs = st.integers(1, F.p - 1)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda t: Polynomial(F, arity, t))


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(F, 3) == f
    assert f * Polynomial.constant(F, 3, 1) == f
    assert f - f == Polynomial.zero(F, 3)


@settings(max_examples=40)
@given(polys())
def test_negation_and_scalars(f):
    assert f + (-f) == Polynomial.zero(F, 3)
    assert 2 * f == f + f
    assert 0 * f == Polynomial.zero(F, 3)


def test_power_matches_repeated_multiplication():
    f = P("x0 + 2*x1 - x2")
    acc = Polynomial.constant(F, 3, 1)
    for k in range(5):
        assert f ** k == acc
        acc = acc * f


# --- derivatives and the Euler identity ------------------------------------

def test_partial_derivative_power_rule():
    assert P("x0^2*x2").partial_derivative(0) == P("2*x0*x2")


def test_partial_derivative_cubic_fixture():
    # hand-differentiated in x1 and frozen
    cubic = P("4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2")
    assert cubic.partial_derivative(1) == P("12*x1^2 - 2*x0*x1 - 18*x0*x2")


def test_partial_derivative_of_constant():
    assert P("7").partial_derivative(2).is_zero()


def test_derivative_drops_homogeneous_degree():
    rng = random.Random(0)
    for _ in range(20):
        f = random_homogeneous(F, rng, 3, rng.randint(1, 5))
        df = f.partial_derivative(rng.randrange(3))
        assert df.is_zero() or df.homogeneous_degree() == f.homogeneous_degree() - 1


def test_euler_identity_examples():
    assert euler_identity_check(P("x0^3"))
    assert euler_identity_check(
        P("4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2"))
    with pytest.raises(PreconditionError):
        euler_identity_check(P("x0^2 + x1"))


def test_euler_identity_random():
    rng = random.Random(42)
    for _ in range(100):
        arity = rng.randint(1, 5)
        f = random_homogeneous(F, rng, arity, rng.randint(0, 6))
        assert euler_identity_check(f)


# --- monomial orders --------------------------------------------------------

def test_grevlex_order_standard_disagreements():
    # x0*x1^2 > x1^3 and x0^2*x2 > x0*x1*x2 under grevlex
    assert GREVLEX.key((1, 2, 0)) > GREVLEX.key((0, 3, 0))
    assert GREVLEX.key((2, 0, 1)) > GREVLEX.key((1, 1, 1))
    # lex sorts by the first variable
    assert LEX.key((1, 0, 0)) > LEX.key((0, 5, 5))


def test_block_order_eliminates_leading_block():
    order = block_order(1)
    # any monomial containing x0 beats any monomial without it
    assert order.key((1, 0, 0)) > order.key((0, 9, 9))


def test_orders_are_multiplicative():
    rng = random.Random(3)
    for order in (GREVLEX, LEX, block_order(2)):
        for _ in range(200):
            u = tuple(rng.randint(0, 4) for _ in range(4))
            v = tuple(rng.randint(0, 4) for _ in range(4))
            w = tuple(rng.randint(0, 4) for _ in range(4))
            if order.key(u) < order.key(v):
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert order.key(uw) < order.key(vw)


def test_global_order_has_minimal_one():
    zero = (0, 0, 0)
    rng = random.Random(5)
    for order in (GREVLEX, LEX, block_order(1)):
        for _ in range(50):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            if e != zero:
                assert order.key(e) > order.key(zero)


# --- substitution and charts -------------------------------------------------

def test_substitute_linear_change():
    f = P("x0^2 - x1*x2")
    images = [P("x1"), P("x2"), P("x0")]
    assert f.substitute(images) == P("x1^2 - x2*x0")


def test_dehomogenize_merges_terms():
    f = P("x0^2 + x0*x1 + x1^2")
    g = f.dehomogenize(0)
    assert g == parse_polynomial("1 + x1 + x1^2", ("x1", "x2"), F)


def test_set_variable_zero():
    cubic = P("4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2")
    assert cubic.set_variable_zero(0) == P("4*x1^3")


def test_monomial_content_strip():
    f = P("x0^2*x1*x2 + x0*x1^2*x2")
    assert f.monomial_content() == (1, 1, 1)
    assert f.strip_monomial_content() == P("x0 + x1")


def test_exact_divide():
    f, g = P("(x0 + x1)^3 * (x0 - x2)"), P("(x0 + x1)^2")
    assert f.exact_divide(g) == P("(x0 + x1) * (x0 - x2)")
    assert f.exact_divide(P("x2")) is None


def reference_exact_divide(f, g, p):
    """Plain dict long division under grevlex: the quotient, or None at the
    first leading term of the remainder that lead(g) does not divide."""
    lead = max(g, key=GREVLEX.key)
    inv = pow(g[lead], p - 2, p)
    rem = dict(f)
    quotient = {}
    while rem:
        u = max(rem, key=GREVLEX.key)
        if any(a > b for a, b in zip(lead, u)):
            return None
        q = rem[u] * inv % p
        d = tuple(b - a for a, b in zip(lead, u))
        quotient[d] = q
        for e, c in g.items():
            m = tuple(a + b for a, b in zip(e, d))
            s = (rem.get(m, 0) - q * c) % p
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    return quotient


@st.composite
def division_cases(draw):
    """g (nonzero), h and a small perturbation r, over one of four primes."""
    field = PrimeField(draw(st.sampled_from([3, 13, 32003, F.p])))
    arity = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    terms = st.dictionaries(exps, st.integers(1, field.p - 1), max_size=6)
    g = draw(terms.filter(bool))
    return tuple(Polynomial(field, arity, t)
                 for t in (g, draw(terms), draw(terms.filter(bool))))


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_exact_divide_matches_long_division(case):
    g, h, r = case
    p = g.field.p
    q = (g * h).exact_divide(g)
    assert q == h
    assert list(q.terms.items()) == list(
        reference_exact_divide((g * h).terms, g.terms, p).items())
    for f in (g * h + r, r):
        want = reference_exact_divide(f.terms, g.terms, p)
        got = f.exact_divide(g)
        if want is None:
            assert got is None
        else:
            assert list(got.terms.items()) == list(want.items())
            assert got * g == f


X4 = ("x0", "x1", "x2", "x3")


@pytest.mark.parametrize("f, g, variables, p, exact", [
    ("x0^2 + 3*x1*x2 - 5", "7", ("x0", "x1", "x2"), F.p, True),
    ("0", "x0 + x1", ("x0", "x1", "x2"), F.p, True),
    ("x0^2 - x1*x2 + 4", "x0^2 - x1*x2 + 4", ("x0", "x1", "x2"), F.p, True),
    ("(x1^2 - 3) * (x0 + x2*x3 + x1)", "x1^2 - 3", X4, F.p, True),
    ("(x0 + 2*x1) * (x0^2 + x1*x2 + 2)", "x0 + 2*x1", ("x0", "x1", "x2"), 3,
     True),
    ("(x0 + x1)^30", "(x0 + x1)^7", ("x0", "x1"), F.p, True),
    ("x0^2 + x1", "x0", ("x0", "x1"), F.p, False),
], ids=["constant divisor", "zero dividend", "f = g", "one variable of four",
        "p = 3", "degree 30 by 7", "inexact"])
def test_exact_divide_edge_cases(f, g, variables, p, exact):
    field = PrimeField(p)
    f, g = (parse_polynomial(t, variables, field) for t in (f, g))
    want = reference_exact_divide(f.terms, g.terms, p)
    got = f.exact_divide(g)
    if not exact:
        assert want is None and got is None
        return
    assert list(got.terms.items()) == list(want.items())
    assert got * g == f


def test_evaluate():
    cubic = P("4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2")
    assert cubic.evaluate([1, 0, 0]) == 0
    assert cubic.evaluate([0, 1, 0]) == 4
    assert cubic.evaluate([0, 0, 1]) == 0


# --- printing ----------------------------------------------------------------

def test_print_parse_fixed_point():
    rng = random.Random(9)
    for _ in range(40):
        f = random_polynomial(F, rng, 3, 4)
        text = f.to_text()
        again = parse_polynomial(text, ("x0", "x1", "x2"), F)
        assert again == f
        assert again.to_text() == text


def test_printer_uses_symmetric_representatives():
    assert P("x0 - 18*x1").to_text() == "x0 - 18*x1"
    assert P("0").to_text() == "0"
    assert (-P("x0")).to_text() == "-x0"
