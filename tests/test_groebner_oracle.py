"""Differential tests of the Gröbner engine against sympy's groebner, of
the gcd taken from it, or proved 1 on a line, against sympy's gcd, and of
multidegrees against the general-position formula with Milnor numbers
counted over sympy's basis.

sympy computes over GF(p) with its own Buchberger implementation, so it is
an oracle that shares no code with toricpolar.  Both sides order variables
x0 > x1 > x2 in grevlex and lex, and in the block orders `block_order(1)`
and `block_order(2)`, which sympy is given as the key of a ProductOrder of
two grevlex blocks, flattened (`product_order`).  The dense surface translates are also run with the debug check of
every basis on, which builds its S-polynomials apart from the packed pair
loop.
"""

import itertools

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder, grevlex

from toricpolar import _kernel_py as kernel
from toricpolar import gcdtools, groebner
from toricpolar.classes import deg_from_milnor_general_position
from toricpolar.field import PrimeField
from toricpolar.gcdtools import multivariate_gcd
from toricpolar.groebner import (Ideal, buchberger, eliminate,
                                 hilbert_dim_degree, intersect, saturate)
from toricpolar.maps import (RandomizationConfig, gradient_map, multidegrees,
                             random_translate, toric_polar_map)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import GREVLEX, LEX, Polynomial, block_order

P = 32003
F = PrimeField(P)
MAX_VARS = 3
MAX_GENS = 3
MAX_DEGREE = 3


@st.composite
def small_ideals(draw, min_vars=1, max_vars=MAX_VARS):
    n = draw(st.integers(min_vars, max_vars))
    exponent = st.tuples(*[st.integers(0, MAX_DEGREE)] * n).filter(
        lambda e: sum(e) <= MAX_DEGREE)
    poly = st.dictionaries(exponent, st.integers(1, P - 1),
                           min_size=1, max_size=4)
    gens = draw(st.lists(poly, min_size=1, max_size=MAX_GENS))
    return n, [Polynomial(F, n, terms) for terms in gens]


def to_sympy(f: Polynomial, xs):
    return sum(c * sympy.prod(x ** k for x, k in zip(xs, e))
               for e, c in f.terms.items())


def sympy_basis(gens, n, order):
    """sympy's reduced basis as monic term dicts with coefficients in
    [0, p); sympy prints GF(p) elements as symmetric representatives."""
    xs = sympy.symbols(f"x0:{n}")
    G = sympy.groebner([to_sympy(g, xs) for g in gens], *xs,
                       modulus=P, order=order)
    out = []
    for g in G.polys:
        inv = pow(int(g.LC(order=order)) % P, -1, P)
        out.append({tuple(e): int(c) * inv % P for e, c in g.terms()})
    return out


def canonical(basis):
    """Sorted term lists, so bases compare independent of element order."""
    return sorted(sorted(terms.items()) for terms in basis)


def ours(G):
    return [dict(g.terms) for g in G.generators]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals())
def test_buchberger_matches_sympy_grevlex(ideal):
    n, gens = ideal
    G = buchberger(Ideal(gens), GREVLEX)
    assert canonical(ours(G)) == canonical(sympy_basis(gens, n, "grevlex"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals())
def test_buchberger_matches_sympy_lex(ideal):
    n, gens = ideal
    G = buchberger(Ideal(gens), LEX)
    assert canonical(ours(G)) == canonical(sympy_basis(gens, n, "lex"))


@st.composite
def homogeneous_ideals(draw):
    """At most as many homogeneous generators as variables, in 2-4
    variables, each of its own degree: random dense forms (a regular
    sequence), forms with a common factor, a last generator that repeats
    or depends on the others, or monomials.  `buchberger` counts the
    complete-intersection bound on all of them; it is met on the first
    kind, and the others test where it is not."""
    n = draw(st.integers(2, 4))
    top = 2 if n == 4 else MAX_DEGREE
    kind = draw(st.sampled_from(["random", "common factor", "dependent",
                                 "monomial"]))
    r = draw(st.integers(2 if kind == "dependent" else 1, n))
    degrees = draw(st.lists(st.integers(1, top), min_size=r, max_size=r))

    def form(d):
        exps = [e for e in itertools.product(range(d + 1), repeat=n)
                if sum(e) == d]
        if kind == "monomial":
            return Polynomial.monomial(F, n, draw(st.sampled_from(exps)))
        # every monomial of degree d: a sparse form stops the count early
        coefficients = draw(st.lists(st.integers(1, P - 1),
                                     min_size=len(exps), max_size=len(exps)))
        return Polynomial(F, n, dict(zip(exps, coefficients)))

    if kind == "common factor":
        h = form(draw(st.integers(1, 2)))
        return n, [h * form(d) for d in degrees]
    gens = [form(d) for d in degrees]
    if kind == "dependent":
        # a combination of the others, with monomial multipliers up to the
        # largest of their degrees, or the first generator again
        d = max(degrees[:-1])
        last = Polynomial.constant(F, n, 0)
        for g in gens[:-1]:
            v = draw(st.integers(0, n - 1))
            c = draw(st.integers(0, P - 1))
            last = last + c * Polynomial.variable(F, n, v) ** (
                d - g.total_degree()) * g
        gens[-1] = last if not last.is_zero() else gens[0]
    return n, gens


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_buchberger_with_the_complete_intersection_bound_matches_sympy(
        ideal):
    """At most as many homogeneous generators as variables: `buchberger`
    leaves out the rest of a degree once it meets the bound, and the basis
    must still be sympy's and reduce its own S-polynomials to zero."""
    n, gens = ideal
    G = buchberger(Ideal(gens), GREVLEX)
    assert canonical(ours(G)) == canonical(sympy_basis(gens, n, "grevlex"))
    assert G.s_polynomials_reduce_to_zero()


class _MemoKey(dict):
    """The values of `key`, computed once per monomial."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, m):
        value = self[m] = self.key(m)
        return value


def product_order(k):
    """block_order(k) as a sympy order key: grevlex on the first k
    variables, then grevlex on the others.  It is the key of sympy's
    ProductOrder of the two grevlex blocks, flattened into one tuple, and
    computed once per monomial.  sympy finds every leading term by taking
    the key of each term, so on some draws the ProductOrder key (two
    grevlex keys through two lambdas per call) took nearly all of a basis
    computation, up to minutes."""
    def key(m):
        a, b = m[:k], m[k:]
        return (sum(a), *[-e for e in reversed(a)],
                sum(b), *[-e for e in reversed(b)])
    return _MemoKey(key).__getitem__


def test_product_order_key_orders_as_sympy_product_order():
    """The flattened key sorts monomials as sympy's ProductOrder does."""
    for k in (1, 2):
        reference = ProductOrder((grevlex, lambda m: m[:k]),
                                 (grevlex, lambda m: m[k:]))
        monomials = [e for e in itertools.product(range(4), repeat=4)
                     if sum(e) <= 5]
        ours_sorted = sorted(monomials, key=product_order(k))
        assert ours_sorted == sorted(monomials, key=reference)
        keys = [reference(e) for e in ours_sorted]
        assert all(a < b for a, b in zip(keys, keys[1:]))


BLOCK_1 = product_order(1)


@pytest.mark.parametrize("order, theirs", [(LEX, "lex"),
                                           (block_order(1), BLOCK_1)],
                         ids=["lex", "block"])
def test_buchberger_widening_in_the_pair_loop_matches_sympy(monkeypatch,
                                                            order, theirs):
    """S-polynomial reductions that overflow their packed fields, which
    double in the middle of the pair loop; each basis must still be
    sympy's.  x0^2 - x2^7 and x1 - x0 + x0^4*x2^2 double from 5 to 10 bits
    in their first pair, whose lcm x0^4 needs only the input width.  The
    second ideal doubles while pairs wait on the heap, so `Reducers.widen`
    must pack their lcms again: under lex x2^9 - x0*x1,
    x1^2 + x0^3*x1^3*x2 + x0^3*x1^2*x2 and x0^2*x1^2*x2^2 - x0*x1^3 go
    from 6 to 12 bits, under the block order 1 - x0*x1*x2 + x2^3 + x1^20,
    x0^3*x1^3*x2 + x0*x1^3*x2^2 and x0*x1 + x0^2*x2^2 from 7 to 14."""
    doubled = []
    pairs = []
    real_widen = kernel.Reducers.widen
    real_remainder = kernel.s_polynomial_remainder

    def widen(self, width):
        # a doubling inside a pair's reduction, not the lcm's own widening
        if (pairs and width == 2 * self.width
                and width != kernel._width_for(sum(pairs[-1]))):
            doubled.append(width)
        real_widen(self, width)

    def remainder(reducers, i, j, m, p, rows):
        pairs.append(m)
        try:
            return real_remainder(reducers, i, j, m, p, rows)
        finally:
            pairs.pop()

    monkeypatch.setattr(kernel.Reducers, "widen", widen)
    monkeypatch.setattr(kernel, "s_polynomial_remainder", remainder)
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    one = Polynomial.constant(F, 3, 1)
    if order == LEX:
        waiting = [x2 ** 9 - x0 * x1,
                   x1 ** 2 + x0 ** 3 * x1 ** 3 * x2 + x0 ** 3 * x1 ** 2 * x2,
                   x0 ** 2 * x1 ** 2 * x2 ** 2 - x0 * x1 ** 3]
    else:
        waiting = [one - x0 * x1 * x2 + x2 ** 3 + x1 ** 20,
                   x0 ** 3 * x1 ** 3 * x2 + x0 * x1 ** 3 * x2 ** 2,
                   x0 * x1 + x0 ** 2 * x2 ** 2]
    for gens in ([x0 ** 2 - x2 ** 7, x1 - x0 + x0 ** 4 * x2 ** 2], waiting):
        doubled.clear()
        G = buchberger(Ideal(gens), order)
        assert doubled
        assert canonical(ours(G)) == canonical(sympy_basis(gens, 3, theirs))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals(min_vars=2))
def test_eliminate_matches_sympy_lex_elimination(ideal):
    """The block order behind `eliminate` and sympy's lex order must give
    the same elimination ideal of x0; compare its reduced grevlex bases."""
    n, gens = ideal
    E = eliminate(Ideal(gens), {0})
    theirs = [Polynomial(F, n, terms) for terms in sympy_basis(gens, n, "lex")
              if all(e[0] == 0 for e in terms)]
    mine = buchberger(Ideal(E.generators, field=F, arity=n), GREVLEX)
    assert canonical(ours(mine)) == canonical(
        sympy_basis(theirs, n, "grevlex") if theirs else [])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals(min_vars=3))
def test_eliminate_of_two_variables_matches_sympy_block_order(ideal):
    """`eliminate` of x0 and x1 runs `buchberger` under block_order(2),
    whose pair sugar gives both variables weight 0.  Its basis must be
    sympy's under the same order, and the elements free of x0 and x1 are
    the reduced grevlex basis that `eliminate` returns."""
    n, gens = ideal
    theirs = sympy_basis(gens, n, product_order(2))
    G = buchberger(Ideal(gens), block_order(2))
    assert canonical(ours(G)) == canonical(theirs)
    E = eliminate(Ideal(gens), {0, 1})
    assert canonical(ours(E)) == canonical(
        [terms for terms in theirs if not any(e[0] or e[1] for e in terms)])


@st.composite
def homogeneous_saturations(draw):
    """Small homogeneous I and a homogeneous g to saturate it by.  I has
    two generators in three variables, so its saturation is rarely the unit
    ideal, and some of them carry a factor g that the saturation removes."""
    n = 3

    def form(degree):
        exponent = st.tuples(*[st.integers(0, degree)] * n).filter(
            lambda e: sum(e) == degree)
        return st.dictionaries(exponent, st.integers(1, P - 1),
                               min_size=2, max_size=3).map(
            lambda terms: Polynomial(F, n, terms))

    g = draw(st.integers(1, 2).flatmap(form))
    gens = [h * g if draw(st.booleans()) else h for h in draw(st.lists(
        st.integers(1, 2).flatmap(form), min_size=2, max_size=2))]
    return n, gens, g


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_saturations())
def test_saturate_is_the_reduced_grevlex_basis(case):
    """`saturate` returns the reduced grevlex basis of I : g^infinity, which
    the multidegree slices feed straight into Hilbert extraction.  sympy
    saturates with the same 1 - t*g generator under lex, t first, and its
    grevlex basis of the t-free part is the reference."""
    n, gens, g = case
    t = Polynomial.variable(F, n + 1, 0)
    lifted = [h.extend_arity(n + 1, 0) for h in gens]
    rab = Polynomial.constant(F, n + 1, 1) - t * g.extend_arity(n + 1, 0)
    eliminant = [Polynomial(F, n, {e[1:]: c for e, c in terms.items()})
                 for terms in sympy_basis(lifted + [rab], n + 1, "lex")
                 if all(e[0] == 0 for e in terms)]
    sat = saturate(Ideal(gens), g)
    assert canonical([dict(h.terms) for h in sat.generators]) == canonical(
        sympy_basis(eliminant, n, "grevlex"))


def lift(gens, n):
    """The generators in n variables, with unused variables appended."""
    out = []
    for g in gens:
        while g.arity < n:
            g = g.extend_arity(g.arity + 1, g.arity)
        out.append(g)
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals(max_vars=2), small_ideals(max_vars=2))
def test_intersect_matches_sympy_elimination(first, second):
    """I ∩ J is the t-free part of t*I + (1-t)*J.  sympy eliminates t with
    lex, t first; its grevlex basis of that part must equal the reduced
    grevlex basis of the generators `intersect` returns.  Two variables
    besides t: with three, sympy's lex basis took from seconds to minutes
    on some draws."""
    n = max(first[0], second[0])
    I, J = lift(first[1], n), lift(second[1], n)
    t = Polynomial.variable(F, n + 1, 0)
    one = Polynomial.constant(F, n + 1, 1)
    mixed = ([t * h.extend_arity(n + 1, 0) for h in I]
             + [(one - t) * h.extend_arity(n + 1, 0) for h in J])
    theirs = [Polynomial(F, n, {e[1:]: c for e, c in terms.items()})
              for terms in sympy_basis(mixed, n + 1, "lex")
              if all(e[0] == 0 for e in terms)]
    meet = intersect(Ideal(I), Ideal(J))
    mine = buchberger(Ideal(meet.generators, field=F, arity=n), GREVLEX)
    assert canonical(ours(mine)) == canonical(sympy_basis(theirs, n, "grevlex"))


@st.composite
def ideal_pairs(draw):
    """Two small ideals in the same ring of 1 to 3 variables."""
    n, gens = draw(small_ideals())
    return n, gens, draw(small_ideals(min_vars=n, max_vars=n))[1]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ideal_pairs())
def test_intersect_matches_sympy_block_order(case):
    """`intersect` eliminates t from t*I + (1-t)*J under block_order(1).
    sympy's basis of the same ideal under that order, as a ProductOrder,
    holds the reduced grevlex basis of I ∩ J as its t-free elements, with
    up to three variables besides t."""
    n, I, J = case
    t = Polynomial.variable(F, n + 1, 0)
    one = Polynomial.constant(F, n + 1, 1)
    mixed = ([t * h.extend_arity(n + 1, 0) for h in I]
             + [(one - t) * h.extend_arity(n + 1, 0) for h in J])
    theirs = [{e[1:]: c for e, c in terms.items()}
              for terms in sympy_basis(mixed, n + 1, BLOCK_1)
              if all(e[0] == 0 for e in terms)]
    assert canonical(ours(intersect(Ideal(I), Ideal(J)))) == canonical(theirs)


@st.composite
def relabelled_bases(draw):
    """A basis whose minimal elements live in a larger or permuted ring
    than the basis: `eliminate` of a variable other than the first (the
    dropped one moves to the front), or `saturate` or `intersect` (t comes
    first), of small random ideals; and polynomials to reduce by it."""
    n, gens = draw(small_ideals(min_vars=2))
    more = draw(small_ideals(min_vars=n, max_vars=n))[1]
    kind = draw(st.sampled_from(["eliminate", "saturate", "intersect"]))
    if kind == "eliminate":
        G = eliminate(Ideal(gens), {draw(st.integers(1, n - 1))})
    elif kind == "saturate":
        G = saturate(Ideal(gens), more[0])
    else:
        G = intersect(Ideal(gens), Ideal(more))
    fs = draw(small_ideals(min_vars=n, max_vars=n))[1]
    return n, G, fs


def sympy_remainder(f, basis, n):
    """The remainder of f by `basis` from sympy's `reduced` under grevlex,
    as a term dict with coefficients in [0, p)."""
    xs = sympy.symbols(f"x0:{n}")
    if not basis:
        return dict(f.terms)
    _, r = sympy.reduced(to_sympy(f, xs), [to_sympy(g, xs) for g in basis],
                         *xs, modulus=P, order="grevlex")
    return {tuple(e): int(c) % P
            for e, c in sympy.Poly(r, *xs, modulus=P).terms() if int(c) % P}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(relabelled_bases())
def test_normal_form_of_a_relabelled_basis_matches_sympy(case):
    """`normal_form` and `contains` of a basis from `eliminate`, `saturate`
    or `intersect` move f into the ring of the minimal basis, reduce it
    there and move the remainder back.  The remainder equals sympy's by the
    generators in their own ring, and the normal form is unique: reducing
    the moved f by the minimal basis directly gives it too."""
    n, G, fs = case
    v = G._variables
    big = G._minimal.arity
    for f in fs:
        r = G.normal_form(f)
        assert dict(r.terms) == sympy_remainder(f, G.generators, n)
        moved = {}
        for e, c in f.terms.items():
            x = [0] * big
            for i, a in zip(v, e):
                x[i] = a
            moved[tuple(x)] = c
        r_min = kernel.normal_form_terms(moved, G._minimal, P)
        assert dict(r.terms) == {G._relabel(e): c for e, c in r_min.items()}
        assert G.contains(f) == (not r.terms)
        assert all(G.contains(f * g) for g in G.generators)


def top_degree_parts(gens):
    """The homogeneous part of top degree of each generator."""
    out = []
    for g in gens:
        d = g.total_degree()
        out.append(Polynomial(F, g.arity, {e: c for e, c in g.terms.items()
                                           if sum(e) == d}))
    return out


def hilbert_by_counting(gens, n):
    """Projective dimension and degree from sympy's grevlex leading
    monomials: count the standard monomials degree by degree and take
    finite differences where the Hilbert function is a polynomial.

    With L the degree of the lcm of the leading monomials, the Hilbert
    series numerator over (1-t)^n has degree at most L (Taylor resolution),
    so the Hilbert function is polynomial from degree L - n + 1 on."""
    leads = [max(terms, key=lambda e: (sum(e), tuple(-x for x in e[::-1])))
             for terms in sympy_basis(gens, n, "grevlex")]
    top = sum(max(e[i] for e in leads) for i in range(n))

    def standard(d):
        return sum(1 for e in itertools.product(range(d + 1), repeat=n)
                   if sum(e) == d and not any(
                       all(a <= b for a, b in zip(m, e)) for m in leads))

    values = [standard(d) for d in range(top, top + n + 1)]
    dimension, degree = -1, None
    while any(values):
        dimension += 1
        degree = values[0]
        values = [b - a for a, b in zip(values, values[1:])]
    return dimension, degree


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals())
def test_hilbert_dim_degree_matches_counting_over_sympy(ideal):
    n, gens = ideal
    gens = top_degree_parts(gens)
    data = hilbert_dim_degree(Ideal(gens))
    assert (data.projective_dimension, data.degree) == hilbert_by_counting(
        gens, n)


# Surfaces in P^3 with isolated A1 singularities, the sum of their Milnor
# numbers, and the multidegrees of the toric polar map of a general
# translate.
NODAL_SURFACES = [
    ("x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3", 4, (1, 3, 9, 23)),
    ("x3*(x0^2+x1^2+x2^2) + x0^3+2*x1^3+3*x2^3+7*x0*x1*x2", 1,
     (1, 3, 9, 26)),
    ("x3^2*(x0^2+x1^2+x2^2) + x3*(x0^3+2*x1^3+3*x2^3+7*x0*x1*x2)"
     " + x0^4+2*x1^4+3*x2^4+11*x0^2*x1*x2+13*x1*x2^3", 1, (1, 4, 16, 63)),
]


@pytest.mark.parametrize("text, milnor, values", NODAL_SURFACES,
                         ids=["cayley-cubic", "nodal-cubic", "nodal-quartic"])
def test_general_translates_follow_the_general_position_formula(
        text, milnor, values):
    """The toric polar multidegrees of a general translate of a degree-k
    surface with isolated singularities are k^j for j < 3 and
    k^3 - sum of Milnor numbers at j = 3.

    The sum comes from sympy: the Jacobian ideal defines the singular
    points, and its Hilbert polynomial, counted over sympy's grevlex leads,
    is the constant sum of their Tjurina numbers.  A node (A1) has Milnor
    and Tjurina number 1; Cayley's cubic has four nodes, the other two
    surfaces one singular point with Tjurina number 1, which is a node."""
    names = ("x0", "x1", "x2", "x3")
    f = parse_polynomial(text, names, F)
    k = f.homogeneous_degree()
    jacobian = [f.partial_derivative(i) for i in range(4)]
    assert hilbert_by_counting(jacobian, 4) == (0, milnor)
    got = multidegrees(toric_polar_map(random_translate(f, 11)),
                       RandomizationConfig(prime=P)).values
    expected = tuple(k ** j for j in range(3)) + (
        deg_from_milnor_general_position(k, 3, milnor),)
    assert got == expected == values


def fermat_surface(k, field):
    names = ("x0", "x1", "x2", "x3")
    return parse_polynomial(" + ".join(f"{v}^{k}" for v in names), names,
                            field)


def test_cubic_translate_base_ideal_matches_sympy():
    """The base ideal of the toric polar map of a general translate of the
    Fermat cubic surface: four dense cubics in four variables, on which the
    pair loop counts the complete-intersection bound, takes a degree's
    pairs by descending lcm and interreduces each finished degree.  (The
    quartic's basis takes sympy about 14 s and is left out.)"""
    coordinates = toric_polar_map(
        random_translate(fermat_surface(3, F), 1)).coordinates
    G = buchberger(Ideal(coordinates), GREVLEX)
    assert canonical(ours(G)) == canonical(
        sympy_basis(coordinates, 4, "grevlex"))


@pytest.mark.parametrize("k", [3, 4])
def test_surface_translates_with_every_basis_checked(monkeypatch, k):
    """With the debug check on, every basis that `multidegrees` computes
    must reduce its own S-polynomials to zero, and the toric and gradient
    maps of a general translate of the Fermat surface of degree k give
    (1, k, k^2, k^3) and (1, k-1, (k-1)^2, (k-1)^3)."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    f = random_translate(fermat_surface(k, PrimeField()), 1)
    assert multidegrees(toric_polar_map(f)).values == tuple(
        k ** j for j in range(4))
    assert multidegrees(gradient_map(f)).values == tuple(
        (k - 1) ** j for j in range(4))


@st.composite
def gcd_cases(draw, homogeneous=None, h_degrees=(0, 2)):
    """h*f and h*g for random nonzero f, g of degree at most 2 and h with
    degree in `h_degrees` in 1-4 variables, all homogeneous or all affine
    (drawn unless given), over a small and two large primes.  An affine
    polynomial has degree at most 2 and at least the lower end of its
    range."""
    p = draw(st.sampled_from([3, 32003, 2**31 - 1]))
    n = draw(st.integers(1, 4))
    if homogeneous is None:
        homogeneous = draw(st.booleans())

    def poly(low=0, high=2):
        d = draw(st.integers(low, high))
        exps = [e for e in itertools.product(range(3), repeat=n)
                if (sum(e) == d if homogeneous else sum(e) <= 2)]
        terms = draw(st.dictionaries(st.sampled_from(exps),
                                     st.integers(1, p - 1),
                                     min_size=1, max_size=3).filter(
            lambda terms: max(map(sum, terms)) >= low))
        return Polynomial(PrimeField(p), n, terms)

    f, g, h = poly(), poly(), poly(*h_degrees)
    return p, h * f, h * g


def sympy_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """sympy's monic gcd of a and b over the field of a."""
    p = a.field.p
    xs = sympy.symbols(f"x0:{a.arity}")
    d = sympy.Poly(sympy.gcd(to_sympy(a, xs), to_sympy(b, xs), modulus=p),
                   *xs, modulus=p)
    return Polynomial(a.field, a.arity,
                      {tuple(e): int(c) for e, c in d.terms()}).scaled_to_monic()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gcd_cases())
def test_multivariate_gcd_matches_sympy(case):
    p, a, b = case
    assert multivariate_gcd(a, b) == sympy_gcd(a, b)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gcd_cases(h_degrees=(1, 2)))
def test_line_certificate_keeps_planted_factors(case):
    """A nonconstant common factor h of two polynomials, forms or affine
    ones in one or more variables, is never certified away on the line,
    and the gcd still matches sympy's."""
    p, a, b = case
    assert not gcdtools._coprime_on_line(a, b)
    assert multivariate_gcd(a, b) == sympy_gcd(a, b)


def wide_lead_log(monkeypatch):
    """Records the leading exponent of every element `buchberger` adds."""
    leads = []
    real = kernel.Reducers.append_remainder

    def append_remainder(self, r, p):
        leads.append(real(self, r, p))
        return leads[-1]

    monkeypatch.setattr(kernel.Reducers, "append_remainder", append_remainder)
    return leads


def test_buchberger_with_widened_pair_criteria_matches_sympy_grevlex(
        monkeypatch):
    """Leading exponents reach 583, past the 8 bits per field that the
    packed pair criteria start with, so they widen twice."""
    leads = wide_lead_log(monkeypatch)
    x, y, z = (Polynomial.variable(F, 3, i) for i in range(3))
    gens = [x ** 300 + 5 * y ** 2 * z, y ** 260 + 3 * x * y * z + 7 * z ** 2,
            x ** 2 * z ** 290 + 2 * y]
    G = buchberger(Ideal(gens), GREVLEX)
    assert max(map(max, leads)) >= 512
    assert canonical(ours(G)) == canonical(sympy_basis(gens, 3, "grevlex"))


def test_buchberger_with_widened_pair_criteria_matches_sympy_block(
        monkeypatch):
    """Under block_order(1) a lead of degree 271 in x2 joins after the two
    generators, from a reduced pair, so the packed pair criteria widen in
    the middle of the run; the debug check reduces every S-polynomial of
    the result."""
    from toricpolar import groebner
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    leads = wide_lead_log(monkeypatch)
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    gens = [x0 * x2 ** 90 - x1 ** 3,
            x0 ** 3 - x1 * x2 + Polynomial.constant(F, 3, 1)]
    G = buchberger(Ideal(gens), block_order(1))
    assert max(map(max, leads)) >= 256 > max(map(max, leads[:2]))
    assert canonical(ours(G)) == canonical(sympy_basis(gens, 3, BLOCK_1))
