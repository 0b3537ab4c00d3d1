"""dim B, B the base locus, from the coordinate strata of P^n.

When every coordinate of a map is c_i = x_i q_i and has the term x_i^d,
as the toric polar map of an f with f(e_i) != 0 does, `maps.multidegrees`
reads dim B from one small basis per coordinate stratum: the q_j with j
not in S, restricted to x_S = 0 (`maps._base_dimension`).  Every other map
reads it from one grevlex basis of its coordinates.  These tests check the
strata against that basis, pin which bases each path runs, and check the
strata's answer on hand-built maps where one stratum decides it.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricpolar import groebner, maps
from toricpolar.constructions import cremona_poly
from toricpolar.errors import PreconditionError, ToricPolarError
from toricpolar.field import PrimeField
from toricpolar.groebner import Ideal, projective_dimension
from toricpolar.maps import (gradient_map, multidegrees, random_translate,
                             toric_polar_map)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial

F = PrimeField()


def P(text, n):
    return parse_polynomial(text, [f"x{i}" for i in range(n + 1)], F)


def fermat(k, n):
    return P(" + ".join(f"x{i}^{k}" for i in range(n + 1)), n)


def basis_dimension(phi):
    return projective_dimension(Ideal(phi.coordinates))


def stratum_dimensions(phi):
    """dim B by `_base_dimension`, and the dimension of each stratum it
    visited, in order, as (number of variables, dimension)."""
    visited = []
    real = maps.projective_dimension

    def recording(I):
        d = real(I)
        visited.append((I.arity, d))
        return d

    with mock.patch.object(maps, "projective_dimension", recording), \
            mock.patch.object(groebner, "_DEBUG_CHECK_BASES", False):
        return maps._base_dimension(phi), visited


def monomials(n, d):
    """The exponents of degree d in n + 1 variables."""
    if n == 0:
        return [(d,)]
    return [(a, *e) for a in range(d, -1, -1) for e in monomials(n - 1, d - a)]


def form(draw, n, d, field, pure, count):
    """A form of degree d in n + 1 variables with the pure powers of
    `pure` and up to `count` other random terms."""
    coefficient = st.integers(1, field.p - 1)
    terms = {tuple(d * (k == i) for k in range(n + 1)): draw(coefficient)
             for i in pure}
    others = [e for e in monomials(n, d) if e not in terms]
    if others and count:
        for e in draw(st.lists(st.sampled_from(others), max_size=count,
                               unique=True)):
            terms[e] = draw(coefficient)
    return Polynomial(field, n + 1, terms)


@st.composite
def vertex_free_forms(draw):
    """A form in P^2..P^4 of degree at most 4 with every pure power, so its
    toric polar map takes the strata.  Half of them are x0 h + g with g in
    x1..xn the square of a linear form times a form, or a sparse form, so
    that x0 = 0 meets f in a singular hypersurface and the stratum {0} can
    be the only nonempty one."""
    field = PrimeField(draw(st.sampled_from([11, 101, 32003, 2 ** 31 - 1])))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 4 if n < 4 else 3))
    if not draw(st.booleans()):
        return form(draw, n, d, field, range(n + 1), 4)
    h = form(draw, n, d - 1, field, [0], 3)
    rest = range(1, n + 1)
    if draw(st.booleans()):
        line = form(draw, n, 1, field, rest, 0)
        g = line * line * form(draw, n, d - 2, field, rest, 2)
    else:
        g = form(draw, n, d, field, rest, 2)
    return Polynomial.variable(field, n + 1, 0) * h + g


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(vertex_free_forms())
def test_strata_match_one_basis_of_the_coordinates(f):
    try:
        phi = toric_polar_map(f)
    except PreconditionError:  # f vanished mod p, or f_red has degree 1
        return
    assert stratum_dimensions(phi)[0] == basis_dimension(phi)


def test_nodal_restriction_decides_alone():
    """A smooth cubic surface whose plane section x0 = 0 is an irreducible
    nodal cubic, its node off the coordinate lines: B is that node, the
    stratum {0} is the only nonempty one, and dim B = 0.  Only d_3 is
    sliced."""
    g = ("-8*x1^3 + 18*x1^2*x2 - 18*x1*x2^2 + x2^3 - 3*x1^2*x3 "
         "+ 10*x1*x2*x3 + 4*x2^2*x3 - 2*x1*x3^2 - 4*x2*x3^2 + x3^3")
    f = P(f"x0*(x0^2 + x1^2 + x2^2 + x3^2) + ({g})", 3)
    phi = toric_polar_map(f)
    x = [Polynomial.variable(F, 4, i) for i in range(4)]
    on = [projective_dimension(Ideal([*phi.coordinates, v])) for v in x]
    assert on == [0, -1, -1, -1]
    assert projective_dimension(Ideal(f.partial_derivative(i)
                                      for i in range(4))) == -1
    assert stratum_dimensions(phi) == (0, [(4, -1), (3, 0), (3, -1),
                                           (3, -1), (3, -1)])
    assert multidegrees(phi).values == (1, 3, 9, 26)


def test_tangent_coordinate_line_decides_alone():
    """A smooth conic tangent to the line x0 = 0 away from the vertices:
    B is the point of tangency, found only on the coordinate-line stratum
    {0}.  The conic's degree is 4 minus its one tangency."""
    phi = toric_polar_map(P("x0^2 + x0*x1 + x0*x2 + x1^2 - 2*x1*x2 + x2^2",
                            2))
    assert stratum_dimensions(phi) == (0, [(3, -1), (2, 0)])
    assert basis_dimension(phi) == 0
    assert multidegrees(phi).values == (1, 2, 3)


def test_a_later_stratum_of_higher_dimension():
    """x0 h + l^2 m: the section x0 = 0 holds the double line l = 0, so B
    has dimension 1; the singular points of the surface, where h meets that
    line, are the first nonempty stratum, of dimension 0."""
    f = P("x0*(x0^2 + x1^2 + x2^2 + x3^2) "
          "+ (x1 + x2 + x3)^2*(x1 + 2*x2 + 3*x3)", 3)
    phi = toric_polar_map(f)
    assert stratum_dimensions(phi) == (1, [(4, 0), (3, 1)])
    assert basis_dimension(phi) == 1
    assert multidegrees(phi).values[:2] == (1, 3)


def bases(phi):
    """The generators of each basis `_base_dimension` computes."""
    calls = []
    real = groebner.buchberger

    def recording(I, order=groebner.GREVLEX):
        calls.append(I.generators)
        return real(I, order)

    with mock.patch.object(groebner, "buchberger", recording), \
            mock.patch.object(groebner, "_DEBUG_CHECK_BASES", False):
        maps._base_dimension(phi)
    return calls


def test_quartic_surface_translate_runs_one_basis_per_stratum():
    """B is empty, so every stratum but the vertices is visited: 1 + 4 + 6
    bases of cubics, and none of the four quartic coordinates."""
    phi = toric_polar_map(random_translate(fermat(4, 3), 3))
    calls = bases(phi)
    assert len(calls) == 11
    assert all(g.total_degree() == 3 for gens in calls for g in gens)
    assert [gens[0].arity for gens in calls] == \
        [4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("phi", [
    pytest.param(lambda: toric_polar_map(cremona_poly(4)), id="cremona-4"),
    pytest.param(lambda: gradient_map(random_translate(fermat(3, 3), 5)),
                 id="cubic-gradient")])
def test_other_maps_run_the_one_basis(phi):
    """Cremona's vertices lie in B, and a gradient map's coordinates are
    not multiples of their variables: one basis of the coordinates."""
    phi = phi()
    assert bases(phi) == [phi.coordinates]


def test_fermat_quartic_threefold_translate(monkeypatch):
    """A general translate of a smooth quartic threefold: every coordinate
    section is smooth, B is empty and d_j = 4^j for every j.  The
    reference is k^j, not the engine.  TORICPOLAR_DEBUG is off here: its
    cross-check computes the basis of the five quartic coordinates and
    reduces every S-polynomial of it, minutes of work; the other maps of
    the suite and of the verify passes are cross-checked."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", False)
    phi = toric_polar_map(random_translate(fermat(4, 4), 11))
    assert stratum_dimensions(phi)[0] == -1
    assert multidegrees(phi).values == tuple(4 ** j for j in range(5))


def test_debug_mode_checks_the_strata(monkeypatch):
    """Under TORICPOLAR_DEBUG a stratum that answers wrongly is caught by
    the basis of the coordinates, and the error names both values."""
    phi = toric_polar_map(random_translate(fermat(3, 3), 5))
    real = maps.projective_dimension

    def wrong(I):
        return 1 if I.arity == 3 else real(I)

    monkeypatch.setattr(maps, "projective_dimension", wrong)
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", False)
    assert maps._base_dimension(phi) == 1
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    with pytest.raises(ToricPolarError, match="strata give dim B = 1, one "
                       "basis of the coordinates gives -1"):
        maps._base_dimension(phi)
