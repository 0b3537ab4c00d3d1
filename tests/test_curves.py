import pytest

from toricpolar.curves import (distinct_intersections_off_coordinates,
                               fundamental_incidence, milnor_at_point,
                               plane_degree_formula,
                               reducible_composition_check,
                               tangency_contribution, total_milnor)
from toricpolar.errors import PreconditionError
from toricpolar.field import PrimeField
from toricpolar.maps import RandomizationConfig, multidegrees, toric_polar_map
from toricpolar.parse import parse_polynomial

F = PrimeField()
CFG = RandomizationConfig(seed=12)


def P(text):
    return parse_polynomial(text, ("x0", "x1", "x2"), F)


CUSP = P("4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2")
NODAL = P("x1^2*x2 - x0^3 - x0^2*x2")


# --- incidence ----------------------------------------------------------------

def test_incidence_cuspidal_cubic():
    assert fundamental_incidence(CUSP) == 2


def test_incidence_fermat():
    assert fundamental_incidence(P("x0^3 + x1^3 + x2^3")) == 0


def test_incidence_cremona_conic():
    assert fundamental_incidence(P("x0*x1 + x1*x2 + x0*x2")) == 3


def test_incidence_rejects_coordinate_component():
    with pytest.raises(PreconditionError):
        fundamental_incidence(P("x0*x1"))


# --- tangency -----------------------------------------------------------------

def test_tangency_cuspidal_cubic():
    assert tangency_contribution(CUSP) == 3


def test_tangency_fermat_conic():
    assert tangency_contribution(P("x0^2 + x1^2 + x2^2")) == 0


def test_tangency_quadro_quadric():
    # restrictions: x2=0 gives x1(x1+x0), x1=0 gives x0*x2, x0=0 gives x1^2
    assert tangency_contribution(P("x1^2 + x0*x1 + x0*x2")) == 1


# --- milnor numbers -------------------------------------------------------------

def test_milnor_node():
    assert milnor_at_point(P("x1^2 - x2^2"), (1, 0, 0)) == 1


def test_milnor_cusp():
    assert milnor_at_point(P("x0*x1^2 - x2^3"), (1, 0, 0)) == 2


def test_milnor_smooth_point():
    assert milnor_at_point(P("x0*x1^2 - x2^3 - x0^2*x1"), (1, 0, 0)) == 0


def test_milnor_point_not_on_curve():
    with pytest.raises(PreconditionError):
        milnor_at_point(P("x0^2 - x1*x2"), (1, 0, 0))


def test_milnor_at_nonrational_chart():
    # node of the nodal cubic sits at (0:0:1)
    assert milnor_at_point(NODAL, (0, 0, 1)) == 1


def test_total_milnor_values():
    assert total_milnor(CUSP) == 2
    assert total_milnor(NODAL) == 1
    assert total_milnor(P("x0^2 + x1^2 + x2^2")) == 0


def test_total_milnor_matches_local_sum():
    # cusp of the cuspidal cubic is rational: (27 : 9 : 1)
    assert milnor_at_point(CUSP, (27, 9, 1)) == total_milnor(CUSP) == 2
    assert milnor_at_point(NODAL, (0, 0, 1)) == total_milnor(NODAL) == 1


def test_total_milnor_rejects_nonreduced():
    with pytest.raises(PreconditionError):
        total_milnor(P("(x0 + x1 + x2)^2"))


def test_total_milnor_ordinary_triple_point():
    # x0^3 + x1^3 is three concurrent lines: an ordinary triple point with
    # milnor number (3-1)^2 = 4
    f = P("x0^3 + x1^3")
    assert total_milnor(f) == 4
    assert milnor_at_point(f, (0, 0, 1)) == 4
    # degree formula: 9 - 4 - 1 - 4 = 0, and indeed the map is nondominant
    rep = plane_degree_formula(f)
    assert rep.degree_formula == 0
    assert multidegrees(toric_polar_map(f), CFG).topological_degree == 0


def test_milnor_where_the_jacobian_has_points_off_f_p():
    # two lines and a conic through five nodes; at p = 2^31 - 1 = 3 mod 4
    # the nodes (0 : 1 : +-i) are not defined over F_p.  In the chart
    # x2 = 1 the Jacobian algebra has dimension 9, against mu = 1 at the
    # origin, so only the part at the point may be counted.
    f = P("x0*x1*(x0^2 - x1^2 - x2^2)")
    assert milnor_at_point(f, (0, 0, 1)) == 1
    assert milnor_at_point(f, (1, 0, 1)) == 1
    assert milnor_at_point(f, (1, 0, -1)) == 1
    assert milnor_at_point(f, (1, 1, 0)) == 0
    assert total_milnor(f) == 5


def test_milnor_at_point_makes_two_bases(monkeypatch):
    # one basis for the colength of J, one for J + (u, v)^colength
    from toricpolar import groebner
    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("order"))
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    assert milnor_at_point(CUSP, (27, 9, 1)) == 2
    assert len(calls) == 2
    assert all(order is None or order.kind == "grevlex" for order in calls)


def test_milnor_at_point_rejects_nonisolated():
    # x0*x1^2 is a double line: the Jacobian ideal at (1:0:0) is principal
    with pytest.raises(PreconditionError):
        milnor_at_point(P("x0*x1^2"), (1, 0, 0))


# --- degree formula --------------------------------------------------------------

def test_plane_formula_cuspidal_cubic():
    rep = plane_degree_formula(CUSP)
    assert (rep.k, rep.milnor_sum, rep.incidence, rep.tangency) == (3, 2, 2, 3)
    assert rep.degree_formula == 9 - 2 - 2 - 3 == 2
    assert rep.per_line == (1, 3, 2)
    assert rep.tangency == sum(rep.k - c for c in rep.per_line)


def test_plane_formula_quadro_quadric():
    rep = plane_degree_formula(P("x1^2 + x0*x1 + x0*x2"))
    assert (rep.k, rep.milnor_sum, rep.incidence, rep.tangency) == (2, 0, 2, 1)
    assert rep.degree_formula == 1


def test_plane_formula_matches_engine_on_fixtures():
    for f in (CUSP, NODAL, P("x0^2 + x1^2 + x2^2"), P("x0^3 + x1^3 + x2^3"),
              P("x0 + 2*x1 + 3*x2")):
        rep = plane_degree_formula(f)
        engine = multidegrees(toric_polar_map(f), CFG).topological_degree
        assert rep.degree_formula == engine


def test_plane_formula_bounds():
    rep = plane_degree_formula(CUSP)
    assert rep.incidence <= 3
    assert all(c <= rep.k for c in rep.per_line)
    assert rep.degree_formula >= 0


# --- intersections off the coordinate lines ----------------------------------------

def test_two_generic_lines_meet_once():
    assert distinct_intersections_off_coordinates(
        P("x0 + x1 + x2"), P("x0 + 2*x1 + 3*x2")) == 1


def test_intersection_on_coordinate_line_not_counted():
    assert distinct_intersections_off_coordinates(
        P("x0 + x1"), P("x0 - x1")) == 0


def test_conic_meets_line_twice():
    # substituting the line into the conic leaves 4t^2 + 11t + 9, whose
    # discriminant 121 - 144 is nonzero: two distinct off-coordinate points
    assert distinct_intersections_off_coordinates(
        P("x0^2 - x1*x2"), P("x0 + x1 + x2")) == 2


def test_intersections_respect_bezout():
    pairs = [(CUSP, P("x0 + 2*x1 + 3*x2")), (CUSP, P("x0^2 - x1*x2")),
             (P("x0^2 - x1*x2"), P("x0 + 5*x1 + 7*x2"))]
    for f, g in pairs:
        count = distinct_intersections_off_coordinates(f, g)
        assert 0 <= count <= f.homogeneous_degree() * g.homogeneous_degree()


def test_intersections_reject_common_component():
    with pytest.raises(PreconditionError):
        distinct_intersections_off_coordinates(
            P("x0^2 - x1*x2"), P("(x0^2 - x1*x2) * (x0 + x1)"))


# --- product rule -------------------------------------------------------------------

def test_product_rule_two_generic_lines():
    assert reducible_composition_check(P("x0 + x1 + x2"),
                                       P("x0 + 2*x1 + 3*x2"), CFG)


def test_product_rule_conic_times_line():
    # degrees 0 + 1 + 2 = 3
    assert reducible_composition_check(P("x0^2 - x1*x2"),
                                       P("x0 + 2*x1 + 3*x2"), CFG)


def test_product_rule_cusp_times_line():
    # degrees 2 + 1 + 3 = 6
    assert reducible_composition_check(CUSP, P("x0 + 2*x1 + 3*x2"), CFG)


def test_three_generic_lines_match_arrangement_euler():
    # with the coordinate triangle these are 6 generic lines:
    # chi(P^2 minus them) = 3 - 12 + 15 = 6
    f = P("(x0 + 2*x1 + 3*x2)*(x0 + 5*x1 + 7*x2)*(x0 + 11*x1 + 13*x2)")
    from toricpolar.maps import topological_degree
    assert topological_degree(toric_polar_map(f), CFG) == 6
    assert plane_degree_formula(f).degree_formula == 6


def test_product_rule_on_twenty_random_corpus_pairs():
    import random

    from toricpolar.constructions import default_corpus
    from toricpolar.gcdtools import multivariate_gcd

    polys = {e.name: e.polynomial(F) for e in default_corpus()}
    names = [n for n, f in polys.items() if f.homogeneous_degree() <= 3]
    rng = random.Random(77)
    pairs = set()
    checked = 0
    while checked < 20:
        a, b = rng.sample(names, 2)
        key = tuple(sorted((a, b)))
        if key in pairs:
            continue
        pairs.add(key)
        if not multivariate_gcd(polys[a], polys[b]).is_constant():
            continue
        assert reducible_composition_check(polys[a], polys[b], CFG), (a, b)
        checked += 1
