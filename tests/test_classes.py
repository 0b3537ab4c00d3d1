import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpolar.classes import (ChowClassVector, check_union_general_section,
                                csm_complement_of_hypersurface,
                                csm_standard_complement,
                                deg_from_milnor_general_position,
                                euler_divisor_complement,
                                euler_standard_complement,
                                gradient_from_toric, one_plus_h,
                                toric_from_gradient)
from toricpolar.errors import PreconditionError


def test_csm_from_toric_multidegrees():
    assert csm_standard_complement((1, 2, 1)).coefficients == (1, -2, 1)
    assert csm_standard_complement((1, 2, 2, 1)).coefficients == (1, -2, 2, -1)
    assert csm_standard_complement((1, 1, 1, 1)).coefficients == (1, -1, 1, -1)


def test_euler_characteristics():
    # cuspidal cubic: chi(U) = 2, chi(curve minus coordinate lines) = -2
    assert euler_standard_complement((1, 3, 2)) == 2
    assert euler_divisor_complement((1, 3, 2)) == -2
    assert euler_standard_complement((1, 2, 0)) == 0
    # generic line: inclusion-exclusion over 4 generic lines in P^2
    m = 4
    assert euler_standard_complement((1, 1, 1)) == 3 - 2 * m + m * (m - 1) // 2


def test_truncated_class_arithmetic():
    a = ChowClassVector((1, 1, 0))
    assert (a * a).coefficients == (1, 2, 1)
    assert (a * a * a).coefficients == (1, 3, 3)  # h^3 truncated away
    assert one_plus_h(2, 3).coefficients == (1, 3, 3)
    assert (a + a).coefficients == (2, 2, 0)
    assert (3 * a).coefficients == (3, 3, 0)
    assert (a ** 2).coefficients == (1, 2, 1)


def test_csm_complement_smooth_conic():
    # q(h) = 1 - h + h^2; (1+h)^2 q(h/(1+h)) = 1 + h + h^2, whose degree
    # coefficient is chi(P^2 minus a smooth conic) = 3 - 2 = 1
    got = csm_complement_of_hypersurface((1, 1, 1))
    assert got.coefficients == (1, 1, 1)
    assert got.euler_characteristic == 1


def test_csm_complement_constant_gradient_pattern():
    assert csm_complement_of_hypersurface((1, 0, 0)).coefficients == (1, 2, 1)


def test_csm_complement_closed_form_oracle():
    # independent route: (1+h)^n q(h/(1+h)) = sum_i (-1)^i g_i h^i (1+h)^(n-i)
    # is a polynomial identity, no truncation involved
    from math import comb
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 6)
        g = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        expected = tuple(
            sum((-1) ** i * g[i] * comb(n - i, r - i) for i in range(r + 1))
            for r in range(n + 1))
        assert csm_complement_of_hypersurface(g).coefficients == expected


def test_binomial_transforms_basic():
    assert toric_from_gradient((1, 1, 1)) == (1, 2, 4)
    assert gradient_from_toric((1, 2, 4)) == (1, 1, 1)


@settings(max_examples=100)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_binomial_transforms_inverse(vec):
    v = tuple(vec)
    assert gradient_from_toric(toric_from_gradient(v)) == v
    assert toric_from_gradient(gradient_from_toric(v)) == v


@settings(max_examples=60)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7))
def test_transform_pair_satisfies_twist_identity(g):
    # (1+h) p(h) = q(h/(1+h)) truncated, where p, q are the signed class
    # polynomials of the transformed pair; times the unit (1+h)^n this is
    # the hyperplane-twist identity between the two CSM classes
    g = tuple(g)
    assert check_union_general_section(
        csm_complement_of_hypersurface(g),
        csm_standard_complement(toric_from_gradient(g)))


def test_union_general_section_check():
    lhs = csm_complement_of_hypersurface((1, 1, 1))
    assert check_union_general_section(lhs, csm_standard_complement((1, 2, 4)))
    # deliberately non-general conic: the identity must fail
    assert not check_union_general_section(lhs, csm_standard_complement((1, 2, 0)))


def test_union_check_fails_for_engine_data_of_non_general_conic():
    # full engine comparison: the conic x0^2 - x1*x2 is tangent to the
    # coordinate frame, so the general-position identity must come out false
    from toricpolar.field import PrimeField
    from toricpolar.maps import (RandomizationConfig, gradient_map,
                                 multidegrees, toric_polar_map)
    from toricpolar.parse import parse_polynomial

    F = PrimeField()
    f = parse_polynomial("x0^2 - x1*x2", ("x0", "x1", "x2"), F)
    cfg = RandomizationConfig(seed=14)
    d = multidegrees(toric_polar_map(f), cfg)
    g = multidegrees(gradient_map(f), cfg)
    assert d.values == (1, 2, 0) and g.values == (1, 1, 1)
    assert not check_union_general_section(
        csm_complement_of_hypersurface(g), csm_standard_complement(d))


def test_union_check_on_projective_line():
    # D = m general points on P^1: chi(P^1 minus D) = 2 - m; toric polar
    # degree m gives the standard class (1, -m)
    for m in (1, 2, 3, 5):
        toric = (1, m)
        grad = gradient_from_toric(toric)
        lhs = csm_complement_of_hypersurface(grad)
        assert lhs.euler_characteristic == 2 - m
        assert check_union_general_section(lhs, csm_standard_complement(toric))


def test_csm_degree_coefficient_is_signed_topological_degree():
    from toricpolar.constructions import default_corpus
    from toricpolar.field import PrimeField
    from toricpolar.maps import (RandomizationConfig, multidegrees,
                                 toric_polar_map)

    F = PrimeField()
    cfg = RandomizationConfig(seed=6)
    for entry in default_corpus():
        md = multidegrees(toric_polar_map(entry.polynomial(F)), cfg)
        csm = csm_standard_complement(md)
        assert csm.coefficients[-1] == (-1) ** md.n * md.topological_degree
        assert euler_standard_complement(md) == csm.euler_characteristic


def test_deg_from_milnor():
    assert deg_from_milnor_general_position(3, 2, 0) == 9
    assert deg_from_milnor_general_position(3, 2, 1) == 8
    # quadrics meet the 2^n lower bound for dominant general position maps
    assert deg_from_milnor_general_position(2, 3, 0) == 8 == 2 ** 3
    with pytest.raises(PreconditionError):
        deg_from_milnor_general_position(0, 2, 0)
    with pytest.raises(PreconditionError):
        deg_from_milnor_general_position(2, 2, -1)
