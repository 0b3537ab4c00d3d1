import random

import pytest

from toricpolar import curves, gcdtools, maps
from toricpolar.errors import (PreconditionError, SpecializationError,
                               ToricPolarError)
from toricpolar.field import PrimeField
from toricpolar.gcdtools import (binary_form_distinct_roots, multivariate_gcd,
                                 squarefree_part)
from toricpolar.groebner import Ideal, intersect
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial

from conftest import random_homogeneous

F = PrimeField()


def P(text, vars=("x0", "x1", "x2")):
    return parse_polynomial(text, vars, F)


def test_monomial_gcd():
    assert multivariate_gcd(P("x0^2*x1"), P("x0*x1^2")) == P("x0*x1")


def test_gcd_with_common_polynomial_factor():
    got = multivariate_gcd(P("(x0+x1)^2*x2"), P("(x0+x1)*x2^2"))
    assert got == P("(x0+x1)*x2")


def test_coprime_pair():
    # x0 does not divide x0^2 - x1*x2: the remainder after substituting
    # x0 = 0 is -x1*x2, nonzero; the only monic divisors of x0 are 1 and
    # x0, so the gcd is 1
    f = P("x0^2 - x1*x2")
    assert not f.set_variable_zero(0).is_zero()
    assert multivariate_gcd(f, P("x0")) == P("1")


def test_gcd_zero_cases():
    f = P("2*x0*x1")
    assert multivariate_gcd(f, Polynomial.zero(F, 3)) == P("x0*x1")
    with pytest.raises(PreconditionError):
        multivariate_gcd(Polynomial.zero(F, 3), Polynomial.zero(F, 3))


def test_gcd_multiplicative_property():
    rng = random.Random(17)
    for _ in range(15):
        f = random_homogeneous(F, rng, 3, rng.randint(1, 2), max_terms=3)
        g = random_homogeneous(F, rng, 3, rng.randint(1, 2), max_terms=3)
        h = random_homogeneous(F, rng, 3, rng.randint(1, 2), max_terms=3)
        lhs = multivariate_gcd(f * h, g * h)
        rhs = multivariate_gcd(f, g) * h
        assert lhs == rhs.scaled_to_monic()


def test_gcd_is_a_common_divisor():
    rng = random.Random(23)
    for _ in range(15):
        f = random_homogeneous(F, rng, 3, rng.randint(1, 3), max_terms=4)
        g = random_homogeneous(F, rng, 3, rng.randint(1, 3), max_terms=4)
        d = multivariate_gcd(f, g)
        assert f.exact_divide(d) is not None
        assert g.exact_divide(d) is not None


def test_squarefree_part_examples():
    assert squarefree_part(P("x0^2*x1")) == P("x0*x1")
    assert squarefree_part(P("(x0^2 - x1*x2)^2")) == P("x0^2 - x1*x2")


def test_squarefree_part_idempotent_on_squarefree_input():
    f = P("x0^2 - x1*x2")
    assert squarefree_part(f) == f.scaled_to_monic()


def test_squarefree_part_divides_input():
    rng = random.Random(5)
    for _ in range(10):
        f = random_homogeneous(F, rng, 3, rng.randint(1, 2), max_terms=3)
        m = rng.randint(1, 4)
        red = squarefree_part(f ** m)
        assert (f ** m).exact_divide(red) is not None
        assert red == squarefree_part(f)


def test_squarefree_part_of_products_of_powers():
    """f = prod q_i^a_i over distinct linear forms q_i and the conic
    x0^2 - x1*x2 has the monic product of the q_i as its reduced part."""
    rng = random.Random(21)
    conic = P("x0^2 - x1*x2")
    for _ in range(8):
        factors = [conic]
        count = rng.randint(2, 4)
        while len(factors) < count:
            q = random_homogeneous(F, rng, 3, 1, max_terms=3).scaled_to_monic()
            if q not in factors:
                factors.append(q)
        f = Polynomial.constant(F, 3, rng.randrange(1, F.p))
        red = Polynomial.constant(F, 3, 1)
        for q in factors:
            f = f * q ** rng.randint(1, 3)
            red = red * q
        assert squarefree_part(f) == red.scaled_to_monic()


def test_squarefree_rejects_bad_input():
    with pytest.raises(PreconditionError):
        squarefree_part(Polynomial.zero(F, 3))
    with pytest.raises(PreconditionError):
        squarefree_part(P("x0^2 + x1"))
    small = PrimeField(5)
    g = parse_polynomial("x0^3 + x1^3 + x0*x1^5", ("x0", "x1"), small)
    with pytest.raises(PreconditionError):
        squarefree_part(g)


def test_binary_form_distinct_roots():
    assert binary_form_distinct_roots(P("x0^2*x1"), (0, 1)) == 2
    assert binary_form_distinct_roots(P("(x0 - x1)^3"), (0, 1)) == 1
    # gcd(u^3 + v^3, derivative) = 1, so the form itself is squarefree
    f = P("x0^3 + x1^3")
    assert multivariate_gcd(f, f.partial_derivative(0)).is_constant()
    assert binary_form_distinct_roots(f, (0, 1)) == 3


def test_binary_form_rejects_extra_variables():
    with pytest.raises(PreconditionError):
        binary_form_distinct_roots(P("x0*x1*x2"), (0, 1))
    with pytest.raises(PreconditionError):
        binary_form_distinct_roots(Polynomial.zero(F, 3), (0, 1))


def _not_a_divisor(f, g):
    return Polynomial.variable(f.field, f.arity, 0) + 1


def _bad_lcm(count):
    """A stand-in for `intersect` whose basis has `count` elements that do
    not divide the product of the inputs."""
    def intersect(I, J):
        x = Polynomial.variable(I.field, I.arity, 0)
        return Ideal([x + i + 1 for i in range(count)])
    return intersect


@pytest.mark.parametrize("site", ["squarefree_part", "intersection_lcm",
                                  "intersection_not_principal",
                                  "univariate_squarefree", "toric_polar_map"])
def test_broken_gcd_invariant_raises(monkeypatch, site):
    """Each place that relies on a gcd dividing its input raises a
    ToricPolarError, which python -O keeps, when that fails."""
    with pytest.raises(ToricPolarError):
        if site == "squarefree_part":
            monkeypatch.setattr(gcdtools, "multivariate_gcd", _not_a_divisor)
            squarefree_part(P("(x0^2 - x1*x2)^2"))
        elif site == "intersection_lcm":
            # the common factor x0 keeps the pair from the line certificate
            monkeypatch.setattr(gcdtools, "intersect", _bad_lcm(1))
            multivariate_gcd(P("x0*x1 + x0*x2"), P("x0*x2"))
        elif site == "intersection_not_principal":
            monkeypatch.setattr(gcdtools, "intersect", _bad_lcm(2))
            multivariate_gcd(P("x0*x1 + x0*x2"), P("x0*x2"))
        elif site == "univariate_squarefree":
            monkeypatch.setattr(curves, "multivariate_gcd", _not_a_divisor)
            curves._univariate_squarefree(P("x1^3 - x1"), 1)
        else:
            # a squarefree part that is not reduced leaves a common factor
            # in the toric polar coordinates
            monkeypatch.setattr(maps, "squarefree_part", lambda f: f)
            maps.toric_polar_map(P("(x0 + x1 + x2)^2"))


# --- the line certificate -----------------------------------------------------


def _refuse_intersect(I, J):
    raise AssertionError("intersect reached")


def test_coprime_pairs_skip_the_intersection(monkeypatch):
    """Random forms whose lcm from the intersection is their product, so
    that their gcd is 1, are certified on the line without calling
    `intersect`."""
    rng = random.Random(41)
    pairs = []
    while len(pairs) < 30:
        arity = rng.randint(2, 5)
        f = random_homogeneous(F, rng, arity, rng.randint(1, 4), max_terms=5)
        g = random_homogeneous(F, rng, arity, rng.randint(1, 4), max_terms=5)
        lcm, = intersect(Ideal([f]), Ideal([g])).generators
        if lcm.total_degree() == f.total_degree() + g.total_degree():
            pairs.append((f, g))
    monkeypatch.setattr(gcdtools, "intersect", _refuse_intersect)
    for f, g in pairs:
        assert multivariate_gcd(f, g) == Polynomial.constant(F, f.arity, 1)


def test_degree_drop_on_the_line_falls_back(monkeypatch):
    """A form vanishing at the line's direction a loses degree on the line,
    so the certificate says nothing and `intersect` decides, even for a
    coprime pair."""
    a, _ = gcdtools._line(F.p, 3)
    # a[1]*x0 - a[0]*x1 vanishes at a
    f = P(f"{a[1]}*x0 - {a[0]}*x1")
    g = P("x0^2 - x1*x2")
    assert f.evaluate(a) == 0 and not f.is_zero()
    assert not gcdtools._coprime_on_line(f, g)
    calls = []
    real = gcdtools.intersect
    monkeypatch.setattr(gcdtools, "intersect",
                        lambda I, J: calls.append(1) or real(I, J))
    assert multivariate_gcd(f, g) == P("1")
    assert calls == [1]


def test_squarefree_univariate_pair_is_certified_on_the_line(monkeypatch):
    """A squarefree u in x0 alone and its derivative are coprime; the line
    moves x0 by s -> a[0]*s + b[0] with a[0] != 0, which keeps both degrees
    and the gcd, so no intersection is needed."""
    a, _ = gcdtools._line(F.p, 3)
    assert a[0] != 0
    u = P("(x0 + 1)*(x0 + 2)*(x0 + 5)")
    monkeypatch.setattr(gcdtools, "intersect", _refuse_intersect)
    assert multivariate_gcd(u, u.partial_derivative(0)) == P("1")


def test_repeated_univariate_factor_goes_through_the_intersection(
        monkeypatch):
    """u = (x0 + 1)^2*(x0 + 3) shares x0 + 1 with its derivative; the line
    cannot prove them coprime, and `intersect` gives the gcd."""
    u = P("(x0 + 1)^2*(x0 + 3)")
    calls = []
    real = gcdtools.intersect
    monkeypatch.setattr(gcdtools, "intersect",
                        lambda I, J: calls.append(1) or real(I, J))
    assert multivariate_gcd(u, u.partial_derivative(0)) == P("x0 + 1")
    assert calls == [1]


def test_wrong_certificate_is_caught_by_the_d1_check(monkeypatch):
    """A certificate that always answers 1 leaves the square of
    x0 + x1 + x2 in the reduced part and in the toric coordinates alike, so
    their degrees agree; the slice computing d_1 disagrees with the
    coordinate degree and `multidegrees` raises."""
    monkeypatch.setattr(gcdtools, "_coprime_on_line", lambda f, g: True)
    phi = maps.toric_polar_map(P("(x0 + x1 + x2)^2*(x0*x1 + x2^2)"))
    assert phi.coordinate_degree == 4
    with pytest.raises(SpecializationError,
                       match="computed d_1 = 3 but the reduced coordinates "
                             "have degree 4"):
        maps.multidegrees(phi)
