"""The base-locus certificate of `maps.multidegrees`, checked by slicing.

Let B be the base locus of a map of P^n whose coordinates have degree d.
For j <= n - 1 - dim B a general P^j misses B, the map is a morphism on it,
and d_j = d^j (Fulton, Intersection Theory, Prop. 4.4: the correction to
d^j is a Segre class supported on B).  `multidegrees` sets those d_j and
slices only the others.  These tests find the certified j by recording
which j `multidegrees` slices, then slice each certified j anyway, in
every trial, and require d^j from each slice.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from toricpolar import maps
from toricpolar.constructions import (cremona_poly, default_corpus,
                                      dolgachev_quadric)
from toricpolar.errors import PreconditionError
from toricpolar.field import PrimeField
from toricpolar.groebner import Ideal, hilbert_dim_degree
from toricpolar.maps import (RandomizationConfig, gradient_map, multidegrees,
                             random_translate, toric_polar_map)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial

F = PrimeField()
CFG = RandomizationConfig(seed=7)


def certified(phi, cfg=CFG):
    """The multidegrees of phi and the j in 1..n that they do not slice."""
    sliced = set()
    real = maps._slice_degree

    def recording(phi, j, seed, trial):
        sliced.add(j)
        return real(phi, j, seed, trial)

    with mock.patch.object(maps, "_slice_degree", recording):
        values = multidegrees(phi, cfg).values
    return values, [j for j in range(1, phi.n + 1) if j not in sliced]


def check_certificate(phi, cfg=CFG):
    """Every certified d_j is d^j and equals the slice of every trial;
    returns the number of certified j."""
    values, js = certified(phi, cfg)
    assert len(values) == phi.n + 1
    d = phi.coordinate_degree
    for j in js:
        assert values[j] == d ** j
        for trial in range(cfg.trials):
            assert maps._slice_degree(phi, j, cfg.seed, trial) == d ** j
    return len(js)


def fermat(k, arity):
    names = [f"x{i}" for i in range(arity)]
    return parse_polynomial(" + ".join(f"{x}^{k}" for x in names), names, F)


def arrangement(n, count, seed):
    """The product of `count` random linear forms in P^n."""
    rng = random.Random(seed)
    f = Polynomial.constant(F, n + 1, 1)
    for _ in range(count):
        f = f * Polynomial(F, n + 1, {
            tuple(int(i == j) for j in range(n + 1)): rng.randrange(1, F.p)
            for i in range(n + 1)})
    return f


# (map, number of certified j): n - 1 - dim B.  B is empty for Fermat-type
# and translated smooth hypersurfaces, finite for the singular plane curves,
# a union of codimension-2 coordinate subspaces for Cremona.
CASES = {
    **{f"corpus-{e.name}": (
        lambda e=e: toric_polar_map(e.polynomial()), top)
       for e, top in zip(default_corpus(), [1, 1, 1, 1, 2, 1, 2, 2, 2])},
    "cremona-3": (lambda: toric_polar_map(cremona_poly(3)), 1),
    "cremona-4": (lambda: toric_polar_map(cremona_poly(4)), 1),
    "dolgachev-3": (lambda: toric_polar_map(dolgachev_quadric(3)), 1),
    "dolgachev-4": (lambda: toric_polar_map(dolgachev_quadric(4)), 1),
    "dolgachev-5": (lambda: toric_polar_map(dolgachev_quadric(5)), 1),
    "cubic-surface-toric": (
        lambda: toric_polar_map(random_translate(fermat(3, 4), 5)), 3),
    "cubic-surface-gradient": (
        lambda: gradient_map(random_translate(fermat(3, 4), 5)), 3),
    "quartic-surface-toric": (
        lambda: toric_polar_map(random_translate(fermat(4, 4), 3)), 3),
    "quartic-surface-gradient": (
        lambda: gradient_map(random_translate(fermat(4, 4), 3)), 3),
    "arrangement-P3": (lambda: toric_polar_map(arrangement(3, 4, 11)), 1),
}


@pytest.mark.parametrize("name", CASES)
def test_certified_multidegrees_equal_their_slices(name):
    build, top = CASES[name]
    assert check_certificate(build()) == top


@st.composite
def products_of_powers(draw):
    """A product of two or three powers of random forms in P^2 or P^3.
    Two distinct components meet, and the base locus of either map
    contains their intersection."""
    n = draw(st.integers(2, 3))
    f = Polynomial.constant(F, n + 1, 1)
    for _ in range(draw(st.integers(2, 3))):
        degree = draw(st.integers(1, 2))
        monomial = st.lists(st.integers(0, n), min_size=degree,
                            max_size=degree).map(
            lambda v: tuple(v.count(i) for i in range(n + 1)))
        terms = draw(st.dictionaries(monomial, st.integers(1, F.p - 1),
                                     min_size=2, max_size=4))
        f = f * Polynomial(F, n + 1, terms) ** draw(st.integers(1, 2))
    return f, draw(st.booleans())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(products_of_powers())
def test_certificate_on_products_of_powers(case):
    f, toric = case
    assume(not any(f.divisible_by_variable(i) for i in range(f.arity)))
    try:
        phi = toric_polar_map(f) if toric else gradient_map(f)
    except PreconditionError:  # the forms were proportional lines
        assume(False)
    base = hilbert_dim_degree(Ideal(phi.coordinates)).projective_dimension
    assume(base >= 0)
    assert check_certificate(phi) == phi.n - 1 - base


def test_cubic_threefold_translate_is_not_sliced(monkeypatch):
    """The toric map of a general translate of the Fermat cubic threefold
    has no base locus, so every d_j is certified and nothing is sliced."""
    calls = []
    monkeypatch.setattr(maps, "_slice_degree",
                        lambda *args: calls.append(args))
    phi = toric_polar_map(random_translate(fermat(3, 5), 5))
    assert multidegrees(phi).values == (1, 3, 9, 27, 81)
    assert calls == []
