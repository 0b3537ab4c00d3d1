"""Multidegrees of hyperplane arrangements against the characteristic
polynomial, an oracle that shares no code with the engine.

For a central arrangement in C^(n+1) with normals v_1, ..., v_m, Whitney's
theorem gives the characteristic polynomial from exact ranks alone:

    chi(t) = sum over subsets S of the normals of (-1)^|S| t^(n + 1 - rank S),

and t - 1 divides it.  Let A be an arrangement in P^n and f the product of
its linear forms.

- Toric polar map: let A' be A plus the n + 1 coordinate hyperplanes.  The
  complement of A' is the standard complement of f, so by the paper's main
  theorem and Aluffi's formula for arrangements (IMRN 2013) the toric
  multidegrees are d_i = (-1)^i a_(n-i), where chi_A'(t) / (t - 1)
  evaluated at t = 1 + s is sum a_k s^k.
- Gradient map: d_i is the absolute value of the coefficient of t^(n-i)
  in chi_A(t) / (t - 1) (Huh, J. Amer. Math. Soc. 25, 2012); it is 0 past
  the rank of A.

Ranks are taken over the rationals; no Gröbner basis and no point count is
involved.
"""

import itertools
from fractions import Fraction
from math import comb, gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricpolar.field import PrimeField
from toricpolar.maps import (RandomizationConfig, gradient_map, multidegrees,
                             toric_polar_map)
from toricpolar.poly import Polynomial

F = PrimeField()
CFG = RandomizationConfig(seed=5)


def rank(rows):
    """Rank over Q, by Gaussian elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            q = rows[i][c] / rows[r][c]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def characteristic_polynomial(normals, n):
    """Coefficients of chi(t), constant term first, for the central
    arrangement of the given normals in C^(n+1)."""
    chi = [0] * (n + 2)
    for size in range(len(normals) + 1):
        for S in itertools.combinations(normals, size):
            chi[n + 1 - rank(S)] += (-1) ** size
    return chi


def reduced_characteristic_polynomial(normals, n):
    """Coefficients of chi(t) / (t - 1), constant term first."""
    chi = characteristic_polynomial(normals, n)
    reduced = [0] * (n + 1)
    run = 0
    for k in range(n + 1, 0, -1):  # synthetic division from the top
        run += chi[k]
        reduced[k - 1] = run
    assert chi[0] + run == 0  # t = 1 is a root
    return reduced


def toric_multidegrees_oracle(normals, n):
    """(d_0, ..., d_n) of the toric polar map of the product of the linear
    forms with these normals, from chi of the arrangement plus the
    coordinate hyperplanes."""
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    reduced = reduced_characteristic_polynomial(list(normals) + units, n)
    # reduced(1 + s) = sum a_k s^k
    a = [sum(c * comb(k, i) for k, c in enumerate(reduced) if k >= i)
         for i in range(n + 1)]
    return tuple((-1) ** i * a[n - i] for i in range(n + 1))


def gradient_multidegrees_oracle(normals, n):
    """(d_0, ..., d_n) of the gradient map of the same product."""
    return tuple(abs(c) for c in
                 reversed(reduced_characteristic_polynomial(normals, n)))


def direction(v):
    """The primitive vector on the line of v, first nonzero entry positive."""
    g = gcd(*v)
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x // g for x in v)


def arrangements(n, most):
    """Up to `most` hyperplanes in P^n with normals in {-2..2}^(n+1), no
    two proportional and none a multiple of a coordinate vector."""
    normal = st.tuples(*[st.integers(-2, 2)] * (n + 1)).filter(
        lambda v: sum(map(bool, v)) >= 2)
    return st.lists(normal, min_size=1, max_size=most, unique_by=direction)


def product_of_forms(normals, n):
    f = Polynomial.constant(F, n + 1, 1)
    for v in normals:
        f = f * Polynomial(F, n + 1, {
            tuple(int(i == j) for j in range(n + 1)): c % F.p
            for i, c in enumerate(v) if c})
    return f


def check_both_maps(normals, n):
    f = product_of_forms(normals, n)
    assert (multidegrees(toric_polar_map(f), CFG).values
            == toric_multidegrees_oracle(normals, n))
    if len(normals) >= 2:  # the gradient map needs degree 2 or more
        assert (multidegrees(gradient_map(f), CFG).values
                == gradient_multidegrees_oracle(normals, n))


def test_oracles_on_the_braid_arrangement():
    """x_i - x_j in P^3: prod (t + k) for k = 1..3 and k = 2..3, then a 0,
    as in test_maps."""
    normals = [tuple(int(k == i) - int(k == j) for k in range(4))
               for i, j in itertools.combinations(range(4), 2)]
    assert toric_multidegrees_oracle(normals, 3) == (1, 6, 11, 6)
    assert gradient_multidegrees_oracle(normals, 3) == (1, 5, 6, 0)


def test_toric_oracle_on_a_generic_line():
    assert toric_multidegrees_oracle([(1, 1, 1)], 2) == (1, 1, 1)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrangements(2, 6))
def test_multidegrees_of_plane_arrangements(normals):
    check_both_maps(normals, 2)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrangements(3, 5))
def test_multidegrees_of_space_arrangements(normals):
    check_both_maps(normals, 3)
