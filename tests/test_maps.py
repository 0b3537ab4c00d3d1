import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpolar import maps
from toricpolar.constructions import MonomialMatrix, random_monomial_matrix
from toricpolar.errors import PreconditionError, SpecializationError
from toricpolar.field import PrimeField
from toricpolar.gcdtools import multivariate_gcd
from toricpolar.maps import (MultidegreeVector, RandomizationConfig,
                             RationalMapSpec, derive_seed, gradient_map,
                             monomial_pullback, multidegrees,
                             random_translate, topological_degree,
                             toric_polar_map)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial

from conftest import random_homogeneous

F = PrimeField()
CFG = RandomizationConfig(seed=3)


def P(text, vars=("x0", "x1", "x2")):
    return parse_polynomial(text, vars, F)


CUSP = "4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2"


# --- map construction -------------------------------------------------------

def test_toric_polar_of_linear_form_is_identity():
    spec = toric_polar_map(P("x0 + x1 + x2"))
    assert [str(c) for c in spec.coordinates] == ["x0", "x1", "x2"]
    assert spec.coordinate_degree == 1


def test_toric_polar_cremona_conic():
    spec = toric_polar_map(P("x0*x1 + x0*x2 + x1*x2"))
    assert spec.coordinates[0] == P("x0*x1 + x0*x2")
    assert spec.coordinates[1] == P("x0*x1 + x1*x2")
    assert spec.coordinates[2] == P("x0*x2 + x1*x2")


def test_toric_polar_conic_direct_differentiation():
    spec = toric_polar_map(P("x0^2 - x1*x2"))
    assert spec.coordinates[0] == P("2*x0^2")
    assert spec.coordinates[1] == P("-x1*x2")
    assert spec.coordinates[2] == P("-x1*x2")


def test_toric_polar_rejects_coordinate_factor():
    with pytest.raises(PreconditionError):
        toric_polar_map(P("x0*x1"))
    with pytest.raises(PreconditionError):
        toric_polar_map(P("x0 * (x1 + x2)"))


def test_toric_polar_rejects_constants_and_inhomogeneous():
    with pytest.raises(PreconditionError):
        toric_polar_map(P("5"))
    with pytest.raises(PreconditionError):
        toric_polar_map(P("x0^2 + x1"))


def test_gradient_map_examples():
    spec = gradient_map(P("x0^2 + x1^2 + x2^2"))
    assert [str(c) for c in spec.coordinates] == ["2*x0", "2*x1", "2*x2"]
    spec = gradient_map(P("x0^2 - x1*x2"))
    assert [str(c) for c in spec.coordinates] == ["2*x0", "-x2", "-x1"]
    cremona = gradient_map(P("x0*x1*x2"))
    assert [str(c) for c in cremona.coordinates] == ["x1*x2", "x0*x2", "x0*x1"]


def test_gradient_map_rejects_linear():
    with pytest.raises(PreconditionError):
        gradient_map(P("x0 + x1 + x2"))
    with pytest.raises(PreconditionError):
        gradient_map(P("(x0 + x1)^2"))  # reduced part is linear


def test_map_spec_strips_common_gcd():
    coords = [P("x0*x1"), P("x0*x2"), P("x0^2")]
    spec = RationalMapSpec(coords)
    assert spec.coordinate_degree == 1
    assert [str(c) for c in spec.coordinates] == ["x1", "x2", "x0"]


def test_toric_coordinates_have_trivial_gcd():
    rng = random.Random(2)
    for _ in range(10):
        f = random_homogeneous(F, rng, 3, rng.randint(1, 3), max_terms=4)
        if any(f.divisible_by_variable(i) for i in range(3)):
            continue
        spec = toric_polar_map(f)
        g = None
        for c in spec.coordinates:
            if c.is_zero():
                continue
            g = c if g is None else multivariate_gcd(g, c)
        assert g.is_constant()


# --- multidegrees ------------------------------------------------------------

def test_multidegrees_cuspidal_cubic():
    assert multidegrees(toric_polar_map(P(CUSP)), CFG).values == (1, 3, 2)


def test_multidegrees_quadro_quadric():
    assert multidegrees(toric_polar_map(P("x1^2 + x0*x1 + x0*x2")), CFG).values == (1, 2, 1)


def test_multidegrees_nondominant_conic():
    md = multidegrees(toric_polar_map(P("x0^2 - x1*x2")), CFG)
    assert md.values == (1, 2, 0)
    assert not md.is_dominant()
    # second prime agrees
    F2 = PrimeField(999999937)
    f2 = parse_polynomial("x0^2 - x1*x2", ("x0", "x1", "x2"), F2)
    cfg2 = RandomizationConfig(prime=999999937, seed=8)
    assert multidegrees(toric_polar_map(f2), cfg2).values == (1, 2, 0)


def test_topological_degree_examples():
    assert topological_degree(toric_polar_map(P("x0 + x1 + x2")), CFG) == 1
    assert topological_degree(toric_polar_map(P(CUSP)), CFG) == 2
    assert topological_degree(toric_polar_map(P("x0^2 - x1*x2")), CFG) == 0


def test_multidegrees_of_powers_agree():
    f = P(CUSP)
    base = multidegrees(toric_polar_map(f), CFG).values
    for m in (2, 3):
        assert multidegrees(toric_polar_map(f ** m), CFG).values == base


def test_multidegrees_of_powers_agree_random():
    rng = random.Random(19)
    done = 0
    while done < 3:
        f = random_homogeneous(F, rng, 3, rng.randint(1, 2), max_terms=4)
        if any(f.divisible_by_variable(i) for i in range(3)):
            continue
        base = multidegrees(toric_polar_map(f), CFG).values
        assert multidegrees(toric_polar_map(f * f), CFG).values == base
        done += 1


def test_multidegree_invariants_enforced():
    with pytest.raises(ValueError):
        MultidegreeVector((2, 1))
    with pytest.raises(ValueError):
        MultidegreeVector((1, 0, 2))
    with pytest.raises(ValueError):
        MultidegreeVector((1, -1, 0))
    with pytest.raises(ValueError, match="not log-concave at j = 2"):
        MultidegreeVector((1, 3, 1, 1))
    md = MultidegreeVector((1, 2, 0))
    assert md.n == 2 and md.topological_degree == 0


def test_multidegrees_on_projective_line():
    # D = three distinct points of P^1 away from the coordinate points:
    # degree 3, in general position with respect to the coordinate frame
    f = parse_polynomial("(x0 - x1)*(x0 - 2*x1)*(x0 - 3*x1)", ("x0", "x1"), F)
    d = multidegrees(toric_polar_map(f), CFG)
    g = multidegrees(gradient_map(f), CFG)
    assert d.values == (1, 3)
    assert g.values == (1, 2)
    from toricpolar.classes import (check_union_general_section,
                                    csm_complement_of_hypersurface,
                                    csm_standard_complement, toric_from_gradient)
    assert toric_from_gradient(g) == d.values
    lhs = csm_complement_of_hypersurface(g)
    assert lhs.euler_characteristic == 2 - 3  # chi(P^1 minus 3 points)
    assert check_union_general_section(lhs, csm_standard_complement(d))


def test_translated_smooth_cubic_surface():
    # smooth degree-3 surface in P^3 in general position: d_j = 3^j
    f = parse_polynomial("x0^3 + x1^3 + x2^3 + x3^3",
                         ("x0", "x1", "x2", "x3"), F)
    md = multidegrees(toric_polar_map(random_translate(f, 5)), CFG)
    assert md.values == (1, 3, 9, 27)


def test_translated_smooth_quartic_curve():
    f = P("x0^4 + x1^4 + x2^4")
    md = multidegrees(toric_polar_map(random_translate(f, 3)), CFG)
    assert md.values == (1, 4, 16)


def product_coefficients(shifts):
    """Coefficients of prod_k (t + k), highest power first."""
    coefficients = [1]
    for k in shifts:
        coefficients = [a + k * b for a, b in
                        zip(coefficients + [0], [0] + coefficients)]
    return tuple(coefficients)


@pytest.mark.parametrize("n", [2, 3])
def test_braid_arrangement_multidegrees(n):
    """f = prod_{i<j} (x_i - x_j) in P^n.  The toric multidegrees are the
    coefficients of prod_{k=1..n} (t + k); the gradient multidegrees are
    those of prod_{k=2..n} (t + k) followed by a 0, because the arrangement
    is not essential (Huh 2012)."""
    x = [Polynomial.variable(F, n + 1, i) for i in range(n + 1)]
    f = Polynomial.constant(F, n + 1, 1)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            f = f * (x[i] - x[j])
    toric = multidegrees(toric_polar_map(f), CFG).values
    gradient = multidegrees(gradient_map(f), CFG).values
    assert toric == product_coefficients(range(1, n + 1))
    assert gradient == product_coefficients(range(2, n + 1)) + (0,)


def test_cuspidal_cubic_second_prime():
    F2 = PrimeField(999999937)
    f = parse_polynomial(CUSP, ("x0", "x1", "x2"), F2)
    cfg = RandomizationConfig(prime=999999937, seed=4)
    assert multidegrees(toric_polar_map(f), cfg).values == (1, 3, 2)


def test_multidegrees_reproducible():
    f = P(CUSP)
    a = multidegrees(toric_polar_map(f), RandomizationConfig(seed=99))
    b = multidegrees(toric_polar_map(f), RandomizationConfig(seed=99))
    assert a == b


def test_trial_disagreement_raises(monkeypatch):
    """Only the slices that differ from trial 0 are named, for trial 0 and
    for the first trial that disagrees."""

    def fickle(phi, j, seed, trial):
        return 3 if j == 1 else 2 + (trial == 2)

    monkeypatch.setattr(maps, "_slice_degree", fickle)
    with pytest.raises(SpecializationError) as err:
        multidegrees(toric_polar_map(P(CUSP)),
                     RandomizationConfig(seed=CFG.seed, trials=3))
    s0, s2 = derive_seed(CFG.seed, 2, 0), derive_seed(CFG.seed, 2, 2)
    assert str(err.value) == (
        "trials disagree: (1, 3, 2) in trial 0, (1, 3, 3) in trial 2, at "
        f"(j, trial, sub-seed) (2, 0, {s0}), (2, 2, {s2}); rerun with a "
        f"fresh seed or prime [seeds: {s0}, {s2}]")
    assert err.value.seeds == (s0, s2)


def test_slices_start_at_j_1(monkeypatch):
    """d_0 is 1 by definition and d_1 = 3 is certified, since the base
    locus of the cusp map is finite: no trial slices them."""
    calls = []
    real = maps._slice_degree

    def recording(phi, j, seed, trial):
        calls.append((j, trial))
        return real(phi, j, seed, trial)

    monkeypatch.setattr(maps, "_slice_degree", recording)
    assert multidegrees(toric_polar_map(P(CUSP)), CFG).values == (1, 3, 2)
    assert calls == [(2, 0), (2, 1)]


def test_config_prime_must_match():
    cfg = RandomizationConfig(prime=999999937)
    with pytest.raises(ValueError):
        multidegrees(toric_polar_map(P(CUSP)), cfg)


def test_randomization_config_validation():
    with pytest.raises(PreconditionError):
        RandomizationConfig(trials=0)
    with pytest.raises(PreconditionError):
        RandomizationConfig(prime=91)
    for seed in (-1, 1 << 64):
        with pytest.raises(PreconditionError):
            RandomizationConfig(seed=seed)
    assert RandomizationConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seen = {derive_seed(5, j, t) for j in range(4) for t in range(4)}
    assert len(seen) == 16


# --- coordinate changes -------------------------------------------------------

def test_random_translate_preserves_degree_and_homogeneity():
    f = P(CUSP)
    for seed in range(5):
        g = random_translate(f, seed)
        assert g.is_homogeneous()
        assert g.homogeneous_degree() == 3


def test_translate_of_fermat_conic_has_degree_four():
    # general position: degree = k^n with no singularities (k = n = 2)
    g = random_translate(P("x0^2 + x1^2 + x2^2"), 21)
    assert topological_degree(toric_polar_map(g), CFG) == 4


def test_monomial_pullback_permutation():
    A = MonomialMatrix([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    f = P("x0^2 + 3*x1*x2")
    assert monomial_pullback(f, A) == P("x1^2 + 3*x0*x2")


def test_monomial_pullback_quadric_pattern():
    # pulling the coordinate sum back along this degree-2 matrix produces
    # the quadro-quadric Cremona quadric
    A = MonomialMatrix([(0, 2, 0), (1, 1, 0), (1, 0, 1)])
    assert abs(A.determinant) == A.k == 2
    assert monomial_pullback(P("x0 + x1 + x2"), A) == P("x1^2 + x0*x1 + x0*x2")


def test_monomial_pullback_strips_content():
    # the standard Cremona matrix pulls the Cremona conic back to a
    # multiple of the coordinate triangle times a line
    A = MonomialMatrix([(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    f = P("x0*x1 + x0*x2 + x1*x2")
    assert monomial_pullback(f, A) == P("x0 + x1 + x2")


def test_monomial_pullback_preserves_topological_degree():
    rng = random.Random(6)
    f = P(CUSP)
    base = topological_degree(toric_polar_map(f), CFG)
    for _ in range(3):
        A = random_monomial_matrix(2, rng.choice((1, 2, 3)), rng)
        pulled = monomial_pullback(f, A)
        assert topological_degree(toric_polar_map(pulled), CFG) == base


def test_one_block_order_basis_per_slice(monkeypatch):
    """One grevlex basis of the coordinates gives the base locus, a curve
    for Cremona n = 3, so d_1 is certified.  Each slice j = 2, 3 then
    computes one Gröbner basis, the block-order one inside `saturate`;
    Hilbert extraction reuses it instead of a grevlex basis."""
    import toricpolar.groebner as groebner
    from toricpolar.constructions import cremona_poly

    orders = []
    real = groebner.buchberger

    def counting(I, order=groebner.GREVLEX):
        orders.append(order.kind)
        return real(I, order)

    phi = toric_polar_map(cremona_poly(3, F))
    monkeypatch.setattr(groebner, "buchberger", counting)
    md = multidegrees(phi, CFG)
    assert md.values == (1, 3, 3, 1)
    assert orders == ["grevlex"] + ["block"] * (2 * CFG.trials)


# --- the linear restriction of a slice ----------------------------------------

def reference_restrict(polys, rows):
    """The sequential restriction that slices used before the echelon form:
    solve each linear form for its highest variable, substitute that into
    the polynomials and the remaining forms, and drop it from the ring.
    None when a form vanishes on the subspace cut out by the earlier ones."""
    field, arity = polys[0].field, polys[0].arity
    linear = [Polynomial(field, arity, {
        tuple(int(k == i) for k in range(arity)): c for i, c in enumerate(row)})
        for row in rows]
    polys = list(polys)
    while linear:
        lin, *linear = linear
        if lin.is_zero():
            return None
        arity = lin.arity
        pivot = max(next(i for i, x in enumerate(e) if x) for e in lin.terms)
        x = Polynomial.variable(field, arity, pivot)
        coeff = lin.coefficient(tuple(int(k == pivot) for k in range(arity)))
        images = [Polynomial.variable(field, arity, i) for i in range(arity)]
        images[pivot] = (lin - x * coeff) * -field.inv(coeff)
        rewritten = [q.substitute(images).drop_variable(pivot)
                     for q in polys + linear]
        polys, linear = rewritten[:len(polys)], rewritten[len(polys):]
    return polys


@st.composite
def restrictions(draw):
    """Homogeneous polynomials and up to arity-1 coefficient rows, some of
    them zero or combinations of earlier rows, over a small and two large
    primes."""
    p = draw(st.sampled_from([5, 32003, 2**31 - 1]))
    field = PrimeField(p)
    arity = draw(st.integers(2, 5))
    coefficient = st.one_of(st.sampled_from([0, 0, 1, p - 1]),
                            st.integers(0, p - 1))

    def form(degree):
        monomial = st.lists(st.integers(0, arity - 1), min_size=degree,
                            max_size=degree).map(
            lambda v: tuple(v.count(i) for i in range(arity)))
        return st.dictionaries(monomial, st.integers(1, p - 1), min_size=1,
                               max_size=4).map(
            lambda terms: Polynomial(field, arity, terms))

    polys = draw(st.lists(st.integers(1, 3).flatmap(form), min_size=1,
                          max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, arity - 1))):
        if rows and draw(st.integers(0, 3)) == 0:
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(coefficient), draw(coefficient)
            rows.append([(a * x + b * y) % p for x, y in zip(r, s)])
        else:
            rows.append(draw(st.lists(coefficient, min_size=arity,
                                      max_size=arity)))
    return polys, rows


@settings(max_examples=150, deadline=None)
@given(restrictions())
def test_restriction_matches_sequential_reference(case):
    """One echelon form and one substitution per polynomial give the same
    polynomials, term for term and in the same ring, as restricting to one
    linear form after another; both report a dependent row alike."""
    polys, rows = case
    mine = maps._restrict_to_subspace(polys, rows)
    ref = reference_restrict(polys, rows)
    if ref is None:
        assert mine is None
    else:
        assert mine is not None
        assert ([(g.arity, g.terms) for g in mine]
                == [(g.arity, g.terms) for g in ref])


def all_ones(rng, length, p):
    return [1] * length


def test_dependent_linear_forms_raise(monkeypatch):
    """With every random vector all ones, the two linear forms of the j = 1
    slice on P^3 coincide.  `multidegrees` certifies d_1 of this map, so
    the slice is called directly."""
    monkeypatch.setattr(maps, "_random_nonzero_vector", all_ones)
    space = ("x0", "x1", "x2", "x3")
    phi = RationalMapSpec([P(x, space) for x in space])
    with pytest.raises(SpecializationError) as err:
        maps._slice_degree(phi, 1, CFG.seed, 0)
    sub = derive_seed(CFG.seed, 1, 0)
    assert str(err.value) == f"degenerate random linear form [seeds: {sub}]"
    assert err.value.seeds == (sub,)


def test_saturant_vanishing_on_the_slice_raises(monkeypatch):
    """With every random vector all ones, the j = 1 slice of P^2 is the
    line x0 + x1 + x2 = 0, on which the saturant x0 + x1 + x2 vanishes.
    `multidegrees` certifies d_1 of this map, so the slice is called
    directly."""
    monkeypatch.setattr(maps, "_random_nonzero_vector", all_ones)
    phi = RationalMapSpec([P("x0"), P("x1"), P("x2")])
    with pytest.raises(SpecializationError) as err:
        maps._slice_degree(phi, 1, CFG.seed, 0)
    sub = derive_seed(CFG.seed, 1, 0)
    assert str(err.value) == ("saturating combination vanished on the slice "
                              f"[seeds: {sub}]")
    assert err.value.seeds == (sub,)
