"""Rational self-maps of P^n: toric polar and gradient maps, and the
randomized computation of their multidegrees.

The multidegree d_j is the degree of the closure of the preimage of a
general codimension-j linear subspace; d_0 = 1 by definition.  Let B be the
base locus, cut out by the coordinates (of degree d), and b its dimension
(-1 when B is empty).  For j = 1..n-1-b a general P^j misses B, the map is
a morphism on it and d_j = d^j (Fulton, Intersection Theory, Prop. 4.4:
the correction to d^j is a Segre class supported on B); these d_j are
certified from one grevlex basis of the coordinates.  Since the gcd of the
coordinates is removed, codim B >= 2 and d_1 is always certified; a gcd
that wrongly answers 1 leaves a hypersurface in B, nothing is certified,
and the d_1 check of `multidegrees` fails.  Over F_p, dim B is at least
its value over Q, so a bad prime certifies less, never more.

Every other d_j is computed by slicing: j random combinations of the map's
coordinates, restricted to n-j random linear forms (one echelon form mod p;
its free variables are the j+1 coordinates), a saturation by one further
random coordinate combination to excise the base locus, and Hilbert-series
degree extraction.  Independent trials with fresh randomness must agree,
otherwise a SpecializationError names the slices that disagree.  A d_n = 0
is checked against the Jacobian of the coordinates at one random point:
full rank there proves the map dominant, and the result is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError, SpecializationError, ToricPolarError
from .field import DEFAULT_PRIME, PrimeField, is_prime
from .gcdtools import multivariate_gcd, squarefree_part
from .groebner import Ideal, hilbert_dim_degree, saturate
from .poly import Polynomial

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a task addressed by `path`."""
    h = (seed ^ 0x9E3779B97F4A7C15) & _MASK64
    for v in path:
        h ^= (v + 0x9E3779B97F4A7C15) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
    return h


@dataclass(frozen=True)
class RandomizationConfig:
    """Prime, master seed and number of independent agreement trials."""

    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 2

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise PreconditionError(f"seed {self.seed} is not in [0, 2^64)")
        if self.trials < 1:
            raise PreconditionError("trials must be at least 1")
        if not is_prime(self.prime):
            raise PreconditionError(f"modulus {self.prime} is not prime")


@dataclass(frozen=True)
class MultidegreeVector:
    """Multidegrees d_0, ..., d_n of a rational self-map of P^n.

    d_0 is always 1, d_1 is the common degree of the reduced coordinates and
    d_n is the topological degree (0 exactly when the map is nondominant).
    Zeros can only occur as a suffix, and the sequence is log-concave,
    d_j^2 >= d_(j-1) d_(j+1), as the multidegrees of the map's irreducible
    graph are (Khovanskii-Teissier; Huh, J. Amer. Math. Soc. 25, 2012).
    """

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if not v or v[0] != 1:
            raise ValueError("multidegree vector must start with d_0 = 1")
        if any(x < 0 for x in v):
            raise ValueError("multidegrees are nonnegative")
        seen_zero = False
        for x in v[1:]:
            if seen_zero and x:
                raise ValueError("internal zero in a multidegree sequence")
            seen_zero = seen_zero or x == 0
        for j in range(1, len(v) - 1):
            if v[j] ** 2 < v[j - 1] * v[j + 1]:
                raise ValueError(
                    f"multidegrees not log-concave at j = {j}: d_{j}^2 = "
                    f"{v[j] ** 2} < d_{j - 1} * d_{j + 1} = "
                    f"{v[j - 1] * v[j + 1]}")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @property
    def topological_degree(self) -> int:
        return self.values[-1]

    def is_dominant(self) -> bool:
        return self.values[-1] > 0


class RationalMapSpec:
    """Rational self-map of P^n given by n+1 homogeneous coordinates of a
    common degree with their common gcd removed."""

    __slots__ = ("field", "n", "coordinates", "coordinate_degree")

    def __init__(self, coordinates):
        coords = tuple(coordinates)
        if not coords:
            raise PreconditionError("a map needs coordinates")
        fld = coords[0].field
        arity = coords[0].arity
        if arity != len(coords):
            raise PreconditionError("need exactly arity many coordinates")
        if all(c.is_zero() for c in coords):
            raise PreconditionError("all coordinates vanish")
        degree = None
        for c in coords:
            if c.field != fld or c.arity != arity:
                raise ValueError("coordinates from different rings")
            if c.is_zero():
                continue
            if not c.is_homogeneous():
                raise PreconditionError("coordinates must be homogeneous")
            d = c.homogeneous_degree()
            if degree is None:
                degree = d
            elif degree != d:
                raise PreconditionError("coordinates of unequal degrees")
        common = None
        for c in coords:
            if c.is_zero():
                continue
            common = c if common is None else multivariate_gcd(common, c)
            if common.is_constant():
                break
        if not common.is_constant():
            coords = tuple(c.exact_divide(common) if not c.is_zero() else c
                           for c in coords)
            degree -= common.total_degree()
        self.field = fld
        self.n = arity - 1
        self.coordinates = coords
        self.coordinate_degree = degree


def toric_polar_map(f: Polynomial, seed: int = 0) -> RationalMapSpec:
    """The map with coordinates x_i * d(f_red)/dx_i.

    The input is reduced first (the multidegrees only depend on the reduced
    part); it must be homogeneous of positive degree and not divisible by
    any coordinate variable.  `seed` has no effect (the reduced part is
    computed deterministically); only the benchmark (perfbench/) passes it.
    """
    _check_map_input(f)
    for i in range(f.arity):
        if f.divisible_by_variable(i):
            raise PreconditionError(
                f"input is divisible by x{i}; strip coordinate factors first")
    f_red = squarefree_part(f)
    coords = [Polynomial.variable(f.field, f.arity, i) * f_red.partial_derivative(i)
              for i in range(f.arity)]
    spec = RationalMapSpec(coords)
    # for reduced input coprime to the coordinate monomials the common gcd
    # is already trivial.  This catches a squarefree part that keeps a
    # repeated factor, not a gcd that wrongly answers 1: that error keeps
    # the factor in f_red and in the coordinates alike, so the degrees
    # agree, and the d_1 check in `multidegrees` is the one that fails.
    if spec.coordinate_degree != f_red.total_degree():
        raise ToricPolarError(
            f"toric polar coordinates have degree {spec.coordinate_degree} "
            f"after removing their gcd, expected {f_red.total_degree()}")
    return spec


def gradient_map(f: Polynomial, seed: int = 0) -> RationalMapSpec:
    """The map with coordinates d(f_red)/dx_i; needs deg f_red >= 2.

    `seed` has no effect; only the benchmark (perfbench/) passes it.
    """
    _check_map_input(f)
    f_red = squarefree_part(f)
    if f_red.total_degree() < 2:
        raise PreconditionError("gradient map needs reduced degree at least 2")
    coords = [f_red.partial_derivative(i) for i in range(f.arity)]
    return RationalMapSpec(coords)


def _check_map_input(f: Polynomial):
    if f.is_zero():
        raise PreconditionError("zero polynomial defines no map")
    if not f.is_homogeneous():
        raise PreconditionError("input must be homogeneous")
    if f.is_constant():
        raise PreconditionError("constant input defines no map")
    if f.field.p <= f.total_degree():
        raise PreconditionError("prime must exceed the degree")


# --------------------------------------------------------------------------
# randomized multidegree computation


def _random_nonzero_vector(rng: random.Random, length: int, p: int) -> list[int]:
    while True:
        v = [rng.randrange(p) for _ in range(length)]
        if any(v):
            return v


def _random_combination(polys, rng: random.Random) -> Polynomial:
    p = polys[0].field.p
    for _ in range(16):
        coeffs = _random_nonzero_vector(rng, len(polys), p)
        out = Polynomial.zero(polys[0].field, polys[0].arity)
        for c, g in zip(coeffs, polys):
            out = out + g * c
        if not out.is_zero():
            return out
    raise SpecializationError("random combinations keep vanishing")


def _linear_form(field: PrimeField, row: list[int]) -> Polynomial:
    """The linear form sum_i row[i] * x_i in len(row) variables."""
    arity = len(row)
    return Polynomial(field, arity, {
        tuple(int(k == i) for k in range(arity)): c for i, c in enumerate(row)})


def _echelon_mod_p(rows: list[list[int]], p: int):
    """Reduced echelon form mod p, row by row: each row is reduced by the
    earlier pivots, pivots on its last nonzero column (scaled to 1) and is
    cleared from the earlier rows.  Returns the (pivot column, row) pairs,
    or None when a row depends on the earlier ones."""
    pivots = []
    for row in rows:
        r = [c % p for c in row]
        for col, prow in pivots:
            f = r[col]
            if f:
                r = [(a - f * b) % p for a, b in zip(r, prow)]
        col = next((i for i in reversed(range(len(r))) if r[i]), None)
        if col is None:
            return None
        inv = pow(r[col], -1, p)
        r = [a * inv % p for a in r]
        for k, (pcol, prow) in enumerate(pivots):
            f = prow[col]
            if f:
                pivots[k] = (pcol, [(a - f * b) % p for a, b in zip(prow, r)])
        pivots.append((col, r))
    return pivots


def _restrict_to_subspace(polys: list[Polynomial],
                          rows: list[list[int]]) -> list[Polynomial] | None:
    """The polynomials on the common zeros of the linear forms `rows`, in
    the free variables of their echelon form (each pivot variable is minus
    its row); None when a row depends on the earlier ones."""
    if not rows:
        return list(polys)
    field, arity = polys[0].field, polys[0].arity
    pivots = _echelon_mod_p(rows, field.p)
    if pivots is None:
        return None
    bound = {col for col, _ in pivots}
    free = [i for i in range(arity) if i not in bound]
    images = [None] * arity
    for k, i in enumerate(free):
        images[i] = Polynomial.variable(field, len(free), k)
    for col, row in pivots:
        images[col] = _linear_form(field, [-row[i] for i in free])
    return [g.substitute(images) for g in polys]


def _slice_degree(phi: RationalMapSpec, j: int, seed: int, trial: int) -> int:
    """Degree of the saturated slice computing d_j, 1 <= j <= n, for one
    trial; the free variables of the echelon form of the n-j linear forms
    are its j+1 coordinates."""
    sub = derive_seed(seed, j, trial)
    rng = random.Random(sub)
    fld = phi.field
    n = phi.n
    pullbacks = [_random_combination(phi.coordinates, rng) for _ in range(j)]
    rows = [_random_nonzero_vector(rng, n + 1, fld.p) for _ in range(n - j)]
    saturant = _random_combination(phi.coordinates, rng)
    gens = _restrict_to_subspace(pullbacks + [saturant], rows)
    if gens is None:
        raise SpecializationError("degenerate random linear form", (sub,))
    saturant = gens.pop()
    if saturant.is_zero():
        raise SpecializationError("saturating combination vanished on the "
                                  "slice", (sub,))
    arity = saturant.arity
    # the saturation is a GroebnerBasis (its reduced grevlex basis, leads
    # included), which hilbert_dim_degree uses as given
    data = hilbert_dim_degree(
        saturate(Ideal(gens, field=fld, arity=arity), saturant))
    if data.projective_dimension == -1:
        return 0
    if data.projective_dimension != 0:
        raise SpecializationError(
            f"slice has projective dimension {data.projective_dimension}, "
            "expected 0", (sub,))
    return data.degree


def multidegrees(phi: RationalMapSpec,
                 cfg: RandomizationConfig | None = None) -> MultidegreeVector:
    """Multidegrees d_0, ..., d_n of the map, with trial agreement.

    d_0 = 1 by definition.  d_j = d^j is certified for j <= n - 1 - dim B,
    B the base locus, where a general P^j misses B; these j have no trials.
    Each trial slices the remaining j, each (j, trial) with its own
    deterministic sub-seed, so results are reproducible.  All trials must
    agree with trial 0; the error names each slice that differs as
    (j, trial, sub-seed), in trial 0 and in the first trial that differs.
    """
    if cfg is None:
        cfg = RandomizationConfig(prime=phi.field.p)
    if cfg.prime != phi.field.p:
        raise ValueError("configuration prime differs from the map's field")
    # a general P^j misses the base locus B for j <= n - 1 - dim B
    top = phi.n - 1 - hilbert_dim_degree(
        Ideal(phi.coordinates)).projective_dimension
    certified = [phi.coordinate_degree ** j for j in range(1, top + 1)]
    outcomes = [(1, *certified, *(_slice_degree(phi, j, cfg.seed, trial)
                                  for j in range(top + 1, phi.n + 1)))
                for trial in range(cfg.trials)]
    vec = outcomes[0]
    for trial, other in enumerate(outcomes[1:], 1):
        slices = [(j, t, derive_seed(cfg.seed, j, t))
                  for j in range(1, phi.n + 1) if other[j] != vec[j]
                  for t in (0, trial)]
        if slices:
            raise SpecializationError(
                f"trials disagree: {vec} in trial 0, {other} in trial "
                f"{trial}, at (j, trial, sub-seed) "
                f"{', '.join(map(str, slices))}; rerun with a fresh seed or "
                "prime", tuple(s for _, _, s in slices))
    if vec[-1] == 0:
        # full rank of the Jacobian at one point of the torus makes the cone
        # map étale there, so the map is dominant; singular proves nothing
        rng = random.Random(derive_seed(cfg.seed, 0xDE))
        pt = [rng.randrange(1, cfg.prime) for _ in phi.coordinates]
        rows = [[c.partial_derivative(i).evaluate(pt) for i in range(len(pt))]
                for c in phi.coordinates]
        if _echelon_mod_p(rows, cfg.prime) is not None:
            raise SpecializationError(
                f"computed d_{phi.n} = 0, but the Jacobian of the coordinates "
                "has full rank at a random point, so the map is dominant; "
                "rerun with a fresh seed or prime", tuple(derive_seed(
                    cfg.seed, phi.n, t) for t in range(cfg.trials)))
    if phi.n >= 1 and vec[1] != phi.coordinate_degree:
        raise SpecializationError(
            f"computed d_1 = {vec[1]} but the reduced coordinates have "
            f"degree {phi.coordinate_degree}", (cfg.seed,))
    try:
        return MultidegreeVector(vec)
    except ValueError as exc:
        raise SpecializationError(str(exc), (cfg.seed,))


def topological_degree(phi: RationalMapSpec,
                       cfg: RandomizationConfig | None = None) -> int:
    """d_n: the number of points in a general fiber; 0 iff nondominant."""
    return multidegrees(phi, cfg).topological_degree


# --------------------------------------------------------------------------
# coordinate changes


def random_translate(f: Polynomial, seed: int) -> Polynomial:
    """f composed with a random invertible linear change of coordinates."""
    if not f.is_homogeneous():
        raise PreconditionError("translate needs homogeneous input")
    rng = random.Random(derive_seed(seed, 0xA5))
    arity = f.arity
    p = f.field.p
    for _ in range(64):
        rows = [[rng.randrange(p) for _ in range(arity)] for _ in range(arity)]
        if _echelon_mod_p(rows, p) is not None:
            return f.substitute([_linear_form(f.field, row) for row in rows])
    raise SpecializationError("no invertible matrix found", (seed,))


def monomial_pullback(f: Polynomial, A) -> Polynomial:
    """Substitute each variable by the corresponding monomial of the
    transformation with exponent matrix A, then strip the monomial content.

    `A` is a MonomialMatrix (square, nonnegative, constant row sum, no
    common column factor).
    """
    rows = A.rows
    if f.arity != len(rows):
        raise PreconditionError("matrix size does not match the variable count")
    images = [Polynomial.monomial(f.field, f.arity, row) for row in rows]
    out = f.substitute(images)
    if out.is_zero():
        return out
    return out.strip_monomial_content()
