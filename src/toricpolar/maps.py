"""Rational self-maps of P^n: toric polar and gradient maps, and the
randomized computation of their multidegrees.

The multidegree d_j is the degree of the closure of the preimage of a
general codimension-j linear subspace.  It is computed by slicing: j random
combinations of the map's coordinates plus n-j random linear forms, a
saturation by one further random coordinate combination to excise the base
locus, and Hilbert-series degree extraction.  Independent trials with fresh
randomness must agree, otherwise a SpecializationError is raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError, SpecializationError, ToricPolarError
from .field import DEFAULT_PRIME, PrimeField, is_prime
from .gcdtools import multivariate_gcd, squarefree_part
from .groebner import GroebnerBasis, Ideal, hilbert_dim_degree, saturate
from .poly import GREVLEX, Polynomial

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
        if self.trials < 1:
            raise PreconditionError("trials must be at least 1")
        if not is_prime(self.prime):
            raise PreconditionError(f"modulus {self.prime} is not prime")


@dataclass(frozen=True)
class MultidegreeVector:
    """Multidegrees d_0, ..., d_n of a rational self-map of P^n.

    d_0 is always 1, d_1 is the common degree of the reduced coordinates and
    d_n is the topological degree (0 exactly when the map is nondominant).
    Zeros can only occur as a suffix.
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
    any coordinate variable.  `seed` is accepted for compatibility and does
    not affect the result: the reduced part is computed deterministically.
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
    # is already trivial
    if spec.coordinate_degree != f_red.total_degree():
        raise ToricPolarError(
            f"toric polar coordinates have degree {spec.coordinate_degree} "
            f"after removing their gcd, expected {f_red.total_degree()}")
    return spec


def gradient_map(f: Polynomial, seed: int = 0) -> RationalMapSpec:
    """The map with coordinates d(f_red)/dx_i; needs deg f_red >= 2.

    `seed` is accepted for compatibility and does not affect the result.
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


def _random_linear_form(field: PrimeField, arity: int, rng: random.Random) -> Polynomial:
    coeffs = _random_nonzero_vector(rng, arity, field.p)
    out = Polynomial.zero(field, arity)
    for i, c in enumerate(coeffs):
        if c:
            out = out + Polynomial.variable(field, arity, i) * c
    return out


def _substitute_out_linear(polys: list[Polynomial], lin: Polynomial):
    """Quotient by one linear form: solve it for its highest variable and
    substitute, dropping that variable from the ring."""
    field = lin.field
    arity = lin.arity
    pivot = None
    for e, c in lin.terms.items():
        i = next(j for j, x in enumerate(e) if x)
        if pivot is None or i > pivot:
            pivot = i
    coeff = lin.coefficient(tuple(1 if j == pivot else 0 for j in range(arity)))
    scale = field.neg(field.inv(coeff))
    rest = lin - Polynomial.variable(field, arity, pivot) * coeff
    image = rest * scale
    images = [Polynomial.variable(field, arity, i) for i in range(arity)]
    images[pivot] = image
    return [q.substitute(images).drop_variable(pivot) for q in polys]


def _slice_degree(phi: RationalMapSpec, j: int, seed: int, trial: int) -> int:
    """Degree of the saturated slice computing d_j, for one trial."""
    sub = derive_seed(seed, j, trial)
    rng = random.Random(sub)
    fld = phi.field
    n = phi.n
    pullbacks = [_random_combination(phi.coordinates, rng) for _ in range(j)]
    linear = [_random_linear_form(fld, n + 1, rng) for _ in range(n - j)]
    saturant = _random_combination(phi.coordinates, rng)
    gens = pullbacks + [saturant]
    while linear:
        lin, *linear = linear
        if lin.is_zero():
            raise SpecializationError("degenerate random linear form", (sub,))
        rewritten = _substitute_out_linear(gens + linear, lin)
        gens, linear = rewritten[:len(gens)], rewritten[len(gens):]
    saturant = gens.pop()
    if saturant.is_zero():
        raise SpecializationError("saturating combination vanished on the "
                                  "slice", (sub,))
    arity = saturant.arity
    # the saturation is already the reduced grevlex basis of its ideal
    sliced = saturate(Ideal(gens, field=fld, arity=arity), saturant)
    data = hilbert_dim_degree(
        GroebnerBasis(fld, arity, GREVLEX, sliced.generators))
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

    Each (j, trial) task draws its own deterministic sub-seed, so results
    are reproducible.  All trials must produce identical vectors.
    """
    if cfg is None:
        cfg = RandomizationConfig(prime=phi.field.p)
    if cfg.prime != phi.field.p:
        raise ValueError("configuration prime differs from the map's field")
    outcomes = []
    for trial in range(cfg.trials):
        vec = tuple(_slice_degree(phi, j, cfg.seed, trial)
                    for j in range(phi.n + 1))
        outcomes.append(vec)
    if any(v != outcomes[0] for v in outcomes[1:]):
        raise SpecializationError(
            f"trials disagree: {outcomes}; rerun with a fresh seed or prime",
            tuple(derive_seed(cfg.seed, j, t)
                  for t in range(cfg.trials) for j in range(phi.n + 1)))
    vec = outcomes[0]
    if vec[0] != 1:
        raise SpecializationError(f"computed d_0 = {vec[0]}, expected 1",
                                  (cfg.seed,))
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


def _determinant_mod_p(rows: list[list[int]], p: int) -> int:
    m = [row[:] for row in rows]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % p
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            if factor:
                for c in range(col, n):
                    m[r][c] = (m[r][c] - factor * m[col][c]) % p
    return det % p


def random_translate(f: Polynomial, seed: int) -> Polynomial:
    """f composed with a random invertible linear change of coordinates."""
    if not f.is_homogeneous():
        raise PreconditionError("translate needs homogeneous input")
    rng = random.Random(derive_seed(seed, 0xA5))
    arity = f.arity
    p = f.field.p
    for _ in range(64):
        rows = [[rng.randrange(p) for _ in range(arity)] for _ in range(arity)]
        if _determinant_mod_p(rows, p):
            images = []
            for row in rows:
                g = Polynomial.zero(f.field, arity)
                for jj, c in enumerate(row):
                    if c:
                        g = g + Polynomial.variable(f.field, arity, jj) * c
                images.append(g)
            return f.substitute(images)
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
