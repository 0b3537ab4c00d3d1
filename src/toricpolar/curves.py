"""Plane-curve local invariants and the independent degree formula.

For a reduced plane curve of degree k meeting no coordinate line in a
component, the toric polar degree equals

    k^2 - (sum of Milnor numbers) - (fundamental-point incidence)
        - (tangency with the coordinate lines).

The Milnor sum is computed as the degree of the projective scheme cut out
by the Jacobian ideal, which equals the Tjurina sum; the two agree exactly
for weighted-homogeneous singularities (nodes, cusps, ordinary multiple
points), and inputs are restricted accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ToricPolarError
from .gcdtools import (binary_form_distinct_roots, multivariate_gcd,
                       squarefree_part)
from .groebner import (Ideal, eliminate, hilbert_dim_degree, saturate,
                       vector_space_dimension)
from .maps import RandomizationConfig, topological_degree, toric_polar_map
from .poly import Polynomial


@dataclass(frozen=True)
class PlaneCurveReport:
    """Invariants feeding the plane-curve degree formula.

    per_line[j] is the number of distinct points on the coordinate line
    x_j = 0; the tangency contribution is sum_j (k - per_line[j]).  The
    Milnor sum assumes weighted-homogeneous singularities (where the
    Tjurina and Milnor numbers agree).
    """

    k: int
    milnor_sum: int
    incidence: int
    tangency: int
    degree_formula: int
    per_line: tuple[int, int, int]
    milnor_equals_tjurina_assumed: bool = True


def _check_plane_curve(f: Polynomial, require_coprime=True):
    if f.is_zero():
        raise PreconditionError("zero polynomial is not a curve")
    if f.arity != 3:
        raise PreconditionError("plane curves live in three variables")
    if not f.is_homogeneous():
        raise PreconditionError("curve equation must be homogeneous")
    if f.is_constant():
        raise PreconditionError("constant input is not a curve")
    if require_coprime:
        for i in range(3):
            if f.divisible_by_variable(i):
                raise PreconditionError(
                    f"curve contains the coordinate line x{i} = 0")


def _check_reduced(f: Polynomial):
    if squarefree_part(f) != f.scaled_to_monic():
        raise PreconditionError("curve must be reduced")


def fundamental_incidence(f: Polynomial) -> int:
    """Number of the points (1:0:0), (0:1:0), (0:0:1) lying on the curve."""
    _check_plane_curve(f)
    k = f.homogeneous_degree()
    count = 0
    for i in range(3):
        pure = tuple(k if j == i else 0 for j in range(3))
        if f.coefficient(pure) == 0:
            count += 1
    return count


def _line_counts(f: Polynomial) -> tuple[int, int, int]:
    """Distinct points of the curve on each coordinate line."""
    counts = []
    for j in range(3):
        restricted = f.set_variable_zero(j)
        if restricted.is_zero():
            raise PreconditionError(
                f"curve contains the coordinate line x{j} = 0")
        kept = tuple(i for i in range(3) if i != j)
        counts.append(binary_form_distinct_roots(restricted, kept))
    return tuple(counts)


def tangency_contribution(f: Polynomial) -> int:
    """Total excess intersection with the coordinate lines:
    sum over lines of (k - number of distinct points on the line)."""
    _check_plane_curve(f)
    _check_reduced(f)
    k = f.homogeneous_degree()
    return sum(k - c for c in _line_counts(f))


def milnor_at_point(f: Polynomial, point) -> int:
    """Milnor number of the curve at a rational projective point.

    Dehomogenizes on a chart where the point is finite, translates it to
    the origin and returns the colength of J + m^N, J = (dF/du, dF/dv), m =
    (u, v), N the colength of J.  F[u, v]/J is the product of the local
    Jacobian algebras at the points of V(J), rational or not; m^N kills the
    one at the origin (its length mu <= N, Nakayama) and is the unit ideal
    at every other point, so the quotient is that algebra, of length mu."""
    _check_plane_curve(f, require_coprime=False)
    fld = f.field
    pt = [c % fld.p for c in point]
    if len(pt) != 3 or not any(pt):
        raise PreconditionError("need a nonzero projective point")
    chart = next(i for i in range(3) if pt[i])
    inv = fld.inv(pt[chart])
    pt = [c * inv % fld.p for c in pt]
    aff = f.dehomogenize(chart)
    a, b = [pt[i] for i in range(3) if i != chart]
    if aff.evaluate([a, b]) != 0:
        raise PreconditionError("point does not lie on the curve")
    u = Polynomial.variable(fld, 2, 0)
    v = Polynomial.variable(fld, 2, 1)
    local = aff.substitute([u + a, v + b])
    jac = Ideal([local.partial_derivative(0), local.partial_derivative(1)],
                field=fld, arity=2)
    if not jac.generators:
        raise PreconditionError("non-isolated singularity")
    total = vector_space_dimension(jac)
    m_n = [u ** i * v ** (total - i) for i in range(total + 1)]
    return vector_space_dimension(Ideal([*jac.generators, *m_n]))


def total_milnor(f: Polynomial) -> int:
    """Milnor sum over all singular points, as the degree of the projective
    scheme of the Jacobian ideal.

    Exact for weighted-homogeneous singularities; requires reduced input
    with a finite singular locus."""
    _check_plane_curve(f, require_coprime=False)
    _check_reduced(f)
    f = f.scaled_to_monic()
    jac = Ideal([f.partial_derivative(i) for i in range(3)],
                field=f.field, arity=3)
    data = hilbert_dim_degree(jac)
    if data.projective_dimension == -1:
        return 0
    if data.projective_dimension == 0:
        return data.degree
    raise PreconditionError("positive-dimensional singular locus")


def plane_degree_formula(f: Polynomial) -> PlaneCurveReport:
    """Assemble the degree formula k^2 - milnor_sum - incidence - tangency."""
    _check_plane_curve(f)
    k = f.homogeneous_degree()
    milnor = total_milnor(f)  # rejects non-reduced input
    incidence = fundamental_incidence(f)
    per_line = _line_counts(f)
    tangency = sum(k - c for c in per_line)
    return PlaneCurveReport(
        k=k,
        milnor_sum=milnor,
        incidence=incidence,
        tangency=tangency,
        degree_formula=k * k - milnor - incidence - tangency,
        per_line=per_line,
    )


def _univariate_squarefree(u: Polynomial, var: int) -> Polynomial:
    du = u.partial_derivative(var)
    if du.is_zero():
        raise PreconditionError("cannot take squarefree part (derivative "
                                "vanished; degree too large for the prime?)")
    g = multivariate_gcd(u, du)
    out = u.exact_divide(g)
    if out is None:
        raise ToricPolarError("gcd with the derivative does not divide the "
                              "eliminant")
    return out


def distinct_intersections_off_coordinates(f: Polynomial, g: Polynomial) -> int:
    """Number of distinct intersection points of two coprime curves lying
    on no coordinate line.

    Saturates (f, g) by x0*x1*x2, dehomogenizes on x0 = 1 (every surviving
    point has all coordinates nonzero) and counts points of the resulting
    zero-dimensional ideal after adjoining squarefree eliminants in each
    variable."""
    _check_plane_curve(f, require_coprime=False)
    _check_plane_curve(g, require_coprime=False)
    if not multivariate_gcd(f, g).is_constant():
        raise PreconditionError("curves share a component")
    coords = Polynomial.monomial(f.field, 3, (1, 1, 1))
    sat = saturate(Ideal([f, g], field=f.field, arity=3), coords)
    if any(h.is_constant() for h in sat.generators):
        return 0
    affine = [h.dehomogenize(0) for h in sat.generators]
    ideal = Ideal(affine, field=f.field, arity=2)
    extra = []
    for var in range(2):
        elim = eliminate(ideal, {1 - var})
        gens = elim.generators
        if not gens:
            raise PreconditionError("intersection is not zero-dimensional")
        if len(gens) != 1:
            raise ToricPolarError(f"elimination ideal in one variable has "
                                  f"{len(gens)} basis elements, not one")
        extra.append(_univariate_squarefree(gens[0], var))
    radical = Ideal(list(ideal.generators) + extra, field=f.field, arity=2)
    return vector_space_dimension(radical)


def reducible_composition_check(f: Polynomial, g: Polynomial,
                                cfg: RandomizationConfig | None = None) -> bool:
    """Whether deg T_(f*g) = deg T_f + deg T_g + #(common points off the
    coordinate lines), for coprime curves."""
    crossings = distinct_intersections_off_coordinates(f, g)
    lhs = topological_degree(toric_polar_map(f * g), cfg)
    rhs = (topological_degree(toric_polar_map(f), cfg)
           + topological_degree(toric_polar_map(g), cfg)
           + crossings)
    return lhs == rhs
