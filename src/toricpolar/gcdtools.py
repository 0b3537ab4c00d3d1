"""Multivariate gcd, squarefree parts and distinct-root counts over F_p.

The gcd of two polynomials in several variables is f*g / lcm(f, g), where
the lcm generates the principal ideal (f) ∩ (g) and comes from the Gröbner
engine's `intersect` (Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, §4.3-4.4); in one variable the Euclidean algorithm is used.
The squarefree part of a homogeneous form divides it by the gcd of its
partial derivatives; in characteristic larger than the degree this is
exact, so it involves no randomness.
"""

from __future__ import annotations

from .errors import PreconditionError, ToricPolarError
from .groebner import Ideal, intersect
from .poly import GREVLEX, Polynomial


def _univariate_gcd(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """Monic Euclidean gcd of two polynomials involving only x_v."""
    field = f.field

    def as_coeffs(h):
        c = [0] * (h.degree_in(v) + 1)
        for e, coeff in h.terms.items():
            c[e[v]] = coeff
        return c

    p = field.p

    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def poly_mod(a, b):
        inv = field.inv(b[-1])
        a = a[:]
        while len(a) >= len(b):
            if a[-1]:
                q = a[-1] * inv % p
                shift = len(a) - len(b)
                for i, bc in enumerate(b):
                    a[i + shift] = (a[i + shift] - q * bc) % p
            a.pop()
        return strip(a)

    a, b = strip(as_coeffs(f)), strip(as_coeffs(g))
    while b:
        a, b = b, poly_mod(a, b)
    lead_inv = field.inv(a[-1])
    out = {}
    for k, c in enumerate(a):
        if c:
            e = [0] * f.arity
            e[v] = k
            out[tuple(e)] = c * lead_inv % p
    return Polynomial(field, f.arity, out, _clean=True)


def multivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor; not both inputs may be zero."""
    if f.field != g.field or f.arity != g.arity:
        raise ValueError("polynomials from different rings")
    if f.is_zero() and g.is_zero():
        raise PreconditionError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.scaled_to_monic(GREVLEX)
    if g.is_zero():
        return f.scaled_to_monic(GREVLEX)
    used = sorted(set(f.variables_used()) | set(g.variables_used()))
    if not used:
        return Polynomial.constant(f.field, f.arity, 1)
    if len(used) == 1:
        return _univariate_gcd(f, g, used[0])
    lcm = intersect(Ideal([f]), Ideal([g])).generators
    if len(lcm) != 1:
        raise ToricPolarError(f"intersection of two principal ideals has "
                              f"{len(lcm)} basis elements, not one")
    gcd = (f * g).exact_divide(lcm[0])
    if gcd is None:
        raise ToricPolarError("lcm from the intersection does not divide "
                              "the product")
    return gcd.scaled_to_monic(GREVLEX)


def squarefree_part(f: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of f.

    Computes f / gcd(d f/dx_0, ..., d f/dx_n); requires homogeneous nonzero
    input and characteristic above deg f.  Then f lies in the ideal of its
    partials (Euler: deg f * f = sum x_i df/dx_i), and no nonconstant factor
    of f divides all of its own partials, so the gcd is the product of the
    repeated factors, each once less often than in f.
    """
    if f.is_zero():
        raise PreconditionError("squarefree part of the zero polynomial")
    if not f.is_homogeneous():
        raise PreconditionError("squarefree part needs homogeneous input")
    if f.field.p <= f.total_degree():
        raise PreconditionError("prime must exceed the degree")
    if f.is_constant():
        return Polynomial.constant(f.field, f.arity, 1)
    g = None
    for i in range(f.arity):
        df = f.partial_derivative(i)
        if df.is_zero():
            continue
        g = df if g is None else multivariate_gcd(g, df)
        if g.is_constant():
            return f.scaled_to_monic(GREVLEX)
    red = f.exact_divide(g)
    if red is None:
        raise ToricPolarError("gcd of the partial derivatives does not "
                              "divide the polynomial")
    return red.scaled_to_monic(GREVLEX)


def binary_form_distinct_roots(f: Polynomial, kept: tuple[int, int]) -> int:
    """Number of distinct roots in P^1 of a binary form in the kept variables."""
    if f.is_zero():
        raise PreconditionError("zero binary form")
    a, b = kept
    for e in f.terms:
        for i, x in enumerate(e):
            if x and i not in (a, b):
                raise PreconditionError("form involves a non-kept variable")
    return squarefree_part(f).total_degree()
