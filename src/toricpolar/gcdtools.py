"""Multivariate gcd, squarefree parts and distinct-root counts over F_p.

The gcd of two polynomials is f*g / lcm(f, g), where the lcm generates the
principal ideal (f) ∩ (g) and comes from the Gröbner engine's `intersect`
(Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, §4.3-4.4).

Most gcds met here are 1, and every pair of nonconstant inputs is first
tested on a line x = a*s + b, drawn once per (p, number of variables) from
a fixed seed.  The coefficient of s^d in f(a*s + b), d = deg f, is
f_top(a), where f_top is the part of f of degree d.  If f_top(a) and
g_top(a) are nonzero and the univariate gcd of f(a*s + b) and g(a*s + b)
is constant, then gcd(f, g) = 1: a common factor h has h_top dividing
f_top, so h_top(a) != 0, h(a*s + b) keeps the degree of h and divides both
restrictions.  The test never answers 1 wrongly, in any characteristic;
when it is inconclusive, `intersect` decides.  The gcd is unique, so the
answer never depends on the line.

The test is exact on two binary forms f and g, as `maps._base_dimension`
meets them on a coordinate line: a binary form is a product of linear
forms over the algebraic closure, one for each of its zeros in P^1, so f
and g are coprime exactly when they have no common zero there, and an
answer of 1 proves that they have none.  It is inconclusive on a coprime
pair only when b is a multiple of a, or f(a) or g(a) is zero; otherwise
s -> a*s + b covers P^1 but the point a, where neither form vanishes, and
the restrictions share a root only at a common zero.

The squarefree part of a homogeneous form divides it by the gcd of its
partial derivatives; in characteristic larger than the degree this is
exact, so it involves no randomness.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable

from .errors import PreconditionError, ToricPolarError
from .groebner import Ideal, intersect
from .poly import GREVLEX, Polynomial


def _euclid(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two univariate polynomials mod p, given as coefficient
    lists lowest degree first (both are consumed); not both zero."""
    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], -1, p)
        # a mod b, in place; a leading coefficient is dropped once cleared
        while len(a) >= len(b):
            q = a[-1] * inv % p
            if q:
                shift = len(a) - len(b)
                for i, bc in enumerate(b):
                    a[i + shift] = (a[i + shift] - q * bc) % p
            a.pop()
        a, b = b, strip(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


@functools.cache
def _line(p: int, arity: int) -> tuple[list[int], list[int]]:
    """The points a and b of the line x = a*s + b used for (p, arity); a
    fixed seed draws them, so every run uses the same line."""
    rng = random.Random(f"gcd line {p} {arity}")
    return ([rng.randrange(p) for _ in range(arity)],
            [rng.randrange(p) for _ in range(arity)])


def _coprime_on_line(f: Polynomial, g: Polynomial) -> bool:
    """True when the nonzero polynomials f and g restrict to the line of
    `_line` with their full degrees and with a constant gcd, which proves
    gcd(f, g) = 1; False means no conclusion.  The top coefficient of the
    restriction of f is f_top(a), its part of top degree at a.

    The restrictions are built with Kronecker packing: x_i = a_i*s + b_i is
    the int b_i + (a_i << w), so one int product multiplies coefficient
    lists, and the slots, with w bits each, hold the exact integer
    coefficients of sum c * prod (a_i*s + b_i)^e_i (all nonnegative and
    below p * (2p)^d * number of terms), reduced mod p once at the end.
    """
    p = f.field.p
    a, b = _line(p, f.arity)
    df, dg = f.total_degree(), g.total_degree()
    d = max(df, dg)
    w = ((d + 1) * p.bit_length() + d
         + max(len(f.terms), len(g.terms)).bit_length())
    powers = []
    for ai, bi in zip(a, b):
        x = bi + (ai << w)
        row = [1]
        for _ in range(d):
            row.append(row[-1] * x)
        powers.append(row)
    mask = (1 << w) - 1

    def restrict(h, degree):
        total = 0
        for e, c in h.terms.items():
            for row, k in zip(powers, e):
                if k:
                    c *= row[k]
            total += c
        return [(total >> (w * j) & mask) % p for j in range(degree + 1)]

    rf, rg = restrict(f, df), restrict(g, dg)
    return bool(rf[-1] and rg[-1]) and len(_euclid(rf, rg, p)) == 1


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
    if f.is_constant() or g.is_constant() or _coprime_on_line(f, g):
        return Polynomial.constant(f.field, f.arity, 1)
    lcm = intersect(Ideal([f]), Ideal([g])).generators
    if len(lcm) != 1:
        raise ToricPolarError(f"intersection of two principal ideals has "
                              f"{len(lcm)} basis elements, not one")
    gcd = (f * g).exact_divide(lcm[0])
    if gcd is None:
        raise ToricPolarError("lcm from the intersection does not divide "
                              "the product")
    return gcd.scaled_to_monic(GREVLEX)


def _running_gcd(polys: Iterable[Polynomial]) -> Polynomial:
    """The gcd of the nonzero polynomials, at least one, as a running gcd
    from the first; it stops at the first constant, which it returns."""
    g = None
    for h in polys:
        if h.is_zero():
            continue
        g = h if g is None else multivariate_gcd(g, h)
        if g.is_constant():
            break
    return g


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
    g = _running_gcd(f.partial_derivative(i) for i in range(f.arity))
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
