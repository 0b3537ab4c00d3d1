"""The Gebauer-Möller update of `buchberger` is `Reducers.update_pairs`,
on the divisibility packs of the entries; the `Reducers` hold the live
pairs' lcms, and `Reducers.widen` re-packs them with the entries.  These
tests pin the update to the same criteria on exponent tuples: the S-pairs
it reduces, their order and the basis must not change, also when the
`Reducers` widen while pairs are live.  On
homogeneous grevlex input `buchberger` also leaves out the rest of a
degree once the complete-intersection bound is met; it then reduces a
subsequence of the reference's pairs that keeps every nonzero reduction.

`tuple_buchberger` below is the reference: the pair loop of `buchberger`
with the update written on exponent tuples, one `exp_divides` test per
candidate pair, and no bound.  It keys its pairs as `buchberger` does:
under a block order the sugar counts degrees in the kept variables only,
and at equal sugar a higher degree of the lcm in the eliminated block
comes first.  Both call `_kernel_py.s_polynomial_remainder` once per
reduced pair, so wrapping it records the pair sequence of either.
On the loops that count the bound (`groebner._hilbert_driven`) both take a
degree's pairs by descending lcm and, when a degree ends, reduce the tails
of its elements by each other with `Reducers.interreduce`.

On those loops `buchberger` also reduces the S-polynomials of a degree as
rows (`_kernel_py._row_remainder`) when the degree has no more monomials
than the basis has terms; `tuple_buchberger` never does.  The last tests
check each row remainder against the heap path on the same `Reducers`,
and which degrees take rows.
"""

import heapq
from operator import add
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricpolar import _kernel_py as kernel
from toricpolar import groebner
from toricpolar.constructions import cremona_poly, verify_propositions
from toricpolar.groebner import Ideal, _hilbert_driven, buchberger
from toricpolar.field import PrimeField
from toricpolar.maps import (RandomizationConfig, multidegrees,
                             random_translate, toric_polar_map)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import GREVLEX, Polynomial, block_order

from conftest import entry_terms
from test_groebner_oracle import (F, fermat_surface, homogeneous_ideals,
                                  small_ideals)


def exp_add(e, d):
    return tuple(map(add, e, d))


def tuple_buchberger(I, order):
    """Generators of the reduced basis of I, with the Gebauer-Möller update
    on exponent tuples and the pair order and interreduction of
    `buchberger`."""
    fld = I.field
    k = fld.kernel
    p = fld.p
    lcm_of = k.exp_lcm
    divides = k.exp_divides
    reducers = k.Reducers(order.code, order.block, I.arity)
    lead, sugar, active, live, heap = [], [], [], {}, []
    gens = sorted(I.generators,
                  key=lambda g: order.key(g.leading_term(order)[0]))
    counting = _hilbert_driven(gens, order, I.arity)
    # under a block order the sugar counts the degree in the kept
    # variables only, and a larger degree in the eliminated block goes first
    block = order.block if order.kind == "block" else 0

    def weight(e):
        return sum(e[block:])

    def append(r, s):
        e = reducers.append_remainder(r, p)
        h = len(lead)
        cand = [(i, lcm_of(lead[i], e)) for i in active]
        kept = []
        while cand:
            i, m = cand.pop()
            if (m == exp_add(lead[i], e)
                    or not any(divides(q, m) for _, q in cand)
                    and not any(divides(q, m) for _, q in kept)):
                kept.append((i, m))
        for (a, b), m in list(live.items()):
            if (divides(e, m) and lcm_of(lead[a], e) != m
                    and lcm_of(lead[b], e) != m):
                del live[(a, b)]
        lead.append(e)
        sugar.append(s)
        dh = weight(e)
        for i, m in kept:
            if m == exp_add(lead[i], e):
                continue
            d = weight(m)
            live[(i, h)] = m
            key = order.key(m)
            if counting:
                key = tuple(-f for f in key)
            if block:
                key = (-sum(m[:block]), key)
            heapq.heappush(heap, (max(sugar[i] + d - weight(lead[i]),
                                      s + d - dh), key, i, h))
        active[:] = [i for i in active if not divides(e, lead[i])]
        active.append(h)

    for g in gens:
        r = k.normal_form_packed(g.terms, reducers, p)
        if r:
            append(r, max(map(weight, g.terms)))
    top, first = 0, len(lead)
    while heap:
        s, _, i, j = heapq.heappop(heap)
        if counting and s > top:
            reducers.interreduce(first, p)
            top, first = s, len(lead)
        m = live.pop((i, j), None)
        if m is None:
            continue
        r = k.s_polynomial_remainder(reducers, i, j, m, p, False)
        if r:
            append(r, s)
    active.sort(key=lambda i: order.key(lead[i]))
    basis = reducers.subset(active)
    k.reduce_tails(basis, p)
    return [Polynomial(fld, I.arity, r, _clean=True)
            for r in entry_terms(basis)]


class PairLog:
    """Records every (i, j, m) reduced, and those whose remainder was
    nonzero, while the context is open."""

    def __init__(self):
        self.pairs = []
        self.nonzero_pairs = []

    @property
    def nonzero(self):
        return len(self.nonzero_pairs)

    def __enter__(self):
        real = kernel.s_polynomial_remainder

        def remainder(reducers, i, j, m, p, rows):
            r = real(reducers, i, j, m, p, rows)
            self.pairs.append((i, j, m))
            if r:
                self.nonzero_pairs.append((i, j, m))
            return r

        self._patch = mock.patch.object(kernel, "s_polynomial_remainder",
                                        remainder)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def same_run(gens, order):
    """Both updates make the same nonzero reductions in the same order and
    return the same basis, element by element.  `buchberger` may leave out
    pairs of a degree whose complete-intersection bound is met; it reduces
    the reference's other pairs, in the same order, and each pair it left
    out reduces to zero in the reference."""
    with PairLog() as packed:
        G = buchberger(Ideal(gens), order)
    with PairLog() as tuples:
        reference = tuple_buchberger(Ideal(gens), order)
    assert packed.nonzero_pairs == tuples.nonzero_pairs
    kept = set(packed.pairs)
    assert packed.pairs == [q for q in tuples.pairs if q in kept]
    assert (set(tuples.pairs) - kept).isdisjoint(tuples.nonzero_pairs)
    assert [g.terms for g in G.generators] == [g.terms for g in reference]
    assert [list(g.terms) for g in G.generators] == [list(g.terms)
                                                     for g in reference]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_ideals(), st.sampled_from([GREVLEX, block_order(1)]))
def test_packed_update_matches_tuple_criteria(ideal, order):
    _, gens = ideal
    same_run(gens, order)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_counting_loops_match_tuple_criteria(ideal):
    """The loops that count the complete-intersection bound: complete
    intersections, common factors, dependent generators and monomials.
    The reference interreduces with the same `Reducers.interreduce`, so a
    wrong interreduction shows in the sympy oracle over the same ideals,
    not here."""
    _, gens = ideal
    same_run(gens, GREVLEX)


@st.composite
def wide_ideals(draw):
    """Small ideals with each variable x_i replaced by x_i^s_i.  Scales of
    97 and 128 give exponents of 256 and more, so the `Reducers`, and with
    them the packs of the pair update, widen to 10 bits and beyond, at the
    first generator or in the middle of the pair loop; mixed scales make
    runs unlike those of the unscaled ideal."""
    n, gens = draw(small_ideals(min_vars=2))
    scale = draw(st.lists(st.sampled_from([1, 2, 97, 128]),
                          min_size=n, max_size=n))
    return [Polynomial(F, n, {tuple(a * s for a, s in zip(e, scale)): c
                              for e, c in g.terms.items()})
            for g in gens]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wide_ideals(), st.sampled_from([GREVLEX, block_order(1)]))
def test_packed_update_matches_tuple_criteria_on_wide_leads(gens, order):
    same_run(gens, order)


def widenings_in_reductions(gens, order):
    """Runs `buchberger` and returns, for each widening of its `Reducers`
    inside `s_polynomial_remainder`, the number of elements then and the
    pairs reduced after it."""
    real_widen = kernel.Reducers.widen
    real_remainder = kernel.s_polynomial_remainder
    reduced = []
    inside = []
    widenings = []

    def widen(self, width):
        before = self.width
        real_widen(self, width)
        if inside and self.width > before:
            widenings.append((len(self.entries), len(reduced)))

    def remainder(reducers, i, j, m, p, rows):
        reduced.append((i, j))
        inside.append(True)
        try:
            return real_remainder(reducers, i, j, m, p, rows)
        finally:
            inside.pop()

    with mock.patch.object(kernel.Reducers, "widen", widen), \
            mock.patch.object(kernel, "s_polynomial_remainder", remainder):
        buchberger(Ideal(gens), order)
    return [(n, reduced[k:]) for n, k in widenings]


def test_widening_in_the_pair_loop_matches_tuple_criteria():
    """Two ideals under block_order(1) whose `Reducers` widen inside a
    reduction, so the pair update reads its packs at the new width.
    x0*x2^90 - x1^3 and x0^3 - x1*x2 + 1 are packed 9 bits wide; a
    remainder has a lead of degree 271 in x2 (the sympy oracle test of
    this ideal checks that), so the fields widen to 10 bits for the lcm of
    a later pair, with five elements.  1 - x0*x1*x2 + x2^3 + x1^20,
    x0^3*x1^3*x2 + x0*x1^3*x2^2 and x0*x1 + x0^2*x2^2 overflow 7-bit
    fields in a reduction, with twelve elements, and double them to 14
    while pairs wait on the heap."""
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    one = Polynomial.constant(F, 3, 1)
    gens = [x0 * x2 ** 90 - x1 ** 3, x0 ** 3 - x1 * x2 + one]
    same_run(gens, block_order(1))
    assert [n for n, _ in widenings_in_reductions(gens, block_order(1))] == [5]
    gens = [one - x0 * x1 * x2 + x2 ** 3 + x1 ** 20,
            x0 ** 3 * x1 ** 3 * x2 + x0 * x1 ** 3 * x2 ** 2,
            x0 * x1 + x0 ** 2 * x2 ** 2]
    same_run(gens, block_order(1))
    [(n, later)] = widenings_in_reductions(gens, block_order(1))
    assert n == 12 and (0, 9) in later


def test_widening_with_live_pairs_matches_tuple_criteria():
    """x0*x2^2 + x0*x1^3*x2^3 + x2^13 and x0^3*x1*x2^2 under
    block_order(1): the fields start 6 bits wide, which holds every
    S-polynomial of two inputs, and widen to 7 for the lcm of a later
    pair, with 17 elements, while the pair (0, 15) waits on the heap, so
    `Reducers.widen` packs its lcm and the others again.  With stale packs
    the B_k guard test drops or keeps pairs against the tuple criteria."""
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    gens = [x0 * x2 ** 2 + x0 * x1 ** 3 * x2 ** 3 + x2 ** 13,
            x0 ** 3 * x1 * x2 ** 2]
    same_run(gens, block_order(1))
    [(n, later)] = widenings_in_reductions(gens, block_order(1))
    assert n == 17 and (0, 15) in later


def test_pair_counts_of_a_verify_pass():
    """One in-process `verify` pass reduces these pairs.  The update on
    exponent tuples reduces the same 2098 pairs: none of the bases of this
    pass has a degree whose complete-intersection bound leaves out a pair.
    The pass runs without TORICPOLAR_DEBUG, whose cross-check of the
    base-locus strata adds the pairs of a basis of the coordinates."""
    with mock.patch.object(groebner, "_DEBUG_CHECK_BASES", False), \
            PairLog() as log:
        results = verify_propositions(RandomizationConfig(seed=0))
    assert all(r.passed for r in results)
    assert (len(log.pairs), log.nonzero) == (2098, 1016)


def test_pair_counts_of_the_quartic_translate_base_ideal():
    """The coordinates of the toric polar map of a general translate of the
    Fermat quartic surface: four quartics in four variables, a complete
    intersection.  The update on exponent tuples reduces 176 pairs, 63 of
    them to nonzero remainders; with the pairs of a degree taken by
    descending lcm, the complete-intersection bound leaves out all 113 that
    reduce to zero."""
    coordinates = toric_polar_map(
        random_translate(fermat_surface(4, PrimeField()), 1)).coordinates
    with PairLog() as packed:
        buchberger(Ideal(coordinates), GREVLEX)
    with PairLog() as tuples:
        tuple_buchberger(Ideal(coordinates), GREVLEX)
    assert (len(tuples.pairs), tuples.nonzero) == (176, 63)
    assert (len(packed.pairs), packed.nonzero) == (63, 63)


def test_pair_counts_of_cremona_4():
    with PairLog() as log:
        values = multidegrees(toric_polar_map(cremona_poly(4))).values
    assert values == (1, 4, 6, 4, 1)
    assert (len(log.pairs), log.nonzero) == (206, 98)


def rows_against_heap(gens):
    """Runs `buchberger` on `gens` under grevlex.  Each pair that it
    reduces on rows is reduced again on the heap path
    (`s_polynomial_remainder` without rows), from the same `Reducers`, and
    the two packed remainders must agree term by term and in order.
    Returns the degree of each pair reduced on rows and of each pair
    reduced."""
    real = kernel._row_remainder
    heap_path = kernel.s_polynomial_remainder  # before `PairLog` wraps it
    rows = []

    def row_remainder(reducers, i, j, m, p):
        r = real(reducers, i, j, m, p)
        heap = heap_path(reducers, i, j, m, p, False)
        assert r == heap
        rows.append(sum(m))
        return r

    with PairLog() as log, \
            mock.patch.object(kernel, "_row_remainder", row_remainder):
        buchberger(Ideal(gens), GREVLEX)
    return rows, [sum(m) for _, _, m in log.pairs]


def in_field(gens, p):
    """The polynomials with the same coefficients over F_p; they are below
    32003, so none vanishes."""
    field = PrimeField(p)
    return [Polynomial(field, g.arity, dict(g.terms)) for g in gens]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(), st.sampled_from([32003, 2**31 - 1]))
def test_row_remainders_match_the_heap_path(ideal, p):
    """About one ideal in five reduces some degree on rows."""
    _, gens = ideal
    rows_against_heap(in_field(gens, p))


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
@pytest.mark.parametrize("k", [3, 4])
def test_row_remainders_match_the_heap_path_on_surface_translates(k, p):
    """The base ideals of the toric polar maps of general translates of the
    Fermat cubic and quartic surfaces: dense forms, whose every degree has
    fewer monomials than the basis has terms, so every pair is reduced on
    rows."""
    coordinates = toric_polar_map(
        random_translate(fermat_surface(k, PrimeField(p)), 1)).coordinates
    rows, pairs = rows_against_heap(coordinates)
    assert rows == pairs != []


def paths_by_degree(gens):
    """{degree: (pairs reduced on rows, pairs reduced on the heap)}."""
    rows, pairs = rows_against_heap(gens)
    return {d: (rows.count(d), pairs.count(d) - rows.count(d))
            for d in pairs}


def test_rows_only_where_the_degree_has_no_more_monomials_than_the_basis():
    """A degree D of an ideal in n variables takes rows when its
    C(D + n - 1, n - 1) monomials are no more than the terms of the basis.
    The quartic translate's 140 terms in 4 variables cover every pair
    degree, 5 to 13; the three degree-12 binomials in four variables, 6
    terms, none of their 40 pairs.  Three trinomial quartics in 3 variables take rows once
    the basis has grown, in degrees 8 to 10, and the heap again in degree
    11, whose 78 monomials outnumber the terms of the interreduced basis."""
    quartic = toric_polar_map(
        random_translate(fermat_surface(4, PrimeField()), 1)).coordinates
    assert paths_by_degree(quartic) == {
        5: (6, 0), 6: (7, 0), 7: (10, 0), 8: (9, 0), 9: (11, 0),
        10: (10, 0), 11: (6, 0), 12: (3, 0), 13: (1, 0)}
    names = ("x0", "x1", "x2", "x3")
    binomials = [parse_polynomial(g, names, F) for g in
                 ("x0^11*x1 - x2^12", "x1^11*x2 - x3^12", "x0*x3^11 - x1^12")]
    paths = paths_by_degree(binomials)
    assert sum(r for r, _ in paths.values()) == 0
    assert sum(h for _, h in paths.values()) == 40
    trinomials = [parse_polynomial(g, names[:3], F) for g in
                  ("x0^4 + x1^3*x2 + x0*x1*x2^2",
                   "x1^4 + 2*x0*x2^3 + x0^2*x1^2",
                   "x2^4 + 3*x0^3*x1 + x1*x2^3")]
    assert paths_by_degree(trinomials) == {
        5: (0, 2), 6: (0, 2), 7: (0, 4), 8: (8, 0), 9: (6, 0), 10: (4, 0),
        11: (0, 2)}
