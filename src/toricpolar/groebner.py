"""Buchberger engine with elimination, saturation, intersection and
Hilbert-series extraction of projective dimension and degree.

All operations are pure functions of their inputs; the only internal state
is a per-call memo table in the Hilbert-numerator recursion and the reduced
generators that a `GroebnerBasis` makes on first read and keeps.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from . import _kernel_py
from .errors import PreconditionError, ToricPolarError
from .field import PrimeField
from .poly import GREVLEX, MonomialOrder, Polynomial, block_order

# debug mode: re-verify the defining property of every computed basis
_DEBUG_CHECK_BASES = bool(os.environ.get("TORICPOLAR_DEBUG"))


@dataclass(frozen=True)
class Ideal:
    """Ideal given by generators; zero generators are dropped on creation.

    An empty generator tuple denotes the zero ideal.
    """

    field: PrimeField
    arity: int
    generators: tuple[Polynomial, ...]

    def __init__(self, generators: Sequence[Polynomial], field: PrimeField | None = None,
                 arity: int | None = None):
        gens = tuple(g for g in generators if not g.is_zero())
        if gens:
            field = gens[0].field
            arity = gens[0].arity
            for g in gens:
                if g.field != field or g.arity != arity:
                    raise ValueError("generators from different rings")
        elif field is None or arity is None:
            raise ValueError("zero ideal needs an explicit field and arity")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "generators", gens)


class GroebnerBasis(Ideal):
    """The ideal given by its reduced Gröbner basis under `order`: monic
    generators, no term of one divisible by the leading term of another;
    `leading_exponents()` are their leading exponents.

    It holds the minimal basis that `buchberger` ends at, as packed kernel
    entries sorted by lead (`minimal`, a `_kernel_py.Reducers` list), its
    only copy, and takes their leading exponents (`leads`, in the ring of
    `minimal`) as the pair loop unpacked them.  Its leads are those of the
    reduced basis, so the leads, `len`, the Hilbert data and the
    dimensions read no more.  The first
    read of `generators` reduces its tails in place and unpacks it.  Normal
    forms reduce by it before and after, with the same remainder.
    `minimal` may live in a larger ring: `variables` then gives the
    variable of that ring that each variable of this ring is, and the
    elements use no other; a polynomial to reduce moves into that ring.
    """

    __slots__ = ("order", "_lead_exps", "_minimal", "_variables",
                 "_generators")

    def __init__(self, field: PrimeField, order: MonomialOrder,
                 minimal: _kernel_py.Reducers, leads: Sequence[tuple],
                 variables: Sequence[int] | None = None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "arity", minimal.arity if variables is None
                           else len(variables))
        self.order = order
        self._minimal = minimal
        self._variables = variables
        self._lead_exps = [self._relabel(e) for e in leads]
        self._generators = None

    def _relabel(self, e: tuple) -> tuple:
        v = self._variables
        return e if v is None else tuple(map(e.__getitem__, v))

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        """The reduced basis, made by one tail pass on first read."""
        if self._generators is None:
            basis = self._minimal
            _kernel_py.reduce_tails(basis, self.field.p)
            if _DEBUG_CHECK_BASES and not self._tails_reduced():
                raise ToricPolarError(
                    f"Gröbner basis check failed: the tail pass left a "
                    f"term that a lead divides in the {len(self)}-element "
                    f"basis under the {self.order.kind} order")
            unpack, relabel = basis.unpack, self._relabel
            self._generators = tuple(
                Polynomial(self.field, self.arity,
                           {relabel(unpack(y)): c for y, c in [(x, 1)] + tail},
                           _clean=True)
                for x, tail in basis.entries)
        return self._generators

    def leading_exponents(self) -> tuple[tuple, ...]:
        return tuple(self._lead_exps)

    def _remainder(self, terms: dict) -> dict:
        """The remainder of a term dict of this ring by `minimal`."""
        v = self._variables
        if v is not None:
            # e_k goes to variable v[k] of that ring, the others are 0
            n = self._minimal.arity
            terms = {tuple(map(dict(zip(v, e)).get, range(n), [0] * n)): c
                     for e, c in terms.items()}
        r = _kernel_py.normal_form_terms(terms, self._minimal, self.field.p)
        return r if v is None else {self._relabel(e): c for e, c in r.items()}

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.field != self.field or f.arity != self.arity:
            raise ValueError("polynomial from a different ring")
        return Polynomial(self.field, self.arity, self._remainder(f.terms),
                          _clean=True)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def s_polynomials_reduce_to_zero(self) -> bool:
        """Debug check of the defining property: the S-polynomial of each
        pair of minimal elements, built on term dicts, reduces to zero by
        the same elements, packed (`minimal`).  The minimal basis is a
        Gröbner basis when the reduced one is, so the check runs no tail
        pass and never reads `generators`; it works in the ring of
        `minimal`."""
        p = self.field.p
        basis = self._minimal
        unpack = basis.unpack
        elems = [(unpack(x), {unpack(y): c for y, c in [(x, 1)] + tail})
                 for x, tail in basis.entries]
        for k, (li, fi) in enumerate(elems):
            for lj, fj in elems[k + 1:]:
                s = _s_terms(p, fi, li, fj, lj, _kernel_py.exp_lcm(li, lj))
                if _kernel_py.normal_form_terms(s, basis, p):
                    return False
        return True

    def _tails_reduced(self) -> bool:
        """Debug check of the tail pass: each tail of `minimal` is its own
        normal form, so no lead divides a term of it."""
        p, basis = self.field.p, self._minimal
        unpack = basis.unpack
        for _, tail in basis.entries:
            t = {unpack(y): c for y, c in tail}
            if _kernel_py.normal_form_terms(t, basis, p) != t:
                return False
        return True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self._lead_exps)


def _s_terms(p: int, f: dict, fe: tuple, g: dict, ge: tuple,
             lcm_exp: tuple) -> dict:
    """Terms of the S-polynomial of the monic f and g, given each leading
    exponent.  The debug check builds its S-polynomials here, on term
    dicts, apart from the packed builder that `buchberger` uses."""
    a = _kernel_py.mul_terms(f, {_kernel_py.exp_sub(lcm_exp, fe): 1}, p)
    b = _kernel_py.mul_terms(g, {_kernel_py.exp_sub(lcm_exp, ge): 1}, p)
    return _kernel_py.add_into(a, b.items(), -1, p)


def buchberger(I: Ideal, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Gröbner basis of I; it is unique, so it does not depend on
    the order of the generators or of the pair selection.

    S-pairs wait in a heap keyed, once at creation, by (sugar, key, i, j).
    The sugar strategy (Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC
    1991) ranks a pair by the degree it would have if the input were
    homogenized.  Degrees count the variables outside the eliminated block,
    which weighs 0; grevlex and lex eliminate none, so there every variable
    counts.  An input element's sugar is the largest degree of its terms,
    and the pair of elements i and j with lcm m has sugar max(sugar_i -
    deg lead_i, sugar_j - deg lead_j) + deg m, which its nonzero remainder
    keeps.  Under a block order an input reduced by an earlier one can gain
    degree (t*y + 1 by t - x^5 leaves x^5*y + 1), so its sugar, read from
    its unreduced terms, may lie below the degree of its lead; that only
    moves pairs in the heap, never changes the basis.  The generator
    1 - t*g of `saturate` has the sugar of g, not one more, and the pairs
    through it come with the pairs of the same degree among the generators
    of I.  The key is the lcm in the order, descending, on the loops that
    count the bound below; on the others it is the lcm's degree in the
    eliminated block, higher first, and after it the lcm ascending in the
    order.  So at each sugar the pairs that eliminate t come first, and the
    elements free of t that they make join before the pairs among the
    earlier t-free elements of that sugar are reduced; the update below
    drops many of those, which mostly reduce to zero.  Each new element
    passes through the Gebauer-Möller update (`Reducers.update_pairs`, on
    the divisibility packs of the entries):
    its own pairs are filtered by the M, F and product criteria, old pairs
    by the B_k criterion, and elements whose leading term it divides leave
    the active set.  The `Reducers` hold the live pairs, each lcm packed
    and as a tuple, which gives its heap key and its S-polynomial; a
    dropped old pair is no longer live and is skipped when the heap
    returns it.  The active set ends as the minimal basis, which the
    result keeps packed: one tail-reduction pass turns it into the reduced
    basis when the generators are first read (`GroebnerBasis`), and
    callers that read only leads never run it.

    The elements live only packed, as the entries of one kernel `Reducers`
    list (see `_kernel_py`): a pair's S-polynomial is built from the two
    packed entries, reduced packed, made monic and appended as it is.  The
    inputs are packed once (`_kernel_py.input_remainders`), after one
    widening to a width that holds every S-polynomial of two inputs, and
    reduced in the order of their packed leads, which is the order of
    their leading terms.  Only leading exponents and the lcms of kept
    pairs are unpacked; the active elements are sorted by packed lead at
    the end, and the result takes the leading exponents the loop
    unpacked.  A whole element is unpacked
    only when the generators are read, after the tail-reduction pass.  The
    `Reducers` fields hold twice the degree of a pair's lcm and double when
    a product overflows them, and `Reducers.widen` then re-packs the live
    lcms and the standard set with the entries; the remainders do not
    depend on the width.

    Under grevlex, with r <= arity nonzero homogeneous generators of
    degrees d_1..d_r, the pair loop is Hilbert-driven (Traverso,
    J. Symbolic Comput. 22, 1996).  The bound h is the Hilbert function of
    a complete intersection of those degrees, the coefficients of
    prod(1 - t^d_i) / (1 - t)^arity, and HF(R/I) >= h in every degree D,
    also over F_p: the multiplication map from the sum of the R_(D - d_i)
    to R_D has rank at most its rank for generic forms of those degrees,
    which form a regular sequence.  The elements are homogeneous and the
    sugar is their degree, so the heap returns the pairs degree by degree.
    At the first pair of degree D, the standard monomials of degree D (no
    lead divides them), held by the `Reducers`, are made from those of
    degree D - 1 through the divisor index
    (`Reducers.standard_successors`), and each nonzero remainder of degree
    D takes its lead out of them as it joins (`append_remainder`).  They
    number at least HF(R/I)(D), so once their count c equals h(D) the leads
    span the leading terms of I_D: every remaining pair of degree D would
    reduce to zero and is dropped unreduced, and the same elements join in
    the same order.  Counting stops for the call after the first degree
    that ends with c > h(D), as it does early on an ideal that is not a
    complete intersection, and after a degree whose standard monomials
    outnumber the terms of the elements: the next degree would then cost
    more than a pass over the basis, as on sparse forms of high degree.  A
    count below h(D), or a new lead outside the standard set, is a broken
    invariant and raises `ToricPolarError`.

    Whether a loop counts is decided once, from the generators
    (`_hilbert_driven`), and two rules hold on it to the end, also after
    the count stops.  A degree's pairs come off the heap by descending
    lcm, so the large leads come first and the count meets h(D) sooner.
    When the heap first returns a pair of a higher degree, the elements
    made in the degree just finished reduce each other's tails, last one
    first (`Reducers.interreduce`): an earlier element's tail may hold a
    later lead, and without this pass the reductions of the next degree
    carry those terms.  The elements are forms of that one degree, so the
    pass only cancels terms equal to a lead; leads, the divisor index and
    the standard set do not change.

    On such a loop a degree D also reduces its S-polynomials as rows (the
    `rows` argument of `s_polynomial_remainder`, see `_kernel_py`) when it
    has no more monomials, C(D + arity - 1, arity - 1), than the elements
    have terms, the sum that also stops the count: each S-polynomial is
    one big-int row over the monomials of D, and the row of each reducer
    multiple is built once per degree.  The remainders are those of the
    heap path, so the pairs, elements and basis do not change.  Sparse
    forms of high degree, whose degrees have many more monomials than
    terms, keep the heap path.
    """
    fld = I.field
    p = fld.p

    # the elements, monic, as packed entries; lead[h] is the leading
    # exponent of entry h.  The live pairs are `reducers.pairs`.
    reducers = _kernel_py.Reducers(order.code, order.block, I.arity)
    lead: list[tuple] = []
    excess: list[int] = []  # sugar minus the weight of the lead
    active: list[int] = []
    heap: list[tuple] = []
    gens = I.generators
    counting = _hilbert_driven(gens, order, I.arity)
    # the eliminated block (none under grevlex and lex) weighs 0
    b = order.block

    def weight(e):
        return sum(e[b:])

    if counting:
        # descending lcm within a degree
        def pair_key(m):
            return tuple([-f for f in order.key(m)])
    else:
        # higher degree in the eliminated block first, then the lcm
        def pair_key(m):
            return -sum(m[:b]), order.key(m)

    def append(r: list, s: int):
        e = reducers.append_remainder(r, p)
        h, xh = len(lead), s - weight(e)
        lead.append(e)
        excess.append(xh)
        for i, m in reducers.update_pairs(lead, active):
            heapq.heappush(heap, (max(excess[i], xh) + weight(m),
                                  pair_key(m), i, h))

    for k, r in _kernel_py.input_remainders(reducers, [g.terms for g in gens],
                                            p):
        if r:
            append(r, max(map(weight, gens[k].terms)))

    # while the complete-intersection bound is counted, `reducers.std`
    # holds the standard monomials of degree `deg` and h is the bound in
    # that degree; it is None when the bound is not counted
    if heap and counting:
        bound = _complete_intersection_hilbert(
            [g.total_degree() for g in gens], I.arity)
        reducers.std, deg, h = {0}, 0, bound(0)  # the monomial 1

    # the sugar of the degree that runs, its first element and whether
    # its S-polynomials reduce as rows
    top, first, rows = 0, len(lead), False
    while heap:
        s, _, i, j = heapq.heappop(heap)
        if counting and s > top:
            # degree `top` ended: its elements reduce each other's tails.
            # Degree s reduces on rows when its monomials are no more than
            # the terms of the elements
            reducers.interreduce(first, p)
            top, first = s, len(lead)
            terms = sum(len(tail) + 1 for _, tail in reducers.entries)
            rows = comb(s + I.arity - 1, I.arity - 1) <= terms
        m = reducers.pairs.pop((i, j), None)
        if m is None:
            continue
        while reducers.std is not None and deg < s:
            # degree `deg` ended: stop counting if it ended above its bound,
            # or if the next degree would cost more than a pass over the
            # terms of the elements; else count it
            if len(reducers.std) > h or len(reducers.std) > terms:
                reducers.std = None
                break
            reducers.standard_successors()
            deg += 1
            h = bound(deg)
            if len(reducers.std) < h:
                raise ToricPolarError(
                    f"{len(reducers.std)} standard monomials of degree "
                    f"{deg}, below the complete-intersection bound {h}")
        if reducers.std is not None and len(reducers.std) == h:
            continue  # degree s of the basis is complete
        r = _kernel_py.s_polynomial_remainder(reducers, i, j, m[1], p,
                                              rows)
        if r:
            append(r, s)  # its lead leaves the standard set

    # Every element is reduced by all earlier ones, so no leading term
    # divides a later one and the active elements form a minimal basis.
    # Reducing each by the others keeps its leading term, so the one tail
    # pass that `generators` runs leaves the reduced basis.
    entries = reducers.entries
    active.sort(key=lambda i: entries[i][0])
    result = GroebnerBasis(fld, order, reducers.subset(active),
                           [lead[i] for i in active])
    if _DEBUG_CHECK_BASES and not result.s_polynomials_reduce_to_zero():
        raise ToricPolarError(
            f"Gröbner basis check failed: an S-polynomial of the "
            f"{len(result)}-element basis under the {order.kind} order "
            f"(block {order.block}) does not reduce to zero")
    return result


def _hilbert_driven(gens: Sequence[Polynomial], order: MonomialOrder,
                    arity: int) -> bool:
    """Whether `buchberger` counts the complete-intersection bound on
    these nonzero generators: at most `arity` forms under grevlex."""
    return (order == GREVLEX and len(gens) <= arity
            and all(g.is_homogeneous() for g in gens))


def _complete_intersection_hilbert(degrees: Sequence[int], arity: int):
    """The Hilbert function, as a function of the degree D, of the quotient
    of the polynomial ring in `arity` variables by a complete intersection
    of forms of these degrees: the coefficient of t^D in
    prod(1 - t^d) / (1 - t)^arity."""
    terms = [(k, c) for k, c in
             enumerate(_complete_intersection_numerator(degrees)) if c]
    return lambda D: sum(c * comb(D - k + arity - 1, arity - 1)
                         for k, c in terms if k <= D)


def _eliminate_leading(I: Ideal, k: int,
                       variables: Sequence[int] | None) -> GroebnerBasis:
    """I eliminated by its first k variables, given by its reduced grevlex
    basis in the ring whose variables `variables` maps to those of I (None:
    the ring of I).

    `buchberger` runs under `block_order(k)` (grevlex when k is 0).  An
    element is free of the first k variables exactly when its lead is, and
    no other lead divides its terms, so the kept elements are the reduced
    basis under the induced order, grevlex, with the same leads; they stay
    packed and reduce their tails among themselves on first read.
    """
    G = buchberger(I, block_order(k) if k else GREVLEX)
    kept = [h for h, e in enumerate(G._lead_exps) if not any(e[:k])]
    return GroebnerBasis(I.field, GREVLEX, G._minimal.subset(kept),
                         [G._lead_exps[h] for h in kept], variables)


def eliminate(I: Ideal, drop: Iterable[int]) -> GroebnerBasis:
    """The elimination ideal without the dropped variables, given by its
    reduced grevlex basis.

    The basis lives in the same ring; its generators do not involve the
    dropped variables.  The dropped variables move to the front and
    `_eliminate_leading` eliminates them; the kept elements are relabelled
    back when the generators are first read.
    """
    drop = sorted(set(drop))
    m = I.arity
    if any(not 0 <= v < m for v in drop) or drop and len(drop) >= m:
        raise PreconditionError("dropped variables must be a proper subset")
    # new index -> old index: the dropped variables move to the front
    back = drop + [v for v in range(m) if v not in drop]
    perm = None  # old index -> new index, when that moves a variable
    if back != list(range(m)):
        perm = [0] * m
        for new, old in enumerate(back):
            perm[old] = new
        I = Ideal([g.permute_variables(perm) for g in I.generators],
                  field=I.field, arity=m)
    return _eliminate_leading(I, len(drop), perm)


def saturate(I: Ideal, g: Polynomial) -> GroebnerBasis:
    """I : g^infinity, via an auxiliary variable t and the generator 1 - t*g,
    given by its reduced grevlex basis: t comes first, and
    `_eliminate_leading` eliminates it."""
    if g.is_zero():
        raise PreconditionError("cannot saturate by the zero polynomial")
    if g.field != I.field or g.arity != I.arity:
        raise ValueError("polynomial from a different ring")
    m = I.arity
    lifted = [h.extend_arity(m + 1, 0) for h in I.generators]
    t = Polynomial.variable(I.field, m + 1, 0)
    rab = Polynomial.constant(I.field, m + 1, 1) - t * g.extend_arity(m + 1, 0)
    return _eliminate_leading(
        Ideal(lifted + [rab], field=I.field, arity=m + 1), 1, range(1, m + 1))


def intersect(I: Ideal, J: Ideal) -> GroebnerBasis:
    """The intersection, via t*I + (1-t)*J and elimination of t, which comes
    first (`_eliminate_leading`), given by its reduced grevlex basis."""
    if I.field != J.field or I.arity != J.arity:
        raise ValueError("ideals from different rings")
    m = I.arity
    t = Polynomial.variable(I.field, m + 1, 0)
    one = Polynomial.constant(I.field, m + 1, 1)
    gens = [t * h.extend_arity(m + 1, 0) for h in I.generators]
    gens += [(one - t) * h.extend_arity(m + 1, 0) for h in J.generators]
    return _eliminate_leading(Ideal(gens, field=I.field, arity=m + 1), 1,
                              range(1, m + 1))


# --------------------------------------------------------------------------
# Hilbert series of monomial quotients


def _minimalize_monomials(gens):
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for e in gens:
        if not any(_kernel_py.exp_divides(f, e) for f in out):
            out.append(e)
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_shift(a, s):
    return [0] * s + list(a)


def _complete_intersection_numerator(degrees) -> list[int]:
    """The coefficients of prod(1 - t^d) over `degrees`, lowest first."""
    out = [1]
    for d in degrees:
        out = _poly_add(out, _poly_shift([-c for c in out], d))
    return out


def _hilbert_numerator(gens: list[tuple], memo: dict) -> list[int]:
    """Numerator of the Hilbert series of S/monomial ideal over (1-t)^vars,
    by recursive splitting on a pivot variable."""
    gens = _minimalize_monomials(gens)
    if not gens:
        return [1]
    if any(sum(e) == 0 for e in gens):
        return [0]
    key = frozenset(gens)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # complete intersection base case: pairwise coprime generators
    coprime = True
    seen = set()
    for e in gens:
        sup = {i for i, x in enumerate(e) if x}
        if sup & seen:
            coprime = False
            break
        seen |= sup
    if coprime:
        out = _complete_intersection_numerator([sum(e) for e in gens])
        memo[key] = out
        return out
    # pivot on the most frequent variable
    arity = len(gens[0])
    counts = [0] * arity
    for e in gens:
        for i, x in enumerate(e):
            if x:
                counts[i] += 1
    v = max(range(arity), key=lambda i: counts[i])
    unit = tuple(1 if i == v else 0 for i in range(arity))
    plus = [e for e in gens if e[v] == 0] + [unit]
    colon = [tuple(x - 1 if i == v and x else x for i, x in enumerate(e))
             for e in gens]
    n_plus = _hilbert_numerator(plus, memo)
    n_colon = _hilbert_numerator(colon, memo)
    out = _poly_add(n_plus, _poly_shift(n_colon, 1))
    memo[key] = out
    return out


def _divide_one_minus_t(n: list[int]) -> list[int] | None:
    """Quotient n / (1 - t) when exact, else None."""
    if len(n) == 1:
        return None if n[0] else [0]
    run = 0
    q = []
    for c in n[:-1]:
        run += c
        q.append(run)
    if run + n[-1] != 0:
        return None
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return q


@dataclass(frozen=True)
class HilbertData:
    """Projective dimension and degree read off the Hilbert series.

    `numerator` is the series numerator with all (1-t) factors removed, so
    numerator(1) is nonzero except for the empty scheme.  An empty scheme is
    encoded as projective_dimension -1 with undefined (None) degree.
    """

    numerator: tuple[int, ...]
    projective_dimension: int
    degree: int | None


def _hilbert_data(lead: Sequence[tuple], arity: int) -> HilbertData:
    """Hilbert data of the quotient by the monomial ideal of `lead`."""
    numerator = _hilbert_numerator(list(lead), {})
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    if numerator == [0]:
        return HilbertData((), -1, None)  # unit ideal
    s = 0
    while True:
        q = _divide_one_minus_t(numerator)
        if q is None:
            break
        numerator = q
        s += 1
    krull = arity - s
    if krull <= 0:
        return HilbertData(tuple(numerator), -1, None)
    return HilbertData(tuple(numerator), krull - 1, sum(numerator))


def _homogeneous_basis(I: Ideal) -> GroebnerBasis:
    """A Gröbner basis of the homogeneous ideal I: I itself when it is a
    `GroebnerBasis`, else its grevlex basis; raises `PreconditionError`
    when I is not homogeneous.

    A `GroebnerBasis` whose minimal elements are forms generates a
    homogeneous ideal, and that answers without the tail pass.  Otherwise
    the reduced generators are read: they are forms exactly when the ideal
    is homogeneous.
    """
    basis = isinstance(I, GroebnerBasis)
    if not (basis and _forms(I._minimal)
            or all(g.is_homogeneous() for g in I.generators)):
        raise PreconditionError("Hilbert data needs a homogeneous ideal")
    return I if basis else buchberger(I, GREVLEX)


def _forms(reducers: _kernel_py.Reducers) -> bool:
    """Whether every entry of a `Reducers` list is a form."""
    unpack = reducers.unpack
    for x, tail in reducers.entries:
        d = sum(unpack(x))
        if any(sum(unpack(y)) != d for y, _ in tail):
            return False
    return True


def hilbert_dim_degree(I: Ideal) -> HilbertData:
    """Dimension and degree of Proj of the quotient by a homogeneous ideal.

    A `GroebnerBasis` (the results of `eliminate`, `saturate` and
    `intersect` are) is used as given, since any basis of a homogeneous
    ideal has the same Hilbert function as its ideal of leading terms; any
    other `Ideal` gets its grevlex basis first.  Only leads are read, so a
    `GroebnerBasis` runs no tail pass.
    """
    G = _homogeneous_basis(I)
    return _hilbert_data(G.leading_exponents(), G.arity)


def projective_dimension(I: Ideal) -> int:
    """Dimension of Proj of the quotient by a homogeneous ideal, -1 when it
    is empty; `hilbert_dim_degree(I).projective_dimension` without the
    Hilbert numerator.

    The quotient has the Krull dimension of the quotient by the leading
    monomials, which is the size of the largest set of variables that
    contains the support of no lead (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, ch. 9, §1-3).  A constant lead leaves no
    such set, and a set holds no variable that has a pure-power lead; the
    sets of the other variables are searched by decreasing size as
    bitmasks, against the support bitmasks of the leads that touch no
    pure-power variable.  So an m-primary lead ideal searches nothing.
    The basis is taken as in `hilbert_dim_degree`.
    """
    G = _homogeneous_basis(I)
    supports = {sum(1 << i for i, x in enumerate(e) if x)
                for e in G.leading_exponents()}
    if 0 in supports:
        return -1
    pure = sum(s for s in supports if not s & s - 1)
    rest = [i for i in range(G.arity) if not pure >> i & 1]
    supports = [s for s in supports if not s & pure]
    for size in range(len(rest), 0, -1):
        for chosen in combinations(rest, size):
            free = sum(1 << i for i in chosen)
            if all(s & ~free for s in supports):
                return size - 1
    return -1


def vector_space_dimension(I: Ideal) -> int:
    """Dimension of the quotient by a zero-dimensional affine ideal.

    The number of standard monomials: the Hilbert series of the leading
    term ideal is then a polynomial, and its value at 1 is the count.  A
    `GroebnerBasis` is used as given, any other `Ideal` gets its grevlex
    basis first.  Input with positive-dimensional quotient is rejected.
    """
    G = I if isinstance(I, GroebnerBasis) else buchberger(I, GREVLEX)
    data = _hilbert_data(G.leading_exponents(), G.arity)
    if data.projective_dimension >= 0:
        raise PreconditionError("ideal is not zero-dimensional")
    return sum(data.numerator)
