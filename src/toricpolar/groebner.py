"""Buchberger engine with elimination, saturation, intersection and
Hilbert-series extraction of projective dimension and degree.

All operations are pure functions of their inputs; the only internal state
is a per-call memo table in the Hilbert-numerator recursion.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
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
    `leads` are their leading exponents.
    """

    __slots__ = ("order", "_lead_exps", "_reducers")

    def __init__(self, field: PrimeField, arity: int, order: MonomialOrder,
                 generators: Sequence[Polynomial], leads: Sequence[tuple]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "generators", tuple(generators))
        self.order = order
        self._lead_exps = list(leads)
        self._reducers = None

    def leading_exponents(self) -> tuple[tuple, ...]:
        return tuple(self._lead_exps)

    def _packed(self):
        """The generators packed as kernel reducers, on first use (most
        bases only give their leading exponents)."""
        if self._reducers is None:
            red = _kernel_py.Reducers(self.order.code, self.order.block,
                                      self.arity)
            for g, e in zip(self.generators, self._lead_exps):
                red.append(g.terms, e, self.field.inv(g.terms[e]))
            self._reducers = red
        return self._reducers

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.field != self.field or f.arity != self.arity:
            raise ValueError("polynomial from a different ring")
        r = _kernel_py.normal_form_terms(f.terms, self._packed(),
                                         self.field.p)
        return Polynomial(self.field, self.arity, r, _clean=True)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def s_polynomials_reduce_to_zero(self) -> bool:
        """Debug check of the defining property."""
        p = self.field.p
        lead, elems = self._lead_exps, self.generators
        invs = [self.field.inv(g.terms[e]) for g, e in zip(elems, lead)]
        reducers = self._packed()
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                s = _s_terms(p, elems[i].terms, lead[i], invs[i],
                             elems[j].terms, lead[j], invs[j],
                             _kernel_py.exp_lcm(lead[i], lead[j]))
                if _kernel_py.normal_form_terms(s, reducers, p):
                    return False
        return True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _s_terms(p: int, f: dict, fe: tuple, f_inv: int, g: dict, ge: tuple,
             g_inv: int, lcm_exp: tuple) -> dict:
    """Terms of the S-polynomial of f and g, given each leading exponent and
    the inverse of each leading coefficient.  The debug check builds its
    S-polynomials here, on term dicts, apart from the packed builder that
    `buchberger` uses."""
    a = _kernel_py.mul_terms(f, {_kernel_py.exp_sub(lcm_exp, fe): f_inv}, p)
    b = _kernel_py.mul_terms(g, {_kernel_py.exp_sub(lcm_exp, ge): g_inv}, p)
    return _kernel_py.sub_terms(a, b, p)


def buchberger(I: Ideal, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Gröbner basis of I; it is unique, so it does not depend on
    the order of the generators or of the pair selection.

    S-pairs wait in a heap keyed, once at creation, by (sugar, lcm in the
    order, i, j); the sugar strategy (Giovini, Mora, Niesi, Robbiano and
    Traverso, ISSAC 1991) ranks a pair by the degree it would have if the
    input were homogenized, which matters because the generator 1 - t*g of
    `saturate` makes the ideal inhomogeneous.  Each new element passes
    through the Gebauer-Möller update (J. Symbolic Comput. 6, 1988): its own
    pairs are filtered by the M, F and product criteria, old pairs by the
    B_k criterion, and elements whose leading term it divides leave the
    active set.  A dropped old pair is deleted from `live` and skipped when
    the heap returns it.  The active set ends as the minimal basis, which
    one tail-reduction pass turns into the reduced basis.

    The update reads the divisibility packs that the `Reducers` keep (see
    `_kernel_py`): exponent i in field i, `width` bits and a guard bit per
    field.  A lead's pack is the low part of its entry, and the guards,
    slot and width are those of the `Reducers`.  Each live pair keeps its
    lcm as a pack and a tuple; the tuple gives its heap key, the B_k tuple
    check and its S-polynomial.  The reductions may widen the fields; the
    next `append` then packs the live lcms again from their tuples.  B_k
    tests each live pair with one guard test and builds tuple lcms only for
    the pairs whose lcm the new lead divides.  The active leads sit side by
    side in one int, one slot each with a flag bit on top, so a few big-int
    operations give lcm(lead, e) in every slot and the flags of the leads
    that e divides; one more batch per candidate gives the flags of the
    candidates whose lcm divides its own.  The pairs that survive, and
    their order, are those of the same criteria on exponent tuples.

    The elements live only packed, as the entries of one kernel `Reducers`
    list (see `_kernel_py`): a pair's S-polynomial is built from the two
    packed entries, reduced packed, made monic and appended as it is.  Only
    leading exponents are unpacked, the lcms of kept pairs, and the
    generators' remainders, for their sugar; a whole element is unpacked
    once, when the tail-reduction pass returns it.  The `Reducers` fields
    hold twice the degree of a pair's lcm and double when a product
    overflows them; the remainders do not depend on the width.
    """
    fld = I.field
    p = fld.p
    lcm_of = _kernel_py.exp_lcm

    # the elements, monic, as packed entries; lead[h] is the leading
    # exponent of entry h.  `live` maps each live pair to its lcm, packed
    # at `width`, and as a tuple.
    reducers = _kernel_py.Reducers(order.code, order.block, I.arity)
    lead: list[tuple] = []
    sugar: list[int] = []
    active: list[int] = []
    live: dict[tuple[int, int], tuple[int, tuple]] = {}
    heap: list[tuple] = []
    width = reducers.width

    def append(r: list, s: int):
        nonlocal width
        low = reducers.low
        if reducers.width != width:
            # the reductions widened the fields since the last append
            width = reducers.width
            pack = reducers.pack
            live.update([(ab, (pack(m) & low, m))
                         for ab, (_, m) in live.items()])
        guards = reducers.low_guards
        slot = reducers.slot
        e = reducers.append_remainder(r, p)
        entries = reducers.entries
        x = entries[-1][0] & low
        h = len(lead)
        dh = sum(e)
        # B_k: drop (a, b) when lead(h) divides its lcm strictly on both
        # sides; one guard test per pair, tuple lcms only where it divides
        for ab in [ab for ab, (m, _) in live.items()
                   if ((m | guards) - x) & guards == guards]:
            m = live[ab][1]
            if lcm_of(lead[ab[0]], e) != m and lcm_of(lead[ab[1]], e) != m:
                del live[ab]
        # the active leads side by side, active[c] in slot c (slot 0 the
        # lowest); in each field t keeps its guard where lead >= e, so M
        # holds lcm(lead, e) in every slot
        n = len(active)
        ones = ((1 << n * slot) - 1) // ((1 << slot) - 1)
        gs = guards * ones
        flags = ones << slot - 1
        carry = flags - gs
        A = 0
        for i in reversed(active):
            A = A << slot | entries[i][0] & low
        X = x * ones
        t = ((A | gs) - X) & gs
        f = t - (t >> width)
        M = A & f | X & ~f
        # pairs (i, h): M and F criteria against the other new pairs; pairs
        # with coprime leading terms serve as witnesses, then the product
        # criterion drops them.  A candidate is dropped when the lcm of a
        # lower slot, or of a slot kept already, divides its own; a kept
        # one goes on the heap.
        full = (1 << slot) - 1
        below = (1 << n * slot) - 1
        seen = 0
        for c in range(n - 1, -1, -1):
            below >>= slot
            i = active[c]
            m = M >> c * slot & full
            if m != (A >> c * slot & full) + x:
                hits = (((m * ones | gs) - M & gs) + carry) & flags
                if hits & (seen | below):
                    continue
                mt = reducers.unpack(m)
                live[(i, h)] = (m, mt)
                d = sum(mt)
                heapq.heappush(heap, (max(sugar[i] + d - sum(lead[i]),
                                          s + d - dh), order.key(mt), i, h))
            seen |= 1 << (c + 1) * slot - 1
        lead.append(e)
        sugar.append(s)
        # the active leads that lead(h) divides leave the active set
        gone = (t + carry) & flags
        if gone:
            active[:] = [i for c, i in enumerate(active)
                         if not gone >> (c + 1) * slot - 1 & 1]
        active.append(h)

    gens = sorted(I.generators, key=lambda g: order.key(g.leading_term(order)[0]))
    for g in gens:
        r = _kernel_py.normal_form_packed(g.terms, reducers, p)
        if r:
            append(r, max(g.total_degree(),
                          max(sum(reducers.unpack(x)) for x, _ in r)))

    while heap:
        s, _, i, j = heapq.heappop(heap)
        m = live.pop((i, j), None)
        if m is None:
            continue
        r = _kernel_py.s_polynomial_remainder(reducers, i, j, m[1], p)
        if r:
            append(r, s)

    # Every element is reduced by all earlier ones, so no leading term
    # divides a later one and the active elements form a minimal basis.
    # Reducing each by the others keeps its leading term, so one pass
    # leaves the reduced basis.
    active.sort(key=lambda i: order.key(lead[i]))
    tails = _kernel_py.reduce_tails(reducers.subset(active), p)
    reduced = [Polynomial(fld, I.arity, r, _clean=True) for r in tails]
    result = GroebnerBasis(fld, I.arity, order, reduced,
                           [lead[i] for i in active])
    if _DEBUG_CHECK_BASES and not result.s_polynomials_reduce_to_zero():
        raise ToricPolarError(
            f"Gröbner basis check failed: an S-polynomial of the "
            f"{len(result)}-element basis under the {order.kind} order "
            f"(block {order.block}) does not reduce to zero")
    return result


def _adjoin_variable_first(g: Polynomial) -> Polynomial:
    return g.extend_arity(g.arity + 1, 0)


def eliminate(I: Ideal, drop: Iterable[int]) -> GroebnerBasis:
    """The elimination ideal without the dropped variables, given by its
    reduced grevlex basis.

    The basis lives in the same ring; its generators do not involve the
    dropped variables.  `buchberger` runs under the block order that puts
    the dropped variables first (grevlex when nothing is dropped), and the
    elements whose leads are free of them are kept: they are the reduced
    basis under the order induced on the kept variables, which is grevlex,
    with the same leads.
    """
    drop = sorted(set(drop))
    m = I.arity
    if any(not 0 <= v < m for v in drop) or drop and len(drop) >= m:
        raise PreconditionError("dropped variables must be a proper subset")
    k = len(drop)
    # new index -> old index: the dropped variables move to the front; they
    # are there already when saturate and intersect drop x_0
    back = drop + [v for v in range(m) if v not in drop]
    relabel = back != list(range(m))
    if relabel:
        perm = [0] * m  # old index -> new index
        for new, old in enumerate(back):
            perm[old] = new
        I = Ideal([g.permute_variables(perm) for g in I.generators],
                  field=I.field, arity=m)
    G = buchberger(I, block_order(k) if k else GREVLEX)
    # an element is free of the dropped variables exactly when its
    # block-order lead is
    kept =[(g, e) for g, e in zip(G.generators, G.leading_exponents())
            if not any(e[:k])]
    if relabel:
        kept = [(g.permute_variables(back), tuple(map(e.__getitem__, perm)))
                for g, e in kept]
    return GroebnerBasis(I.field, m, GREVLEX, [g for g, _ in kept],
                         [e for _, e in kept])


def _eliminate_first_variable(J: Ideal) -> GroebnerBasis:
    """J eliminated by x_0, in the ring without x_0."""
    E = eliminate(J, [0])
    return GroebnerBasis(J.field, J.arity - 1, GREVLEX,
                         [g.drop_variable(0) for g in E.generators],
                         [e[1:] for e in E.leading_exponents()])


def saturate(I: Ideal, g: Polynomial) -> GroebnerBasis:
    """I : g^infinity, via an auxiliary variable t and the generator 1 - t*g,
    given by its reduced grevlex basis."""
    if g.is_zero():
        raise PreconditionError("cannot saturate by the zero polynomial")
    if g.field != I.field or g.arity != I.arity:
        raise ValueError("polynomial from a different ring")
    m = I.arity
    lifted = [_adjoin_variable_first(h) for h in I.generators]
    t = Polynomial.variable(I.field, m + 1, 0)
    rab = Polynomial.constant(I.field, m + 1, 1) - t * _adjoin_variable_first(g)
    return _eliminate_first_variable(
        Ideal(lifted + [rab], field=I.field, arity=m + 1))


def intersect(I: Ideal, J: Ideal) -> GroebnerBasis:
    """The intersection, via t*I + (1-t)*J and elimination, given by its
    reduced grevlex basis."""
    if I.field != J.field or I.arity != J.arity:
        raise ValueError("ideals from different rings")
    m = I.arity
    t = Polynomial.variable(I.field, m + 1, 0)
    one = Polynomial.constant(I.field, m + 1, 1)
    gens = [t * _adjoin_variable_first(h) for h in I.generators]
    gens += [(one - t) * _adjoin_variable_first(h) for h in J.generators]
    return _eliminate_first_variable(
        Ideal(gens, field=I.field, arity=m + 1))


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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
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
        out = [1]
        for e in gens:
            out = _poly_mul(out, _poly_add([1], _poly_shift([-1], sum(e))))
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


def hilbert_dim_degree(I: Ideal) -> HilbertData:
    """Dimension and degree of Proj of the quotient by a homogeneous ideal.

    A `GroebnerBasis` (the results of `eliminate`, `saturate` and
    `intersect` are) is used as given, since any basis of a homogeneous
    ideal has the same Hilbert function as its ideal of leading terms; any
    other `Ideal` gets its grevlex basis first.
    """
    if not all(g.is_homogeneous() for g in I.generators):
        raise PreconditionError("Hilbert data needs a homogeneous ideal")
    G = I if isinstance(I, GroebnerBasis) else buchberger(I, GREVLEX)
    return _hilbert_data(G.leading_exponents(), G.arity)


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
