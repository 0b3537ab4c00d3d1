"""Pure-Python term kernel: sparse polynomial arithmetic over F_p.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
{1, ..., p-1}; the zero polynomial is the empty dict.  All functions here
return fresh dicts and never mutate their arguments, except where noted.

This is the package's only term kernel, whatever the prime.  The
polynomial and Gröbner code call its functions as attributes of this
module, so a wrapper set on the module sees every call.

Monomial-order codes (`kind`):
  0  graded reverse lexicographic
  1  lexicographic
  2  block elimination: grevlex on the first `block` variables, ties broken
     by grevlex on the rest

`order_key` defines each order once, as a tuple of nonnegative linear
forms in the exponents compared left to right: grevlex uses the partial
sums deg, deg - e_{n-1}, deg - e_{n-1} - e_{n-2}, ..., e_0; lex uses the
e_i themselves; a block order uses the grevlex forms of each block.
`leading_exponent` and `MonomialOrder.key` read the order from it.

`normal_form_terms` keeps its pending terms in a heap (Monagan & Pearce,
"Sparse polynomial division using a heap", J. Symbolic Comput. 46, 2011)
and works on packed monomials (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007;
Bachmann & Schönemann, "Monomial representations for Gröbner bases
computations", ISSAC 1998).  A `Reducers` object packs each exponent e
into one int made of two packs, in fields `width` bits wide, each topped
by a guard bit (G is the mask of all guard bits):

  order pack         the order's forms, the first one in the most
                     significant field, so integer comparison is the order;
  divisibility pack  the exponents, one per field, below the order pack, so
                     x^a divides x^b exactly when ((b | G) - a) & G == G.

Both packs are linear in e, so integer addition is monomial multiplication.
The reducers are packed once, when they join a basis.  The width comes
from the data: every form is at most the total degree, and the fields hold
twice the largest total degree of the reducers and of the polynomial being
reduced.  A grevlex reduction never leaves that range; under lex and block
orders a product can.  Its fields are then below twice the field range, so
a guard bit is set.  One retry loop, `_reduce_widening`, serves every
reduction: it re-packs the reducers at twice the width, builds the packed
input again and starts over.  Only the remainder is unpacked; it is the
same dict, in the same insertion order, as a reduction on exponent tuples
gives.

`buchberger` keeps its elements packed from pair to basis.  Each is a
monic entry of one `Reducers` list and has no other copy.
`s_polynomial_remainder` packs the lcm m of two leads once, widening first
to hold twice its degree, and shifts each tail by one int add: its terms
times m / lead are the tail packs plus (pack of m) - (pack of lead), the
second tail's coefficients negated.  The S-polynomial's leading terms
cancel, so they are never built.  The packed remainder, largest term
first, joins the list through `Reducers.append_remainder`: made monic, not
re-packed, only its lead unpacked.  An S-polynomial term that sets a guard
bit goes through the same retry: the S-polynomial is built again from the
re-packed entries.  `reduce_tails` is the final tail-reduction pass and
the one place where whole elements are unpacked.  A remainder does not
depend on the width, so the basis does not either.

The divisor index finds the first reducer whose leading exponent divides
a term without a loop over the reducers.  It is one int of n slots, one
per reducer, the first reducer in the top slot.  A slot is a divisibility
pack (`arity` fields with their guards, g is their mask) with one flag bit
above it.  Slot k holds g - a_k, where a_k is the divisibility pack of
lead k; `ones` holds 1 in every slot.  For a term with divisibility pack b:

  (b * ones + index) & (g * ones)   each slot holds (b | g) - a_k masked to
                                    its guards: no field borrows, so a
                                    guard stays set where a_k <= b there;
  + (flag - g) * ones, & flags      a slot whose guards are all set carries
                                    into its flag bit, and no other does;
  .bit_length()                     the top flag: the first divisor in list
                                    order, or 0 when there is none.

So the divisor chosen, and with it every remainder and basis, is the one a
scan of the list gives.  The order pack is left out of the index: its
forms are linear with nonnegative coefficients, so x^a | x^b already gives
form(a) <= form(b) for every form, and comparing them would only widen the
slots.

The Gebauer-Möller update of `buchberger` works in the same layout and
has none of its own: it reads the divisibility pack of each lead as
`entry lead & low`, and takes `low_guards`, `slot` and `width` from the
`Reducers`.

Pending coefficients are plain ints: a reduction step adds q * c with
q = p - (c_u * inv mod p), and a coefficient is reduced mod p once, when
its term is popped.  A popped coefficient that is 0 mod p is a cancelled
term and is dropped, so remainder coefficients stay in 1..p-1.
"""

from functools import lru_cache, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add, le, mul, or_, sub

GREVLEX = 0
LEX = 1
BLOCK = 2


def _grevlex_forms(e):
    # partial sums e_0 + ... + e_k, largest k first: deg, deg - e_{n-1}, ...
    return tuple(accumulate(e))[::-1]


def _block_forms(block, e):
    # the grevlex forms of e[:block], then those of e[block:]
    return (tuple(accumulate(e[:block]))[::-1]
            + tuple(accumulate(e[block:]))[::-1])


def order_key(kind, block):
    """The order's key: exponent tuple -> tuple of its linear forms.

    A larger key is a larger monomial, and distinct exponents have distinct
    keys, so sorting (or a heap) by key alone gives the order.
    """
    if kind == GREVLEX:
        return _grevlex_forms
    if kind == LEX:
        return tuple
    return partial(_block_forms, block)


def exp_sub(e, d):
    return tuple(map(sub, e, d))


def exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def exp_divides(d, e):
    """True when the monomial x^d divides x^e."""
    return all(map(le, d, e))


def leading_exponent(terms, kind, block):
    """Largest exponent of `terms` in the order, or None when empty."""
    return max(terms, key=order_key(kind, block), default=None)


def add_terms(a, b, p):
    r = dict(a)
    for e, c in b.items():
        s = (r.get(e, 0) + c) % p
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def sub_terms(a, b, p):
    r = dict(a)
    for e, c in b.items():
        s = (r.get(e, 0) - c) % p
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def neg_terms(a, p):
    return {e: p - c for e, c in a.items()}


def scale_terms(a, c, p):
    c %= p
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    r = {}
    for e, v in a.items():
        w = v * c % p
        if w:
            r[e] = w
    return r


def mul_terms(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    r = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = (r.get(e, 0) + ca * cb) % p
            if s:
                r[e] = s
            elif e in r:
                del r[e]
    return r


def _width_for(degree):
    """Field width that holds twice `degree`."""
    return (2 * degree).bit_length()


@lru_cache(maxsize=256)
def _layout(kind, block, arity, width):
    """Weights, guard mask, unpacking shifts and field mask of the packs at
    `width`, then the divisor index's slot width, the mask of the
    divisibility pack and its guards.  The divisibility pack fills fields
    0 .. n-1 and the order pack the fields above it, the first form in the
    top field.  Weight i is the pack of x_i, so the pack of e is the sum of
    e_i times weight i.  An index slot is a divisibility pack with one flag
    bit above it."""
    key = order_key(kind, block)
    step = width + 1
    top = arity + len(key((0,) * arity)) - 1
    weights = []
    for i in range(arity):
        w = 1 << i * step
        for k, f in enumerate(key(tuple(int(j == i) for j in range(arity)))):
            w += f << (top - k) * step
        weights.append(w)
    guards = sum(1 << (j * step + width) for j in range(top + 1))
    low = (1 << arity * step) - 1
    return (tuple(weights), guards, tuple(i * step for i in range(arity)),
            (1 << width) - 1, arity * step + 1, low, guards & low)


class Reducers:
    """Reducers for `normal_form_terms`, packed once under one order.

    `append` adds a reducer: its terms, leading exponent and inverse
    leading coefficient.  Its tail (the terms but the leading one) is packed
    then and kept only packed; `append_remainder` adds a remainder that is
    packed already.  `subset` reuses the packed reducers.  The reductions
    widen the fields in place when a product would overflow them.

    The divisor index has one `slot`-bit slot per reducer, the first
    reducer in the top slot: `index` holds in each slot the divisibility
    guards minus the leading exponent's divisibility pack, and `ones` holds
    1 in each slot.  `append` extends both by one shift-or; `subset` and
    `widen` rebuild them.
    """

    __slots__ = ("kind", "block", "arity", "width", "weights", "guards",
                 "shifts", "mask", "slot", "low", "low_guards", "entries",
                 "index", "ones")

    def __init__(self, kind, block, arity, width=0, entries=()):
        self.kind = kind
        self.block = block
        self.arity = arity
        self._set_width(width)
        self._set_entries(list(entries))

    def _set_width(self, width):
        """Set the field width; entries packed before must be redone."""
        self.width = width
        (self.weights, self.guards, self.shifts, self.mask, self.slot,
         self.low, self.low_guards) = _layout(self.kind, self.block,
                                              self.arity, width)

    def _set_entries(self, entries):
        """Set the entries, packed at this width, and build their index.
        An entry is (packed lead, inverse coefficient, packed tail)."""
        self.entries = entries
        slot = self.slot
        low = self.low
        g = self.low_guards
        index = 0
        for lead, _, _ in entries:
            index = index << slot | g - (lead & low)
        self.index = index
        self.ones = ((1 << slot * len(entries)) - 1) // ((1 << slot) - 1)

    def pack(self, e):
        return sum(map(mul, e, self.weights))

    def unpack(self, x):
        mask = self.mask
        return tuple([x >> s & mask for s in self.shifts])

    def widen(self, width):
        """Re-pack at `width` when it is wider than the current width."""
        if width <= self.width:
            return
        unpack = self.unpack
        plain = [(unpack(lead), inv, [(unpack(x), c) for x, c in tail])
                 for lead, inv, tail in self.entries]
        self._set_width(width)
        pack = self.pack
        self._set_entries([(pack(lead), inv, [(pack(e), c) for e, c in tail])
                           for lead, inv, tail in plain])

    def append(self, terms, lead, inv):
        self.widen(_width_for(max(map(sum, terms))))
        pack = self.pack
        self._add(pack(lead), inv,
                  [(pack(e), c) for e, c in terms.items() if e != lead])

    def append_remainder(self, r, p):
        """Append a packed remainder (largest term first) made monic, as it
        is: its terms fit the fields they were found in.  Returns its
        leading exponent, the only term unpacked."""
        x, c = r[0]
        tail = r[1:]
        if c != 1:
            inv = pow(c, -1, p)
            tail = [(y, d * inv % p) for y, d in tail]
        self._add(x, 1, tail)
        return self.unpack(x)

    def _add(self, x, inv, tail):
        """Add the entry (x, inv, tail) and its slot in the index."""
        self.entries.append((x, inv, tail))
        slot = self.slot
        self.index = self.index << slot | self.low_guards - (x & self.low)
        self.ones = self.ones << slot | 1

    def subset(self, indices):
        """The reducers at `indices`, in that order, sharing this packing."""
        entries = self.entries
        return Reducers(self.kind, self.block, self.arity, self.width,
                        [entries[i] for i in indices])


def normal_form_terms(f, reducers, p):
    """Fully reduce `f` modulo a `Reducers` list.

    Each step reduces the largest pending term by the first reducer whose
    leading exponent divides it.  Returns the remainder, none of whose terms
    is divisible by any leading exponent, with its terms in decreasing
    order (so its first key is its leading exponent).  When a product
    overflows the packed fields, `reducers` is re-packed twice as wide and
    the reduction starts again, so the remainder does not depend on the
    width.
    """
    r = normal_form_packed(f, reducers, p)
    unpack = reducers.unpack
    return {unpack(x): c for x, c in r}


def normal_form_packed(f, reducers, p):
    """The remainder of `normal_form_terms`, left packed at the width of
    `reducers`: (packed exponent, coefficient) pairs, largest first."""
    return _reduce_widening(
        reducers, max(map(sum, f), default=0),
        lambda: {reducers.pack(e): c for e, c in f.items()}, p)


def _reduce_widening(reducers, degree, build, p):
    """Packed remainder of the packed dict that `build()` makes at the
    current width of `reducers`, largest term first.  The fields first hold
    twice `degree`.  When `build` returns None or a product overflows, they
    double and `build` runs again on the re-packed entries, so the
    remainder does not depend on the width."""
    reducers.widen(_width_for(degree))
    while True:
        h = build()
        if h is not None:
            r = _reduce_packed(h, reducers, p)
            if r is not None:
                return r
        reducers.widen(2 * reducers.width)


def _s_polynomial(reducers, i, j, m):
    """The S-polynomial of the monic entries i and j, whose leading
    exponents have lcm m, as a packed dict with plain-int coefficients, or
    None when a term overflows its fields.  The leading terms cancel, so
    only the tails are shifted: by M - lead, M the pack of m."""
    entries = reducers.entries
    x = reducers.pack(m)
    lead, _, tail = entries[i]
    d = x - lead
    h = {t + d: c for t, c in tail}
    lead, _, tail = entries[j]
    d = x - lead
    for t, c in tail:
        e = t + d
        h[e] = h.get(e, 0) - c
    if reduce(or_, h, 0) & reducers.guards:
        return None
    return h


def s_polynomial_remainder(reducers, i, j, m, p):
    """Packed remainder, largest term first, of the S-polynomial of the
    monic entries i and j of `reducers` (their leading exponents have lcm
    m) modulo all the entries.  The fields first hold twice the degree of
    m; on an overflow they double and the S-polynomial is built again from
    the re-packed entries."""
    return _reduce_widening(reducers, sum(m),
                            partial(_s_polynomial, reducers, i, j, m), p)


def reduce_tails(basis, p):
    """The monic entries of `basis`, a minimal basis, each with its tail
    reduced by the others: dicts of unpacked terms, largest first.  No
    lead divides a smaller monomial, so an entry's own lead never divides
    a term of its tail, and each tail is reduced by all the entries; the
    divisor found first is the one the others give.  An overflow widens
    `basis` and starts that entry again."""
    unpack = basis.unpack
    out = []
    for i in range(len(basis.entries)):
        r = _reduce_widening(basis, 0, lambda: dict(basis.entries[i][2]), p)
        f = {unpack(basis.entries[i][0]): 1}
        for x, c in r:
            f[unpack(x)] = c
        out.append(f)
    return out


def _reduce_packed(h, reducers, p):
    """Packed remainder of the packed dict `h`, which it consumes, as
    (exponent, coefficient) pairs in the order they were found, or None
    when a product overflowed its fields.  The keys of `h` must fit the
    fields; its coefficients are plain ints.

    The pending terms live in `h`; every key of `h` has exactly one entry,
    negated, in the heap, which pops the largest monomial first.  A pending
    coefficient is a plain int, reduced mod p only when it is popped; one
    that is then 0 has cancelled and is skipped.  The first divisor of a
    popped term comes from the divisor index in a fixed number of big-int
    operations.  Only a new key can overflow: its fields are below twice the
    field range, so a set guard bit shows it.
    """
    guards = reducers.guards
    entries = reducers.entries
    n = len(entries)
    slot = reducers.slot
    low = reducers.low
    index, ones = reducers.index, reducers.ones
    guard_slots = reducers.low_guards * ones
    flags = ones << slot - 1
    carry = flags - guard_slots
    heap = [-x for x in h]
    heapify(heap)
    r = []
    while heap:
        u = -heappop(heap)
        c = h.pop(u) % p
        if not c:
            continue
        hit = ((((u & low) * ones + index) & guard_slots) + carry
               & flags).bit_length()
        if not hit:
            r.append((u, c))
            continue
        lead, inv, tail = entries[n - hit // slot]
        q = p - c * inv % p
        d = u - lead
        for tx, tc in tail:
            e = tx + d
            s = h.get(e)
            if s is None:
                if e & guards:
                    return None
                h[e] = q * tc
                heappush(heap, -e)
            else:
                h[e] = s + q * tc
    return r


def divide_terms(f, g, p):
    """The quotient f / g when g divides f exactly, else None; g is nonzero.

    A heap division under grevlex on packed monomials: the largest pending
    term is divided by the leading term of g, and the first one that it
    does not divide gives None.  The quotient lists its terms largest
    first.  The leading term of g has the largest total degree of g, so no
    pending term has a larger total degree than f, and fields that hold
    twice the larger of the two degrees never overflow.
    """
    lead = leading_exponent(g, GREVLEX, 0)
    degree = max(sum(lead), max(map(sum, f), default=0))
    weights, guards, shifts, mask = _layout(GREVLEX, 0, len(lead),
                                            _width_for(degree))[:4]
    x = sum(map(mul, lead, weights))
    inv = pow(g[lead], -1, p)
    tail = [(sum(map(mul, e, weights)), c) for e, c in g.items() if e != lead]
    h = {sum(map(mul, e, weights)): c for e, c in f.items()}
    heap = [-u for u in h]
    heapify(heap)
    quotient = []
    while heap:
        u = -heappop(heap)
        c = h.pop(u) % p
        if not c:
            continue
        if ((u | guards) - x) & guards != guards:
            return None
        c = c * inv % p
        d = u - x
        quotient.append((d, c))
        q = p - c
        for tx, tc in tail:
            e = tx + d
            s = h.get(e)
            if s is None:
                h[e] = q * tc
                heappush(heap, -e)
            else:
                h[e] = s + q * tc
    return {tuple([d >> s & mask for s in shifts]): c for d, c in quotient}
