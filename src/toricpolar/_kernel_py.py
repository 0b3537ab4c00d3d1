"""Pure-Python term kernel: sparse polynomial arithmetic over F_p.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
{1, ..., p-1}; the zero polynomial is the empty dict.  All functions here
return fresh dicts and never mutate their arguments, except where noted.

This is the package's only term kernel, whatever the prime.  The
polynomial and Gröbner code call its functions as attributes of this
module, so a wrapper set on the module sees every call.

`substitute_terms` is the one substitution.  `Polynomial.substitute` calls
it on one polynomial; a slice calls it on all of its restricted
combinations at once (`maps._restrict_to_subspace`), so their shared
monomials' images are built once.  Images and powers come from
`mul_terms`; the images add into one dict per polynomial through
`add_into`, the one accumulator of term sums: one reduction mod p per
added term, a key whose sum reaches 0 dropped, new keys in arrival order.
Every term-dict sum of the package goes through it; only `mul_terms`
keeps the same rule fused into its product loop, which is faster.

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

`_reduce_packed` is the one heap loop: every normal form, every input
and heap-path S-pair of `buchberger`, every tail pass and every exact
division keeps its pending terms in its heap (Monagan & Pearce, "Sparse
polynomial division using a heap", J. Symbolic Comput. 46, 2011) and works
on packed monomials (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007;
Bachmann & Schönemann, "Monomial representations for Gröbner bases
computations", ISSAC 1998).  A `Reducers` entry is a monic polynomial,
(packed lead, packed tail).  Each exponent e is packed into one int made
of two packs, in fields `width` bits wide, each topped by a guard bit (G
is the mask of all guard bits):

  order pack         the order's forms, the first one in the most
                     significant field, so integer comparison is the order;
  divisibility pack  the exponents, one per field, below the order pack, so
                     x^a divides x^b exactly when ((b | G) - a) & G == G.

Both packs are linear in e, so integer addition is monomial multiplication.
The reducers are packed once, by `Reducers.append_remainder`, the one
way in and the kernel's one inverse: it makes each reducer monic.  The
width comes from the data: every form is at most the total degree, and
the fields hold twice the largest total degree of the reducers and of the
polynomial being reduced.  A grevlex reduction never leaves that range; under lex and block
orders a product can.  Its fields are then below twice the field range, so
a guard bit is set.  One retry loop, `_reduce_widening`, serves every
reduction: its caller builds the packed input once, and on an overflow the
loop re-packs the reducers at twice the width, builds the packed input
again and starts over.  Only the remainder is unpacked; it is the same
dict, in the same insertion order, as a reduction on exponent tuples
gives.  Exact division is such a normal form too: `divide_terms` reduces
z * f by the one entry z * g - 1, z one more variable (see there).

`buchberger` keeps its elements packed from pair to basis.  Each is an
entry of one `Reducers` list and has no other copy.  Its inputs are
packed once, by `input_remainders`: the fields widen once, to a width that
holds every S-polynomial of two inputs (twice 2d: d is the largest input
degree, and an lcm of two leads has degree at most 2d), each input is
packed, the inputs go by packed lead, and each is reduced from its pack,
which is made again from its term dict only after an overflow has widened
the fields.  So a pair of two inputs finds the fields wide enough for its
lcm and re-packs nothing unless a reduction overflows.
`s_polynomial_remainder` packs the lcm m of two leads once, widening first
to hold twice its degree, and shifts each tail by one int add: its terms
times m / lead are the tail packs plus (pack of m) - (pack of lead), the
second tail's coefficients negated.  The S-polynomial's leading terms
cancel, so they are never built.  The packed remainder, largest term
first, joins the list through `Reducers.append_remainder`: made monic, not
re-packed, only its lead unpacked.  An S-polynomial term that sets a guard
bit goes through the same retry: the S-polynomial is built again from the
re-packed entries.  On the loops that count the complete-intersection
bound, `Reducers.interreduce` reduces the tails of one degree's elements
by each other, in place and packed, when that degree ends.

On those loops `buchberger` may also have `s_polynomial_remainder` reduce
the S-polynomials of a degree D as rows (its `rows` argument), the shared
reducer rows of F4 (Faugère, J. Pure Appl. Algebra 139, 1999) in their
smallest form: one pair at a time, with the steps and remainder of the
heap path.  The columns are the monomials of degree D, as full packs in
ascending order, so a higher column is a larger monomial; they come from
those of degree D - 1 through `Reducers._successors`, the enumerator that
`standard_successors` uses too.  A row is one Python int with one W-bit
slot per column, W = 2 bits(p) + bits(columns + 2) + 1: each step adds
q * c < p^2 to a slot at most once, and there are at most `columns` steps,
so no slot carries into the next and `bit_length()` finds the leading
term.  Each step takes the top slot, reduces it mod p and clears it; the
row of a reducer multiple is built once per degree and kept on the
`Reducers` until `Reducers._set_columns` builds columns again, the one
place that drops the rows.  `widen` re-packs the columns and the row keys:
packs keep the monomial order at every width, so the columns stay sorted,
and a row's slots are column positions, so a row stays as it is.  The
S-polynomial's first half, (m / lead_i) tail_i, is the row of m's reducer
multiple when entry i is m's first divisor, so it is read from those rows,
or built into them; only when an earlier entry divides m first is it built
apart.
`buchberger` asks for rows in a degree only when its C(D + n - 1, n - 1)
monomials are no more than the terms of the elements, so sparse forms of
high degree keep the heap.
`reduce_tails` is the final tail-reduction pass, run when a basis's
generators are first read.  It reduces each tail in place, so the basis
goes on reducing normal forms with the same entries, now the reduced
basis.  A remainder does not depend on the width, so the basis does not
either.

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
scan of the list gives.  Each step checks the reducer the index names: its
lead a divides the term u exactly when u - a sets no guard bit, so a
stale index raises `ToricPolarError` instead of stepping by a lead that
does not divide the term, which would overflow on every retry.  The order
pack is left out of the index: its forms are linear with nonnegative
coefficients, so x^a | x^b already gives form(a) <= form(b) for every
form, and comparing them would only widen the slots.
`Reducers.standard_successors` runs the same test on the monomials of one
degree, to find those that no leading exponent divides, for the
complete-intersection bound of `buchberger`.

The Gebauer-Möller update of `buchberger` is `Reducers.update_pairs`, in
the same layout: the `Reducers` hold the live pairs, each lcm as a
divisibility pack beside its tuple, and on the counting loops the
standard set.  `Reducers.widen` re-packs them with the entries, so no
other code reads the layout and no other code re-packs.

Pending coefficients are plain ints: a reduction step by a monic entry
adds q * c with q = p - c_u, and a coefficient is reduced mod p once, when
its term is popped.  A popped coefficient that is 0 mod p is a cancelled
term and is dropped, so remainder coefficients stay in 1..p-1.

A `Reducers` list may also hold two lanes, two polynomials with the same
leads (`lane`, the field width W, is then nonzero), as `buchberger` runs
two trials of one slice.  A reduced coefficient is c0 + c1 2^W, each lane
in 0..p-1; a pending one keeps lane 0 in field 0 and lane 1 in field 2
of W bits, field 1 taking the cross terms, so that the one product
q * c of a step, q = p - c_u in each lane, updates both lanes at once.
`lane_terms` lays out the inputs, `_s_polynomial` takes its tails to the
pending layout and negates the second in each lane as p - c, and
`_reduce_packed` reduces each lane of a popped coefficient mod p: 0 in
both lanes is a cancelled term, 0 in one lane a term that lane lacks.
A step by a coefficient that is 0 in one lane adds only multiples of p
there, so each lane's remainder is its own normal form.  `append_remainder` makes
each lane monic with one inverse, 1/c0 = c1/(c0 c1), and a lead that is 0
in one lane raises `LaneDivergence`: the lanes' leads part there, and each
must run alone.  Each step adds less than 2p^2 to a field, which starts
below 4p, so `lane_width` sizes W for `LANE_STEPS` steps, and a two-lane
reduction that pops more terms raises `ToricPolarError` before a field
can carry into the next.  `split_lanes` gives each lane as a list of its
own.  Counting loops, rows, tail passes and normal forms run one lane.
"""

from functools import lru_cache, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add, le, mul, or_, sub

from .errors import LaneDivergence, ToricPolarError

GREVLEX = 0
LEX = 1
BLOCK = 2

# the most terms that one two-lane reduction pops; `lane_width` sizes the
# lane fields for it
LANE_STEPS = 1 << 32


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


def add_into(r, terms, c, p):
    """Add c times each (exponent, coefficient) pair of `terms` into the
    dict `r`, in place, and return `r`.

    This is the package's one accumulator: each sum is reduced mod p once
    per added term, a key whose sum reaches 0 is dropped, and a new key
    goes last, so a key that cancels and comes back goes last too.
    """
    for e, v in terms:
        s = (r.get(e, 0) + c * v) % p
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def mul_terms(a, b, p):
    # the rule of `add_into`, fused into the product loop
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


def pow_terms(a, n, p):
    """a^n for n >= 1, by square-and-multiply on `mul_terms`."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul_terms(result, a, p)
        a = mul_terms(a, a, p) if n > 1 else a
        n >>= 1
    return result


def substitute_terms(polys, images, arity, p):
    """Each of `polys` with variable i replaced by images[i], a polynomial
    in `arity` variables.

    Within one call each power of an image and each distinct monomial's
    image is built once, so polynomials with shared monomials share their
    images.  A monomial's image is the product, by `mul_terms`, of its
    variables' powers in variable order, and images[i]^x is
    images[i]^(x-1) * images[i].  Each term c * x^e adds c times the image
    of x^e by `add_into`, so the result is the same dict, in the same
    insertion order, as adding the terms' images one after another.
    """
    one = (0,) * arity
    powers = [[None, g] for g in images]  # powers[i][x] is images[i]^x
    cache = {}
    out = []
    for f in polys:
        r = {}
        for e, c in f.items():
            img = cache.get(e)
            if img is None:
                for i, x in enumerate(e):
                    if x:
                        row = powers[i]
                        while len(row) <= x:
                            row.append(mul_terms(row[-1], row[1], p))
                        img = row[x] if img is None else mul_terms(img, row[x], p)
                cache[e] = img = {one: 1} if img is None else img
            add_into(r, img.items(), c, p)
        out.append(r)
    return out


def lane_width(p):
    """W, the bits of one lane field at the prime p: a pending field never
    reaches 2^W in a reduction that pops at most `LANE_STEPS` terms.  A
    field starts below 4p and each step adds less than 2p^2 to it, so it
    stays below 2 (LANE_STEPS + 1) p^2 < 2^W."""
    return 2 * p.bit_length() + (LANE_STEPS + 1).bit_length() + 1


def lane_layout(p):
    """The `lane` and `neg` of a two-lane `Reducers` at the prime p: the
    field width `lane_width(p)`, and p in each lane in the pending layout,
    which a negated coefficient adds to stay nonnegative."""
    lane = lane_width(p)
    return lane, (p + (p << lane)) * (1 + (1 << lane))


def lane_terms(fs, lane):
    """The term dicts `fs` of two lanes as one term dict: each coefficient
    in the pending layout, lane 0 in field 0 and lane 1 in field 2 of
    `lane` bits each; a term that a lane lacks is 0 there."""
    f0, f1 = fs
    out = dict(f0)
    for e, c in f1.items():
        out[e] = out.get(e, 0) | c << 2 * lane
    return out


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
    """Monic reducers for `normal_form_terms`, packed once under one order.
    `lane` and `neg` are 0, or the layout of two lanes (`lane_layout`).

    An entry is (packed lead, packed tail), a monic polynomial, its tail
    (pack, coefficient) pairs.  `append_remainder`, the one way in, makes
    a packed polynomial monic.  `subset` reuses the packed entries.  The
    reductions widen the fields in place when a product would overflow
    them.

    The divisor index has one `slot`-bit slot per entry, the first entry
    in the top slot: `index` holds in each slot the divisibility guards
    minus the leading exponent's divisibility pack, and `ones` holds 1 in
    each slot; `index_masks` gives them with the masks of the test.
    `append_remainder` extends both by one shift-or; `subset` and `widen`
    rebuild them.

    The row path (`_row_remainder`) keeps two caches.  `columns` is None or
    the degree of the last rows, its monomials as ascending packs, the
    column of each pack and the slot width.  `rows` maps
    each reduced monomial of that degree, and each lcm whose pair's first
    entry is its first divisor, to the row of its reducer multiple;
    `_set_columns`, which builds the columns, sets it empty.

    The pair state of `buchberger` lives here too.  `pairs` maps each live
    pair (i, j) to its lcm as a divisibility pack and as a tuple;
    `update_pairs` fills and prunes it.  `std` is None or the standard
    monomials of one degree as divisibility packs; `standard_successors`
    advances it and `append_remainder` takes each new lead out of it.
    `widen`, the one re-packing, re-packs both with the entries, and the
    columns and row keys too.
    """

    __slots__ = ("kind", "block", "arity", "width", "weights", "guards",
                 "shifts", "mask", "slot", "low", "low_guards", "entries",
                 "index", "ones", "columns", "rows", "pairs", "std", "lane",
                 "neg")

    def __init__(self, kind, block, arity, width=0, entries=(), lane=0,
                 neg=0):
        self.kind = kind
        self.block = block
        self.arity = arity
        self.lane = lane
        self.neg = neg
        self.columns = None
        self.pairs = {}
        self.std = None
        self._set_width(width)
        self._set_entries(list(entries))

    def _set_width(self, width):
        """Set the field width; entries packed before must be redone."""
        self.width = width
        (self.weights, self.guards, self.shifts, self.mask, self.slot,
         self.low, self.low_guards) = _layout(self.kind, self.block,
                                              self.arity, width)

    def _set_entries(self, entries):
        """Set the entries, packed at this width, and build their index."""
        self.entries = entries
        slot = self.slot
        low = self.low
        g = self.low_guards
        index = 0
        for lead, _ in entries:
            index = index << slot | g - (lead & low)
        self.index = index
        self.ones = ((1 << slot * len(entries)) - 1) // ((1 << slot) - 1)

    def pack(self, e):
        return sum(map(mul, e, self.weights))

    def unpack(self, x):
        mask = self.mask
        return tuple([x >> s & mask for s in self.shifts])

    def widen(self, width):
        """Re-pack at `width` when it is wider than the current width: the
        entries, the lcms of the live pairs, the standard set, and the
        columns of the row path and the keys of their rows."""
        if width <= self.width:
            return
        unpack = self.unpack
        plain = [(unpack(lead), [(unpack(x), c) for x, c in tail])
                 for lead, tail in self.entries]
        std = None if self.std is None else [unpack(x) for x in self.std]
        columns = self.columns
        if columns is not None:
            degree, xs, _, w = columns
            xs = [unpack(x) for x in xs]
            rows = [(unpack(x), row) for x, row in self.rows.items()]
        self._set_width(width)
        pack = self.pack
        low = self.low
        self._set_entries([(pack(lead), [(pack(e), c) for e, c in tail])
                           for lead, tail in plain])
        self.pairs.update([(ab, (pack(m) & low, m))
                           for ab, (_, m) in self.pairs.items()])
        if std is not None:
            self.std = {pack(e) & low for e in std}
        if columns is not None:
            xs = [pack(e) for e in xs]
            self.columns = (degree, xs, {x: k for k, x in enumerate(xs)}, w)
            self.rows = {pack(e): row for e, row in rows}

    def append_remainder(self, r, p):
        """Append a packed polynomial (largest term first, in fields that
        hold its terms) made monic.  Returns its leading exponent, the only
        term unpacked.  While a standard set is held, the lead leaves it; a
        lead outside it is a broken invariant and raises
        `ToricPolarError`.  Two lanes are made monic each, by one inverse;
        a lead that is 0 in one lane raises `LaneDivergence`."""
        x, c = r[0]
        tail = r[1:]
        lane = self.lane
        if lane:
            # one inverse serves both lanes: 1/c0 = c1/(c0 c1), and so on
            mask = (1 << lane) - 1
            c0, c1 = c & mask, c >> lane
            c = c0 * c1 % p
            if not c:
                raise LaneDivergence(
                    f"the lead {self.unpack(x)} of a remainder is 0 in lane "
                    f"{int(bool(c0))} and not in the other")
        if c != 1 or lane:
            inv = pow(c, -1, p)
            if lane:
                i0, i1 = inv * c1 % p, inv * c0 % p
                tail = [(y, (d & mask) * i0 % p | (d >> lane) * i1 % p << lane)
                        for y, d in tail]
            else:
                tail = [(y, d * inv % p) for y, d in tail]
        self.entries.append((x, tail))
        slot = self.slot
        a = x & self.low
        self.index = self.index << slot | self.low_guards - a
        self.ones = self.ones << slot | 1
        e = self.unpack(x)
        if self.std is not None:
            if a not in self.std:
                raise ToricPolarError(
                    f"the new leading exponent {e} of degree {sum(e)} is not "
                    f"a standard monomial")
            self.std.remove(a)
        return e

    def index_masks(self):
        """(index, ones, guard_slots, carry, flags): the divisor index and
        the masks of its test (see the module docstring)."""
        ones = self.ones
        guard_slots = self.low_guards * ones
        flags = ones << self.slot - 1
        return self.index, ones, guard_slots, flags - guard_slots, flags

    def subset(self, indices):
        """The reducers at `indices`, in that order, sharing this packing."""
        entries = self.entries
        return Reducers(self.kind, self.block, self.arity, self.width,
                        [entries[i] for i in indices], self.lane, self.neg)

    def split_lanes(self):
        """One one-lane `Reducers` per lane, at this width: each entry with
        its tail's coefficients in that lane, the terms a lane lacks left
        out.  A one-lane list is its own only lane."""
        lane = self.lane
        if not lane:
            return [self]
        mask = (1 << lane) - 1
        return [Reducers(self.kind, self.block, self.arity, self.width,
                         [(x, [(y, c) for y, d in tail
                               if (c := d >> shift & mask)])
                          for x, tail in self.entries])
                for shift in (0, lane)]

    def interreduce(self, start, p):
        """Reduce the tails of the entries from `start` on by each other,
        last one first (back substitution).  The entries must be monic
        forms of one degree whose tails no earlier lead divides: a lead
        then divides a tail term only where the two are equal, and that
        term becomes its multiple of the other entry's tail, which is
        reduced already.  The leads, the divisor index and the width do not
        change; each tail stays largest first.  The cached rows are of the
        degree that ended; the next rows, of a higher degree, drop them."""
        entries = self.entries
        at = {entries[k][0]: k for k in range(start, len(entries))}
        for k in range(len(entries) - 2, start - 1, -1):
            x, tail = entries[k]
            if not any(y in at for y, _ in tail):
                continue
            h = {}
            for y, c in tail:
                l = at.get(y)
                if l is None:
                    h[y] = h.get(y, 0) + c
                    continue
                for z, d in entries[l][1]:
                    h[z] = h.get(z, 0) - c * d
            entries[k] = (x, sorted([(y, c % p) for y, c in h.items()
                                     if c % p], reverse=True))

    def update_pairs(self, lead, active):
        """The Gebauer-Möller update (J. Symbolic Comput. 6, 1988) for the
        last entry h, whose leading exponent is lead[h]; `lead` holds the
        leading exponent of every entry and `active` the entries that no
        later lead divides.  Returns the new pairs (i, h) that it keeps, as
        (i, lcm), in the order they are found; the caller keys and queues
        them.

        `pairs` maps each live pair to its lcm as a divisibility pack and
        as a tuple; the caller pops a pair from it when it reduces the
        pair, and a pair that is no longer there was dropped.  Old pairs go
        by the B_k criterion: one guard test per pair, tuple lcms only for
        the pairs whose lcm lead h divides.  The new pairs are filtered by
        the M, F and product criteria.  The active leads sit side by side
        in one int, active[c] in slot c, so a few big-int operations give
        lcm(lead, lead h) in every slot and the flags of the leads that
        lead h divides; one more batch per candidate gives the flags of the
        candidates whose lcm divides its own.  Those divided leads leave
        `active`, and h joins it.  The pairs that survive, and their order,
        are those of the same criteria on exponent tuples.
        """
        pairs = self.pairs
        low = self.low
        guards = self.low_guards
        slot = self.slot
        entries = self.entries
        h = len(entries) - 1
        e = lead[h]
        x = entries[h][0] & low
        # B_k: drop (a, b) when lead h divides its lcm strictly on both sides
        for ab in [ab for ab, (m, _) in pairs.items()
                   if ((m | guards) - x) & guards == guards]:
            m = pairs[ab][1]
            if exp_lcm(lead[ab[0]], e) != m and exp_lcm(lead[ab[1]], e) != m:
                del pairs[ab]
        # in each field t keeps its guard where lead >= lead h, so M holds
        # lcm(lead, lead h) in every slot
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
        f = t - (t >> self.width)
        M = A & f | X & ~f
        # M and F criteria against the other new pairs; pairs with coprime
        # leading terms serve as witnesses, then the product criterion
        # drops them.  A candidate is dropped when the lcm of a lower slot,
        # or of a slot kept already, divides its own.
        full = (1 << slot) - 1
        below = (1 << n * slot) - 1
        seen, kept = 0, []
        for c in range(n - 1, -1, -1):
            below >>= slot
            i = active[c]
            m = M >> c * slot & full
            if m != (A >> c * slot & full) + x:
                hits = (((m * ones | gs) - M & gs) + carry) & flags
                if hits & (seen | below):
                    continue
                mt = self.unpack(m)
                pairs[(i, h)] = (m, mt)
                kept.append((i, mt))
            seen |= 1 << (c + 1) * slot - 1
        gone = (t + carry) & flags
        if gone:
            active[:] = [i for c, i in enumerate(active)
                         if not gone >> (c + 1) * slot - 1 & 1]
        active.append(h)
        return kept

    def standard_successors(self):
        """Advance `std`, the standard monomials of degree D (no leading
        exponent divides them) as divisibility packs, to those of degree
        D + 1.

        A monomial of degree D + 1 is standard exactly when its divisors of
        degree D are, so it is one of the `_successors` of the standard
        set.  The divisor index tests each candidate in a fixed number of
        big-int operations.  The fields must hold D + 1.
        """
        index, ones, guard_slots, carry, flags = self.index_masks()
        self.std = {b for b in self._successors(self.std,
                                                [1 << s for s in self.shifts])
                    if not ((b * ones + index) & guard_slots) + carry & flags}

    def _successors(self, xs, units):
        """x^a * x_v for each pack x^a in `xs` and each variable v from the
        last variable of a on, `units` being the packs of the variables:
        each monomial of the next degree once, when `xs` are those of one
        degree.  The last variable is read from the divisibility pack: its
        field holds the top bit, below the field's guard."""
        step = self.width + 1
        low = self.low
        return [a + u for a in xs
                for u in units[(a & low).bit_length() // step:]]

    def _set_columns(self, degree, p):
        """Make `columns` hold the monomials of `degree` at this width, as
        packs in ascending order, so a higher column is a larger monomial,
        and drop the rows, which belong to the columns before; the columns
        grow from those of a lower degree when there are some.  A slot is
        W = 2 bits(p) + bits(columns + 2) + 1 bits wide: an S-polynomial
        starts below p^2 in each slot, each of at most `columns` steps adds
        q * c < p^2 to it once, and (columns + 2) p^2 fits."""
        start, xs = 0, [0]
        if self.columns is not None and self.columns[0] <= degree:
            start, xs = self.columns[:2]
        for _ in range(start, degree):
            xs = self._successors(xs, self.weights)
        xs.sort()
        self.columns = (degree, xs, {x: k for k, x in enumerate(xs)},
                        2 * p.bit_length() + (len(xs) + 2).bit_length() + 1)
        self.rows = {}


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
    `reducers`: (packed exponent, coefficient) pairs, largest first.  The
    fields first hold twice the degree of `f`."""
    reducers.widen(_width_for(max(map(sum, f), default=0)))
    return _reduce_widening(reducers, _pack_terms(reducers, f), p,
                            _pack_terms, reducers, f)


def input_remainders(reducers, fs, p):
    """The remainders of the nonzero term dicts `fs`, the inputs of
    `buchberger`, each by the entries there are when it is asked for: yields
    (k, packed remainder of fs[k]) for each k, by ascending leading
    exponent, inputs with the same one in the order of `fs`.  The caller
    appends a nonzero remainder before it asks for the next.

    The fields are widened once, to a width that holds every S-polynomial
    of two inputs: the lcm of two leads has degree at most 2d, d the
    largest input degree, so the fields hold twice 2d.  Each input is
    packed once.  Its lead is its largest pack, so the order is the one
    that sorting by the order's key of the leading exponents gives.  An
    input is packed again, from its term dict, only when an overflow has
    widened the fields since."""
    reducers.widen(_width_for(2 * max([max(map(sum, f)) for f in fs],
                                      default=0)))
    width = reducers.width
    packs = [_pack_terms(reducers, f) for f in fs]
    for k in sorted(range(len(fs)), key=lambda k: max(packs[k])):
        h = packs[k]
        if reducers.width != width:
            h = _pack_terms(reducers, fs[k])
        yield k, _reduce_widening(reducers, h, p, _pack_terms, reducers,
                                  fs[k])


def _pack_terms(reducers, f):
    """The term dict `f` as a packed dict at the width of `reducers`."""
    pack = reducers.pack
    return {pack(e): c for e, c in f.items()}


def _reduce_widening(reducers, h, p, build, *args):
    """Packed remainder, largest term first, of the packed dict `h`, made
    at the current width of `reducers`; h is None when a term of it
    overflowed.  Then, or when a product overflows, the fields double and
    `build(*args)` makes the dict again from the re-packed entries, so the
    remainder does not depend on the width."""
    while True:
        if h is not None:
            r = _reduce_packed(h, reducers, p)
            if r is not None:
                return r
        reducers.widen(2 * reducers.width)
        h = build(*args)


def _s_polynomial(reducers, i, j, m):
    """The S-polynomial of the monic entries i and j, whose leading
    exponents have lcm m, as a packed dict with pending coefficients, or
    None when a term overflows its fields.  The leading terms cancel, so
    only the tails are shifted: by M - lead, M the pack of m.  Each
    coefficient goes to the pending layout (times `one`, 1 in each lane),
    and the second tail is negated in each lane as p - c (`neg` is p in
    each lane; one lane negates as -c)."""
    entries = reducers.entries
    lane = reducers.lane
    one = 1 + (1 << lane) if lane else 1
    neg = reducers.neg
    x = reducers.pack(m)
    lead, tail = entries[i]
    d = x - lead
    h = {t + d: c * one for t, c in tail}
    lead, tail = entries[j]
    d = x - lead
    for t, c in tail:
        e = t + d
        h[e] = h.get(e, 0) + neg - c * one
    if reduce(or_, h, 0) & reducers.guards:
        return None
    return h


def s_polynomial_remainder(reducers, i, j, m, p, rows):
    """Packed remainder, largest term first, of the S-polynomial of the
    monic entries i and j of `reducers` (their leading exponents have lcm
    m) modulo all the entries.  The fields first hold twice the degree of
    m; on an overflow they double and the S-polynomial is built again from
    the re-packed entries.  When `rows` is true the reduction runs on rows
    over the monomials of that degree (`_row_remainder`), with the same
    remainder; every entry must then be a form."""
    if rows:
        return _row_remainder(reducers, i, j, m, p)
    reducers.widen(_width_for(sum(m)))
    return _reduce_widening(reducers, _s_polynomial(reducers, i, j, m), p,
                            _s_polynomial, reducers, i, j, m)


def _row_remainder(reducers, i, j, m, p):
    """The remainder of `s_polynomial_remainder`, the S-polynomial and the
    reducer multiples taken as rows over the monomials of its degree D.

    A row is one int with a W-bit slot per column (`Reducers.columns`);
    a slot holds a plain-int coefficient and never carries into the next.
    Each step takes the top slot, the largest pending monomial, reduces it
    mod p and clears it: 0 is a cancelled term, a monomial that no lead
    divides is a remainder term, and otherwise the row of its reducer
    multiple, times q = p - c, is added.  That row is built once per
    degree, from the first divisor the index gives, and kept in
    `Reducers.rows` until the columns are built again.  The S-polynomial
    starts from the row of (m / lead_i) tail_i, which is that of m's
    reducer multiple when entry i is m's first divisor: it is then read
    from `Reducers.rows`, or built into it, and otherwise built apart.
    The steps and the remainder are those of `_reduce_packed`, and a
    reducer whose lead does not divide its term (a stale index) raises
    `ToricPolarError`.  Every entry must be a form: a term that is not a
    monomial of degree D raises `ToricPolarError`, and so does a step that
    does not take a lower column than the step before, which only a slot
    that overflowed into the next makes.
    """
    degree = sum(m)
    reducers.widen(_width_for(degree))
    if reducers.columns is None or reducers.columns[0] != degree:
        reducers._set_columns(degree, p)
    _, monomials, _, w = reducers.columns
    rows = reducers.rows
    entries = reducers.entries
    n = len(entries)
    slot = reducers.slot
    low = reducers.low
    guards = reducers.guards
    index, ones, guard_slots, carry, flags = reducers.index_masks()
    x = reducers.pack(m)
    lead, tail = entries[i]
    hit = ((((x & low) * ones + index) & guard_slots) + carry
           & flags).bit_length()
    if n - hit // slot == i:
        # (m / lead_i) tail_i is the row of m's reducer multiple
        acc = rows.get(x)
        if acc is None:
            acc = rows[x] = _row(reducers, tail, x - lead)
    else:
        acc = _row(reducers, tail, x - lead)
    lead, tail = entries[j]
    acc += (p - 1) * _row(reducers, tail, x - lead)
    r = []
    top = len(monomials) * w
    while acc:
        shift = (acc.bit_length() - 1) // w * w
        if shift >= top:
            raise ToricPolarError(
                f"the row reduction of degree {degree} came back to a "
                f"column it had cleared: a slot overflowed")
        top = shift
        v = acc >> shift
        acc -= v << shift
        c = v % p
        if not c:
            continue
        u = monomials[shift // w]
        row = rows.get(u)
        if row is None:
            hit = ((((u & low) * ones + index) & guard_slots) + carry
                   & flags).bit_length()
            if not hit:
                r.append((u, c))
                continue
            lead, tail = entries[n - hit // slot]
            d = u - lead
            if d & guards:
                _stale_index(reducers, u, lead)
            row = rows[u] = _row(reducers, tail, d)
        acc += (p - c) * row
    return r


def _row(reducers, tail, d):
    """The row of a packed tail, largest term first, times the monomial of
    pack d, over the columns of `reducers`: each coefficient in the slot of
    its column.  The row grows from its top slot down, one shift per
    term."""
    _, _, columns, w = reducers.columns
    row = 0
    top = len(columns)
    for t, c in tail:
        k = columns.get(t + d, top)
        if k >= top:
            raise ToricPolarError(
                f"the row reduction of degree {reducers.columns[0]} met "
                f"the term {reducers.unpack(t + d)}: not a monomial of "
                f"that degree, or not below the term before it")
        row = row << (top - k) * w | c
        top = k
    return row << top * w


def reduce_tails(basis, p):
    """Reduce the tail of each monic entry of `basis`, a minimal basis
    sorted by lead, by all the entries, in place; each stays largest first.
    The entries go last one first.  A lead that divides a term below lead
    i is itself below lead i, so an entry's own lead never divides its
    tail and the steps read only entries not yet reduced.  A minimal basis
    is a Gröbner basis, so each remainder is unique anyway.  An overflow
    widens `basis` and starts that entry again."""
    for i in range(len(basis.entries) - 1, -1, -1):
        r = _reduce_widening(basis, _tail_terms(basis, i), p, _tail_terms,
                             basis, i)
        basis.entries[i] = (basis.entries[i][0], r)


def _tail_terms(basis, i):
    """The tail of entry i of `basis` as a packed dict."""
    return dict(basis.entries[i][1])


def _reduce_packed(h, reducers, p):
    """Packed remainder of the packed dict `h`, which it consumes, as
    (exponent, coefficient) pairs in the order they were found, or None
    when a product overflowed its fields.  The keys of `h` must fit the
    fields; its coefficients are plain ints, in the pending layout of two
    lanes when `reducers` hold two (see the module docstring).

    The pending terms live in `h`; every key of `h` has exactly one entry,
    negated, in the heap, which pops the largest monomial first.  A pending
    coefficient is a plain int, reduced mod p only when it is popped; one
    that is then 0 has cancelled and is skipped.  The first divisor of a
    popped term comes from the divisor index in a fixed number of big-int
    operations; a lead that does not divide the term, which only a stale
    index gives, sets a guard bit of the shift and raises
    `ToricPolarError`.  Only a new key can overflow: its fields are below
    twice the field range, so a set guard bit shows it.  Two lanes pop at
    most `LANE_STEPS` terms, or raise `ToricPolarError`.
    """
    guards = reducers.guards
    entries = reducers.entries
    n = len(entries)
    slot = reducers.slot
    low = reducers.low
    index, ones, guard_slots, carry, flags = reducers.index_masks()
    lane = reducers.lane
    mask, top, pops = (1 << lane) - 1, 2 * lane, LANE_STEPS
    P = p + (p << lane) if lane else p  # p in each lane
    heap = [-x for x in h]
    heapify(heap)
    r = []
    while heap:
        u = -heappop(heap)
        c = h.pop(u)
        if lane:
            pops -= 1
            if pops < 0:
                raise ToricPolarError(
                    f"a two-lane reduction passed {LANE_STEPS} terms, the "
                    f"most its {lane}-bit lane fields hold")
            c = (c & mask) % p | (c >> top) % p << lane
        else:
            c %= p
        if not c:
            continue
        hit = ((((u & low) * ones + index) & guard_slots) + carry
               & flags).bit_length()
        if not hit:
            r.append((u, c))
            continue
        lead, tail = entries[n - hit // slot]
        d = u - lead
        if d & guards:
            _stale_index(reducers, u, lead)
        q = P - c
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


def _stale_index(reducers, u, lead):
    """Raise for a reducer that the divisor index chose for the term of
    pack u although its lead does not divide u."""
    unpack = reducers.unpack
    raise ToricPolarError(
        f"the divisor index chose the lead {unpack(lead)}, which does not "
        f"divide the term {unpack(u)}: the index is stale")


def divide_terms(f, g, p):
    """The quotient f / g when g divides f exactly, else None; g is nonzero.

    Exact division is a normal form in one more variable z, placed last,
    under grevlex: z * f is reduced by the one monic entry z * g - 1.  A
    step on a term u z with lead(g) | u adds u / lead(g), times the step's
    coefficient over the lead coefficient of g; that term has no z, so no
    step reduces it again.  The same step subtracts (u / lead(g)) z tail(g),
    as long division does.  So the remainder is the quotient plus
    z (f mod g), its z-free terms found largest first, and the division is
    exact when no remainder term has z.  The fields first hold twice
    max(deg f, deg g) + 1; z is one pack added to each term of f and g, and
    a term's z is read off its divisibility field.
    """
    divisor = Reducers(GREVLEX, 0, len(next(iter(g))) + 1, _width_for(
        max(max(map(sum, g)), max(map(sum, f), default=0)) + 1))
    divisor.append_remainder(
        sorted(_times_z(divisor, g).items(), reverse=True) + [(0, p - 1)], p)
    r = _reduce_widening(divisor, _times_z(divisor, f), p, _times_z,
                         divisor, f)
    mask, shifts = divisor.mask, divisor.shifts
    if any(x >> shifts[-1] & mask for x, _ in r):
        return None
    return {tuple([x >> s & mask for s in shifts[:-1]]): c for x, c in r}


def _times_z(divisor, f):
    """z * f as a packed dict at the width of `divisor`, z its last
    variable: the pack of z added to the pack of each exponent of f."""
    z = divisor.weights[-1]
    pack = divisor.pack
    return {pack(e) + z: c for e, c in f.items()}
