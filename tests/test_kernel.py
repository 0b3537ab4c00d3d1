"""The term kernel against plain references.

`normal_form_terms` keeps its pending terms, packed into ints, in a heap.
The reference below works on exponent tuples and finds each leading term
by scanning with `exp_cmp`.  Both reduce the largest pending term by the
first divisor, so they must return the same remainder, in the same
insertion order, even when the reducers are not a Gröbner basis.  The
order keys and the packs are checked against `exp_cmp` and the tuple
helpers, and the term arithmetic, `add_into` among it, against dicts
summed term by term, reduced mod p, with zero coefficients dropped.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import append_reducer, entry_terms
from toricpolar import _kernel_py as k
from toricpolar.errors import ToricPolarError
from toricpolar.field import PrimeField
from toricpolar.groebner import Ideal, _s_terms, buchberger
from toricpolar.poly import LEX, MonomialOrder, Polynomial, block_order

PRIMES = [2, 3, 13, 2**31 - 1]


def grevlex_cmp_range(e1, e2, lo, hi):
    d1 = 0
    d2 = 0
    for i in range(lo, hi):
        d1 += e1[i]
        d2 += e2[i]
    if d1 != d2:
        return 1 if d1 > d2 else -1
    for i in range(hi - 1, lo - 1, -1):
        a = e1[i]
        b = e2[i]
        if a != b:
            return 1 if a < b else -1
    return 0


def exp_cmp(e1, e2, kind, block):
    """The reference order: three-way comparison of exponent tuples,
    written out from the definitions of grevlex, lex and the block order."""
    n = len(e1)
    if kind == k.GREVLEX:
        return grevlex_cmp_range(e1, e2, 0, n)
    if kind == k.LEX:
        for i in range(n):
            a = e1[i]
            b = e2[i]
            if a != b:
                return 1 if a > b else -1
        return 0
    c = grevlex_cmp_range(e1, e2, 0, block)
    if c:
        return c
    return grevlex_cmp_range(e1, e2, block, n)


def reference_leading_exponent(terms, kind, block):
    best = None
    for e in terms:
        if best is None or exp_cmp(e, best, kind, block) > 0:
            best = e
    return best


def reference_normal_form(f, lead_exps, lead_invs, tails, p, kind, block):
    h = dict(f)
    r = {}
    while h:
        u = reference_leading_exponent(h, kind, block)
        c = h.pop(u)
        hit = next((i for i, d in enumerate(lead_exps)
                    if all(a <= b for a, b in zip(d, u))), -1)
        if hit < 0:
            r[u] = c
            continue
        q = c * lead_invs[hit] % p
        d = tuple(a - b for a, b in zip(u, lead_exps[hit]))
        for te, tc in tails[hit].items():
            e = tuple(a + b for a, b in zip(te, d))
            s = (h.get(e, 0) - q * tc) % p
            if s:
                h[e] = s
            elif e in h:
                del h[e]
    return r


def split(g, p, kind, block):
    """Leading exponent, inverse leading coefficient and tail of `g`."""
    tail = dict(g)
    lead = reference_leading_exponent(tail, kind, block)
    return lead, pow(tail.pop(lead), p - 2, p), tail


def pack_reducers(lead_exps, lead_invs, tails, p, kind, block, arity):
    """The tuple reducers of the reference, packed for the kernel."""
    reducers = k.Reducers(kind, block, arity)
    for lead, inv, tail in zip(lead_exps, lead_invs, tails):
        append_reducer(reducers, {lead: 1, **tail}, lead, inv, p)
    return reducers


def kernel_normal_form(arity, f, lead_exps, lead_invs, tails, p, kind,
                       block):
    reducers = pack_reducers(lead_exps, lead_invs, tails, p, kind, block,
                             arity)
    return k.normal_form_terms(f, reducers, p)


@st.composite
def reductions(draw):
    """A prime, an order (every block split included), f and reducers."""
    arity = draw(st.integers(1, 5))
    p = draw(st.sampled_from(PRIMES))
    kind, block = draw(st.sampled_from(
        [(k.GREVLEX, 0), (k.LEX, 0)]
        + [(k.BLOCK, b) for b in range(1, arity + 1)]))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    coeffs = st.integers(1, p - 1)
    f = draw(st.dictionaries(exps, coeffs, max_size=10))
    gs = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=5),
                       max_size=4))
    parts = [split(g, p, kind, block) for g in gs]
    return arity, (f, [s[0] for s in parts], [s[1] for s in parts],
                   [s[2] for s in parts], p, kind, block)


@settings(max_examples=400, deadline=None)
@given(reductions())
def test_normal_form_matches_linear_scan(drawn):
    arity, case = drawn
    r = kernel_normal_form(arity, *case)
    assert list(r.items()) == list(reference_normal_form(*case).items())
    kind, block = case[-2:]
    assert list(r) == sorted(r, key=k.order_key(kind, block), reverse=True)


# Products whose exponents exceed 2^16, under lex and under a block order:
# fixed 16-bit fields could not hold them.
@pytest.mark.parametrize("order, g, f, expected", [
    (LEX, {(1, 0): 1, (0, 40000): -1}, {(2, 0): 1, (1, 1): 1},
     [((0, 80000), 1), ((0, 40001), 1)]),
    (block_order(1), {(1, 0, 0): 1, (0, 70000, 1): -1},
     {(2, 0, 0): 1, (1, 0, 3): 1},
     [((0, 140000, 2), 1), ((0, 70000, 4), 1)]),
], ids=["lex", "block"])
def test_exponents_beyond_sixteen_bits(order, g, f, expected):
    field = PrimeField(32003)
    arity = len(next(iter(f)))
    G = buchberger(Ideal([Polynomial(field, arity, g)]), order)
    r = G.normal_form(Polynomial(field, arity, f))
    assert list(r.terms.items()) == expected
    lead, inv, tail = split(G.generators[0].terms, field.p, order.code,
                            order.block)
    ref = reference_normal_form(f, [lead], [inv], [tail], field.p,
                                order.code, order.block)
    assert list(ref.items()) == expected


def test_overflow_repacks_twice_as_wide():
    # x0^100 modulo x0 - x1^3 under lex (p = 13) is x1^300.  The reducers
    # are packed for degree 100, in fields that end at 255; x1^258 sets a
    # guard bit and the reduction runs again in 16-bit fields.
    reducers = k.Reducers(k.LEX, 0, 2)
    append_reducer(reducers, {(1, 0): 1, (0, 3): 12}, (1, 0), 1, 13)
    assert reducers.width == 3
    r = k.normal_form_terms({(100, 0): 1}, reducers, 13)
    assert list(r.items()) == [((0, 300), 1)]
    assert reducers.width == 16


@pytest.mark.parametrize("seed", range(8))
def test_widen_repacks_the_pairs_and_the_standard_set(seed):
    """A `Reducers` that holds live pairs and a standard set and widens
    twice, advancing the set in between, holds exactly the packs that one
    made at the final width holds: `widen` re-packs the entries, the lcms
    of the live pairs and the standard set, and nothing else has to."""
    rng = random.Random(300 + seed)
    n = rng.randint(2, 4)
    # no lead is a power of the last variable, so its powers stay standard
    leads = sorted({e for e in (tuple(rng.randint(0, 2) for _ in range(n))
                                for _ in range(rng.randint(3, 6)))
                    if any(e[:-1])} | {(3,) + (0,) * (n - 1)})
    tails = [random_terms(rng, n, 13, 2, top=1) for _ in leads]

    def build(width, widths):
        reducers = k.Reducers(k.GREVLEX, 0, n, width)
        lead, active = [], []
        for e, tail in zip(leads, tails):
            append_reducer(reducers, {e: 1, **tail}, e, 1, 13)
            lead.append(e)
            reducers.update_pairs(lead, active)
        reducers.std = {0}
        for w in widths:
            reducers.standard_successors()
            reducers.widen(w)
        return reducers

    widened = build(3, [3, 5, 3, 9])
    fresh = build(9, [9] * 4)
    assert widened.width == fresh.width == 9
    assert widened.pairs and widened.pairs == fresh.pairs
    assert list(widened.pairs) == list(fresh.pairs)
    assert widened.std and widened.std == fresh.std
    assert widened.entries == fresh.entries
    assert widened.index == fresh.index


def random_reducers(rng, count, arity, p, kind, block):
    """`count` random reducers as the reference takes them.  Leads repeat
    with different tails, so several reducers divide the same terms and
    only the first one in list order gives the reference's remainder."""
    exps = [tuple(rng.randint(0, 2) for _ in range(arity))
            for _ in range(count // 3 + 1)]
    parts = []
    for _ in range(count):
        g = {rng.choice(exps): rng.randrange(1, p)}
        for _ in range(rng.randint(0, 4)):
            g[tuple(rng.randint(0, 3) for _ in range(arity))] = (
                rng.randrange(1, p))
        parts.append(split(g, p, kind, block))
    return tuple(list(column) for column in zip(*parts))


def random_terms(rng, arity, p, size, top=4):
    return {tuple(rng.randint(0, top) for _ in range(arity)):
            rng.randrange(1, p) for _ in range(size)}


@pytest.mark.parametrize("seed", range(6))
def test_divisor_index_over_many_words(seed):
    # 70-90 reducers in 3 variables: the index spans well over 64 bits,
    # and the repeated leads give many terms several divisors.
    rng = random.Random(seed)
    p = rng.choice(PRIMES)
    kind, block = rng.choice([(k.GREVLEX, 0), (k.LEX, 0), (k.BLOCK, 1)])
    leads, invs, tails = random_reducers(rng, rng.randint(70, 90), 3, p,
                                         kind, block)
    reducers = pack_reducers(leads, invs, tails, p, kind, block, 3)
    assert reducers.index.bit_length() > 10 * 64
    for _ in range(5):
        f = random_terms(rng, 3, p, 12)
        r = k.normal_form_terms(f, reducers, p)
        assert list(r.items()) == list(reference_normal_form(
            f, leads, invs, tails, p, kind, block).items())


@pytest.mark.parametrize("seed", range(4))
def test_divisor_index_after_append_and_subset(seed):
    # Reduce, append, reduce again: the index grows with the list.  A
    # subset in a shuffled order must rank its divisors in its own order.
    rng = random.Random(100 + seed)
    p = rng.choice(PRIMES)
    kind, block = rng.choice([(k.GREVLEX, 0), (k.LEX, 0), (k.BLOCK, 2)])
    leads, invs, tails = random_reducers(rng, 40, 4, p, kind, block)
    reducers = k.Reducers(kind, block, 4)
    for i, (lead, inv, tail) in enumerate(zip(leads, invs, tails)):
        append_reducer(reducers, {lead: 1, **tail}, lead, inv, p)
        f = random_terms(rng, 4, p, 6)
        r = k.normal_form_terms(f, reducers, p)
        assert list(r.items()) == list(reference_normal_form(
            f, leads[:i + 1], invs[:i + 1], tails[:i + 1], p, kind,
            block).items())
    order = rng.sample(range(40), 25)
    part = reducers.subset(order)
    for _ in range(5):
        f = random_terms(rng, 4, p, 8)
        r = k.normal_form_terms(f, part, p)
        assert list(r.items()) == list(reference_normal_form(
            f, [leads[i] for i in order], [invs[i] for i in order],
            [tails[i] for i in order], p, kind, block).items())


def test_divisor_index_rebuilt_when_widened_mid_reduction():
    # Lex, p = 13: x0^400 is reduced by x0 - x1^3 (the first of two
    # reducers with lead x0), which overflows the 10-bit fields at x1^1026.
    # After re-packing at 20 bits the index must still find x1^260 - x2
    # for the powers of x1: the remainder is x1^160*x2^4.
    leads = [(1, 0, 0), (0, 260, 0), (1, 0, 0)]
    tails = [{(0, 3, 0): 12}, {(0, 0, 1): 12}, {(0, 0, 1): 12}]
    case = ({(400, 0, 0): 1}, leads, [1, 1, 1], tails, 13, k.LEX, 0)
    reducers = pack_reducers(*case[1:5], k.LEX, 0, 3)
    assert reducers.width == 10
    r = k.normal_form_terms(case[0], reducers, 13)
    assert reducers.width == 20
    assert list(r.items()) == [((0, 160, 4), 1)]
    assert list(reference_normal_form(*case).items()) == [((0, 160, 4), 1)]


def stale_index(monkeypatch, order):
    """Make the divisor index of every `Reducers` rank its entries in
    `order`, also after a widening rebuilds it: an index that names the
    wrong entries, as a stale one would."""
    real = k.Reducers.index_masks
    monkeypatch.setattr(k.Reducers, "index_masks",
                        lambda self: real(self.subset(order)))


def test_stale_divisor_index_raises_on_the_heap_path(monkeypatch):
    """The heap path takes each reducer from the divisor index and checks
    that its lead divides the term.  Here the index ranks the two entries
    swapped, so for x1^2 it names x0 + x1: that step would shift the tail
    x1 out of its fields, and with the index still stale every wider try
    would too, so the fields would double without end.  The check raises
    at once instead."""
    p = 13
    reducers = k.Reducers(k.GREVLEX, 0, 2)
    append_reducer(reducers, {(1, 0): 1, (0, 1): 1}, (1, 0), 1, p)
    append_reducer(reducers, {(0, 2): 1, (0, 0): 1}, (0, 2), 1, p)
    assert k.normal_form_terms({(0, 2): 1}, reducers, p) == {(0, 0): 12}
    stale_index(monkeypatch, [1, 0])
    with pytest.raises(ToricPolarError, match="the index is stale"):
        k.normal_form_terms({(0, 2): 1}, reducers, p)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_deferred_reduction_cancels_and_stays_in_range(p):
    # x_i - x_12 for i < 12 (grevlex leads x_i).  Each of x_0 .. x_11
    # adds to x_12, which f also holds with coefficient -12: twelve
    # updates, and the sum is 0 mod p.  The squares x_i^2 (i < 11) each
    # reach x_12^2 through x_i*x_12: 22 updates, 11 in all, nonzero mod p.
    n = 13
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    leads = unit[:12]
    tails = [{unit[12]: p - 1}] * 12
    f = {e: 1 for e in unit[:12]}
    if 12 % p:
        f[unit[12]] = -12 % p
    f.update({tuple(2 * a for a in e): 1 for e in unit[:11]})
    case = (f, leads, [1] * 12, tails, p, k.GREVLEX, 0)
    r = kernel_normal_form(n, *case)
    square = tuple(2 * a for a in unit[12])
    assert r == reference_normal_form(*case) == {square: 11 % p}
    assert unit[12] not in r
    assert all(1 <= c <= p - 1 for c in r.values())


@st.composite
def exponent_pairs(draw):
    """An order (every block split included) and two exponents; small
    entries make ties in degree and in the leading variables likely."""
    arity = draw(st.integers(1, 6))
    kind, block = draw(st.sampled_from(
        [(k.GREVLEX, 0), (k.LEX, 0)]
        + [(k.BLOCK, b) for b in range(1, arity + 1)]))
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**20))]
                     * arity)
    return kind, block, draw(exps), draw(exps)


@settings(max_examples=400, deadline=None)
@given(exponent_pairs())
def test_order_key_and_packs_agree_with_exp_cmp(drawn):
    kind, block, e1, e2 = drawn
    c = exp_cmp(e1, e2, kind, block)
    key = MonomialOrder(["grevlex", "lex", "block"][kind], block).key
    assert (key(e1) > key(e2)) - (key(e1) < key(e2)) == c
    assert k.leading_exponent({e1: 1, e2: 1}, kind, block) == (
        e1 if c >= 0 else e2)
    packs = k.Reducers(kind, block, len(e1))
    packs.widen((sum(e1) + sum(e2)).bit_length())
    x1, x2 = packs.pack(e1), packs.pack(e2)
    assert (x1 > x2) - (x1 < x2) == c
    assert packs.unpack(x1) == e1
    assert packs.pack(tuple(a + b for a, b in zip(e1, e2))) == x1 + x2
    g = packs.guards
    assert (((x2 | g) - x1) & g == g) == k.exp_divides(e1, e2)


@settings(max_examples=200, deadline=None)
@given(reductions())
def test_leading_exponent_matches_linear_scan(drawn):
    f, _, _, tails, _, kind, block = drawn[1]
    for terms in [f, {}, *tails]:
        assert (k.leading_exponent(terms, kind, block)
                == reference_leading_exponent(terms, kind, block))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 6)] * n)] * 2)))
def test_exponent_helpers(pair):
    e, d = pair
    assert k.exp_sub(e, d) == tuple(a - b for a, b in zip(e, d))
    assert k.exp_lcm(e, d) == tuple(max(a, b) for a, b in zip(e, d))
    assert k.exp_divides(d, e) == all(b <= a for a, b in zip(e, d))


def reference_terms(pairs, p):
    """Sum (exponent, integer coefficient) pairs into a dict over F_p."""
    total = {}
    for e, c in pairs:
        total[e] = total.get(e, 0) + c
    return {e: c % p for e, c in total.items() if c % p}


def exp_sum(e, d):
    return tuple(a + b for a, b in zip(e, d))


@st.composite
def operands(draw):
    """A prime (2^61 - 1 included), two polynomials and one term."""
    arity = draw(st.integers(1, 4))
    p = draw(st.sampled_from(PRIMES + [2**61 - 1]))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    terms = st.dictionaries(exps, st.integers(1, p - 1), max_size=8)
    # scalars may be negative, zero, one or beyond p
    scalar = st.one_of(st.sampled_from([0, 1, -1, p, p + 1]),
                       st.integers(-2 * p, 2 * p))
    return draw(terms), draw(terms), draw(exps), draw(scalar), p


@settings(max_examples=300, deadline=None)
@given(operands())
def test_term_arithmetic_matches_dict_reference(case):
    a, b, d, c, p = case
    a_before, b_before = dict(a), dict(b)
    A, B = list(a.items()), list(b.items())
    for s in (c, 1, -1):
        r = dict(a)
        assert k.add_into(r, b.items(), s, p) is r
        assert r == reference_terms(A + [(e, s * v) for e, v in B], p)
    assert k.add_into({}, A, c, p) == reference_terms(
        [(e, c * v) for e, v in A], p)
    # times one term: the terms of `a` shifted, in their order
    assert list(k.mul_terms(a, {d: c}, p).items()) == list(reference_terms(
        [(exp_sum(e, d), c * v) for e, v in A], p).items())
    assert k.mul_terms(a, b, p) == reference_terms(
        [(exp_sum(ea, eb), va * vb) for ea, va in A for eb, vb in B], p)
    assert (a, b) == (a_before, b_before)


def test_add_into_keeps_arrival_order():
    """A new key goes last, a key whose sum reaches 0 is dropped, and one
    that cancels and comes back goes last; a sum of 0 at a new key adds
    nothing."""
    p = 7
    r = {(1,): 3, (2,): 4}
    assert k.add_into(r, [((1,), 4), ((3,), 1), ((4,), 7), ((1,), 2)], 1,
                      p) is r
    assert list(r.items()) == [((2,), 4), ((3,), 1), ((1,), 2)]
    assert k.add_into(r, [((2,), 5)], 0, p) is r
    assert list(r.items()) == [((2,), 4), ((3,), 1), ((1,), 2)]
    assert list(k.add_into(r, [((2,), 1)], p + 3, p).items()) == [
        ((3,), 1), ((1,), 2)]


@st.composite
def substitutions(draw):
    """Up to 5 polynomials over one pool of monomials, the zero exponent
    among them, and images in a ring of 1 to 3 variables, some of them
    zero."""
    p = draw(st.sampled_from(PRIMES))
    arity = draw(st.integers(1, 3))
    target = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, arity - 1), max_size=4).map(
        lambda v: tuple(v.count(i) for i in range(arity)))
    pool = draw(st.lists(exps, min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        pool.append((0,) * arity)
    polys = draw(st.lists(st.dictionaries(st.sampled_from(pool),
                                          st.integers(1, p - 1), max_size=5),
                          min_size=1, max_size=5))
    images = draw(st.lists(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * target), st.integers(1, p - 1),
        max_size=3), min_size=arity, max_size=arity))
    return polys, images, target, p


def expand(e, images, one):
    """The terms of the product of images[i]^e[i], one (exponent, integer
    coefficient) pair for each choice of one image term per factor; `one`
    is the zero exponent of the images' ring."""
    factors = [images[i] for i, x in enumerate(e) for _ in range(x)]
    out = []
    for choice in itertools.product(*(list(g.items()) for g in factors)):
        exponent, coefficient = one, 1
        for d, c in choice:
            exponent, coefficient = exp_sum(exponent, d), coefficient * c
        out.append((exponent, coefficient))
    return out


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitute_terms_matches_term_by_term_expansion(case):
    """Each polynomial's terms, expanded one by one, summed mod p; and in
    the insertion order of adding, one term after another, c times the
    product by `mul_terms` of the powers images[i]^e[i] in variable order,
    each power built as images[i]^(x-1) * images[i]."""
    polys, images, arity, p = case
    before = [dict(f) for f in polys], [dict(g) for g in images]
    got = k.substitute_terms(polys, images, arity, p)
    one = (0,) * arity
    for f, r in zip(polys, got, strict=True):
        assert r == reference_terms(
            [(d, c * v) for e, c in f.items()
             for d, v in expand(e, images, one)], p)
        sequential = {}
        for e, c in f.items():
            image = {one: c}
            for i, x in enumerate(e):
                if x:
                    power = images[i]
                    for _ in range(x - 1):
                        power = k.mul_terms(power, images[i], p)
                    image = k.mul_terms(image, power, p)
            k.add_into(sequential, image.items(), 1, p)
        assert list(r.items()) == list(sequential.items())
    assert ([dict(f) for f in polys], [dict(g) for g in images]) == before


def test_substitute_terms_builds_each_power_and_image_once(monkeypatch):
    """x0^2*x1 in three polynomials and x0^3 in one take three products in
    one call: x0^2, its image times x1, and x0^3 from x0^2."""
    images = [{(1, 0): 1, (0, 1): 2}, {(0, 1): 3}]
    polys = [{(2, 1): 1}, {(2, 1): 5, (3, 0): 1}, {(2, 1): 2}]
    alone = [k.substitute_terms([f], images, 2, 13)[0] for f in polys]
    products = []
    real = k.mul_terms

    def counting(a, b, p):
        products.append((a, b))
        return real(a, b, p)

    monkeypatch.setattr(k, "mul_terms", counting)
    assert k.substitute_terms(polys, images, 2, 13) == alone
    assert len(products) == 3


# x0^2 + x0*x1 - x2^2 modulo g1 = x0^2 - x2^2 and g2 = x0*x1 - x2^2 (grevlex,
# p = 13).  Reducing x0^2 cancels x2^2; reducing x0*x1 creates it again, and
# it must then reach the remainder once, with coefficient 1.  Without the
# x0*x1 term, x2^2 stays cancelled and the remainder is zero.
MINUS_X2_SQUARED = {(0, 0, 2): 12}


@pytest.mark.parametrize("f, expected", [
    ({(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 12}, {(0, 0, 2): 1}),
    ({(2, 0, 0): 1, (0, 0, 2): 12}, {}),
], ids=["cancelled-then-recreated", "cancelled"])
def test_cancelled_term(f, expected):
    case = (f, [(2, 0, 0), (1, 1, 0)], [1, 1],
            [MINUS_X2_SQUARED] * 2, 13, k.GREVLEX, 0)
    assert reference_normal_form(*case) == expected
    assert kernel_normal_form(3, *case) == expected


# --- the packed pair path of `buchberger` ---------------------------------


def monic(g, p, kind, block):
    """`g` made monic, and its leading exponent."""
    lead, inv, _ = split(g, p, kind, block)
    return lead, {e: c * inv % p for e, c in g.items()}


def s_reference(elements, i, j, p, kind, block):
    """The remainder of S(f_i, f_j) as the dict path takes it: the
    S-polynomial from `_s_terms`, reduced by `normal_form_terms` over the
    same elements packed on their own."""
    (li, fi), (lj, fj) = elements[i], elements[j]
    m = k.exp_lcm(li, lj)
    reducers = k.Reducers(kind, block, len(li))
    for lead, f in elements:
        append_reducer(reducers, f, lead, 1, p)
    return m, k.normal_form_terms(
        _s_terms(p, fi, li, fj, lj, m), reducers, p)


def packed_s_remainder(reducers, i, j, m, p):
    unpack = reducers.unpack
    return {unpack(x): c
            for x, c in k.s_polynomial_remainder(reducers, i, j, m, p,
                                                 False)}


def counting_widen(monkeypatch):
    """Record (width before, width asked for) of every `Reducers.widen`
    call that widens."""
    calls = []
    real = k.Reducers.widen

    def widen(self, width):
        if width > self.width:
            calls.append((self.width, width))
        real(self, width)
    monkeypatch.setattr(k.Reducers, "widen", widen)
    return calls


@pytest.mark.parametrize("seed", range(30))
def test_packed_s_polynomial_matches_dict_path(seed):
    # Random monic elements, some with exponents up to 40 so that lex and
    # block reductions outgrow the first width; every pair is reduced by
    # all the elements, packed path against dict path, in both remainders'
    # insertion order.
    rng = random.Random(500 + seed)
    arity = rng.randint(2, 4)
    p = rng.choice(PRIMES)
    kind, block = rng.choice([(k.GREVLEX, 0), (k.LEX, 0)]
                             + [(k.BLOCK, b) for b in range(1, arity)])
    top = rng.choice([3, 40])
    count = rng.randint(2, 6)
    elements = []
    if rng.random() < 0.5:
        # x_a - c*x_b^t, a < b: under lex it multiplies degrees by t
        a, b = sorted(rng.sample(range(arity), 2))
        unit = [tuple(int(v == w) for v in range(arity)) for w in (a, b)]
        elements.append(monic({unit[0]: 1, tuple(
            rng.randint(5, 12) * x for x in unit[1]): rng.randrange(1, p)},
            p, kind, block))
    while len(elements) < count:
        g = random_terms(rng, arity, p, rng.randint(1, 5), top)
        if any(g):
            elements.append(monic(g, p, kind, block))
    # packed as `buchberger` keeps remainders: in fields that just hold
    # them, not twice their degree
    reducers = k.Reducers(kind, block, arity)
    reducers.widen(max(sum(e) for _, f in elements for e in f).bit_length())
    key = k.order_key(kind, block)
    for _, f in elements:
        reducers.append_remainder(
            [(reducers.pack(e), c)
             for e, c in sorted(f.items(), key=lambda t: key(t[0]),
                                reverse=True)], p)
    for i, j in itertools.combinations(range(len(elements)), 2):
        m, expected = s_reference(elements, i, j, p, kind, block)
        r = packed_s_remainder(reducers, i, j, m, p)
        assert list(r.items()) == list(expected.items())


@pytest.mark.parametrize("kind, block, elements, i, j, widths", [
    # x0^40 - x1 and x0 - x1^4 under lex: the lcm x0^40 fits the 7-bit
    # fields, but reducing x0^39*x1^4 by x0 - x1^4 reaches x1^128.
    (k.LEX, 0, [((40, 0), {(40, 0): 1, (0, 1): 12}),
                ((1, 0), {(1, 0): 1, (0, 4): 12})], 0, 1, [(7, 14)]),
    # block order, x0 | x1, x2: the elements fit 7 bits, their lcm
    # x1^60*x2^60 needs 8 before it is packed.
    (k.BLOCK, 1, [((0, 60, 0), {(0, 60, 0): 1, (1, 0, 1): 1}),
                  ((0, 0, 60), {(0, 0, 60): 1, (1, 1, 0): 5})], 0, 1,
     [(7, 8)]),
    # block order, x0 | x1: x0 - x1^90 reduces x0^3*x1 past 8 bits.
    (k.BLOCK, 1, [((3, 0), {(3, 0): 1, (0, 2): 3}),
                  ((1, 0), {(1, 0): 1, (0, 90): 12})], 0, 1, [(8, 16)]),
], ids=["lex-reduction", "block-lcm", "block-reduction"])
def test_packed_s_polynomial_widens(monkeypatch, kind, block, elements, i, j,
                                    widths):
    p = 13
    reducers = k.Reducers(kind, block, len(elements[0][0]))
    for lead, f in elements:
        append_reducer(reducers, f, lead, 1, p)
    m, expected = s_reference(elements, i, j, p, kind, block)
    calls = counting_widen(monkeypatch)
    r = packed_s_remainder(reducers, i, j, m, p)
    assert calls == widths
    assert list(r.items()) == list(expected.items())


def test_packed_s_polynomial_rebuilt_after_overflow(monkeypatch):
    # Remainders join the list at the width they were found at: here x0 -
    # x1^7 and x0*x1 + 1 under lex, in 3-bit fields.  Their S-polynomial
    # -x1^8 - 1 overflows while it is built, so the fields double and it
    # is built again from the re-packed entries.
    p = 13
    reducers = k.Reducers(k.LEX, 0, 2)
    reducers.widen(3)
    pack = reducers.pack
    reducers.append_remainder([(pack((1, 0)), 1), (pack((0, 7)), 12)], p)
    reducers.append_remainder([(pack((1, 1)), 2), (pack((0, 0)), 2)], p)
    calls = counting_widen(monkeypatch)
    r = packed_s_remainder(reducers, 0, 1, (1, 1), p)
    assert calls == [(3, 6)]
    assert list(r.items()) == [((0, 8), 12), ((0, 0), 12)]


def test_append_remainder_makes_monic_without_repacking():
    p = 13
    reducers = k.Reducers(k.GREVLEX, 0, 2)
    reducers.widen(4)
    pack = reducers.pack
    r = [(pack((2, 0)), 3), (pack((1, 1)), 6), (pack((0, 1)), 1)]
    assert reducers.append_remainder(r, p) == (2, 0)
    assert reducers.entries == [(pack((2, 0)),
                                 [(pack((1, 1)), 2), (pack((0, 1)), 9)])]
    assert reducers.width == 4


def sizing_log(monkeypatch):
    """Wrap `input_remainders` and `s_polynomial_remainder`.  Returns the
    list of (d, width) for each `buchberger` run, d the largest input
    degree and width the field width once the inputs are sized, and the
    list of the widths each pair whose lcm has degree at most 2d grew by
    in its reduction."""
    real_inputs = k.input_remainders
    real_remainder = k.s_polynomial_remainder
    sized, grown, bound = [], [], {}

    def input_remainders(reducers, fs, p):
        d = max(max(map(sum, f)) for f in fs)
        bound[id(reducers)] = d
        remainders = real_inputs(reducers, fs, p)
        yield next(remainders)  # the first input meets no entry
        sized.append((d, reducers.width))
        yield from remainders

    def remainder(reducers, i, j, m, p, rows):
        width = reducers.width
        r = real_remainder(reducers, i, j, m, p, rows)
        if sum(m) <= 2 * bound[id(reducers)]:
            grown.append(reducers.width - width)
        return r
    monkeypatch.setattr(k, "input_remainders", input_remainders)
    monkeypatch.setattr(k, "s_polynomial_remainder", remainder)
    return sized, grown


def test_inputs_are_sized_for_every_s_polynomial_of_two_inputs(monkeypatch):
    """The lcm of two input leads has degree at most 2d, d the largest
    input degree, so the inputs are packed `_width_for(2 * d)` wide and no
    pair with such an lcm widens the fields: on a grevlex complete
    intersection of a quadric and two cubics, and on a saturation."""
    from toricpolar.groebner import saturate
    F = PrimeField(32003)
    rng = random.Random(33)

    def form(degree):
        return Polynomial(F, 3, {e: rng.randrange(1, F.p) for e in
                                 itertools.product(range(degree + 1),
                                                   repeat=3)
                                 if sum(e) == degree})
    sized, grown = sizing_log(monkeypatch)
    G = buchberger(Ideal([form(2), form(3), form(3)]))
    assert G.leading_exponents()
    x0, x1, x2 = (Polynomial.variable(F, 3, i) for i in range(3))
    S = saturate(Ideal([x0 * x1 - x2 ** 2, x0 ** 3 - x1 * x2 ** 2]), x0)
    assert S.leading_exponents()
    assert [d for d, _ in sized] == [3, 3]
    assert all(width == k._width_for(2 * d) for d, width in sized)
    assert len(grown) > 10 and not any(grown)


def test_cremona_multidegrees_grow_no_width_after_the_first_sizing(
        monkeypatch):
    """One `multidegrees` of the toric polar map of the Cremona polynomial
    for n = 4: every `Reducers` is sized once, on its first `widen`, and
    then never widens again; the answer is the binomials."""
    from toricpolar.constructions import cremona_poly
    from toricpolar.maps import (RandomizationConfig, multidegrees,
                                 toric_polar_map)
    grown = counting_widen(monkeypatch)
    values = multidegrees(toric_polar_map(cremona_poly(4)),
                          RandomizationConfig(seed=0)).values
    assert values == (1, 4, 6, 4, 1)
    assert grown and all(before == 0 for before, _ in grown)


@pytest.mark.parametrize("seed", range(12))
def test_reduce_tails_matches_reduction_by_the_others(seed):
    # A minimal basis: leads of one total degree never divide each other.
    # Tails are terms below the lead, up to degree 30 under lex and block.
    rng = random.Random(700 + seed)
    arity = rng.randint(2, 4)
    p = rng.choice(PRIMES)
    kind, block = rng.choice([(k.GREVLEX, 0), (k.LEX, 0), (k.BLOCK, 1)])
    key = k.order_key(kind, block)
    degree = rng.randint(1, 4)
    leads = list({tuple(rng.choice([c for c in itertools.product(
        range(degree + 1), repeat=arity) if sum(c) == degree]))
        for _ in range(rng.randint(1, 5))})
    leads.sort(key=key)
    elements = []
    for lead in leads:
        top = 30 if kind != k.GREVLEX and rng.random() < 0.5 else degree
        tail = {e: c for e, c in random_terms(rng, arity, p, 6, top).items()
                if key(e) < key(lead)}
        elements.append((lead, {lead: 1, **tail}))
    basis = k.Reducers(kind, block, arity)
    for lead, f in elements:
        append_reducer(basis, f, lead, 1, p)
    tails = basis.subset(range(len(elements)))
    k.reduce_tails(tails, p)
    reduced = entry_terms(tails)
    for i, (lead, f) in enumerate(elements):
        others = basis.subset([j for j in range(len(elements)) if j != i])
        expected = k.normal_form_terms(f, others, p)
        assert list(reduced[i].items()) == list(expected.items())


def test_reduce_tails_widens(monkeypatch):
    # Lex: x0 - x1^100 and x1^3 - x2^50.  Reducing x1^100 by x1^3 - x2^50
    # ends at x1*x2^1650, past the 8-bit fields: one doubling, to 16.
    p = 13
    elements = [((0, 3, 0), {(0, 3, 0): 1, (0, 0, 50): 12}),
                ((1, 0, 0), {(1, 0, 0): 1, (0, 100, 0): 12})]
    basis = k.Reducers(k.LEX, 0, 3)
    for lead, f in elements:
        append_reducer(basis, f, lead, 1, p)
    calls = counting_widen(monkeypatch)
    k.reduce_tails(basis, p)
    reduced = entry_terms(basis)
    assert calls == [(8, 16)]
    assert list(reduced[1].items()) == [((1, 0, 0), 1), ((0, 1, 1650), 12)]
    assert reduced[0] == elements[0][1]


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_row_columns_are_the_monomials_of_the_degree_in_order(arity):
    """The columns of a degree are its monomials, ascending in grevlex,
    whether they grow from the columns of a lower degree or start again
    from 1 after a lower degree."""
    p = 32003
    reducers = k.Reducers(k.GREVLEX, 0, arity)
    reducers.widen(4)
    key = k.order_key(k.GREVLEX, 0)
    for degree in [0, 3, 2, 5, 6]:
        reducers._set_columns(degree, p)
        _, monomials, columns, w = reducers.columns
        expected = sorted((e for e in itertools.product(range(degree + 1),
                                                        repeat=arity)
                           if sum(e) == degree), key=key)
        assert [reducers.unpack(x) for x in monomials] == expected
        assert columns == {x: c for c, x in enumerate(monomials)}
        assert w == 2 * 15 + (len(expected) + 2).bit_length() + 1


@pytest.mark.parametrize("first, second", [
    ({(2, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 2): 3}),
    ({(2, 0): 1, (0, 2): 5}, {(1, 1): 1, (0, 3): 3}),
], ids=["first-not-a-form", "second-not-a-form"])
def test_row_reduction_of_a_non_form_raises(first, second):
    """Rows are made for the monomials of one degree.  An entry that is not
    a form breaks that invariant: the row path raises, where the heap path
    reduces the same pair."""
    p = 32003
    reducers = k.Reducers(k.GREVLEX, 0, 2)
    append_reducer(reducers, first, (2, 0), 1, p)
    append_reducer(reducers, second, (1, 1), 1, p)
    with pytest.raises(ToricPolarError, match="not a monomial of that degree"):
        k.s_polynomial_remainder(reducers, 0, 1, (2, 1), p, True)
    assert k.s_polynomial_remainder(reducers, 0, 1, (2, 1), p, False)


def test_row_reduction_of_an_unsorted_tail_raises():
    """A row grows from its top slot down, so a tail must be largest
    first; `append_remainder` keeps the order of the terms it is given."""
    p = 32003
    reducers = k.Reducers(k.GREVLEX, 0, 2)
    append_reducer(reducers, {(2, 0): 1, (0, 2): 5, (1, 1): 7}, (2, 0), 1, p)
    append_reducer(reducers, {(1, 1): 1, (0, 2): 3}, (1, 1), 1, p)
    with pytest.raises(ToricPolarError, match="not below the term before"):
        k.s_polynomial_remainder(reducers, 0, 1, (2, 1), p, True)


def test_row_cache_holds_only_the_degree_of_its_columns():
    """The rows of reducer multiples are kept for the degree of the
    columns: after row reductions in degree 3 and then in degree 4 on one
    `Reducers`, every cached row is that of a monomial of degree 4.  A
    `widen` re-packs the columns and the keys of the rows, and keeps the
    rows themselves, whose slots are column positions.  Each remainder is
    the heap path's."""
    field = PrimeField(32003)
    p = field.p
    G = buchberger(Ideal([
        Polynomial(field, 3, {(2, 0, 0): 1, (0, 1, 1): 3, (0, 0, 2): 1}),
        Polynomial(field, 3, {(0, 2, 0): 1, (1, 0, 1): 5, (1, 1, 0): 7}),
        Polynomial(field, 3, {(1, 1, 0): 1, (0, 0, 2): 1})]))
    reducers = G._minimal

    def row_degrees():
        return {sum(reducers.unpack(u)) for u in reducers.rows}

    m = k.exp_lcm(*[reducers.unpack(x) for x, _ in reducers.entries[:2]])
    for m in [m, (m[0], m[1], m[2] + 1)]:
        r = k.s_polynomial_remainder(reducers, 0, 1, m, p, True)
        assert r == k.s_polynomial_remainder(reducers, 0, 1, m, p, False)
        assert row_degrees() == {sum(m)}
    width = reducers.width
    unpack = reducers.unpack
    columns = [unpack(x) for x in reducers.columns[1]]
    rows = {unpack(u): row for u, row in reducers.rows.items()}
    reducers.widen(2 * width)
    assert [reducers.unpack(x) for x in reducers.columns[1]] == columns
    assert {reducers.unpack(u): row
            for u, row in reducers.rows.items()} == rows
    r = k.s_polynomial_remainder(reducers, 0, 1, m, p, True)
    assert r == k.s_polynomial_remainder(reducers, 0, 1, m, p, False)
    assert reducers.columns[0] == sum(m) and reducers.width == 2 * width
    assert row_degrees() == {sum(m)}


def test_row_reduction_of_an_overflowing_slot_raises():
    """A slot holds less than (columns + 2) p^2, so no step comes back to a
    column it has cleared.  A forged coefficient far above p overflows its
    slot into the ones above, and the row path raises instead of looping."""
    p = 32003
    reducers = k.Reducers(k.GREVLEX, 0, 2)
    append_reducer(reducers, {(2, 0): 1, (0, 2): 2**300}, (2, 0), 1, p)
    append_reducer(reducers, {(1, 1): 1, (0, 2): 3}, (1, 1), 1, p)
    with pytest.raises(ToricPolarError, match="a slot overflowed"):
        k.s_polynomial_remainder(reducers, 0, 1, (2, 1), p, True)


def three_quadrics(p):
    """x0*x1 + 5*x2^2, x0^2 + 2*x1*x2 and x1^2 + 3*x2^2 as monic grevlex
    entries.  Lead 0 divides the lcm of leads 1 and 2, x0^2*x1^2, so entry
    0 is that lcm's first divisor; it is also the first divisor of the lcm
    of leads 0 and 1, x0^2*x1."""
    reducers = k.Reducers(k.GREVLEX, 0, 3)
    append_reducer(reducers, {(1, 1, 0): 1, (0, 0, 2): 5}, (1, 1, 0), 1, p)
    append_reducer(reducers, {(2, 0, 0): 1, (0, 1, 1): 2}, (2, 0, 0), 1, p)
    append_reducer(reducers, {(0, 2, 0): 1, (0, 0, 2): 3}, (0, 2, 0), 1, p)
    return reducers


def counting_rows(monkeypatch):
    """Record (tail, shift) of every `_row` call."""
    calls = []
    real = k._row

    def row(reducers, tail, d):
        calls.append((tail, d))
        return real(reducers, tail, d)
    monkeypatch.setattr(k, "_row", row)
    return calls


def test_row_half_comes_from_the_cache_when_entry_i_divides_first(
        monkeypatch):
    """The first half (m / lead_i) tail_i of a row S-polynomial is the row
    of m's reducer multiple when entry i is m's first divisor: it is taken
    from `Reducers.rows`, and stored there when it has to be built.  A
    second reduction of the pair builds only the other half."""
    p = 32003
    reducers = three_quadrics(p)
    m = (2, 1, 0)
    calls = counting_rows(monkeypatch)
    r = k.s_polynomial_remainder(reducers, 0, 1, m, p, True)
    x = reducers.pack(m)
    lead, tail = reducers.entries[0]
    assert calls[0] == (tail, x - lead)
    assert reducers.rows[x] == k._row(reducers, tail, x - lead)
    assert r == k.s_polynomial_remainder(reducers, 0, 1, m, p, False)
    del calls[:]
    assert k.s_polynomial_remainder(reducers, 0, 1, m, p, True) == r
    lead, tail = reducers.entries[1]
    assert calls == [(tail, x - lead)]


def test_row_half_is_built_apart_when_another_entry_divides_first(
        monkeypatch):
    """When an earlier entry is m's first divisor, the row of m's reducer
    multiple is that entry's, not entry i's: the half is built from entry
    i and not cached.  The leading terms cancel, so the reduction never
    meets m itself."""
    p = 32003
    reducers = three_quadrics(p)
    m = (2, 2, 0)
    calls = counting_rows(monkeypatch)
    r = k.s_polynomial_remainder(reducers, 1, 2, m, p, True)
    x = reducers.pack(m)
    lead, tail = reducers.entries[1]
    assert calls[0] == (tail, x - lead)
    assert x not in reducers.rows
    assert r == k.s_polynomial_remainder(reducers, 1, 2, m, p, False)


def test_stale_divisor_index_raises_on_the_row_path(monkeypatch):
    """The row path checks the reducer that the index names before it
    builds its row, as the heap path does: with the index of the entries in
    another order, the first reducer step raises."""
    p = 32003
    reducers = three_quadrics(p)
    stale_index(monkeypatch, [2, 0, 1])
    with pytest.raises(ToricPolarError, match="the index is stale"):
        k.s_polynomial_remainder(reducers, 0, 1, (2, 1, 0), p, True)


def test_row_halves_on_a_counting_loop(monkeypatch):
    """The base ideal of the toric polar map of a general translate of the
    Fermat quartic surface (translate seed 1) reduces every pair on rows.
    Each remainder is the heap path's, and each cached row is the row of
    its monomial's reducer multiple by the first divisor, whether it was
    made for a reducer step or as the first half of an S-polynomial.  The
    loop makes 448 rows; building both halves of every S-polynomial apart
    made 483."""
    from toricpolar.maps import random_translate, toric_polar_map
    from toricpolar.parse import parse_polynomial
    names = ("x0", "x1", "x2", "x3")
    quartic = parse_polynomial(" + ".join(f"{v}^4" for v in names), names,
                               PrimeField())
    coordinates = toric_polar_map(random_translate(quartic, 1)).coordinates
    real_row = k._row
    real_remainder = k._row_remainder
    heap_path = k.s_polynomial_remainder
    calls = counting_rows(monkeypatch)
    pairs = []

    def row_remainder(reducers, i, j, m, p):
        r = real_remainder(reducers, i, j, m, p)
        assert r == heap_path(reducers, i, j, m, p, False)
        unpack = reducers.unpack
        for u, row in reducers.rows.items():
            lead, tail = next(
                (lead, tail) for lead, tail in reducers.entries
                if k.exp_divides(unpack(lead), unpack(u)))
            assert row == real_row(reducers, tail, u - lead)
        pairs.append(m)
        return r
    monkeypatch.setattr(k, "_row_remainder", row_remainder)
    buchberger(Ideal(coordinates))
    assert len(pairs) == 63
    assert len(calls) == 448


def test_a_widen_mid_degree_keeps_the_rows(monkeypatch):
    """Column order is the monomial order at every width and a row's slots
    are column positions, so `widen` keeps the columns and rows.  On the
    counting loop of `test_row_halves_on_a_counting_loop`, one run widens
    the fields by a bit between two row reductions of one degree, and
    another starts at the wide width: after each reduction the two hold
    the same remainder, columns and rows."""
    from toricpolar.maps import random_translate, toric_polar_map
    from toricpolar.parse import parse_polynomial
    names = ("x0", "x1", "x2", "x3")
    quartic = parse_polynomial(" + ".join(f"{v}^4" for v in names), names,
                               PrimeField())
    coordinates = toric_polar_map(random_translate(quartic, 1)).coordinates
    real_remainder = k._row_remainder

    def run(widen_at):
        states = []

        def row_remainder(reducers, i, j, m, p):
            if len(states) == widen_at:
                assert reducers.columns[0] == sum(m)
                reducers.widen(reducers.width + 1)
            r = real_remainder(reducers, i, j, m, p)
            unpack = reducers.unpack
            states.append((m, [(unpack(x), c) for x, c in r],
                           reducers.columns[0],
                           [unpack(x) for x in reducers.columns[1]],
                           {unpack(u): row
                            for u, row in reducers.rows.items()},
                           reducers.width))
            return r
        with monkeypatch.context() as patch:
            patch.setattr(k, "_row_remainder", row_remainder)
            buchberger(Ideal(coordinates))
        return states

    narrow = run(40)
    width = narrow[-1][-1]
    assert narrow[39][-1] == width - 1 and narrow[40][-1] == width
    assert sum(narrow[39][0]) == sum(narrow[40][0])
    real_width_for = k._width_for
    monkeypatch.setattr(k, "_width_for",
                        lambda degree: max(real_width_for(degree), width))
    wide = run(None)
    assert all(state[-1] == width for state in wide)
    assert [state[:-1] for state in narrow] == [state[:-1] for state in wide]
