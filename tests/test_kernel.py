"""The term kernel against plain references.

`normal_form_terms` keeps its pending terms, packed into ints, in a heap.
The reference below works on exponent tuples and finds each leading term
by scanning with `exp_cmp`.  Both reduce the largest pending term by the
first divisor, so they must return the same remainder, in the same
insertion order, even when the reducers are not a Gröbner basis.  The
order keys and the packs are checked against `exp_cmp` and the tuple
helpers, and the term arithmetic against dicts summed term by term,
reduced mod p, with zero coefficients dropped.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpolar import _kernel_py as k
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


def pack_reducers(lead_exps, lead_invs, tails, kind, block, arity):
    """The tuple reducers of the reference, packed for the kernel."""
    reducers = k.Reducers(kind, block, arity)
    for lead, inv, tail in zip(lead_exps, lead_invs, tails):
        reducers.append({lead: 1, **tail}, lead, inv)
    return reducers


def kernel_normal_form(arity, f, lead_exps, lead_invs, tails, p, kind,
                       block):
    reducers = pack_reducers(lead_exps, lead_invs, tails, kind, block, arity)
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
    reducers.append({(1, 0): 1, (0, 3): 12}, (1, 0), 1)
    assert reducers.width == 3
    r = k.normal_form_terms({(100, 0): 1}, reducers, 13)
    assert list(r.items()) == [((0, 300), 1)]
    assert reducers.width == 16


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
    reducers = pack_reducers(leads, invs, tails, kind, block, 3)
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
        reducers.append({lead: 1, **tail}, lead, inv)
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
    reducers = pack_reducers(*case[1:4], k.LEX, 0, 3)
    assert reducers.width == 10
    r = k.normal_form_terms(case[0], reducers, 13)
    assert reducers.width == 20
    assert list(r.items()) == [((0, 160, 4), 1)]
    assert list(reference_normal_form(*case).items()) == [((0, 160, 4), 1)]


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
    scalar = st.one_of(st.sampled_from([0, 1, p, p + 1]),
                       st.integers(-2 * p, 2 * p))
    return draw(terms), draw(terms), draw(exps), draw(scalar), p


@settings(max_examples=300, deadline=None)
@given(operands())
def test_term_arithmetic_matches_dict_reference(case):
    a, b, d, c, p = case
    a_before, b_before = dict(a), dict(b)
    A, B = list(a.items()), list(b.items())
    assert k.add_terms(a, b, p) == reference_terms(A + B, p)
    assert k.sub_terms(a, b, p) == reference_terms(
        A + [(e, -v) for e, v in B], p)
    assert k.neg_terms(a, p) == reference_terms([(e, -v) for e, v in A], p)
    assert k.scale_terms(a, c, p) == reference_terms(
        [(e, c * v) for e, v in A], p)
    # times one term: the terms of `a` shifted, in their order
    assert list(k.mul_terms(a, {d: c}, p).items()) == list(reference_terms(
        [(exp_sum(e, d), c * v) for e, v in A], p).items())
    assert k.mul_terms(a, b, p) == reference_terms(
        [(exp_sum(ea, eb), va * vb) for ea, va in A for eb, vb in B], p)
    assert (a, b) == (a_before, b_before)


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
        reducers.append(f, lead, 1)
    return m, k.normal_form_terms(
        _s_terms(p, fi, li, 1, fj, lj, 1, m), reducers, p)


def packed_s_remainder(reducers, i, j, m, p):
    unpack = reducers.unpack
    return {unpack(x): c
            for x, c in k.s_polynomial_remainder(reducers, i, j, m, p)}


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
        reducers.append(f, lead, 1)
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
    assert reducers.entries == [(pack((2, 0)), 1,
                                 [(pack((1, 1)), 2), (pack((0, 1)), 9)])]
    assert reducers.width == 4


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
        basis.append(f, lead, 1)
    reduced = k.reduce_tails(basis.subset(range(len(elements))), p)
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
        basis.append(f, lead, 1)
    calls = counting_widen(monkeypatch)
    reduced = k.reduce_tails(basis, p)
    assert calls == [(8, 16)]
    assert list(reduced[1].items()) == [((1, 0, 0), 1), ((0, 1, 1650), 12)]
    assert reduced[0] == elements[0][1]
