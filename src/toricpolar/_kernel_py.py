"""Pure-Python term kernel: sparse polynomial arithmetic over F_p.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
{1, ..., p-1}; the zero polynomial is the empty dict.  All functions here
return fresh dicts and never mutate their arguments, except where noted.

This is the package's only term kernel: every `PrimeField` carries this
module as `field.kernel`, whatever its prime, and the polynomial and
Gröbner code call it through that attribute.  `normal_form_terms` keeps
its pending terms in a heap (Monagan & Pearce, "Sparse polynomial division
using a heap", J. Symbolic Comput. 46, 2011).

Monomial-order codes (`kind`):
  0  graded reverse lexicographic
  1  lexicographic
  2  block elimination: grevlex on the first `block` variables, ties broken
     by grevlex on the rest
"""

from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

GREVLEX = 0
LEX = 1
BLOCK = 2


def _grevlex_cmp_range(e1, e2, lo, hi):
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
    """Three-way comparison of exponent tuples: -1, 0 or 1."""
    n = len(e1)
    if kind == GREVLEX:
        return _grevlex_cmp_range(e1, e2, 0, n)
    if kind == LEX:
        for i in range(n):
            a = e1[i]
            b = e2[i]
            if a != b:
                return 1 if a > b else -1
        return 0
    c = _grevlex_cmp_range(e1, e2, 0, block)
    if c:
        return c
    return _grevlex_cmp_range(e1, e2, block, n)


def _grevlex_key(e):
    return (-sum(e), e[::-1])


def _lex_key(e):
    return tuple(map(neg, e))


def _order_key(kind, block):
    """Sort key under which the largest monomial in the order comes first.

    Keys of distinct exponents differ, so sorting (or a heap) by key alone
    agrees with exp_cmp.
    """
    if kind == GREVLEX:
        return _grevlex_key
    if kind == LEX:
        return _lex_key

    def block_key(e):
        # grevlex keys of e[:block] and of e[block:], joined
        return (-sum(e[:block]), e[block - 1::-1],
                -sum(e[block:]), e[:block - 1:-1])
    return block_key


def exp_add(e, d):
    return tuple(map(add, e, d))


def exp_sub(e, d):
    return tuple(map(sub, e, d))


def exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def exp_divides(d, e):
    """True when the monomial x^d divides x^e."""
    return all(map(le, d, e))


def leading_exponent(terms, kind, block):
    """Largest exponent of `terms` in the order, or None when empty."""
    return min(terms, key=_order_key(kind, block), default=None)


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


def term_mul(a, d, c, p):
    """Multiply `a` by the single term c * x^d."""
    c %= p
    if c == 0:
        return {}
    r = {}
    for e, v in a.items():
        w = v * c % p
        if w:
            r[tuple(map(add, e, d))] = w
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


def normal_form_terms(f, lead_exps, lead_invs, tails, p, kind, block):
    """Fully reduce `f` modulo a list of reducers.

    Reducer i has leading exponent lead_exps[i], inverse leading coefficient
    lead_invs[i] and tail terms tails[i] (the reducer minus its leading
    term).  Each step reduces the largest pending term by the first reducer
    whose leading exponent divides it.  Returns the remainder, none of whose
    terms is divisible by any lead_exps[i].

    The pending terms live in `h`; every key of `h` has exactly one entry
    in the heap, which pops the largest monomial first.  A coefficient that
    cancels stays in `h` as 0, so that its entry is not pushed twice, and
    is skipped when popped.
    """
    key = _order_key(kind, block)
    h = dict(f)
    heap = [(key(e), e) for e in h]
    heapify(heap)
    r = {}
    reducers = list(zip(lead_exps, lead_invs, tails))
    while heap:
        u = heappop(heap)[1]
        c = h.pop(u)
        if not c:
            continue
        for lead, inv, tail in reducers:
            if all(map(le, lead, u)):
                break
        else:
            r[u] = c
            continue
        q = c * inv % p
        d = tuple(map(sub, u, lead))
        for te, tc in tail.items():
            e = tuple(map(add, te, d))
            s = h.get(e)
            if s is None:
                h[e] = -q * tc % p
                heappush(heap, (key(e), e))
            else:
                h[e] = (s - q * tc) % p
    return r
