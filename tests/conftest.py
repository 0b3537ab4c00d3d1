import random

import pytest

from toricpolar import _kernel_py
from toricpolar.field import PrimeField
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial


@pytest.fixture(scope="session")
def field():
    return PrimeField()


@pytest.fixture
def plane(field):
    """Parse in the three plane variables x0, x1, x2."""
    return lambda text: parse_polynomial(text, ("x0", "x1", "x2"), field)


def append_reducer(reducers, terms, lead, inv, p):
    """Append the reducer with leading term inv^-1 x^lead and the other
    `terms` as its tail to a kernel `Reducers`, through its one append
    path, packed in the order of `terms` after the lead: made monic, its
    tail is `inv` times theirs.  The fields first hold twice its degree."""
    reducers.widen(_kernel_py._width_for(max(map(sum, terms))))
    pack = reducers.pack
    reducers.append_remainder(
        [(pack(lead), pow(inv, -1, p))]
        + [(pack(e), c) for e, c in terms.items() if e != lead], p)


def entry_terms(reducers):
    """The monic entries of a kernel `Reducers`, unpacked: term dicts, the
    lead first and the tail after it in its packed order."""
    unpack = reducers.unpack
    return [{unpack(x): 1, **{unpack(y): c for y, c in tail}}
            for x, tail in reducers.entries]


def random_homogeneous(field, rng: random.Random, arity: int, degree: int,
                       max_terms: int = 6) -> Polynomial:
    """Random nonzero homogeneous polynomial of the exact given degree."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            counts = [0] * arity
            for _ in range(degree):
                counts[rng.randrange(arity)] += 1
            terms[tuple(counts)] = rng.randrange(1, field.p)
        f = Polynomial(field, arity, terms)
        if not f.is_zero():
            return f


def random_polynomial(field, rng: random.Random, arity: int, max_degree: int,
                      max_terms: int = 6) -> Polynomial:
    """Random (possibly inhomogeneous, possibly zero) polynomial."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_degree) for _ in range(arity))
        if sum(e) > max_degree:
            continue
        terms[e] = rng.randrange(field.p)
    return Polynomial(field, arity, terms)
