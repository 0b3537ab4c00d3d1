import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricpolar import _kernel_py as kernel
from toricpolar import groebner
from toricpolar.errors import PreconditionError, ToricPolarError
from toricpolar.field import PrimeField
from toricpolar.groebner import (GroebnerBasis, Ideal, buchberger, eliminate,
                                 hilbert_dim_degree, intersect, saturate,
                                 vector_space_dimension)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import GREVLEX, LEX, Polynomial, block_order

from conftest import (append_reducer, entry_terms, random_homogeneous,
                      random_polynomial)

F = PrimeField()


def P(text, vars=("x0", "x1", "x2")):
    return parse_polynomial(text, vars, F)


def P2(text):
    return parse_polynomial(text, ("x0", "x1"), F)


def ideal_equal(I, J):
    """Compare ideals through their reduced Groebner bases."""
    return buchberger(I).generators == buchberger(J).generators


# --- buchberger ---------------------------------------------------------------

def test_already_reduced_basis():
    G = buchberger(Ideal([P("x0"), P("x1")]))
    assert [str(g) for g in G] == ["x1", "x0"]


def test_redundant_generator_removed():
    G = buchberger(Ideal([P("x0^2 - x1^2"), P("x0 - x1")]))
    assert [str(g) for g in G] == ["x0 - x1"]


def test_unit_ideal_detected():
    # 1 = x1*(x0*x1 - 1) - x1^2*x0 + ... : verified via the normal form
    I = Ideal([P2("x0*x1 - 1"), P2("x0^2")])
    G = buchberger(I)
    assert [str(g) for g in G] == ["1"]
    assert G.contains(Polynomial.constant(F, 2, 1))


def test_reduced_property_and_s_pairs():
    rng = random.Random(11)
    for _ in range(10):
        gens = [random_homogeneous(F, rng, 3, rng.randint(1, 3), max_terms=4)
                for _ in range(rng.randint(1, 3))]
        G = buchberger(Ideal(gens))
        assert G.s_polynomials_reduce_to_zero()
        # reduced: no term of one element divisible by another leading term
        leads = G.leading_exponents()
        for i, g in enumerate(G):
            for e in g.terms:
                assert not any(j != i and F.kernel.exp_divides(leads[j], e)
                               for j in range(len(leads)))
        # generators lie in the ideal
        for g in gens:
            assert G.contains(g)


def test_buchberger_deterministic():
    gens = [P("x0*x1 - x2^2"), P("x1^2 - x0*x2")]
    a = buchberger(Ideal(gens))
    b = buchberger(Ideal(gens))
    assert a.generators == b.generators


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)],
                         ids=["grevlex", "lex", "block"])
def test_buchberger_independent_of_generator_order(order):
    # the reduced basis is unique, so neither pair selection nor the
    # order in which generators arrive may change it
    rng = random.Random(5)
    for _ in range(8):
        gens = [random_polynomial(F, rng, 3, 3, max_terms=4) for _ in range(3)]
        expected = buchberger(Ideal(gens, field=F, arity=3), order).generators
        for _ in range(3):
            rng.shuffle(gens)
            got = buchberger(Ideal(gens, field=F, arity=3), order).generators
            assert got == expected


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)],
                         ids=["grevlex", "lex", "block"])
def test_debug_check_accepts_computed_bases(monkeypatch, order):
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    gens = [P("x0*x1 - x2^2 + 1"), P("x1^2 - x0*x2"), P("x0^2 - x1 + x2")]
    G = buchberger(Ideal(gens), order)
    assert len(G) > 1 and G.s_polynomials_reduce_to_zero()


def test_debug_check_raises_without_assert(monkeypatch):
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    monkeypatch.setattr(groebner.GroebnerBasis, "s_polynomials_reduce_to_zero",
                        lambda self: False)
    with pytest.raises(ToricPolarError, match=r"2-element basis under the lex"):
        buchberger(Ideal([P("x0 - x1"), P("x2^2 - x1")]), LEX)


def _drop_smallest_term(real):
    """A packed S-polynomial builder that loses the smallest term."""
    def s_polynomial(reducers, i, j, m):
        h = real(reducers, i, j, m)
        if h:
            del h[min(h)]
        return h
    return s_polynomial


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)],
                         ids=["grevlex", "lex", "block"])
def test_debug_check_catches_a_broken_packed_s_polynomial(monkeypatch,
                                                          order):
    """The debug check builds its S-polynomials from the elements' term
    dicts (`_s_terms`), not with the kernel's packed builder that
    `buchberger` uses, so a fault in that builder cannot hide itself."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    monkeypatch.setattr(kernel, "_s_polynomial",
                        _drop_smallest_term(kernel._s_polynomial))
    with pytest.raises(ToricPolarError, match="does not reduce to zero"):
        buchberger(Ideal([P("x0*x1 - x2^2"), P("x1^2 - x0*x2")]), order)


BROKEN_BUILDER_UNDER_O = """
from toricpolar import _kernel_py as kernel
from toricpolar.errors import ToricPolarError
from toricpolar.field import PrimeField
from toricpolar.groebner import Ideal, buchberger
from toricpolar.parse import parse_polynomial

real = kernel._s_polynomial


def s_polynomial(reducers, i, j, m):
    h = real(reducers, i, j, m)
    del h[min(h)]
    return h


kernel._s_polynomial = s_polynomial
F = PrimeField()
gens = [parse_polynomial(t, ("x0", "x1", "x2"), F)
        for t in ("x0*x1 - x2^2", "x1^2 - x0*x2")]
try:
    buchberger(Ideal(gens))
except ToricPolarError:
    print(__debug__, "ToricPolarError")
"""


def test_debug_check_catches_a_broken_packed_s_polynomial_under_python_O():
    src = Path(groebner.__file__).resolve().parent.parent
    env = dict(os.environ, TORICPOLAR_DEBUG="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_BUILDER_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "False ToricPolarError\n", "")


def test_debug_check_catches_a_skipped_tail_pass(monkeypatch):
    """The debug check of `buchberger` reads only the minimal basis, so
    the first read of `generators` checks its own tail pass: with the pass
    skipped, the lead x1 still divides a tail term of this basis."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    G = buchberger(Ideal([P("x2^2 - x0"), P("x2^2 - x1")]))
    monkeypatch.setattr(kernel, "reduce_tails", lambda basis, p: None)
    with pytest.raises(ToricPolarError, match="the tail pass left a term"):
        G.generators


def test_tail_check_reads_tails_packed_before_a_widen(monkeypatch):
    """The leads x2^9, x1 and x0 are coprime, so the debug check of
    `buchberger` reduces no S-polynomial and leaves the fields at 4 bits;
    the tail check's normal form of x2^8 widens them to 5 bits.  It must
    not read the later tails with the unpacking of the narrower fields."""
    monkeypatch.setattr(groebner, "_DEBUG_CHECK_BASES", True)
    G = buchberger(Ideal([P("x0^2*x1 + 1"), P("x1^2*x2 + x1"),
                          P("x0*x2^2 + x1^2")]), block_order(2))
    assert G.leading_exponents() == ((0, 0, 9), (0, 1, 0), (1, 0, 0))
    width = G._minimal.width
    assert [str(g) for g in G] == ["x2^9 - 1", "x2^8 + x1", "x2^5 + x0"]
    assert G._minimal.width > width


def all_pairs_reduce_to_zero(G):
    """The debug check without Buchberger's criteria: the S-polynomial of
    every pair of minimal elements reduces to zero."""
    p, basis = G.field.p, G._minimal
    unpack = basis.unpack
    elems = [(unpack(x), {unpack(y): c for y, c in [(x, 1)] + tail})
             for x, tail in basis.entries]
    return not any(
        kernel.normal_form_terms(groebner._s_terms(
            p, fi, li, fj, lj, kernel.exp_lcm(li, lj)), basis, p)
        for (li, fi), (lj, fj) in itertools.combinations(elems, 2))


def without(G, k):
    """The minimal elements of G but the k-th, as a `GroebnerBasis`."""
    keep = [i for i in range(len(G)) if i != k]
    leads = G.leading_exponents()
    return GroebnerBasis(G.field, G.order, G._minimal.subset(keep),
                         [leads[i] for i in keep])


def test_criteria_pairs_skip_coprime_leads_and_strict_chains():
    """x^2*y, y*z^2 and x*y*z: the lcm x^2*y*z^2 of the first two is
    divided by the third lead, and strictly by the two other lcms, so the
    chain criterion skips that pair.  x*y, x*z and y*z: each lead divides
    the common lcm x*y*z of the other two, but the other lcms equal it, so
    every pair is kept; skipping them all would pass any such three
    elements.  x^2 and y^2 are coprime."""
    def kept(leads):
        return [(i, j) for i, j, _ in groebner._criteria_pairs(leads)]

    assert kept([(2, 1, 0), (0, 1, 2), (1, 1, 1)]) == [(0, 2), (1, 2)]
    assert kept([(1, 1, 0), (1, 0, 1), (0, 1, 1)]) == [(0, 1), (0, 2),
                                                        (1, 2)]
    assert kept([(2, 0, 0), (0, 2, 0)]) == []


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)],
                         ids=["grevlex", "lex", "block"])
def test_criteria_check_agrees_with_all_pairs(order):
    """The debug check reduces only the pairs that Buchberger's criteria
    keep; on computed bases, and on the same bases with one element
    dropped, it answers as the check of every pair does.  Both answer
    whether the elements form a Gröbner basis, so each dropped basis that
    is not one must fail both."""
    rng = random.Random(29)
    skipped = failed = 0
    for draw in range(30):
        # forms of degree 2 and 3, or affine polynomials of degree <= 3
        gens = [random_homogeneous(F, rng, 3, rng.randint(2, 3), max_terms=4)
                if draw % 2 else random_polynomial(F, rng, 3, 3, max_terms=4)
                for _ in range(rng.randint(2, 3))]
        G = buchberger(Ideal(gens, field=F, arity=3), order)
        assert G.s_polynomials_reduce_to_zero()
        assert all_pairs_reduce_to_zero(G)
        n = len(G)
        skipped += n * (n - 1) // 2 - len(
            groebner._criteria_pairs(G.leading_exponents()))
        for k in range(n):
            H = without(G, k)
            answer = H.s_polynomials_reduce_to_zero()
            assert answer == all_pairs_reduce_to_zero(H)
            failed += not answer
    assert skipped > 0 and failed > 0


# --- normal form ----------------------------------------------------------------

def test_normal_form_examples():
    G = buchberger(Ideal([P("x0 - x1")]))
    assert G.normal_form(P("x0^2")) == P("x1^2")
    assert buchberger(Ideal([P("x0"), P("x1")])).normal_form(P("1")) == P("1")
    member = P("(x0 - x1) * (x0 + 17*x2)")
    assert G.normal_form(member).is_zero()


def test_normal_form_idempotent_and_linear():
    rng = random.Random(7)
    G = buchberger(Ideal([P("x0*x1 - x2^2"), P("x1^3 - x0^2*x2")]))
    for _ in range(20):
        f = random_homogeneous(F, rng, 3, rng.randint(1, 4), max_terms=5)
        g = random_homogeneous(F, rng, 3, rng.randint(1, 4), max_terms=5)
        c = rng.randrange(F.p)
        nf = G.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(f) + nf(g)
        assert nf(f * c) == nf(f) * c
        assert nf(f - nf(f)).is_zero()


# --- eliminate -------------------------------------------------------------------

def T(text):
    return parse_polynomial(text, ("t", "x0", "x1"), F)


def test_eliminate_saturation_pattern():
    E = eliminate(Ideal([T("t*x0 - 1"), T("t*x1")]), {0})
    # x1 = -x1*(t*x0 - 1) + x0*(t*x1) lies in the ideal; membership both ways
    assert [g.to_text(("t", "x0", "x1")) for g in E.generators] == ["x1"]
    G = buchberger(Ideal([T("t*x0 - 1"), T("t*x1")]), LEX)
    assert G.contains(T("x1"))


def test_eliminate_parameter():
    E = eliminate(Ideal([T("x0 - t"), T("x1 - t")]), {0})
    assert [g.to_text(("t", "x0", "x1")) for g in E.generators] == ["x0 - x1"]


def test_eliminate_unused_variable_keeps_ideal():
    I = Ideal([T("x0^2 - x1"), T("x1^2")])
    E = eliminate(I, {0})
    assert ideal_equal(E, I)


def test_eliminate_nothing_gives_the_reduced_basis():
    """With no variable dropped, the result is still the reduced grevlex
    basis of the ideal: the two generators here are not a Gröbner basis
    (their S-polynomial leaves x1^2*x2)."""
    I = Ideal([P("x0^2 + x1*x2"), P("x0*x1")])
    fresh = buchberger(I, GREVLEX)
    assert len(fresh) == 3
    for drop in ([], set()):
        E = eliminate(I, drop)
        assert isinstance(E, GroebnerBasis) and E.order == GREVLEX
        assert [list(g.terms.items()) for g in E.generators] == [
            list(g.terms.items()) for g in fresh.generators]
        assert E.leading_exponents() == fresh.leading_exponents()


def test_eliminate_rejects_everything():
    with pytest.raises(PreconditionError):
        eliminate(Ideal([P2("x0")]), {0, 1})


# --- saturate ---------------------------------------------------------------------

def test_saturate_strips_primary_component():
    S = saturate(Ideal([P("x0^2*x1")]), P("x0"))
    assert [str(g) for g in S.generators] == ["x1"]


def test_saturate_monomial_pair():
    S = saturate(Ideal([P("x0*x1"), P("x0*x2")]), P("x0"))
    assert sorted(str(g) for g in S.generators) == ["x1", "x2"]


def test_saturate_by_nonzerodivisor_fixes_ideal():
    S = saturate(Ideal([P("x1")]), P("x0"))
    assert [str(g) for g in S.generators] == ["x1"]


def test_saturate_idempotent_same_reduced_basis():
    I = Ideal([P("x0^2*x1 - x0*x2^2"), P("x0^3")])
    once = saturate(I, P("x0"))
    twice = saturate(once, P("x0"))
    assert once.generators == twice.generators


def test_saturation_is_homogeneous():
    S = saturate(Ideal([P("x0^2*x1"), P("x0*x2^2 - x0^2*x2")]), P("x0"))
    assert all(g.is_homogeneous() for g in S.generators)


# --- intersect ---------------------------------------------------------------------

def test_intersect_principal():
    X = intersect(Ideal([P("x0")]), Ideal([P("x1")]))
    assert [str(g) for g in X.generators] == ["x0*x1"]


def test_intersect_idempotent():
    I = Ideal([P("x0*x1 - x2^2"), P("x1^2")])
    assert ideal_equal(intersect(I, I), I)


def test_intersect_affine_points():
    I = Ideal([P2("x0"), P2("x1")])
    J = Ideal([P2("x0"), P2("x1 - 1")])
    X = intersect(I, J)
    expected = Ideal([P2("x0"), P2("x1^2 - x1")])
    # containment both ways via normal forms
    GX, GE = buchberger(X), buchberger(expected)
    assert all(GE.contains(g) for g in X.generators)
    assert all(GX.contains(g) for g in expected.generators)


class TailPasses:
    """Counts the calls of the kernel's tail-reduction pass."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = kernel.reduce_tails

        def counting(*args):
            self.calls += 1
            return real(*args)
        monkeypatch.setattr(kernel, "reduce_tails", counting)


def _eager_elimination(I, drop):
    """The elimination ideal read off a block-order basis whose tails are
    all reduced first, then relabelled as `eliminate` relabels it."""
    m, k = I.arity, len(drop)
    back = drop + [v for v in range(m) if v not in drop]
    perm = [back.index(v) for v in range(m)]
    G = buchberger(Ideal([g.permute_variables(perm) for g in I.generators],
                         field=F, arity=m), block_order(k))
    return [g.permute_variables(back) for g in G.generators
            if not any(e for x in g.terms for e in x[:k])]


@pytest.mark.parametrize("seed", range(40))
def test_eliminations_carry_their_reduced_grevlex_basis(seed, monkeypatch):
    """`eliminate`, `saturate` and `intersect` return the reduced grevlex
    basis of their result with its leads, read off the block-order leads of
    the kept elements.  It must be the basis a fresh grevlex `buchberger`
    gives: elements, their order, term insertion order and leads.

    Leads, `len`, Hilbert data, the support dimension and the vector space
    dimension of these results and of a `buchberger` result run no tail
    pass.  A later read of `generators` runs one and gives the basis that
    reducing every tail of the block-order basis first gives."""
    rng = random.Random(900 + seed)
    arity = rng.randint(2, 4)
    homogeneous = rng.random() < 0.5

    def draw(degree, terms):
        if homogeneous:
            return random_homogeneous(F, rng, arity, degree, terms)
        f = Polynomial.zero(F, arity)
        while f.is_zero():
            f = random_polynomial(F, rng, arity, degree, terms)
        return f

    I = Ideal([draw(rng.randint(1, 3), 4) for _ in range(rng.randint(1, 3))])
    other = [draw(rng.randint(1, 2), 3) for _ in range(2)]
    drop = sorted(rng.sample(range(arity), rng.randint(1, arity - 1)))

    def lift(g):
        return g.extend_arity(arity + 1, 0)

    t = Polynomial.variable(F, arity + 1, 0)
    one = Polynomial.constant(F, arity + 1, 1)
    eager = [
        buchberger(I).generators,
        _eager_elimination(I, drop),
        [g.drop_variable(0) for g in _eager_elimination(Ideal(
            [lift(h) for h in I.generators] + [one - t * lift(other[0])]),
            [0])],
        [g.drop_variable(0) for g in _eager_elimination(Ideal(
            [t * lift(h) for h in I.generators]
            + [(one - t) * lift(h) for h in other]), [0])],
    ]
    passes = TailPasses(monkeypatch)
    results = [buchberger(I), eliminate(I, drop), saturate(I, other[0]),
               intersect(I, Ideal(other))]
    for J, reference in zip(results, eager):
        leads = J.leading_exponents()
        assert len(J) == len(leads) == len(reference)
        if homogeneous:
            assert groebner.projective_dimension(J) == \
                hilbert_dim_degree(J).projective_dimension
        try:
            vector_space_dimension(J)
        except PreconditionError:
            pass
        assert passes.calls == 0
        assert [list(g.terms.items()) for g in J.generators] == [
            list(g.terms.items()) for g in reference]
        assert J.generators is J.generators
        assert passes.calls == 1
        fresh = buchberger(Ideal(J.generators, field=F, arity=arity), GREVLEX)
        assert isinstance(J, GroebnerBasis) and J.order == GREVLEX
        assert [list(g.terms.items()) for g in J.generators] == [
            list(g.terms.items()) for g in fresh.generators]
        assert leads == fresh.leading_exponents()
        passes.calls = 0


def _tail_pass_case(kind, seed):
    """A basis at p = 32003 of the given kind, of three quadrics with linear
    parts in three variables; random polynomials to reduce; and members of
    the ideal, multiples of the generators of a second copy of the basis."""
    field = PrimeField(32003)
    rng = random.Random(seed)

    def draw(degree, terms):
        return (random_homogeneous(field, rng, 3, degree, terms)
                + random_homogeneous(field, rng, 3, degree - 1, 2))

    I = Ideal([draw(2, 3) for _ in range(3)])
    other = [draw(1, 2), draw(2, 3)]
    fs = [draw(rng.randint(1, 4), 5) for _ in range(6)]
    make = {"grevlex": lambda: buchberger(I, GREVLEX),
            "lex": lambda: buchberger(I, LEX),
            "block": lambda: buchberger(I, block_order(1)),
            "eliminate": lambda: eliminate(I, {1}),
            "saturate": lambda: saturate(I, other[0]),
            "intersect": lambda: intersect(I, Ideal(other))}[kind]
    return make(), fs, [g * f for g, f in zip(make().generators, fs)]


@pytest.mark.parametrize("kind", ["grevlex", "lex", "block", "eliminate",
                                  "saturate", "intersect"])
def test_tail_pass_in_place_keeps_normal_forms_and_leads(kind, monkeypatch):
    """The tail pass reduces the packed minimal basis in place, and normal
    forms reduce by that same basis.  Before and after `generators` is
    first read, `normal_form` gives the same remainder, in the same term
    order, and `contains` the same answer; the leads do not change.  A
    second read gives the same tuple and runs no second pass.  `eliminate`
    of x1 moves it to the front, so its basis lives in a permuted ring;
    `saturate` and `intersect` live in a ring with one more variable.  On
    some of the seeds the pass changes a tail, so it is not idle here."""
    passes = TailPasses(monkeypatch)
    changed = 0
    for seed in range(400, 416):
        G, fs, members = _tail_pass_case(kind, seed)
        fs += members
        leads = G.leading_exponents()
        minimal = entry_terms(G._minimal)
        before = [list(G.normal_form(f).terms.items()) for f in fs]
        contained = [G.contains(f) for f in fs]
        assert all(contained[len(fs) - len(members):])
        passes.calls = 0
        generators = G.generators
        assert G.generators is generators
        assert passes.calls == 1
        assert G.leading_exponents() == leads
        reduced = entry_terms(G._minimal)
        assert [list(f)[0] for f in reduced] == [list(f)[0] for f in minimal]
        changed += reduced != minimal
        assert [list(G.normal_form(f).terms.items()) for f in fs] == before
        assert [G.contains(f) for f in fs] == contained
    assert changed


def test_eliminations_need_no_second_basis(monkeypatch):
    """The results of `saturate`, `eliminate` and `intersect` are ideals
    given by their reduced grevlex basis, so the Hilbert data and the
    vector space dimension read it without another `buchberger` call."""
    S = saturate(Ideal([P("x0^2*x1"), P("x0*x2^2 - x0^2*x2")]), P("x0"))
    E = eliminate(Ideal([T("x0 - t"), T("x1 - t")]), {0})
    X = intersect(Ideal([P2("x0"), P2("x1")]), Ideal([P2("x0"), P2("x1 - 1")]))
    assert all(isinstance(J, Ideal) for J in (S, E, X))

    def plain(J):
        return Ideal(J.generators, field=J.field, arity=J.arity)

    expected = (hilbert_dim_degree(plain(S)), hilbert_dim_degree(plain(E)),
                vector_space_dimension(plain(X)))

    def no_buchberger(*args, **kwargs):
        raise AssertionError("buchberger called again")

    monkeypatch.setattr(groebner, "buchberger", no_buchberger)
    got = (hilbert_dim_degree(S), hilbert_dim_degree(E),
           vector_space_dimension(X))
    assert got == expected
    assert [(d.projective_dimension, d.degree) for d in got[:2]] == [
        (0, 2), (1, 1)]
    assert got[2] == 2


# --- hilbert data ------------------------------------------------------------------

def test_hilbert_hyperplane():
    data = hilbert_dim_degree(Ideal([P("x0")]))
    assert (data.projective_dimension, data.degree) == (1, 1)


def test_hilbert_empty_scheme():
    data = hilbert_dim_degree(Ideal([P("x0"), P("x1"), P("x2")]))
    assert data.projective_dimension == -1 and data.degree is None


def test_hilbert_unit_ideal():
    data = hilbert_dim_degree(Ideal([P("7")]))
    assert data.projective_dimension == -1 and data.degree is None


def test_hilbert_line_with_embedded_structure():
    # oracle: count standard monomials of <x0^2, x0*x1> by degree; the count
    # is d + 2 for degree d >= 1, an affine Hilbert polynomial of a
    # dimension-1, degree-1 projective scheme
    lead = [(2, 0, 0), (1, 1, 0)]
    for d in range(1, 11):
        count = sum(1 for e in itertools.product(range(d + 1), repeat=3)
                    if sum(e) == d
                    and not any(all(e[i] >= le[i] for i in range(3))
                                for le in lead))
        assert count == d + 2
    data = hilbert_dim_degree(Ideal([P("x0^2"), P("x0*x1")]))
    assert (data.projective_dimension, data.degree) == (1, 1)


def test_hilbert_hypersurface_property():
    rng = random.Random(31)
    for arity in (2, 3, 4):
        f = random_homogeneous(F, rng, arity, rng.randint(1, 4), max_terms=4)
        data = hilbert_dim_degree(Ideal([f]))
        assert data.projective_dimension == arity - 2
        assert data.degree == f.homogeneous_degree()


def test_hilbert_rejects_inhomogeneous():
    with pytest.raises(PreconditionError):
        hilbert_dim_degree(Ideal([P("x0^2 + x1")]))


def test_hilbert_of_a_basis_matches_its_ideal():
    rng = random.Random(37)
    for _ in range(10):
        gens = [random_homogeneous(F, rng, 3, rng.randint(1, 3), max_terms=4)
                for _ in range(rng.randint(1, 3))]
        I = Ideal(gens)
        for order in (GREVLEX, LEX):
            assert hilbert_dim_degree(buchberger(I, order)) == \
                hilbert_dim_degree(I)


def test_hilbert_of_a_basis_rejects_inhomogeneous():
    with pytest.raises(PreconditionError):
        hilbert_dim_degree(buchberger(Ideal([P("x0^2 + x1")])))


def test_hilbert_of_a_basis_with_inhomogeneous_minimal_elements():
    """x0^3 + x1^2 and x0^3 generate the homogeneous ideal (x0^3, x1^2),
    but the minimal basis keeps x0^3 + x1^2, which is not a form.  The
    homogeneity check then reads the reduced basis, which runs the tail
    pass once."""
    G = buchberger(Ideal([P2("x0^3 + x1^2"), P2("x0^3")]))
    assert not groebner._forms(G._minimal)
    data = hilbert_dim_degree(G)
    assert (data.projective_dimension, data.degree) == (-1, None)
    assert groebner.projective_dimension(G) == -1
    assert [str(g) for g in G.generators] == ["x1^2", "x0^3"]


# --- support dimension ---------------------------------------------------------------

monomial_ideals = st.integers(1, 7).flatmap(lambda arity: st.tuples(
    st.just(arity),
    st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=8)))


@settings(max_examples=150, deadline=None)
@given(monomial_ideals)
@example((7, []))
@example((7, [(0,) * 7]))
@example((7, [(1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0), (0,) * 7]))
@example((7, [(1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0),
              (0, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 0, 3)]))
def test_support_dimension_matches_the_hilbert_numerator(case):
    """`projective_dimension` reads the supports of the leads; the Hilbert
    numerator of the same monomial ideal must give the same dimension.  The
    exponent lists include the zero ideal (none), the unit ideal (the zero
    exponent) and repeated and redundant monomials."""
    arity, exps = case
    I = Ideal([Polynomial.monomial(F, arity, e) for e in exps],
              field=F, arity=arity)
    expected = groebner._hilbert_data(exps, arity).projective_dimension
    assert groebner.projective_dimension(I) == expected
    assert groebner.projective_dimension(buchberger(I, LEX)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_support_dimension_matches_hilbert_data(seed):
    """On small homogeneous ideals, given by generators or by a grevlex or
    lex basis, the support dimension is that of `hilbert_dim_degree`."""
    rng = random.Random(seed)
    arity = rng.randint(2, 4)
    I = Ideal([random_homogeneous(F, rng, arity, rng.randint(1, 3), 3)
               for _ in range(rng.randint(1, arity))])
    expected = hilbert_dim_degree(I).projective_dimension
    assert groebner.projective_dimension(I) == expected
    for order in (GREVLEX, LEX):
        assert groebner.projective_dimension(buchberger(I, order)) == expected


def _free_set_search(leads, arity):
    """Projective dimension from the largest set of variables that contains
    the support of no lead, every set tried, largest first: the search of
    `projective_dimension` without its pruning."""
    supports = {sum(1 << i for i, x in enumerate(e) if x) for e in leads}
    for size in range(arity, 0, -1):
        for chosen in itertools.combinations(range(arity), size):
            free = sum(1 << i for i in chosen)
            if all(s & ~free for s in supports):
                return size - 1
    return -1


@settings(max_examples=300, deadline=None)
@given(monomial_ideals,
       st.lists(st.tuples(st.integers(0, 6), st.integers(1, 3)), max_size=7))
@example((3, []), [(0, 1), (1, 2), (2, 3)])
@example((3, [(0, 0, 0)]), [])
@example((4, [(1, 1, 0, 0), (0, 1, 1, 1)]), [(0, 2), (3, 1)])
def test_support_dimension_matches_the_full_search(case, powers):
    """Setting aside the variables with a pure-power lead, and the leads
    that touch them, gives the dimension that trying every set of
    variables gives.  Pure powers x_v^d are added to the drawn monomials,
    so some ideals are m-primary and many have some pure-power leads."""
    arity, exps = case
    exps = exps + [tuple(d if i == v else 0 for i in range(arity))
                   for v, d in powers if v < arity]
    G = buchberger(Ideal([Polynomial.monomial(F, arity, e) for e in exps],
                         field=F, arity=arity))
    assert groebner.projective_dimension(G) == _free_set_search(
        G.leading_exponents(), arity)


@pytest.mark.parametrize("arity", [3, 30])
def test_support_dimension_of_an_m_primary_ideal_searches_nothing(
        monkeypatch, arity):
    """Leads with a pure power of every variable leave no free variable, so
    no set of variables is tried: the search over every subset took 2^n
    steps, 6.75 s for the 22 variables of the toric map of a linear form.
    The stand-in for `combinations` yields no set, so a search that calls
    it ends at once."""
    calls = []

    def combinations(*args):
        calls.append(args)
        return iter(())

    monkeypatch.setattr(groebner, "combinations", combinations)
    x = [Polynomial.variable(F, arity, i) for i in range(arity)]
    leads = [x[0] ** 2 * x[-1]] + [v ** (1 + i % 3) for i, v in enumerate(x)]
    assert groebner.projective_dimension(Ideal(leads)) == -1
    assert calls == []


def test_support_dimension_rejects_inhomogeneous():
    with pytest.raises(PreconditionError,
                       match="Hilbert data needs a homogeneous ideal"):
        groebner.projective_dimension(Ideal([P("x0^2 + x1")]))
    with pytest.raises(PreconditionError,
                       match="Hilbert data needs a homogeneous ideal"):
        groebner.projective_dimension(buchberger(Ideal([P("x0^2 + x1")])))


def test_hilbert_numerator_invariant():
    data = hilbert_dim_degree(Ideal([P("x0^2"), P("x0*x1")]))
    assert sum(data.numerator) == data.degree
    assert sum(data.numerator) != 0


# --- complete-intersection bound ------------------------------------------------

def _hilbert_function(leads, arity, D):
    """The Hilbert function in degree D of the quotient by the monomial
    ideal of `leads`, from the numerator `_hilbert_numerator` gives."""
    numerator = groebner._hilbert_numerator(list(leads), {})
    return sum(c * math.comb(D - k + arity - 1, arity - 1)
               for k, c in enumerate(numerator) if k <= D)


@pytest.mark.parametrize("seed", range(30))
def test_carried_standard_count_is_the_hilbert_function(seed):
    """The standard monomials `buchberger` carries from one degree to the
    next, counted on the leads of a random monomial ideal, number its
    Hilbert function in each degree; half way the fields widen, and the
    carried packs follow them."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    leads = [tuple(rng.randint(0, 3) for _ in range(n))
             for _ in range(rng.randint(1, 5))]
    leads = [e for e in leads if sum(e)] or [(1,) * n]
    reducers = kernel.Reducers(kernel.GREVLEX, 0, n)
    for e in leads:
        append_reducer(reducers, {e: 1}, e, 1, F.p)
    reducers.widen(4)  # fields hold 15, past the last degree counted
    reducers.std = {0}
    for D in range(13):
        assert len(reducers.std) == _hilbert_function(leads, n, D)
        if D == 6:
            reducers.widen(8)
        reducers.standard_successors()


@pytest.mark.parametrize("degrees, arity", [((4, 4, 4, 4), 4), ((1, 3), 3),
                                            ((2,), 1), ((5, 1, 2), 4)])
def test_complete_intersection_bound_of_coordinate_powers(degrees, arity):
    """x_i^(d_i) for i < r is a complete intersection of those degrees."""
    leads = [tuple(d if j == i else 0 for j in range(arity))
             for i, d in enumerate(degrees)]
    h = groebner._complete_intersection_hilbert(degrees, arity)
    values = [h(D) for D in range(20)]
    assert values == [_hilbert_function(leads, arity, D) for D in range(20)]
    if degrees == (4, 4, 4, 4):
        assert sum(values) == 256 and values[13:] == [0] * 7


def test_a_bound_above_the_hilbert_function_raises(monkeypatch):
    """A bound above the true Hilbert function is a broken invariant: an
    error that `python -O` keeps, not an assert."""
    real = groebner._complete_intersection_hilbert
    monkeypatch.setattr(groebner, "_complete_intersection_hilbert",
                        lambda degrees, arity: lambda D: real(degrees,
                                                              arity)(D) + 1)
    gens = [P("x0^2 + x1*x2"), P("x1^2 - x0*x2"), P("x2^2 + x0*x1")]
    with pytest.raises(ToricPolarError, match="below the complete-inter"):
        buchberger(Ideal(gens), GREVLEX)


def test_counting_stops_when_the_standard_set_outgrows_the_basis(
        monkeypatch):
    """Three binomials of degree 12 in four variables: the 10 standard
    monomials of degree 2 outnumber the 6 terms of the basis, so counting
    stops there.  Carried on to the pair degrees, 13 and above, the count
    took about 100 times as long as the basis itself."""
    sizes = []
    real = kernel.Reducers.standard_successors

    def standard_successors(self):
        sizes.append(len(self.std))
        return real(self)

    monkeypatch.setattr(kernel.Reducers, "standard_successors",
                        standard_successors)
    names = ("x0", "x1", "x2", "x3")
    gens = [parse_polynomial(g, names, F) for g in
            ("x0^11*x1 - x2^12", "x1^11*x2 - x3^12", "x0*x3^11 - x1^12")]
    G = buchberger(Ideal(gens), GREVLEX)
    assert sizes == [1, 4]
    assert G.s_polynomials_reduce_to_zero()


# --- vector space dimension ---------------------------------------------------------

def _macaulay_dimension(gens, arity, cap):
    """Independent estimate of dim(R/I) via the rank of the multiplication
    matrix of all monomial multiples of the generators up to degree `cap`."""
    monomials = [e for e in itertools.product(range(cap + 1), repeat=arity)
                 if sum(e) <= cap]
    index = {e: i for i, e in enumerate(monomials)}
    rows = []
    for g in gens:
        gdeg = g.total_degree()
        for m in monomials:
            if sum(m) + gdeg > cap:
                continue
            row = [0] * len(monomials)
            for e, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(e, m))
                row[index[shifted]] = c
            rows.append(row)
    rank = 0
    p = F.p
    col = 0
    rows = [r[:] for r in rows]
    for col in range(len(monomials)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] * inv % p
                rows[i] = [(a - factor * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return len(monomials) - rank


def test_vsd_examples():
    assert vector_space_dimension(Ideal([P2("x0"), P2("x1")])) == 1
    assert vector_space_dimension(Ideal([P2("x0^2"), P2("x1^3")])) == 6
    # lex basis {x0^2 - x1, x1^2}: standard monomials 1, x0, x1, x0*x1
    assert vector_space_dimension(Ideal([P2("x0^2 - x1"), P2("x1^2")])) == 4


def test_vsd_unit_ideal():
    assert vector_space_dimension(Ideal([P2("x0"), P2("x0 - 1")])) == 0


def test_vsd_rejects_positive_dimension():
    with pytest.raises(PreconditionError):
        vector_space_dimension(Ideal([P2("x0*x1")]))


def test_vsd_against_macaulay_rank_oracle():
    rng = random.Random(13)
    for _ in range(12):
        arity = rng.randint(2, 3)
        vars_ = ("x0", "x1", "x2")[:arity]
        gens = []
        for i in range(arity):
            a = rng.randint(1, 2)
            lower = [Polynomial.constant(F, arity, rng.randrange(F.p))]
            for _ in range(2):
                e = tuple(rng.randint(0, 1) for _ in range(arity))
                if sum(e) < a + 1:
                    lower.append(Polynomial.monomial(F, arity, e,
                                                     rng.randrange(1, F.p)))
            g = Polynomial.variable(F, arity, i) ** (a + 1)
            for term in lower:
                g = g + term
            gens.append(g)
        I = Ideal(gens)
        dim = vector_space_dimension(I)
        assert dim <= 27
        cap = max(g.total_degree() for g in gens) + 6
        assert dim == _macaulay_dimension(gens, arity, cap)
