import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import toricpolar
from toricpolar.constructions import (CorpusEntry, MonomialMatrix,
                                      birational_family, cremona_poly,
                                      default_corpus, dolgachev_quadric,
                                      format_corpus, integer_determinant,
                                      monomial_sum_polynomial, parse_corpus,
                                      pyramid, random_monomial_matrix,
                                      verify_propositions)
from toricpolar.errors import PreconditionError, ToricPolarError
from toricpolar.field import PrimeField
from toricpolar.maps import (RandomizationConfig, monomial_pullback,
                             multidegrees, topological_degree,
                             toric_polar_map)
from toricpolar.parse import parse_polynomial
from toricpolar.poly import Polynomial

F = PrimeField()
CFG = RandomizationConfig(seed=2)


def P(text, vars=("x0", "x1", "x2")):
    return parse_polynomial(text, vars, F)


# --- matrices ------------------------------------------------------------------

def test_integer_determinant():
    assert integer_determinant([(0, 1, 1), (1, 0, 1), (1, 1, 0)]) == 2
    assert integer_determinant([(1, 0), (0, 1)]) == 1
    assert integer_determinant([(1, 1), (1, 1)]) == 0
    assert integer_determinant([(0, 2, 0), (1, 1, 0), (1, 0, 1)]) == -2


def leibniz_determinant(rows):
    """The sum over permutations, each signed by its inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_integer_determinant_matches_leibniz_expansion():
    """Random square matrices of size 1 to 5, entries in -4..4, about half
    of them zero, so pivots are often zero and rows get swapped."""
    rng = random.Random(11)
    for _ in range(600):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0
                 for _ in range(n)] for _ in range(n)]
        assert integer_determinant(rows) == leibniz_determinant(rows), rows


def test_import_leaves_fractions_and_decimal_unloaded():
    src = str(Path(toricpolar.__file__).parent.parent)
    code = ("import sys, toricpolar; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_monomial_matrix_validation():
    with pytest.raises(PreconditionError):
        MonomialMatrix([(1, 0), (0, 1), (1, 1)])  # not square
    with pytest.raises(PreconditionError):
        MonomialMatrix([(1, 0), (2, 0)])  # unequal row sums
    with pytest.raises(PreconditionError):
        MonomialMatrix([(2, 0), (1, 1)])  # common factor x0
    A = MonomialMatrix([(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert A.k == 2 and A.is_invertible()
    B = MonomialMatrix([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert B.k == 2 and not B.is_invertible()  # det 8 != 2


def test_random_monomial_matrix():
    rng = random.Random(1)
    for k in (1, 2, 3):
        A = random_monomial_matrix(2, k, rng)
        assert A.k == k and abs(A.determinant) == k


# --- families ---------------------------------------------------------------------

def test_pyramid_builds_quadric_tower():
    q2 = dolgachev_quadric(2, F)
    q3 = dolgachev_quadric(3, F)
    m = Polynomial.variable(F, 3, 0)  # x0, degree k-1 = 1
    assert pyramid(q2, m) == q3


def test_pyramid_of_linear_base():
    f = P("x0 + x1 + x2")
    one = Polynomial.constant(F, 3, 1)
    lifted = pyramid(f, one)
    assert lifted == parse_polynomial("x0 + x1 + x2 + x3",
                                      ("x0", "x1", "x2", "x3"), F)


def test_pyramid_validates_degrees():
    with pytest.raises(PreconditionError):
        pyramid(P("x0^2 - x1*x2"), Polynomial.variable(F, 3, 0) ** 2)
    with pytest.raises(PreconditionError):
        pyramid(P("x0^2 - x1*x2"), P("x0 + x1"))  # not a monomial


def test_pyramid_preserves_topological_degree():
    base = P("x0^2 - x1*x2")
    deg = topological_degree(toric_polar_map(base), CFG)
    lifted = pyramid(base, Polynomial.variable(F, 3, 1))
    cfg = RandomizationConfig(seed=4)
    assert topological_degree(toric_polar_map(lifted), cfg) == deg == 0


def test_cremona_poly():
    assert cremona_poly(2, F) == P("x1*x2 + x0*x2 + x0*x1")
    assert cremona_poly(1, F) == parse_polynomial("x0 + x1", ("x0", "x1"), F)
    md = multidegrees(toric_polar_map(cremona_poly(3, F)), CFG)
    assert md.values == (1, 3, 3, 1)
    md4 = multidegrees(toric_polar_map(cremona_poly(4, F)), CFG)
    assert md4.values == (1, 4, 6, 4, 1)


def test_dolgachev_quadric():
    assert dolgachev_quadric(2, F) == P("x1^2 + x0*x1 + x0*x2")
    assert multidegrees(toric_polar_map(dolgachev_quadric(2, F)), CFG).values == (1, 2, 1)
    assert multidegrees(toric_polar_map(dolgachev_quadric(4, F)), CFG).values == (1, 2, 2, 2, 1)
    assert multidegrees(toric_polar_map(dolgachev_quadric(6, F)), CFG).values == (1, 2, 2, 2, 2, 2, 1)
    # n = 1: q1 = x1*(x0 + x1) carries a coordinate-line factor, which the
    # caller strips (the maps differ by a linear change of coordinates);
    # the stripped map is an isomorphism of P^1
    q1 = dolgachev_quadric(1, F)
    cfg = RandomizationConfig(seed=6)
    with pytest.raises(PreconditionError):
        toric_polar_map(q1)
    stripped = q1.strip_monomial_content()
    assert topological_degree(toric_polar_map(stripped), cfg) == 1


def test_birational_families_text():
    assert birational_family("a", 3, field=F) == parse_polynomial(
        "x1^2 + x1*x2 + x0*(x1 + x2 + x3)", ("x0", "x1", "x2", "x3"), F)
    assert birational_family("b", 2, 2, field=F) == P("(x0 + x1)^2 + x1*x2")
    assert birational_family("c", 3, field=F) == parse_polynomial(
        "x0^2 + x1^2 + x2^2 - 2*x0*x1 - 2*x0*x2 - 2*x1*x2 + x2*x3",
        ("x0", "x1", "x2", "x3"), F)
    with pytest.raises(PreconditionError):
        birational_family("d", 2, field=F)
    with pytest.raises(PreconditionError):
        birational_family("a", 1, field=F)
    with pytest.raises(PreconditionError):
        birational_family("b", 2, field=F)  # k missing


def test_families_stack_pyramids():
    a2 = birational_family("a", 2, field=F)
    a3 = birational_family("a", 3, field=F)
    assert pyramid(a2, Polynomial.variable(F, 3, 0)) == a3
    b32 = birational_family("b", 3, 2, field=F)
    b22 = birational_family("b", 2, 2, field=F)
    assert pyramid(b22, Polynomial.variable(F, 3, 2)) == b32


def test_monomial_sum_polynomial():
    ident = MonomialMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert monomial_sum_polynomial(ident, F) == P("x0 + x1 + x2")
    cremona = MonomialMatrix([(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert monomial_sum_polynomial(cremona, F) == cremona_poly(2, F)
    quadric = MonomialMatrix([(0, 2, 0), (1, 1, 0), (1, 0, 1)])
    assert monomial_sum_polynomial(quadric, F) == dolgachev_quadric(2, F)
    non_invertible = MonomialMatrix([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(PreconditionError):
        monomial_sum_polynomial(non_invertible, F)


def test_pullback_can_change_intermediate_multidegrees():
    # the Cremona matrix pulls the Cremona conic back to a linear form:
    # the degree survives but d_1 drops from 2 to 1
    A = MonomialMatrix([(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    f = cremona_poly(2, F)
    before = multidegrees(toric_polar_map(f), CFG).values
    pulled = monomial_pullback(f, A)
    after = multidegrees(toric_polar_map(pulled), CFG).values
    assert before == (1, 2, 1) and after == (1, 1, 1)
    assert before[-1] == after[-1]


# --- corpus ----------------------------------------------------------------------

def test_corpus_round_trip():
    entries = default_corpus()
    text = format_corpus(entries)
    assert parse_corpus(text) == entries


def test_corpus_parses_comments_and_blanks():
    text = "# comment\n\nline | x0,x1,x2 | x0 + x1 + x2\n"
    entries = parse_corpus(text)
    assert len(entries) == 1
    assert entries[0].expected is None
    assert entries[0].polynomial(F) == P("x0 + x1 + x2")


def test_corpus_strips_variable_names():
    entries = parse_corpus("cusp | x0, x1 ,x2 | x1^2 + x0*x1 + x0*x2 | 1,2,1\n")
    assert entries[0].variables == ("x0", "x1", "x2")
    assert entries[0].polynomial(F) == P("x1^2 + x0*x1 + x0*x2")


def test_corpus_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_corpus("only-a-name\n")


CONIC = "x0*x1 + x2^2"
NODAL = "x1^2*x2 - x0^3 - x0^2*x2 + x1*x0*x2"


def test_corpus_rejects_repeated_names():
    """A repeated name would let the second entry replace the first in the
    harness: the conic's wrong expectation 1,3,2 would go unchecked."""
    text = (f"# header\na | x0,x1,x2 | {CONIC} | 1,3,2\n"
            f"b | x0,x1,x2 | {CONIC}\n\na | x0,x1,x2 | {NODAL} | 1,3,2\n")
    with pytest.raises(PreconditionError,
                       match=r"^corpus line 5: name 'a' repeats line 2$"):
        parse_corpus(text)


def test_verify_propositions_rejects_repeated_names():
    entries = [CorpusEntry("a", ("x0", "x1", "x2"), CONIC, (1, 3, 2)),
               CorpusEntry("a", ("x0", "x1", "x2"), NODAL, (1, 3, 2))]
    with pytest.raises(PreconditionError, match="corpus names repeat: 'a'"):
        verify_propositions(CFG, entries)
    entries[1] = CorpusEntry("b", ("x0", "x1", "x2"), NODAL, (1, 3, 2))
    witness = {r.name: r.witness for r in verify_propositions(CFG, entries)}
    assert witness["corpus-multidegrees"] == (
        "a: engine (1, 2, 0) != expected (1, 3, 2)")


# --- harness ----------------------------------------------------------------------

def test_verify_propositions_default_corpus():
    results = verify_propositions(cfg=RandomizationConfig(seed=42))
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    names = {r.name for r in results}
    assert {"corpus-multidegrees", "reduced-powers", "plane-degree-formula",
            "general-position", "reducible-curves", "pyramid-families",
            "monomial-invariance", "hyperplane-arrangements",
            "cremona-dolgachev-multidegrees"} <= names


def test_verify_propositions_solves_each_map_once(monkeypatch):
    """Every route to the engine (directly, or through `topological_degree`
    and the `curves` checks) ends in `maps.multidegrees`."""
    from toricpolar import constructions, maps
    solved = []

    def recording(phi, cfg=None):
        solved.append(tuple(frozenset(c.terms.items())
                            for c in phi.coordinates))
        return multidegrees(phi, cfg)

    monkeypatch.setattr(constructions, "multidegrees", recording)
    monkeypatch.setattr(maps, "multidegrees", recording)
    results = verify_propositions(cfg=RandomizationConfig(seed=0))
    assert all(r.passed for r in results)
    assert len(solved) == 43
    assert len(set(solved)) == len(solved)


def test_verify_propositions_builds_each_input_map_once(monkeypatch):
    """An input asked for again is looked up by its terms, so its map (its
    squarefree part and coordinate gcd) is not built again: one build for
    each of the 44 distinct inputs of a seed-0 pass."""
    from toricpolar import constructions
    built = []

    def recording(f, seed=0):
        built.append(frozenset(f.terms.items()))
        return toric_polar_map(f, seed)

    monkeypatch.setattr(constructions, "toric_polar_map", recording)
    results = verify_propositions(cfg=RandomizationConfig(seed=0))
    assert all(r.passed for r in results)
    assert len(built) == 44
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("stage", ["toric_polar_map", "multidegrees"])
def test_verify_propositions_raises_again_on_every_ask(monkeypatch, stage):
    """A build or solve that raises is not kept: an input asked for twice
    (the corpus check and the reduced-powers check both ask for the
    cuspidal cubic) is built and solved again, and raises again."""
    from toricpolar import constructions
    asked = []

    def failing(*args, **kwargs):
        asked.append(args[0])
        raise ToricPolarError(f"{stage} fails")

    monkeypatch.setattr(constructions, stage, failing)
    results = verify_propositions(cfg=RandomizationConfig(seed=0))
    by_name = {r.name: r for r in results}
    for name in ("corpus-multidegrees", "reduced-powers"):
        assert not by_name[name].passed
        assert by_name[name].witness == f"ToricPolarError: {stage} fails"
    keys = [frozenset(a.terms.items()) if stage == "toric_polar_map"
            else tuple(frozenset(c.terms.items()) for c in a.coordinates)
            for a in asked]
    assert len(set(keys)) < len(keys)


def test_verify_propositions_flags_wrong_expectation():
    bad = [CorpusEntry("broken_conic", ("x0", "x1", "x2"),
                       "x0^2 - x1*x2", (1, 2, 5))]
    results = verify_propositions(cfg=RandomizationConfig(seed=1), corpus=bad)
    by_name = {r.name: r for r in results}
    assert not by_name["corpus-multidegrees"].passed
    assert "broken_conic" in by_name["corpus-multidegrees"].witness


def test_verify_propositions_empty_corpus():
    assert verify_propositions(cfg=RandomizationConfig(seed=1), corpus=[]) == []