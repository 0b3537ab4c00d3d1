"""Construction families with known toric polar behaviour, the text corpus
and the proposition-verification harness.

Families: pyramids (adding m * x_{n+1} preserves the degree), the standard
Cremona polynomials, quadro-quadric Cremona quadrics, three families with
birational toric polar maps in every dimension, and invertible monomial
transformations (exponent matrix with |det| equal to the row sum).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from . import classes, curves
from .errors import PreconditionError, ToricPolarError
from .field import PrimeField
from .gcdtools import multivariate_gcd
from .maps import (RandomizationConfig, derive_seed, gradient_map,
                   monomial_pullback, multidegrees, random_translate,
                   toric_polar_map)
from .parse import parse_polynomial
from .poly import Polynomial


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant over the integers, by fraction-free (Bareiss)
    elimination: every entry stays an int, each step divides exactly by
    the previous pivot, and a row swap flips the sign."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                q, rest = divmod(row[j] * top[k] - row[k] * top[j], prev)
                if rest:
                    raise ToricPolarError("Bareiss step of an integer "
                                          "determinant left a remainder")
                row[j] = q
        prev = top[k]
    return sign * m[-1][-1] if n else 1


@dataclass(frozen=True)
class MonomialMatrix:
    """Exponent matrix of a monomial self-map of P^n.

    Rows are the exponent vectors of the defining monomials: all entries
    nonnegative, every row summing to the common degree k, and no variable
    dividing all monomials (each column has a zero).  The map is birational
    exactly when |det| = k.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise PreconditionError("matrix must be square")
        if any(x < 0 for row in rows for x in row):
            raise PreconditionError("exponents must be nonnegative")
        sums = {sum(row) for row in rows}
        if len(sums) != 1 or next(iter(sums)) < 1:
            raise PreconditionError("all rows must share a positive sum")
        for col in range(n):
            if all(row[col] > 0 for row in rows):
                raise PreconditionError(
                    "the defining monomials share a common factor")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return sum(self.rows[0])

    @property
    def determinant(self) -> int:
        return integer_determinant(self.rows)

    def is_invertible(self) -> bool:
        return abs(self.determinant) == self.k


def random_monomial_matrix(n: int, k: int, rng: random.Random,
                           max_tries: int = 20000) -> MonomialMatrix:
    """Random valid invertible exponent matrix for P^n with row sum k."""
    size = n + 1
    for _ in range(max_tries):
        rows = []
        for _ in range(size):
            counts = [0] * size
            for _ in range(k):
                counts[rng.randrange(size)] += 1
            rows.append(tuple(counts))
        if any(all(row[c] > 0 for row in rows) for c in range(size)):
            continue
        if abs(integer_determinant(rows)) != k:
            continue
        return MonomialMatrix(rows)
    raise PreconditionError(f"found no invertible matrix for n={n}, k={k}")


# --------------------------------------------------------------------------
# polynomial families


def pyramid(f: Polynomial, m: Polynomial) -> Polynomial:
    """f + m * x_{n+1} in one more variable; deg m must be deg f - 1.

    The toric polar degree of the result equals that of f.
    """
    if f.is_zero() or not f.is_homogeneous():
        raise PreconditionError("base must be nonzero homogeneous")
    if not m.is_monomial():
        raise PreconditionError("second argument must be a monomial")
    if m.field != f.field or m.arity != f.arity:
        raise ValueError("monomial from a different ring")
    k = f.homogeneous_degree()
    if m.total_degree() != k - 1:
        raise PreconditionError("monomial degree must be deg f - 1")
    arity = f.arity + 1
    lifted_f = f.extend_arity(arity, f.arity)
    lifted_m = m.extend_arity(arity, f.arity)
    return lifted_f + lifted_m * Polynomial.variable(f.field, arity, f.arity)


def cremona_poly(n: int, field: PrimeField | None = None) -> Polynomial:
    """Sum of the n+1 squarefree degree-n monomials, each omitting one
    variable; its toric polar map is the standard Cremona transformation."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    field = field or PrimeField()
    out = Polynomial.zero(field, n + 1)
    for j in range(n + 1):
        exp = tuple(0 if i == j else 1 for i in range(n + 1))
        out = out + Polynomial.monomial(field, n + 1, exp)
    return out


def dolgachev_quadric(n: int, field: PrimeField | None = None) -> Polynomial:
    """x1^2 + x0*x1 + x0*x2 + ... + x0*xn, with multidegrees 1,2,...,2,1."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    field = field or PrimeField()
    arity = n + 1
    x = [Polynomial.variable(field, arity, i) for i in range(arity)]
    out = x[1] * x[1] + x[0] * x[1]
    for i in range(2, arity):
        out = out + x[0] * x[i]
    return out


def birational_family(which: str, n: int, k: int | None = None,
                      field: PrimeField | None = None) -> Polynomial:
    """Hypersurfaces in P^n with birational toric polar map.

    (a) x1^2 + x1*x2 + x0*(x1 + ... + xn)               (n >= 2)
    (b) (x0+x1)^k + x1^(k-1)*x2 + ... + x_{n-1}^(k-1)*xn (n >= 2, k >= 1)
    (c) x0^2+x1^2+x2^2-2x0x1-2x0x2-2x1x2 + x2x3 + ... + x_{n-1}xn (n >= 2)

    Each (a) and (c) member, and each (b) member for fixed k, arises from
    the plane case by stacking pyramids.
    """
    field = field or PrimeField()
    if n < 2:
        raise PreconditionError("families need n >= 2")
    arity = n + 1
    x = [Polynomial.variable(field, arity, i) for i in range(arity)]
    if which == "a":
        tail = x[1]
        for i in range(2, arity):
            tail = tail + x[i]
        return x[1] * x[1] + x[1] * x[2] + x[0] * tail
    if which == "b":
        if k is None or k < 1:
            raise PreconditionError("family (b) needs k >= 1")
        out = (x[0] + x[1]) ** k
        for i in range(1, n):
            out = out + x[i] ** (k - 1) * x[i + 1]
        return out
    if which == "c":
        out = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
               - 2 * x[0] * x[1] - 2 * x[0] * x[2] - 2 * x[1] * x[2])
        for i in range(2, n):
            out = out + x[i] * x[i + 1]
        return out
    raise PreconditionError("family must be one of 'a', 'b', 'c'")


def monomial_sum_polynomial(A: MonomialMatrix,
                            field: PrimeField | None = None) -> Polynomial:
    """Sum of the monomials of an invertible monomial transformation; its
    toric polar map is birational."""
    if not A.is_invertible():
        raise PreconditionError("matrix is not invertible (|det| != k)")
    field = field or PrimeField()
    out = Polynomial.zero(field, A.size)
    for row in A.rows:
        out = out + Polynomial.monomial(field, A.size, row)
    return out


# --------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusEntry:
    """One named curve/hypersurface, optionally with expected multidegrees."""

    name: str
    variables: tuple[str, ...]
    text: str
    expected: tuple[int, ...] | None = None

    def polynomial(self, field: PrimeField | None = None) -> Polynomial:
        return parse_polynomial(self.text, self.variables, field or PrimeField())


def format_corpus(entries: Sequence[CorpusEntry]) -> str:
    """Manifest: one entry per line,
    `name | variables | polynomial-text | expected-multidegrees`."""
    lines = []
    for e in entries:
        cols = [e.name, ",".join(e.variables), e.text]
        if e.expected is not None:
            cols.append(",".join(map(str, e.expected)))
        lines.append(" | ".join(cols))
    return "\n".join(lines) + "\n"


def parse_corpus(text: str) -> list[CorpusEntry]:
    """The entries of a manifest (see `format_corpus`); names are unique."""
    entries = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = [c.strip() for c in line.split("|")]
        if len(cols) not in (3, 4):
            raise PreconditionError(
                f"corpus line {lineno}: expected 3 or 4 columns, got {len(cols)}")
        expected = None
        if len(cols) == 4 and cols[3]:
            try:
                expected = tuple(int(v) for v in cols[3].split(","))
            except ValueError:
                raise PreconditionError(
                    f"corpus line {lineno}: expected multidegrees must be "
                    f"comma-separated integers, got {cols[3]!r}") from None
        if cols[0] in first_line:
            raise PreconditionError(
                f"corpus line {lineno}: name {cols[0]!r} repeats line "
                f"{first_line[cols[0]]}")
        first_line[cols[0]] = lineno
        names = tuple(v.strip() for v in cols[1].split(","))
        entries.append(CorpusEntry(cols[0], names, cols[2], expected))
    return entries


_PLANE_VARS = ("x0", "x1", "x2")

CUSPIDAL_CUBIC_TEXT = "4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2"


def default_corpus() -> list[CorpusEntry]:
    """Built-in plane curves with engine-verified multidegrees."""
    return [
        CorpusEntry("cuspidal_cubic", _PLANE_VARS, CUSPIDAL_CUBIC_TEXT, (1, 3, 2)),
        CorpusEntry("quadro_quadric_2", _PLANE_VARS, "x1^2 + x0*x1 + x0*x2", (1, 2, 1)),
        CorpusEntry("cremona_conic", _PLANE_VARS, "x0*x1 + x0*x2 + x1*x2", (1, 2, 1)),
        CorpusEntry("coordinate_tangent_conic", _PLANE_VARS, "x0^2 - x1*x2", (1, 2, 0)),
        CorpusEntry("fermat_conic", _PLANE_VARS, "x0^2 + x1^2 + x2^2", (1, 2, 4)),
        CorpusEntry("nodal_cubic", _PLANE_VARS, "x1^2*x2 - x0^3 - x0^2*x2", (1, 3, 2)),
        CorpusEntry("fermat_cubic", _PLANE_VARS, "x0^3 + x1^3 + x2^3", (1, 3, 9)),
        CorpusEntry("generic_line", _PLANE_VARS, "x0 + 2*x1 + 3*x2", (1, 1, 1)),
        CorpusEntry("second_line", _PLANE_VARS, "x0 + 5*x1 + 7*x2", (1, 1, 1)),
    ]


# --------------------------------------------------------------------------
# proposition harness

# coprime curve pairs of `reducible-curves`, monomial matrices drawn by
# `monomial-invariance`
_CURVE_PAIRS = 10
_MONOMIAL_SAMPLES = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


def _run(name: str, fn: Callable[[], str | None]) -> CheckResult:
    """Run one check; a returned string is a failure witness."""
    try:
        witness = fn()
    except Exception as exc:  # failures are data, not exceptions
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, witness is None, witness)


def verify_propositions(cfg: RandomizationConfig | None = None,
                        corpus: Sequence[CorpusEntry] | None = None
                        ) -> list[CheckResult]:
    """Run the whole battery of cross-checks on the corpus.

    Every random object is regenerated from the master seed `cfg.seed`, so
    a report is reproducible.  Failures carry a witness string.  Each
    distinct input's toric polar map is built once per call, and each
    distinct map (keyed by its coordinates, so f and its powers share one)
    is solved once; an error is not kept, so every check that asks for that
    input raises it again.  The checks look entries
    up by name, so a corpus with a repeated name is a `PreconditionError`.
    """
    cfg = cfg or RandomizationConfig()
    seed = cfg.seed
    field = PrimeField(cfg.prime)
    entries = list(default_corpus() if corpus is None else corpus)
    if not entries:
        return []
    names = [e.name for e in entries]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise PreconditionError(
            f"corpus names repeat: {', '.join(map(repr, repeated))}")
    results: list[CheckResult] = []
    polys = {e.name: e.polynomial(field) for e in entries}

    solved: dict[tuple, tuple[int, ...]] = {}
    by_input: dict[frozenset, tuple[int, ...]] = {}

    def md_of(f):
        known = frozenset(f.terms.items())
        if known not in by_input:
            phi = toric_polar_map(f)
            key = tuple(frozenset(c.terms.items()) for c in phi.coordinates)
            if key not in solved:
                solved[key] = multidegrees(phi, cfg).values
            by_input[known] = solved[key]
        return by_input[known]

    def check_corpus_expectations():
        for e in entries:
            if e.expected is None:
                continue
            got = md_of(polys[e.name])
            if got != e.expected:
                return f"{e.name}: engine {got} != expected {e.expected}"
        return None

    results.append(_run("corpus-multidegrees", check_corpus_expectations))

    def check_reduced_powers():
        for name, power in (("cuspidal_cubic", 2), ("cuspidal_cubic", 3),
                            ("quadro_quadric_2", 2)):
            if name not in polys:
                continue
            f = polys[name]
            base = md_of(f)
            powered = md_of(f ** power)
            if base != powered:
                return f"{name}^{power}: {powered} != {base}"
        return None

    results.append(_run("reduced-powers", check_reduced_powers))

    def check_plane_formula():
        for e in entries:
            f = polys[e.name]
            if f.arity != 3:
                continue
            try:
                report = curves.plane_degree_formula(f)
            except PreconditionError:
                continue
            engine = md_of(f)[-1]
            if report.degree_formula != engine:
                return (f"{e.name}: formula {report.degree_formula} != "
                        f"engine degree {engine}")
        return None

    results.append(_run("plane-degree-formula", check_plane_formula))

    def check_general_position():
        jobs = [(name, mu) for name, mu in
                (("fermat_conic", 0), ("nodal_cubic", 1)) if name in polys]
        for tag, (name, milnor) in enumerate(jobs):
            base = polys[name]
            k = base.homogeneous_degree()
            expected = classes.deg_from_milnor_general_position(k, 2, milnor)
            for attempt in (0, 1):  # one resample before reporting failure
                f = random_translate(base, derive_seed(seed, tag, attempt))
                d = md_of(f)
                g = multidegrees(gradient_map(f), cfg)
                ok = (d[-1] == expected
                      and d == classes.toric_from_gradient(g)
                      and classes.check_union_general_section(
                          classes.csm_complement_of_hypersurface(g),
                          classes.csm_standard_complement(d)))
                if ok:
                    break
            else:
                return (f"translate of {name}: toric {d}, gradient "
                        f"{g.values}, expected degree {expected}")
        return None

    results.append(_run("general-position", check_general_position))

    def check_reducible_curves():
        rng = random.Random(derive_seed(seed, 0xC0))
        candidates = [e.name for e in entries
                      if polys[e.name].arity == 3
                      and polys[e.name].homogeneous_degree() <= 3]
        if len(candidates) < 2:
            return None
        pairs = set()
        tries = 0
        while len(pairs) < _CURVE_PAIRS and tries < 200:
            tries += 1
            a, b = rng.sample(candidates, 2)
            key = tuple(sorted((a, b)))
            if key in pairs:
                continue
            if not multivariate_gcd(polys[a], polys[b]).is_constant():
                continue
            pairs.add(key)
            f, g = polys[a], polys[b]
            crossings = curves.distinct_intersections_off_coordinates(f, g)
            if md_of(f * g)[-1] != md_of(f)[-1] + md_of(g)[-1] + crossings:
                return f"product rule fails for {a} * {b}"
        return None

    results.append(_run("reducible-curves", check_reducible_curves))

    def check_pyramid_families():
        for n in (2, 3):
            for which, ks in (("a", [None]), ("b", [2, 3]), ("c", [None])):
                for k in ks:
                    f = birational_family(which, n, k, field)
                    deg = md_of(f)[-1]
                    if deg != 1:
                        return f"family ({which}), n={n}, k={k}: degree {deg}"
        # stacking a pyramid preserves the degree on a singular example
        if "cuspidal_cubic" in polys:
            cusp = polys["cuspidal_cubic"]
            lifted = pyramid(cusp, Polynomial.monomial(field, 3, (1, 0, 1)))
            if md_of(lifted)[-1] != 2:
                return "pyramid over the cuspidal cubic lost its degree"
        return None

    results.append(_run("pyramid-families", check_pyramid_families))

    def check_monomial_invariance():
        rng = random.Random(derive_seed(seed, 0xD0))
        cusp = polys.get("cuspidal_cubic")
        base_deg = md_of(cusp)[-1] if cusp is not None else None
        for _ in range(_MONOMIAL_SAMPLES):
            k = rng.choice((1, 2, 2, 3))
            A = random_monomial_matrix(2, k, rng)
            if cusp is not None:
                pulled = monomial_pullback(cusp, A)
                if md_of(pulled)[-1] != base_deg:
                    return f"pullback degree changed for matrix {A.rows}"
            gA = monomial_sum_polynomial(A, field)
            if md_of(gA)[-1] != 1:
                return f"monomial sum not birational for matrix {A.rows}"
        return None

    results.append(_run("monomial-invariance", check_monomial_invariance))

    def check_arrangements():
        line1 = polys.get("generic_line")
        line2 = polys.get("second_line")
        # chi of the complement of m generic lines in P^2: 3 - 2m + C(m,2)
        jobs = []
        if line1 is not None:
            jobs.append((line1, 4))
            if line2 is not None:
                jobs.append((line1 * line2, 5))
        for f, m in jobs:
            chi = 3 - 2 * m + m * (m - 1) // 2
            deg = md_of(f)[-1]
            if deg != chi:
                return f"{m} generic lines: degree {deg} != chi {chi}"
        return None

    results.append(_run("hyperplane-arrangements", check_arrangements))

    def check_cremona_dolgachev():
        for n in (2, 3):
            got = md_of(cremona_poly(n, field))
            want = tuple(comb(n, j) for j in range(n + 1))
            if got != want:
                return f"cremona n={n}: {got} != {want}"
        for n in (2, 3, 4):
            got = md_of(dolgachev_quadric(n, field))
            want = (1,) + (2,) * (n - 1) + (1,)
            if got != want:
                return f"quadric n={n}: {got} != {want}"
        return None

    results.append(_run("cremona-dolgachev-multidegrees", check_cremona_dolgachev))

    return results
