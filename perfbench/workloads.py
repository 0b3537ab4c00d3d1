"""Workload inputs made from a seed, and reference answers that do not
come from the engine.

Each workload is a list of inputs.  Solving an input is a call into the
public API exactly as a user makes it (polynomial text in, multidegrees,
CSM class and Euler characteristic out, or one in-process CLI call), so
every layer from `parse` down to the kernel is on the path.  The reasons
for each workload are in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable


def sub_seed(seed: int, tag: int) -> int:
    """Independent 63-bit seed for one use of the workload seed."""
    return random.Random(seed * 1_000_003 + tag).getrandbits(63)


def names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n + 1))


# ---------------------------------------------------------------- inputs as text
# These spell out the constructions of toricpolar.constructions, so the
# inputs stay fixed even if those helpers change.


def cremona_text(n: int) -> str:
    return " + ".join("*".join(f"x{i}" for i in range(n + 1) if i != j)
                      for j in range(n + 1))


def dolgachev_text(n: int) -> str:
    return "x1^2 + x0*x1 + " + " + ".join(f"x0*x{i}" for i in range(2, n + 1))


def family_text(which: str, n: int, k: int | None = None) -> str:
    if which == "a":
        tail = " + ".join(f"x{i}" for i in range(1, n + 1))
        return f"x1^2 + x1*x2 + x0*({tail})"
    if which == "b":
        return f"(x0 + x1)^{k} + " + " + ".join(
            f"x{i}^{k - 1}*x{i + 1}" for i in range(1, n))
    return ("x0^2 + x1^2 + x2^2 - 2*x0*x1 - 2*x0*x2 - 2*x1*x2"
            + "".join(f" + x{i}*x{i + 1}" for i in range(2, n)))


def fermat_text(n: int, k: int) -> str:
    return " + ".join(f"x{i}^{k}" for i in range(n + 1))


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class MapInput:
    """Multidegrees of the toric (or gradient) map of one hypersurface.

    `expected` holds the reference multidegrees, None where the reference
    does not fix a value.
    """

    label: str
    variables: tuple[str, ...]
    text: str
    gradient: bool
    expected: tuple[int | None, ...]
    seed: int


@dataclass(frozen=True)
class HarnessInput:
    """One in-process `toricpolar verify --json` call."""

    label: str
    argv: tuple[str, ...]


def binomials(n: int) -> tuple[int, ...]:
    return tuple(comb(n, j) for j in range(n + 1))


def quadric_ladder(n: int) -> tuple[int, ...]:
    return (1,) + (2,) * (n - 1) + (1,)


def birational(n: int, degree: int) -> tuple[int | None, ...]:
    return (1, degree) + (None,) * (n - 2) + (1,)


def powers(n: int, base: int) -> tuple[int, ...]:
    return tuple(base ** j for j in range(n + 1))


def sparse_inputs(seed: int, _tp) -> list[MapInput]:
    cases = [(f"cremona n={n}", n, cremona_text(n), binomials(n)) for n in (3, 4)]
    cases += [(f"dolgachev n={n}", n, dolgachev_text(n), quadric_ladder(n))
              for n in (3, 4, 5, 6)]
    cases += [("family (a) n=4", 4, family_text("a", 4), birational(4, 2)),
              ("family (b) k=3 n=4", 4, family_text("b", 4, 3), birational(4, 3)),
              ("family (c) n=4", 4, family_text("c", 4), birational(4, 2))]
    return [MapInput(label, names(n), text, False, expected,
                     sub_seed(seed, i))
            for i, (label, n, text, expected) in enumerate(cases)]


def dense_inputs(seed: int, tp) -> list[MapInput]:
    """General translates of smooth Fermat surfaces.

    The translation matrix is drawn from the workload seed by
    `toricpolar.random_translate`; the input is its expanded text.  A smooth
    degree-k hypersurface in general position has toric multidegrees
    k^j and gradient multidegrees (k-1)^j.
    """
    field = tp.PrimeField()
    out = []
    for k, maps, tag in ((3, (False, True), 100), (4, (False,), 200)):
        fermat = tp.parse_polynomial(fermat_text(3, k), names(3), field)
        text = tp.random_translate(fermat, sub_seed(seed, tag)).to_text(names(3))
        for gradient in maps:
            kind = "gradient" if gradient else "toric"
            expected = powers(3, k - 1 if gradient else k)
            out.append(MapInput(f"degree-{k} surface translate, {kind}",
                                names(3), text, gradient, expected,
                                sub_seed(seed, tag + 1 + gradient)))
    return out


HARNESS_SEED = 0


def harness_inputs(seed: int, tp) -> list[HarnessInput]:
    """The proposition harness with a fixed check seed over a prime drawn
    from the workload seed.

    The verify seed picks which monomial matrices and curve pairs are
    checked, which changes the amount of work several-fold; the prime only
    changes coefficient values, so the work stays the same across seeds.
    """
    prime = 2**31 - 1 - random.Random(sub_seed(seed, 300)).randrange(2**29)
    while not tp.is_prime(prime):
        prime -= 1
    argv = ("verify", "--seed", str(HARNESS_SEED), "--prime", str(prime), "--json")
    return [HarnessInput(f"verify --seed {HARNESS_SEED} --prime {prime}", argv)]


WORKLOADS: dict[str, Callable] = {
    "sparse": sparse_inputs,
    "dense": dense_inputs,
    "harness": harness_inputs,
}


# ---------------------------------------------------------------- solving and checking


@dataclass
class Outcome:
    """Operations attempted and failed for one input, and its answer."""

    attempted: int
    failed: int
    answer: object
    errors: list[str]


def solve_map(tp, item: MapInput) -> Outcome:
    """Parse, build the map, compute multidegrees and, for the toric map,
    the CSM class and Euler characteristic; check all of them."""
    field = tp.PrimeField()
    f = tp.parse_polynomial(item.text, item.variables, field)
    build = tp.gradient_map if item.gradient else tp.toric_polar_map
    cfg = tp.RandomizationConfig(seed=item.seed)
    values = tuple(tp.multidegrees(build(f, seed=item.seed), cfg).values)
    errors = []
    want = item.expected
    if len(values) != len(want) or any(w is not None and v != w
                                        for v, w in zip(values, want)):
        errors.append(f"multidegrees {values}, reference {want}")
    answer = {"multidegrees": values}
    if not item.gradient:
        n = len(values) - 1
        csm = tuple(tp.csm_standard_complement(values).coefficients)
        euler = tp.euler_standard_complement(values)
        if csm != tuple((-1) ** i * d for i, d in enumerate(values)):
            errors.append(f"CSM class {csm} from multidegrees {values}")
        if euler != (-1) ** n * values[-1]:
            errors.append(f"Euler characteristic {euler} from {values}")
        answer.update(csm=csm, euler=euler)
    return Outcome(1, 1 if errors else 0, answer, errors)


def solve_harness(tp, item: HarnessInput) -> Outcome:
    """One CLI call; each check of the report is one operation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tp.cli.main(list(item.argv))
    errors = []
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = {}
        errors.append("verify printed no JSON report")
    checks = report.get("checks", [])
    failed = [c["name"] for c in checks if c.get("passed") is not True]
    errors += [f"check {name} failed" for name in failed]
    if code != 0:
        errors.append(f"exit code {code}")
    if report.get("passed") is not True:
        errors.append("report does not say passed")
    answer = {"exit": code, "checks": [(c["name"], c.get("passed"))
                                       for c in checks]}
    return Outcome(max(1, len(checks)), max(len(failed), 1 if errors else 0),
                   answer, errors)


def solve(tp, item) -> Outcome:
    if isinstance(item, HarnessInput):
        return solve_harness(tp, item)
    return solve_map(tp, item)


def failure(exc: BaseException) -> Outcome:
    return Outcome(1, 1, None, [f"{type(exc).__name__}: {exc}"])
