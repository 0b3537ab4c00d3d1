"""Command-line interface.

Subcommands:
  multidegrees  d_0..d_n of the toric polar map (or gradient map) of f
  csm           CSM class of the standard complement and Euler numbers
  curve-report  plane-curve invariants and the local degree formula
  verify        run the proposition harness over the corpus

Exit codes: 0 success, 1 failed verification or a broken internal
invariant (one stderr line, "internal error: ..."), 2 parse error,
3 precondition violation, 4 unlucky randomized specialization
(trial disagreement); rerun those with a fresh --seed or --prime.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classes, curves
from .constructions import parse_corpus, verify_propositions
from .errors import (ParseError, PreconditionError, SpecializationError,
                     ToricPolarError)
from .field import DEFAULT_PRIME, PrimeField
from .maps import (RandomizationConfig, gradient_map, multidegrees,
                   toric_polar_map)
from .parse import parse_polynomial

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SPECIALIZATION = 4


def _add_common(sub: argparse.ArgumentParser, needs_poly=True):
    if needs_poly:
        src = sub.add_mutually_exclusive_group(required=True)
        src.add_argument("--poly", help="polynomial text")
        src.add_argument("--file", help="file containing the polynomial text")
        sub.add_argument("--vars", required=True,
                         help="comma-separated variable names, e.g. x0,x1,x2")
    sub.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                     help="prime modulus (default %(default)s)")
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed for all randomized choices")
    sub.add_argument("--trials", type=int, default=2,
                     help="independent agreement trials of each sliced d_j "
                          "(default %(default)s)")
    sub.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable JSON output")


def _read_text(path: str) -> str:
    """Contents of a UTF-8 text file; bytes that do not decode are an
    `OSError`, reported like a missing or unreadable file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                      f"{exc.start})") from None


def _names(args):
    """The variable names of `--vars`, or None for a command without it."""
    text = getattr(args, "vars", None)
    if text is None:
        return None
    return [v.strip() for v in text.split(",") if v.strip()]


def _read_polynomial(args):
    text = args.poly
    if text is None:
        text = _read_text(args.file).strip()
    names = _names(args)
    if not names:
        raise ParseError("empty variable list", 0)
    field = PrimeField(args.prime)
    return parse_polynomial(text, names, field)


def _emit(report: dict, lines, as_json: bool):
    if as_json:
        print(json.dumps(report, separators=(", ", ": ")))
    else:
        for line in lines:
            print(line)


def cmd_multidegrees(args) -> int:
    f = _read_polynomial(args)
    cfg = RandomizationConfig(args.prime, args.seed, args.trials)
    build = gradient_map if args.gradient else toric_polar_map
    md = multidegrees(build(f), cfg)
    report = {
        "map": "gradient" if args.gradient else "toric",
        "n": md.n,
        "degree": md.topological_degree,
        "multidegrees": list(md.values),
        "prime": args.prime,
        "seed": args.seed,
        "trials": args.trials,
    }
    lines = [
        f"{report['map']} map on P^{md.n}",
        f"multidegrees: {' '.join(map(str, md.values))}",
        f"topological degree: {md.topological_degree}"
        + ("" if md.is_dominant() else " (not dominant)"),
    ]
    _emit(report, lines, args.as_json)
    return EXIT_OK


def cmd_csm(args) -> int:
    f = _read_polynomial(args)
    cfg = RandomizationConfig(args.prime, args.seed, args.trials)
    md = multidegrees(toric_polar_map(f), cfg)
    csm = classes.csm_standard_complement(md)
    chi_u = classes.euler_standard_complement(md)
    chi_d = classes.euler_divisor_complement(md)
    report = {
        "n": md.n,
        "multidegrees": list(md.values),
        "csm": list(csm.coefficients),
        "euler_complement": chi_u,
        "euler_divisor_complement": chi_d,
        "prime": args.prime,
        "seed": args.seed,
        "trials": args.trials,
    }
    lines = [
        f"CSM class of the standard complement in P^{md.n}: "
        + " ".join(map(str, csm.coefficients)),
        f"chi(P^n minus hypersurface and coordinate hyperplanes) = {chi_u}",
        f"chi(hypersurface minus coordinate hyperplanes) = {chi_d}",
    ]
    _emit(report, lines, args.as_json)
    return EXIT_OK


def cmd_curve_report(args) -> int:
    f = _read_polynomial(args)
    cfg = RandomizationConfig(args.prime, args.seed, args.trials)
    rep = curves.plane_degree_formula(f)
    engine = multidegrees(toric_polar_map(f), cfg).topological_degree
    report = {
        "k": rep.k,
        "milnor_sum": rep.milnor_sum,
        "incidence": rep.incidence,
        "tangency": rep.tangency,
        "degree": rep.degree_formula,
        "engine_degree": engine,
    }
    lines = [
        f"degree k = {rep.k}",
        f"milnor sum = {rep.milnor_sum} (weighted-homogeneous singularities assumed)",
        f"fundamental-point incidence = {rep.incidence}",
        f"coordinate-line tangency = {rep.tangency}",
        f"degree formula k^2 - milnor - incidence - tangency = {rep.degree_formula}",
        f"multidegree engine degree = {engine}",
    ]
    _emit(report, lines, args.as_json)
    return EXIT_OK if rep.degree_formula == engine else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    corpus = None
    if args.corpus:
        corpus = parse_corpus(_read_text(args.corpus))
    cfg = RandomizationConfig(args.prime, args.seed, args.trials)
    results = verify_propositions(cfg, corpus)
    ok = all(r.passed for r in results)
    report = {
        "seed": args.seed,
        "prime": args.prime,
        "trials": args.trials,
        "passed": ok,
        "checks": [
            {"name": r.name, "passed": r.passed, "witness": r.witness}
            for r in results
        ],
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}"
             + (f"\n  {r.witness}" if r.witness else "")
             for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    _emit(report, lines, args.as_json)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricpolar",
        description="Exact multidegrees of toric polar and gradient maps, "
                    "CSM classes and Euler characteristics of standard "
                    "complements.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_md = subs.add_parser("multidegrees",
                           help="multidegrees of the toric polar map")
    _add_common(p_md)
    p_md.add_argument("--gradient", action="store_true",
                      help="use the gradient map instead")
    p_md.set_defaults(fn=cmd_multidegrees)

    p_csm = subs.add_parser("csm", help="CSM class of the standard complement")
    _add_common(p_csm)
    p_csm.set_defaults(fn=cmd_csm)

    p_curve = subs.add_parser("curve-report",
                              help="plane-curve invariants and degree formula")
    _add_common(p_curve)
    p_curve.set_defaults(fn=cmd_curve_report)

    p_verify = subs.add_parser("verify", help="run the proposition harness")
    _add_common(p_verify, needs_poly=False)
    p_verify.add_argument("--corpus", help="corpus manifest file "
                          "(name | vars | polynomial | expected)")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc.named(_names(args))}",
              file=sys.stderr)
        return EXIT_PRECONDITION
    except SpecializationError as exc:
        print(f"unlucky specialization: {exc}", file=sys.stderr)
        return EXIT_SPECIALIZATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ToricPolarError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
