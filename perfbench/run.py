#!/usr/bin/env python3
"""Multidegree benchmark: time to verified answers, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sparse|dense|harness --seed N \
        --seconds S --trace 0|1

The package is imported from ./src of the checkout; nothing is built.  A
run solves the workload's whole input set again and again until S seconds
have passed (at least once) and reports medians over those passes.  Every
answer is checked against a reference that does not come from the engine.

--trace 0 prints the end-to-end metrics.  Their times are in reference
seconds: each input's wall time scaled by the machine's speed sampled while
it ran, and the set-up time by the mean speed of the run (see
calibration.py).  The wall-clock figures are
printed beside them.  --trace 1 alternates untraced passes with passes
during which the public functions of every layer are wrapped (see
tracing.py), and prints the per-layer metrics in wall seconds.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every operation succeeded and matched its reference, 2 when the
package cannot be found.  Context (seed, backend, Python, nproc, commit)
and, for traced runs, all spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreter to ready: what every CLI call pays before any work.
READY = ("import sys; sys.path.insert(0, sys.argv[1]); import toricpolar; "
         "toricpolar.PrimeField()")
SETUP_SPAWNS = 11

END_TO_END_UNITS = {"solve_s": "s", "slowest_input_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "pass_ratio": "ratio"}


def load_package():
    """Import toricpolar from the checkout's src/, never from elsewhere."""
    if not (SRC / "toricpolar" / "__init__.py").is_file():
        print(f"error: no toricpolar package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import toricpolar
    import toricpolar.cli  # noqa: F401  (the harness calls toricpolar.cli.main)
    if Path(toricpolar.__file__).resolve().parent != SRC / "toricpolar":
        print(f"error: imported toricpolar from {toricpolar.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return toricpolar


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that import and select the
    kernel; one unrecorded spawn first fills the bytecode cache."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", READY, str(SRC)], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@dataclass
class Pass:
    """One solve of the whole input set: per input its wall time, its time
    in reference seconds (see calibration.py) and its outcome."""

    input_s: list
    scaled_s: list
    outcomes: list

    @property
    def total_s(self) -> float:
        return sum(self.input_s)


def solve_all(tp, inputs, tracer=None, speed=calibration.Unsampled()) -> Pass:
    """Solve every input once.  The time the speed probes took is taken out
    of each input's wall time."""
    times, outcomes, marks = [], [], []
    for idx, item in enumerate(inputs):
        if tracer is not None:
            tracer.input_id = idx
        spent, first = speed.spent, len(speed.samples)
        t0 = time.perf_counter()
        try:
            out = workloads.solve(tp, item)
        except Exception as exc:  # a raised error is a failed operation
            traceback.print_exc()
            out = workloads.failure(exc)
        times.append(time.perf_counter() - t0 - (speed.spent - spent))
        outcomes.append(out)
        marks.append((first, len(speed.samples)))
    if tracer is not None:
        tracer.input_id = -1
    return Pass(times, speed.reference_seconds(times, marks), outcomes)


def repeat(tp, inputs, seconds, speed) -> list[Pass]:
    """Solve the input set until `seconds` have passed, at least once."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(solve_all(tp, inputs, speed=speed))
    return passes


def tally(passes: list[Pass], labels: list) -> tuple[int, int, list]:
    """Attempted and failed operations over all passes.  An input whose
    checks passed but whose answer differs from the first pass's counts as
    one more failure."""
    reference = [out.answer for out in passes[0].outcomes]
    attempted = failed = 0
    errors = []
    for n, run in enumerate(passes):
        for label, out, want in zip(labels, run.outcomes, reference):
            attempted += out.attempted
            failed += out.failed
            errors += [f"pass {n}, {label}: {e}" for e in out.errors]
            if not out.failed and out.answer != want:
                failed += 1
                errors.append(f"pass {n}, {label}: answer {out.answer} "
                              f"differs from the first pass, {want}")
    return attempted, failed, errors


def end_to_end(passes: list[Pass], attempted: int, failed: int,
               speed: calibration.Speed) -> tuple[dict, dict]:
    """End-to-end metrics, and the wall-clock figures behind the times in
    reference seconds.  The set-up time is scaled by the mean speed of the
    whole run (see calibration.py)."""
    wall = {
        "solve_s": statistics.median(p.total_s for p in passes),
        "slowest_input_s": statistics.median(max(p.input_s) for p in passes),
        "setup_s": setup_seconds(),
    }
    metrics = {
        "solve_s": statistics.median(sum(p.scaled_s) for p in passes),
        "slowest_input_s": statistics.median(max(p.scaled_s) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    metrics["setup_s"] = wall["setup_s"] * calibration.relative_speed(speed.samples)
    return metrics, wall


# (metric, span name, field of tracing.layer_report, unit)
PER_LAYER = [
    ("groebner.buchberger_block.self_s", "groebner.buchberger_block", "self_s", "s"),
    ("groebner.buchberger_block.calls", "groebner.buchberger_block", "calls", "count"),
    ("groebner.buchberger_block.basis_size", "groebner.buchberger_block", "sizes", "count"),
    ("kernel.normal_form_terms.self_s", "kernel.normal_form_terms", "self_s", "s"),
    ("kernel.normal_form_terms.calls", "kernel.normal_form_terms", "calls", "count"),
    ("groebner.buchberger_grevlex.s", "groebner.buchberger_grevlex", "s", "s"),
    ("groebner.buchberger_grevlex.calls", "groebner.buchberger_grevlex", "calls", "count"),
    ("groebner.hilbert.self_s", "groebner.hilbert", "self_s", "s"),
    ("gcdtools.squarefree_part.s", "gcdtools.squarefree_part", "s", "s"),
    ("gcdtools.squarefree_part.calls", "gcdtools.squarefree_part", "calls", "count"),
    ("gcdtools.multivariate_gcd.self_s", "gcdtools.multivariate_gcd", "self_s", "s"),
    ("gcdtools.multivariate_gcd.calls", "gcdtools.multivariate_gcd", "calls", "count"),
    ("maps.map_build.s", "maps.map_build", "s", "s"),
    ("maps.multidegrees.self_s", "maps.multidegrees", "self_s", "s"),
    ("poly.substitute.self_s", "poly.substitute", "self_s", "s"),
    ("parse.parse_polynomial.self_s", "parse.parse_polynomial", "self_s", "s"),
    ("groebner.saturate.s", "groebner.saturate", "s", "s"),
    ("groebner.saturate.calls", "groebner.saturate", "calls", "count"),
    ("kernel.mul_terms.self_s", "kernel.mul_terms", "self_s", "s"),
    ("kernel.mul_terms.calls", "kernel.mul_terms", "calls", "count"),
    ("curves.plane_degree_formula.s", "curves.plane_degree_formula", "s", "s"),
    ("curves.plane_degree_formula.calls", "curves.plane_degree_formula", "calls", "count"),
    ("curves.distinct_intersections_off_coordinates.s",
     "curves.distinct_intersections_off_coordinates", "s", "s"),
    ("curves.distinct_intersections_off_coordinates.calls",
     "curves.distinct_intersections_off_coordinates", "calls", "count"),
]


def layer_metrics(spans, traced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the full layer table."""
    layers, unattributed = tracing.layer_report(spans, traced_s)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "sizes": 0, "zeros": 0}
    values = {metric: layers.get(name, empty)[field]
              for metric, name, field, _unit in PER_LAYER}
    nf = layers.get("kernel.normal_form_terms", empty)
    values["kernel.normal_form_terms.zero_ratio"] = (
        nf["zeros"] / nf["calls"] if nf["calls"] else 0.0)
    values["maps.slices"] = tracing.count_inside(spans, "groebner.saturate",
                                                 "maps.multidegrees")
    values["trace.unattributed_s"] = unattributed
    return values, layers


PER_LAYER_UNITS = {metric: unit for metric, _n, _f, unit in PER_LAYER}
PER_LAYER_UNITS.update({"kernel.normal_form_terms.zero_ratio": "ratio",
                        "maps.slices": "count", "trace.overhead_ratio": "ratio",
                        "trace.unattributed_s": "s", "trace.solve_s": "s"})


def per_layer(tp, inputs, seconds, context) -> tuple[dict, list, list]:
    """Alternate untraced and traced passes until `seconds` have passed, so
    that both see the same machine; per-layer figures are medians over the
    traced passes."""
    tracer = tracing.Tracer()
    kernel = tp.PrimeField().kernel
    plain, traced, marks = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(solve_all(tp, inputs))
        missing = tracer.install(kernel)
        try:
            traced.append(solve_all(tp, inputs, tracer))
        finally:
            tracer.uninstall()
        marks.append(len(tracer.spans))
    if missing:
        print("warning: not traced (absent): " + ", ".join(missing),
              file=sys.stderr)
    rows, tables = [], []
    begin = 0
    for run, end in zip(traced, marks):
        values, table = layer_metrics(tracer.spans[begin:end], run.total_s)
        rows.append(values)
        tables.append(table)
        begin = end
    # median_low keeps a count a whole number (counts repeat in every pass)
    metrics = {name: (statistics.median_low if PER_LAYER_UNITS[name] == "count"
                      else statistics.median)(row[name] for row in rows)
               for name in rows[0]}
    traced_s = statistics.median(p.total_s for p in traced)
    metrics["trace.solve_s"] = traced_s
    metrics["trace.overhead_ratio"] = (
        traced_s / statistics.median(p.total_s for p in plain) - 1)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{context['workload']}-seed{context['seed']}.json",
                 dict(context, pass_span_ends=marks))
    print_layer_table(tables[len(tables) // 2], traced[len(traced) // 2].total_s)
    return metrics, plain, traced


def print_layer_table(table: dict, traced_s: float):
    print(f"{'layer':48} {'calls':>9} {'s':>9} {'self_s':>9}")
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        print(f"{name:48} {row['calls']:9d} {row['s']:9.4f} {row['self_s']:9.4f}")
    total = sum(row["self_s"] for row in table.values())
    print(f"{'(all spans, self time)':48} {'':9} {'':9} {total:9.4f}"
          f"  of traced solve {traced_s:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tp = load_package()
    inputs = workloads.WORKLOADS[args.workload](args.seed, tp)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [item.label for item in inputs],
        "backend": tp.PrimeField().backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    print("context: " + json.dumps(context))

    wall = None
    if args.trace:
        metrics, plain, traced = per_layer(tp, inputs, args.seconds, context)
    else:
        with calibration.Speed() as speed:
            plain, traced = repeat(tp, inputs, args.seconds, speed), []
    # every pass, traced or not, must give the first pass's answers
    attempted, failed, errors = tally(plain + traced, context["inputs"])
    if not args.trace:
        metrics, wall = end_to_end(plain, attempted, failed, speed)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for line in errors:
        print("FAILED " + line, file=sys.stderr)

    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    for name in sorted(metrics):
        print(f"{name:52} {metrics[name]:.6g} {units[name]}")
    print(f"{'fail_ratio':52} {failed / attempted:.6g} ratio")
    if wall is not None:
        print(f"wall clock: solve {wall['solve_s']:.6g} s, slowest input "
              f"{wall['slowest_input_s']:.6g} s, setup {wall['setup_s']:.6g} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result, "wall": wall,
                   "answers": [out.answer for out in plain[0].outcomes]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
