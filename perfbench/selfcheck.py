#!/usr/bin/env python3
"""Exact-count self-check of the benchmark.

For each workload, runs the benchmark three times with one seed: traced,
traced again and untraced.  It checks that

  * the two traced runs report identical counts (every per-layer metric with
    unit `count`, and the normal-form zero ratio),
  * all three runs give identical answers (each traced run also checks that
    its traced passes answer exactly as its untraced passes),
  * every run passes the correctness gate.

Usage (from the repository root):

    python3 perfbench/selfcheck.py --seed 9001

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

EXACT_RATIOS = {"kernel.normal_form_terms.zero_ratio"}


def run(workload: str, seed: int, trace: int) -> tuple[dict, list]:
    """One benchmark run of about one pass; returns its result and answers."""
    path = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not path.is_file():
        return {"correct": False, "metrics": {}}, None
    with open(path, encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)["answers"]


def exact(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or name in EXACT_RATIOS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ok = True
    for workload in sorted(workloads.WORKLOADS):
        first, answers1 = run(workload, args.seed, 1)
        second, answers2 = run(workload, args.seed, 1)
        plain, answers0 = run(workload, args.seed, 0)
        checks = {
            "correct": all(r["correct"] for r in (first, second, plain)),
            "counts repeat": bool(exact(first)) and exact(first) == exact(second),
            "answers repeat": answers1 is not None and answers1 == answers2,
            "traced-run answers equal untraced-run answers":
                answers1 is not None and answers1 == answers0,
        }
        for name, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {name}")
            ok = ok and bool(passed)
        print(f"     {workload} counts: {json.dumps(exact(first))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
