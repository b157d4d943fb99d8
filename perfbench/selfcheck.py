#!/usr/bin/env python3
"""Self-check of the traced run: run it twice on one seed for each workload.

    python3 perfbench/selfcheck.py [--seed 1] [--workload graphs ...]

Every count metric must repeat exactly across the two runs, and span self
time must cover most (more than half) of every instance's wall time; the
covered shares are printed.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import RATIOS

ROOT = Path(__file__).resolve().parent.parent
MIN_COVERAGE = 0.5


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    args = parser.parse_args()
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] == "count" or m["name"].rsplit(".", 1)[-1] in RATIOS]
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        changed = [name for name in exact
                   if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        coverage = [run["metrics"]["trace.coverage_min"]["value"] for run in (first, second)]
        overall = [run["metrics"]["trace.coverage"]["value"] for run in (first, second)]
        correct = first["correct"] and second["correct"]
        passed = correct and not changed and min(coverage) > MIN_COVERAGE
        ok &= passed
        print(f"{workload:12s} {'ok' if passed else 'FAILED':6s} "
              f"{len(exact) - len(changed)}/{len(exact)} counts repeat; "
              f"self time covers {min(overall):.3f} overall, "
              f"{min(coverage):.3f} of the least-covered instance; correct {correct}")
        for name in changed:
            print(f"  {name}: {first['metrics'][name]['value']} then "
                  f"{second['metrics'][name]['value']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
