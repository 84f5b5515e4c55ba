#!/usr/bin/env python3
"""Check that the benchmark is steady: run it on several seeds per workload.

Usage, from the root of a source checkout::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

For each workload and end-to-end metric, prints the median over the runs
and the spread (interquartile distance over the median) next to the
metric's bound.  A spread above a third of the bound is flagged;
``setup_s`` is exempt from the spread rule.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import relative_spread  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    steady = True
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output")
                steady = False
            runs.append(result["metrics"])
        for metric in bench["end_to_end"]:
            values = [run[metric["name"]]["value"] for run in runs]
            spread = relative_spread(values) if len(values) > 1 else 0.0
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{name:20s} {metric['name']:12s} median "
                  f"{statistics.median(values):10.4g} spread {spread:6.3f} "
                  f"bound {metric['bound']}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
