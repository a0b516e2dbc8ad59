"""Steadiness of the benchmark: runs each workload with several seeds and
prints every end-to-end metric's median and quartiles next to its bound.

    python3 perfbench/steady.py                  # seeds 1 to 10
    python3 perfbench/steady.py --first-seed 11  # a second set, seeds 11 to 20

The spread is (Q3 - Q1) / median over the runs, quartiles as
`statistics.quantiles(values, n=4)` gives them. A metric is steady when its
spread is below a third of its bound. Runs go one after another, each in its
own process, from the checkout root; the exit code is 1 when any workload
is not steady, was not correct, or failed a different share of operations
from one run to another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 10   # runs per workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {proc.stderr.strip()[-1500:]}")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + SEEDS)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct},"
              f" failed share {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        steady &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady &= ok
            note = "" if ok else ("  <- over the bound" if spread > bound
                                  else "  <- not below bound/3")
            print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}"
                  f" {bound:6.2f}{note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
