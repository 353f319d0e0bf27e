"""Compare two checkouts with the same benchmark code, in alternating pairs.

Usage:

    python3 perfbench/pairs.py PARENT_DIR CHANGE_DIR --workload NAME

It makes ten pairs. Each pair runs this directory's run.py once in each
checkout, with the same seed and the run length of BENCHMARK.json,
alternating which side goes first; pair i uses seed 1000 + i, so the seeds
differ from the ones used while writing a change. For every
end-to-end metric it prints each side's median and quartiles, how many
pairs the change won (ties count for neither), and whether the change's
median is better by more than the parent's own spread between quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
PAIRS = 10
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(checkout: str, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: seed {seed} failed {result['failed']} of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    sides = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(getattr(args, side), args.workload, 1000 + i))

    for name in sides["parent"][0]:
        parent = [r[name] for r in sides["parent"]]
        change = [r[name] for r in sides["change"]]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        gain = statistics.median(parent) - statistics.median(change) > pq[2] - pq[0]
        print(f"{args.workload} {name}: parent median {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}], "
              f"change median {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}], "
              f"change lower in {wins}/{PAIRS} pairs (higher in {losses}), "
              f"gain beyond parent spread: {gain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
