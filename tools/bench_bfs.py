"""Time the reciprocals and the BFS distance table on a fixed ladder.

Usage:

    PYTHONPATH=src python tools/bench_bfs.py [--repeats N] [--first N]

Each case builds fresh ReprProblems per repeat and times three stages one
after the other, over every prime of the case:

- recips_s: ReprProblem.reciprocals, the reciprocal k-th powers of the bases;
- bfs_s: build_layer_table, the BFS itself, which is all that scan needs;
- coverage_s: the first read of LayerTable.coverage, the distance array that
  represent and nmax read (a checkout that builds it inside
  build_layer_table reports about 0 here).

best_s and median_s time the distance table as represent and nmax use it,
bfs_s + coverage_s, and best_cpu_s is its CPU time. The scan rungs time the
whole prime range of one benchmark scan command. One JSON line is printed
per case, smallest rung first, with the best (and for the table the median)
over the repeats. --first N runs only the first N rungs, as a smoke test.
The script uses only the public API, so the same file times any checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

from recipsums import PrimeField, ReprProblem, build_layer_table, primes_up_to

# (name, primes, k, epsilon), smallest first, then the rungs where the chooser
# decides between push and shift.
LADDER = [
    ("scan k=3 eps=1/3", (2, 4002), 3, Fraction(1, 3)),
    ("scan k=1 eps=1", (2, 2002), 1, Fraction(1, 1)),
    ("scan k=2 eps=1/2", (2, 4002), 2, Fraction(1, 2)),
    ("1e5 k=2 eps=1/3", 99991, 2, Fraction(1, 3)),
    ("1e5 k=2 eps=1/2", 99991, 2, Fraction(1, 2)),
    ("1e5 k=1 eps=1/8 (deep)", 99991, 1, Fraction(1, 8)),
    ("1e6 k=1 eps=1/3", 1000003, 1, Fraction(1, 3)),
    ("1e6 k=1 eps=1/2", 1000003, 1, Fraction(1, 2)),
    ("1e6 k=1 eps=1", 1000003, 1, Fraction(1, 1)),
    ("1e6 k=1 eps=9/10", 1000003, 1, Fraction(9, 10)),
    ("1e6 k=2 eps=1/4", 1000003, 2, Fraction(1, 4)),
    ("scan k=2 eps=1/8", (2, 4002), 2, Fraction(1, 8)),
    ("1e6 k=1 eps=1/6", 1000003, 1, Fraction(1, 6)),
]


def time_case(primes: list[int], k: int, epsilon: Fraction) -> dict:
    """Wall seconds of each stage over every prime, the table's CPU seconds,
    and the deepest level among the tables."""
    problems = [ReprProblem(PrimeField(p), k, epsilon) for p in primes]
    start = time.perf_counter()
    for problem in problems:
        problem.reciprocals
    recips = time.perf_counter() - start
    wall, cpu = time.perf_counter(), time.process_time()
    tables = [build_layer_table(problem) for problem in problems]
    bfs = time.perf_counter() - wall
    start = time.perf_counter()
    coverages = [table.coverage for table in tables]
    coverage, table_cpu = time.perf_counter() - start, time.process_time() - cpu
    depth = max(int(max(c)) for c in coverages)
    return {"recips": recips, "bfs": bfs, "coverage": coverage, "cpu": table_cpu, "depth": depth}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--first", type=int, default=len(LADDER), help="run only the first N rungs")
    args = parser.parse_args()
    for name, primes, k, epsilon in LADDER[: args.first]:
        if isinstance(primes, tuple):
            lo, hi = primes
            primes = [p for p in primes_up_to(hi) if p >= lo]
        else:
            primes = [primes]
        runs = [time_case(primes, k, epsilon) for _ in range(args.repeats)]
        tables = [run["bfs"] + run["coverage"] for run in runs]
        row = {
            "case": name,
            "p": primes[0] if len(primes) == 1 else f"{primes[0]}..{primes[-1]}",
            "primes": len(primes),
            "k": k,
            "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
            "depth": runs[0]["depth"],
            "recips_s": round(min(run["recips"] for run in runs), 5),
            "bfs_s": round(min(run["bfs"] for run in runs), 5),
            "coverage_s": round(min(run["coverage"] for run in runs), 5),
            "best_s": round(min(tables), 5),
            "median_s": round(statistics.median(tables), 5),
            "best_cpu_s": round(min(run["cpu"] for run in runs), 5),
            "repeats": args.repeats,
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
