"""Time the BFS distance table (represent.build_layer_table) on a fixed ladder.

Usage:

    PYTHONPATH=src python tools/bench_bfs.py [--repeats N] [--first N]

Each case builds a fresh ReprProblem per repeat, computes its reciprocals
outside the clock, and times build_layer_table alone. The scan rungs time
the whole prime range of one benchmark scan command. One JSON line is
printed per case, smallest rung first, with the best and the median wall
time over the repeats and the best CPU time. --first N runs only the
first N rungs, as a smoke test. The script uses only the public API, so
the same file times any checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

from recipsums import PrimeField, ReprProblem, build_layer_table, primes_up_to

# (name, primes, k, epsilon), smallest first.
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
]


def time_case(primes: list[int], k: int, epsilon: Fraction) -> tuple[float, float, int]:
    """Wall and CPU seconds to build every table, and the deepest level among them."""
    problems = [ReprProblem(PrimeField(p), k, epsilon) for p in primes]
    for problem in problems:
        problem.reciprocals
    wall, cpu = time.perf_counter(), time.process_time()
    depth = max(int(build_layer_table(problem).coverage.max()) for problem in problems)
    return time.perf_counter() - wall, time.process_time() - cpu, depth


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
        walls, cpus = [], []
        for _ in range(args.repeats):
            wall, cpu, depth = time_case(primes, k, epsilon)
            walls.append(wall)
            cpus.append(cpu)
        row = {
            "case": name,
            "p": primes[0] if len(primes) == 1 else f"{primes[0]}..{primes[-1]}",
            "primes": len(primes),
            "k": k,
            "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
            "depth": depth,
            "best_s": round(min(walls), 5),
            "median_s": round(statistics.median(walls), 5),
            "best_cpu_s": round(min(cpus), 5),
            "repeats": args.repeats,
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
