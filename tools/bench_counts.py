"""Time exact covering-count powers (cyclic_power_exact) on fixed inputs.

Usage:

    PYTHONPATH=src python tools/bench_counts.py [--repeats N] [--first N]

Each case raises one fixed count vector w to the J-th cyclic power, the
stage that `expsum` pays for its exact covering counts. The inputs are, in
order:

- seeded synthetic w at p = 20333 (J = 2), where every bucket fits in 64
  bits, and at p = 9929 (J = 6), the half power of the benchmark's
  `expsum --grow --auto-J` size, where the last buckets do not;
- w = (0, 4, 4, 4, 4) at p = 5, the pair-product counts of T = {1, 2, 3, 4},
  at J = 20000 and J = 100000: five counts of 24,000 and 120,000 digits;
- seeded synthetic w at p = 1000003, J = 4, with entries 789669 +- 1100 like
  the grown set's w there.

The synthetic entries are uniform in [mean - spread, mean + spread]. One
JSON line is printed per case with the best and the median wall time over
the repeats, and the bit length of the largest count. --first N runs only
the first N cases, as a smoke test. The script uses only the public
function, so the same file times any checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from recipsums.convolve import cyclic_power_exact

# (name, p, J, w): w is (mean, spread) for a seeded synthetic vector, or the vector itself.
CASES = [
    ("p=20333 J=2 synthetic", 20333, 2, (1226, 400)),
    ("p=9929 J=6 synthetic", 9929, 6, (108, 92)),
    ("p=5 J=20000 T={1,2,3,4}", 5, 20000, [0, 4, 4, 4, 4]),
    ("p=5 J=100000 T={1,2,3,4}", 5, 100000, [0, 4, 4, 4, 4]),
    ("p=1000003 J=4 synthetic", 1000003, 4, (789669, 1100)),
]


def vector(p: int, w: tuple[int, int] | list[int]) -> np.ndarray:
    if isinstance(w, list):
        return np.array(w, dtype=np.int64)
    mean, spread = w
    return np.random.default_rng(p).integers(mean - spread, mean + spread, size=p, endpoint=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--first", type=int, default=len(CASES), help="run only the first N cases")
    args = parser.parse_args()
    for name, p, j, w in CASES[: args.first]:
        a = vector(p, w)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            counts = cyclic_power_exact(a, j, p)
            times.append(time.perf_counter() - start)
        row = {
            "case": name,
            "p": p,
            "J": j,
            "max_bits": int(max(counts.tolist())).bit_length(),
            "best_s": round(min(times), 5),
            "median_s": round(statistics.median(times), 5),
            "repeats": args.repeats,
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
