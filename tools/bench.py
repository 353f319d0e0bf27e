"""Time two checkouts against each other, alternating them round by round.

Usage:

    python tools/bench.py BASE CHANGE [--rounds N] [--first N] [--seed S] [--out PATH]

BASE and CHANGE are two checkouts of this repository. Every measurement runs
as a fresh child of one checkout, with its ``src`` first on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1; both checkouts' ``__pycache__`` directories are
removed first, so neither side starts from bytecode the other lacks. Each
round runs every case once in each checkout, and the side that goes first
alternates from round to round. There are three kinds of case:

- command: ``python -m recipsums ARGS``, timed from spawn to exit (wall_s),
  with the child's peak RSS (rss_mb). The commands are ``--version``, the
  three ``scan`` commands of the benchmark's scan workload
  (``perfbench/workloads.generate("scan", S)``) and the commands of the
  ROADMAP's table of where things stand. Their stdout must match.
- bfs: a probe times build_layer_table over every prime of a rung, on fresh
  problems, as ``scan`` pays for it (bfs_s); then the first read of each
  table's distance array, which ``represent`` and ``nmax`` pay on top
  (coverage_s); the CPU seconds of both (cpu_s); and the deepest level
  (depth), which must match.
- count: a probe times ``convolve.cyclic_power_exact`` on one fixed vector
  (power_s), the exact covering-count power of ``expsum``; the bit length
  of the largest count (max_bits) must match.

The probes use only the public API, so the same file times any checkout.
--first N runs only the first N cases of each kind, as a smoke test. The
report gives, per case, side and metric, the median and quartiles over the
rounds, the change's median as a ratio of the base's, the number of rounds
in which the change read lower (change_lower), and each side's ``src`` line
count. It is printed as JSON and written to PATH with --out. A child that
exits non-zero stops the run. A case whose output differs between the
sides is flagged with "differs", and the script then exits 1.

A gain may be claimed from at least 10 rounds, where the change read lower
in at least nine rounds of ten and its median lies below the base's by more
than the distance between the base's quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The ROADMAP's table of where things stand, after --version.
TABLE = [
    "represent --p 1000003 --k 2 --epsilon 1/3 --a 12345",
    "nmax --p 1000003 --k 1 --epsilon 1/2",
    "grow --p 1000003 --k 1 --beta 1/4",
    "scan --primes 999000..1000100 --k 1 --epsilon 1/3",
    "expsum --p 1000003 --random-size 4000 --J 4 --min-J --seed 1",
    "expsum --p 1000003 --grow --auto-J",
    "nmax --p 10000019 --k 1 --epsilon 1/2",
    "represent --p 10000019 --k 2 --epsilon 1/3 --a 5",
    "expsum --p 5 --members 1,2,3,4 --J 200000",
]

# (name, primes lo..hi, k, epsilon): the prime ranges of the three benchmark
# scan commands first, then single primes where the kernel chooser decides
# between push and shift.
RUNGS = [
    ("scan k=3 eps=1/3", "2..4002", 3, "1/3"),
    ("scan k=1 eps=1", "2..2002", 1, "1/1"),
    ("scan k=2 eps=1/2", "2..4002", 2, "1/2"),
    ("1e5 k=2 eps=1/3", "99991..99991", 2, "1/3"),
    ("1e5 k=2 eps=1/2", "99991..99991", 2, "1/2"),
    ("1e5 k=1 eps=1/8 (deep)", "99991..99991", 1, "1/8"),
    ("1e6 k=1 eps=1/3", "1000003..1000003", 1, "1/3"),
    ("1e6 k=1 eps=1/2", "1000003..1000003", 1, "1/2"),
    ("1e6 k=1 eps=1", "1000003..1000003", 1, "1/1"),
    ("1e6 k=1 eps=9/10", "1000003..1000003", 1, "9/10"),
    ("1e6 k=2 eps=1/4", "1000003..1000003", 2, "1/4"),
    ("scan k=2 eps=1/8", "2..4002", 2, "1/8"),
    ("1e6 k=1 eps=1/6", "1000003..1000003", 1, "1/6"),
]

# (name, p, J, w): w is (mean, spread) for a vector of p entries drawn
# uniformly from [mean - spread, mean + spread] with seed p, or the vector
# itself. p = 20333 fits every bucket in 64 bits; p = 9929, J = 6 is the
# half power of the benchmark's `expsum --grow --auto-J` size; T = {1, 2, 3, 4}
# mod 5 gives counts of 24,000 and 120,000 digits; p = 1000003 is like the
# grown set's w there.
COUNTS = [
    ("p=20333 J=2 synthetic", 20333, 2, (1226, 400)),
    ("p=9929 J=6 synthetic", 9929, 6, (108, 92)),
    ("p=5 J=20000 T={1,2,3,4}", 5, 20000, [0, 4, 4, 4, 4]),
    ("p=5 J=100000 T={1,2,3,4}", 5, 100000, [0, 4, 4, 4, 4]),
    ("p=1000003 J=4 synthetic", 1000003, 4, (789669, 1100)),
]


def bfs_probe(primes: str, k: int, epsilon: str) -> None:
    """Print one rung's bfs_s, coverage_s, cpu_s and depth as JSON."""
    from fractions import Fraction

    from recipsums import PrimeField, ReprProblem, build_layer_table, primes_up_to

    lo, hi = map(int, primes.split(".."))
    problems = [ReprProblem(PrimeField(p), k, Fraction(epsilon)) for p in primes_up_to(hi) if p >= lo]
    wall, cpu = time.perf_counter(), time.process_time()
    tables = [build_layer_table(problem) for problem in problems]
    bfs = time.perf_counter() - wall
    start = time.perf_counter()
    coverages = [table.coverage for table in tables]
    coverage, cpu = time.perf_counter() - start, time.process_time() - cpu
    depth = max(int(max(c)) for c in coverages)
    print(json.dumps({"bfs_s": bfs, "coverage_s": coverage, "cpu_s": cpu, "depth": depth}))


def count_probe(p: int, j: int, w: tuple[int, int] | list[int]) -> None:
    """Print one count case's power_s and max_bits as JSON."""
    import numpy as np

    from recipsums.convolve import cyclic_power_exact

    if isinstance(w, list):
        a = np.array(w, dtype=np.int64)
    else:
        a = np.random.default_rng(p).integers(w[0] - w[1], w[0] + w[1], size=p, endpoint=True)
    start = time.perf_counter()
    counts = cyclic_power_exact(a, j, p)
    power = time.perf_counter() - start
    print(json.dumps({"power_s": power, "max_bits": int(max(counts.tolist())).bit_length()}))


def cases(seed: int) -> dict[str, list[tuple[str, list[str]]]]:
    """Per kind, (name, child arguments after the interpreter) of each case."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = [["--version"], *workloads.generate("scan", seed), *(line.split() for line in TABLE)]
    return {
        "command": [(" ".join(argv), ["-m", "recipsums", *argv]) for argv in commands],
        "bfs": [(name, ["-c", f"import bench; bench.bfs_probe{tuple(args)!r}"]) for name, *args in RUNGS],
        "count": [(name, ["-c", f"import bench; bench.count_probe{tuple(args)!r}"]) for name, *args in COUNTS],
    }


# Starts one child and prints its wall seconds (spawn to exit), peak RSS in
# KiB and exit code. It runs as `python -S -c SPAWN OUT ERR ARGV...`, so the
# child is spawned from a process of about 8 MB: a child's ru_maxrss starts
# at the RSS of the process it was spawned from, and the launcher's own is
# larger than a `--version` child's.
SPAWN = """
import os, sys, time
out, err = (os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC) for path in sys.argv[1:3])
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[3], sys.argv[3:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def run(checkout: Path, kind: str, argv: list[str], scratch: Path) -> tuple[dict, object]:
    """(metrics, output that must match between the sides) of one child."""
    out, err = scratch / "stdout", scratch / "stderr"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(ROOT / "tools")]),
               PYTHONDONTWRITEBYTECODE="1")
    spawn = [sys.executable, "-S", "-c", SPAWN, out, err, sys.executable, *argv]
    wall, rss, code = subprocess.run(spawn, cwd=checkout, env=env, capture_output=True, check=True).stdout.split()
    if int(code):
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {int(code)}\n{err.read_text()}")
    if kind == "command":
        # Hashed in pieces: a report can be large (90 MB for nmax at p = 10^7).
        digest = hashlib.sha256()
        with out.open("rb") as stdout:
            for chunk in iter(lambda: stdout.read(1 << 20), b""):
                digest.update(chunk)
        return {"wall_s": float(wall), "rss_mb": int(rss) / 1024}, digest.hexdigest()
    metrics = json.loads(out.read_text())
    return metrics, {name: value for name, value in metrics.items() if not name.endswith("_s")}


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(q[1], 5), "q1": round(q[0], 5), "q3": round(q[2], 5)}


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src" / "recipsums").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first", type=int, default=None, help="run only the first N cases of each kind")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        for cache in (checkout / "src").rglob("__pycache__"):
            shutil.rmtree(cache)
    todo = [(kind, name, argv) for kind, group in cases(args.seed).items() for name, argv in group[: args.first]]
    runs = {side: [[] for _ in todo] for side in sides}
    differs = [False for _ in todo]
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(args.rounds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for j, (kind, _, argv) in enumerate(todo):
                outputs = {}
                for side in order:
                    metrics, outputs[side] = run(sides[side], kind, argv, Path(scratch))
                    runs[side][j].append(metrics)
                differs[j] |= outputs["base"] != outputs["change"]
    rows = []
    for j, (kind, name, _) in enumerate(todo):
        base, change = ({metric: summary([m[metric] for m in runs[side][j]]) for metric in runs[side][j][0]}
                        for side in sides)
        ratio = {metric: round(change[metric]["median"] / base[metric]["median"], 3) if base[metric]["median"]
                 else None for metric in base}
        lower = {metric: sum(c[metric] < b[metric] for b, c in zip(runs["base"][j], runs["change"][j]))
                 for metric in base}
        rows.append({"kind": kind, "case": name, "differs": differs[j], "base": {**base, "runs": len(runs["base"][j])},
                     "change": {**change, "runs": len(runs["change"][j])}, "ratio": ratio, "change_lower": lower})
    report = {
        "tool": "tools/bench.py",
        "rounds": args.rounds,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
        "cases": rows,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 1 if any(differs) else 0


if __name__ == "__main__":
    sys.exit(main())
