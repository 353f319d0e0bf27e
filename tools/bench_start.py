"""Time fresh-process commands in two checkouts, alternating them round by round.

Usage:

    python tools/bench_start.py BASE CHANGE [--rounds N] [--seed S] [--out PATH]

The commands are ``--version`` and the three ``scan`` commands of the
benchmark's scan workload (``perfbench/workloads.generate("scan", S)``),
where most of the time is fixed cost: start-up, imports and per-row work.
Each command runs as a fresh ``python -m recipsums`` child, with that
checkout's ``src`` first on PYTHONPATH and PYTHONDONTWRITEBYTECODE=1.
Both checkouts' ``__pycache__`` directories are removed first, so neither
side starts from bytecode the other lacks. Each round runs every command
once in each checkout, alternating which goes first; the stdout of the two
sides must match. The report gives, per command and side, the median and
quartiles of the wall time from spawn to exit, and the change's median as
a ratio of the base's. It is printed as JSON, and written to PATH with --out.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands(seed: int) -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [["--version"], *workloads.generate("scan", seed)]


def clear_bytecode(checkout: Path) -> None:
    for cache in (checkout / "src").rglob("__pycache__"):
        shutil.rmtree(cache)


def run(checkout: Path, argv: list[str]) -> tuple[float, bytes]:
    """(wall seconds from spawn to exit, stdout) of one child."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "recipsums", *argv], cwd=checkout, env=env,
                           capture_output=True, check=True)
    return time.perf_counter() - start, child.stdout


def summary(times: list[float]) -> dict:
    q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_s": round(q[1], 4), "q1_s": round(q[0], 4), "q3_s": round(q[2], 4), "runs": len(times)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        clear_bytecode(checkout)
    cmds = commands(args.seed)
    times = {side: [[] for _ in cmds] for side in sides}
    for i in range(args.rounds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for j, argv in enumerate(cmds):
            outputs = {}
            for side in order:
                elapsed, outputs[side] = run(sides[side], argv)
                times[side][j].append(elapsed)
            if outputs["base"] != outputs["change"]:
                raise SystemExit(f"stdout differs between the checkouts: {' '.join(argv)}")
    rows = []
    for j, argv in enumerate(cmds):
        base, change = summary(times["base"][j]), summary(times["change"][j])
        rows.append({"command": " ".join(argv), "base": base, "change": change,
                     "ratio": round(change["median_s"] / base["median_s"], 3)})
    total = {side: sum(statistics.median(t) for t in times[side]) for side in sides}
    report = {
        "tool": "tools/bench_start.py",
        "rounds": args.rounds,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commands": rows,
        "sum_of_medians_s": {side: round(value, 4) for side, value in total.items()},
        "ratio": round(total["change"] / total["base"], 3),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
