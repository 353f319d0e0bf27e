"""Check that two checkouts print the same reports for a fixed command list.

Usage:

    python tools/same_output.py BASE CHANGE

BASE and CHANGE are two checkouts of this repository. Every command runs
in each as a fresh ``python -m recipsums`` child, with that checkout's
``src`` first on PYTHONPATH and, where the platform allows it, an 8 GiB
address-space limit, so a p too large for memory fails the same way on any
machine. The list is the 45 benchmark workload commands
(``perfbench/workloads.generate`` for each workload and seeds 7, 101 and
1000), the README examples, and commands that exercise report shapes,
error paths, target reduction, both covering routes, exact counts past
4,300 digits, the int64 ceiling, the deep, wide-base and pooled
representation tables that CI pins, help and usage errors, and scans where
G is all of (Z/pZ)* or not. The tool prints every command whose stdout
SHA-256, stderr SHA-256 or exit code differs between the checkouts, or
whose stderr holds a Python traceback, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ADDRESS_SPACE_LIMIT = 8 << 30
SEEDS = (7, 101, 1000)

COMMANDS = """
represent --p 7 --k 1 --epsilon 1/1 --a 0
nmax --p 7 --k 1 --epsilon 1/1
scan --primes 2..499 --k 2 --epsilon 1/2 --format csv --workers 8
grow --p 101 --k 1 --beta 1/4
expsum --p 101 --grow --k 1 --beta 1/4 --auto-J
expsum --p 101 --random-size 20 --seed 5
baseset --p 101 --k 1 --beta 1/2 --u 1 --list-members
smoothset --p 11 --bound 2 --epsilon 1/2 --theta 1/2 --list-members
represent --p 97 --k 2 --epsilon 1/2 --a 13 --oracle
nmax --p 89 --k 1 --epsilon 1/3 --oracle
nmax --p 97 --k 3 --epsilon 1/1 --oracle
represent --p 1000003 --k 1 --epsilon 1/1 --a 777
represent --p 99991 --k 1 --epsilon 1/8 --a 5
represent --p 101 --k 1 --epsilon 1/2 --a -5
represent --p 101 --k 2 --epsilon 1/2 --a 1000000000000
nmax --p 1000003 --k 1 --epsilon 1/3
grow --p 1000003 --k 1 --beta 1/4
grow --p 10007 --k 1 --beta 1/4 --threshold-exponent 9/10
represent --p 3037000493 --k 1 --epsilon 1/3 --a 5
represent --p 3037000507 --k 1 --epsilon 1/3 --a 5
nmax --p 100 --epsilon 1/2
grow --p 101 --k 1 --beta 1/4 --format text
grow --p 1009 --k 1 --beta 1/4 --format text
expsum --p 101 --grow --k 1 --beta 1/4 --auto-J --format text
expsum --p 1009 --random-size 200 --J 3 --format text
smoothset --p 1009 --bound 7 --epsilon 1/2 --theta 1/3 --format text
smoothset --p 1009 --bound 30 --epsilon 1/2 --theta 1/2 --format text
smoothset --p 101 --bound 3 --epsilon 1/1 --theta 1/2
smoothset --p 101 --bound 3 --epsilon 1/2
smoothset --p 2 --bound 2 --epsilon 1/2 --theta 1/2
expsum --p 101 --members 1,2,3,4,5,6,7,8,9,10 --auto-J
expsum --p 101 --members 1,2,3,4,5,6,7,8,9,10,11 --auto-J
expsum --p 11 --members 1,10 --auto-J
expsum --p 1009 --random-size 300 --J 3 --min-J
expsum --p 1000003 --random-size 4000 --J 4 --min-J --seed 1
expsum --p 30011 --grow --auto-J --min-J
expsum --p 1009 --grow --k 1 --beta 1/6 --J 2
expsum --p 101 --members 1,2,3 --J 1
expsum --p 7 --members 0 --J 3 --min-J
expsum --p 2 --members 1 --J 2
grow --p 10007 --k 1 --beta 1/6 --max-iters 2
grow --p 10007 --k 3 --beta 1/20
grow --p 999983 --k 2 --beta 1/10 --u 3
grow --p 101 --k 1 --beta 1/4 --u 5
grow --p 1000003 --k 1 --beta 1/40 --u 1 --threshold-exponent 1/2
baseset --p 100003 --k 1 --beta 1/5 --u 2
grow --p 101 --k 1 --beta 1/1 --max-iters 0
expsum --p 100 --random-size 200
expsum --p 101 --members 1,2 --grow --J 2
expsum --p 101 --J 2
expsum --p 100003 --members 1,2,3,5,7 --min-J
expsum --p 1009 --members 1,2,3 --min-J --min-J-cap 400
expsum --p 10007 --random-size 150 --min-J --seed 3
expsum --p 101 --members 1,2,3,5,8,13 --J 3
expsum --p 1009 --members 1,2,4,8,16 --J 4
expsum --p 5 --members 1,2,3,4 --J 4000
expsum --p 5 --members 1,2,3,4 --J 20000
nmax --p 99991 --k 1 --epsilon 1/8
nmax --p 1000003 --k 1 --epsilon 9/10
nmax --p 1000003 --k 2 --epsilon 1/1
scan --primes 2..4002 --k 3 --epsilon 1/3 --workers 2
scan --primes 2..4002 --k 2 --epsilon 1/8
nmax --p 1000003 --k 1 --epsilon 1/6
baseset --p 1000003 --k 2 --beta 9/10 --u 1 --list-members
--help
scan --help
nosuchcommand --p 7
scan --primes 2..600 --k 1 --epsilon 1/1
scan --primes 2..600 --k 2 --epsilon 1/1
scan --primes 2..600 --k 3 --epsilon 1/1
"""


def command_list(repo: Path) -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("workloads", repo / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    generated = [cmd for name in workloads.NAMES for seed in SEEDS for cmd in workloads.generate(name, seed)]
    return generated + [line.split() for line in COMMANDS.strip().splitlines()]


def _limit_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run(checkout: Path, argv: list[str]) -> tuple[str, int, str, bool]:
    """(stdout SHA-256, exit code, stderr SHA-256, whether stderr holds a
    traceback) of one child."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    child = subprocess.run(
        [sys.executable, "-m", "recipsums", *argv],
        cwd=checkout,
        env=env,
        capture_output=True,
        preexec_fn=_limit_address_space if sys.platform.startswith("linux") else None,
    )
    traceback = b"Traceback (most recent call last)" in child.stderr
    digest = hashlib.sha256(child.stdout).hexdigest(), child.returncode, hashlib.sha256(child.stderr).hexdigest()
    return (*digest, traceback)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    commands = command_list(Path(__file__).resolve().parent.parent)
    bad = 0
    for argv in commands:
        base, change = run(args.base.resolve(), argv), run(args.change.resolve(), argv)
        problems = []
        if base[:3] != change[:3]:
            problems.append(f"stdout {base[0][:12]} -> {change[0][:12]}, exit {base[1]} -> {change[1]}, "
                            f"stderr {base[2][:12]} -> {change[2][:12]}")
        if base[3]:
            problems.append("traceback in base")
        if change[3]:
            problems.append("traceback in change")
        if problems:
            bad += 1
            print(f"{' '.join(argv)}: {'; '.join(problems)}", flush=True)
    print(f"{len(commands)} commands, {bad} with a difference or a traceback")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
