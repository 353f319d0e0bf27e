"""Seeded command lists for the benchmark workloads.

Each workload is a closed loop with one client: the next command starts
only after the previous one has exited. The seed picks primes from fixed
windows and picks targets; the program receives only the command lines.

- ``represent``: a few large problems (p near 10^5). The layer table
  (represent -> growth.sumset -> convolve.cyclic_counts_01) does nearly
  all the work; the eps = 1 commands add field.recip_power and long
  backtracking. Each (p, k, eps) recurs across three invocations, so a
  reuse mechanism can show a gain here. It never touches productset,
  discrete logs or expsums.
- ``sumprod``: growth runs (productset, discrete logs, the kernel that
  grow_step discards), exponential-sum profiles and the exact big-count
  convolution path. The represent layer is not used.
- ``scan``: the represent layer as hundreds of small problems instead of a
  few large ones, including the process pool. Every prime is distinct, so
  reuse across calls is bypassed, and a large fixed cost per call shows.
"""

from __future__ import annotations

import math
import random

NAMES = ("represent", "sumprod", "scan")

# Windows are narrow (2.5 % of p for the convolution-bound commands) so that
# the seed changes the inputs but hardly their cost: Kronecker products grow
# like p^1.58, and a 10 % wider window alone would move wall_s by up to 17 %.
FULL = {
    "represent": {"big": (97_500, 100_000), "eps1": (29_000, 31_000)},
    "sumprod": {"grow": (97_500, 100_000), "cover": (9_750, 10_250), "random": (19_500, 20_500),
                "random_size": 4000},
    "scan": {"start": (2, 199), "k2": 4000, "k1": 2000, "k3": 4000},
}

# Same command shapes at primes small enough for a test suite.
TINY = {
    "represent": {"big": (900, 1000), "eps1": (250, 350)},
    "sumprod": {"grow": (16_000, 17_000), "cover": (200, 300), "random": (180, 220),
                "random_size": 40},
    "scan": {"start": (2, 19), "k2": 200, "k1": 100, "k3": 200},
}


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime(rng: random.Random, window: tuple[int, int]) -> int:
    while True:
        n = rng.randint(*window)
        if _is_prime(n):
            return n


def generate(name: str, seed: int, sizes: dict = FULL) -> list[list[str]]:
    """The workload's command lines, as argument lists for ``python -m recipsums``."""
    rng = random.Random(f"{name}/{seed}")
    w = sizes[name]
    cmds: list[list[str]] = []
    if name == "represent":
        for k, eps in (("2", "1/3"), ("2", "1/2")):
            p = _prime(rng, w["big"])
            cmds.append(["nmax", "--p", str(p), "--k", k, "--epsilon", eps])
            for _ in range(2):
                a = str(rng.randrange(p))
                cmds.append(["represent", "--p", str(p), "--k", k, "--epsilon", eps, "--a", a])
        p = _prime(rng, w["eps1"])
        for _ in range(2):
            a = str(rng.randrange(p))
            cmds.append(["represent", "--p", str(p), "--k", "1", "--epsilon", "1/1", "--a", a])
    elif name == "sumprod":
        for beta in ("1/4", "1/6"):
            cmds.append(["grow", "--p", str(_prime(rng, w["grow"])), "--k", "1", "--beta", beta])
        cmds.append(["expsum", "--p", str(_prime(rng, w["cover"])), "--grow", "--auto-J"])
        cmds.append(["expsum", "--p", str(_prime(rng, w["random"])),
                     "--random-size", str(w["random_size"]), "--J", "4", "--min-J",
                     "--seed", str(rng.randrange(1 << 31))])
    elif name == "scan":
        for width, k, eps, extra in ((w["k2"], "2", "1/2", []), (w["k1"], "1", "1/1", []),
                                     (w["k3"], "3", "1/3", ["--workers", "2"])):
            lo = rng.randint(*w["start"])
            cmds.append(["scan", "--primes", f"{lo}..{lo + width}", "--k", k, "--epsilon", eps, *extra])
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return cmds
