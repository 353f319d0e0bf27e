"""Minimal-length representations a = 1/x_1^k + ... + 1/x_N^k (mod p).

Admissible bases are integers 1 <= x <= floor(p^epsilon) not divisible by
p, and G is the set of their reciprocal k-th powers. Those come from one
square-and-multiply over all bases at once, x^(-k mod (p - 1)) in int64,
which is exact because every product of two residues is at most
(p - 1)^2 < 2^63 below the dense-modulus ceiling. The minimal N of a
residue r is its breadth-first distance from 0 in the Cayley digraph of
Z/pZ with generators G (r = 0 itself needs at least one step). Every
residue is reached within p steps because x = 1 is always admissible
(a copies of 1 sum to a). A witness is recovered by backtracking along
the distances, one vectorised probe over all bases per term; ties resolve
to the lexicographically smallest sequence. A problem computes its distance
table on first use and keeps it for as long as it lives; nothing outlives
the problem, so a batch of problems holds one table at a time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import Error
from .field import PrimeField, Residue, make_field
from .intmath import pow_floor
from .sets import ResidueSet, require_dense


@dataclass(frozen=True)
class ReprProblem:
    """A representation problem: modulus, power k, and height exponent."""

    field: PrimeField
    k: int
    epsilon: Fraction

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        require_dense(self.field.p)

    @cached_property
    def height(self) -> int:
        """floor(p^epsilon), evaluated exactly."""
        return pow_floor(self.field.p, self.epsilon)

    @cached_property
    def admissible(self) -> tuple[int, ...]:
        """Bases 1 <= x <= height with p not dividing x, ascending. As
        height <= p, only x = p can be excluded, so admissible[i] = i + 1."""
        return tuple(range(1, min(self.height, self.field.p - 1) + 1))

    @cached_property
    def reciprocals(self) -> np.ndarray:
        """1/x^k mod p for each admissible x, in the same order (write-locked int64)."""
        xs = np.arange(1, min(self.height, self.field.p - 1) + 1, dtype=np.int64)
        recips = self.field.recip_powers(xs, self.k)
        recips.setflags(write=False)
        return recips

    @cached_property
    def layer_table(self) -> "LayerTable":
        """The BFS distance table (see build_layer_table), built once."""
        return _layer_table(self)


@dataclass(frozen=True)
class Witness:
    """A verified representation target = sum of reciprocal k-th powers."""

    problem: ReprProblem
    target: Residue
    xs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not check_representation(self.xs, self.target.value, self.problem):
            raise ValueError(f"witness {self.xs} does not represent {self.target.value}")

    @property
    def n(self) -> int:
        return len(self.xs)


def check_representation(xs, target_value: int, problem: ReprProblem) -> bool:
    """Admissibility plus the congruence, recomputed from field arithmetic only."""
    p = problem.field.p
    h = problem.height
    total = 0
    for x in xs:
        if not (1 <= x <= h) or x % p == 0:
            return False
        total = (total + problem.field.recip_power(x, problem.k)) % p
    return total == target_value % p


def verify_witness(w: Witness, problem: ReprProblem) -> bool:
    """Recompute a witness's congruence and admissibility from scratch."""
    return check_representation(w.xs, w.target.value, problem)


def base_reciprocals(problem: ReprProblem) -> ResidueSet:
    """The one-term set G = {1/x^k mod p : x admissible}."""
    return ResidueSet.from_members(problem.field, problem.reciprocals)


@dataclass(frozen=True)
class LayerTable:
    """Minimal term count of every residue, as BFS distances from 0."""

    base: ResidueSet
    coverage: np.ndarray  # coverage[r] = minimal N >= 1 with r a sum of N terms


def build_layer_table(problem: ReprProblem) -> LayerTable:
    """The minimal term counts of problem, computed once per problem."""
    return problem.layer_table


def _layer_table(problem: ReprProblem) -> LayerTable:
    """BFS from 0 over the generators G: level j+1 is (level j + G) minus
    the residues already reached. Residue 0 starts unreached, so it gets
    its minimal positive count. Each level is pushed (all sums of the
    frontier with G) while that is at most four times the unreached count,
    which keeps the temporary O(p); otherwise it is pulled (each unreached
    u whose u - g lies in the frontier for some g in G)."""
    p = problem.field.p
    base = base_reciprocals(problem)
    gens = base.members()
    back = p - gens  # u - g taken as u + (p - g) in a doubled frontier bitmap
    coverage = np.zeros(p, dtype=np.int64)
    remaining = p
    frontier = np.zeros(1, dtype=np.int64)
    level = 0
    while remaining:
        level += 1
        if frontier.size * gens.size <= 4 * remaining:
            sums = (frontier[:, None] + gens).ravel()
            np.subtract(sums, p, out=sums, where=sums >= p)
            sums = sums[coverage[sums] == 0]
            # Deduplicate without sorting: tag each sum's slot in coverage,
            # and keep the one occurrence per residue whose tag survived.
            tags = np.arange(-1, -1 - sums.size, -1)
            coverage[sums] = tags
            frontier = sums[coverage[sums] == tags]
        else:
            in_frontier = np.zeros(2 * p, dtype=bool)
            in_frontier[frontier] = True
            in_frontier[frontier + p] = True
            pending = np.flatnonzero(coverage == 0)
            hits, i = [], 0
            while pending.size and i < back.size:
                width = max(1, p // pending.size)  # at most about p probes at once
                hit = in_frontier[pending[:, None] + back[i : i + width]].any(axis=1)
                hits.append(pending[hit])
                pending = pending[~hit]
                i += width
            frontier = np.concatenate(hits)
        if not frontier.size:  # pragma: no cover - 1 is a generator, so no level is empty
            raise RuntimeError(f"BFS stalled with {remaining} residues unreached")
        coverage[frontier] = level
        remaining -= frontier.size
    coverage.setflags(write=False)
    return LayerTable(base=base, coverage=coverage)


def min_terms(a: Residue | int, problem: ReprProblem) -> Witness:
    """Minimal representation of a, with the lexicographically smallest witness."""
    p = problem.field.p
    target = int(a) % p
    coverage = build_layer_table(problem).coverage
    recips = problem.reciprocals
    n = int(coverage[target])
    xs: list[int] = []
    t = target
    # Bases ascend (admissible[i] = i + 1), so the first hit of each probe is
    # the smallest x, which makes the witness the lexicographically smallest.
    for j in range(n, 1, -1):
        hit = coverage[(t - recips) % p] == j - 1
        i = int(hit.argmax())
        if not hit[i]:  # pragma: no cover - table guarantees a predecessor
            raise RuntimeError("backtracking found no predecessor; table corrupt")
        xs.append(i + 1)
        t = (t - int(recips[i])) % p
    xs.append(int((recips == t).argmax()) + 1)
    return Witness(problem=problem, target=problem.field.residue(target), xs=tuple(xs))


def n_max(problem: ReprProblem) -> tuple[int, list[int]]:
    """Largest minimal term count over all residues, plus the full per-residue table."""
    table = build_layer_table(problem)
    return int(table.coverage.max()), table.coverage.tolist()


def _scan_row(args: tuple[int, int, Fraction, bool]) -> dict:
    p, k, epsilon, timing = args
    start = time.perf_counter()
    row: dict = {
        "p": p,
        "H": None,
        "base_size": None,
        "n_max": None,
        "max_layer": None,
        "elapsed_ms": 0,
        "error": None,
    }
    try:
        problem = ReprProblem(make_field(p), k, epsilon)
        table = build_layer_table(problem)
        row["H"] = problem.height
        row["base_size"] = table.base.card
        # max_layer is kept for CSV format stability: the deepest BFS level is n_max.
        row["n_max"] = row["max_layer"] = int(table.coverage.max())
    except Error as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    if timing:
        row["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    return row


def scan(
    primes: list[int],
    k: int,
    epsilon: Fraction,
    workers: int = 1,
    timing: bool = False,
) -> list[dict]:
    """One row per prime: height, base size, n_max (and max_layer, equal to it).

    Rows are ordered by p and identical for any worker count. Wall-clock
    timing is suppressed (reported as 0) unless explicitly requested, so
    repeated runs produce byte-identical reports.
    """
    args = [(p, k, epsilon, timing) for p in sorted(primes)]
    if workers > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs start-up time, so only here

        # A fork-started pool starts all max_workers processes up front.
        workers = min(workers, len(args), os.cpu_count() or 1)
        with ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(_scan_row, args, chunksize=max(1, len(args) // (4 * workers))))
    else:
        rows = [_scan_row(a) for a in args]
    return rows
