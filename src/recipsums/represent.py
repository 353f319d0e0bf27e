"""Minimal-length representations a = 1/x_1^k + ... + 1/x_N^k (mod p).

Admissible bases are integers 1 <= x <= floor(p^epsilon) not divisible by
p, and G is the set of their reciprocal k-th powers. Those come from one
square-and-multiply over all bases at once, x^(-k mod (p - 1)) in int64,
which is exact because every product of two residues is at most
(p - 1)^2 < 2^63 below the dense-modulus ceiling. The minimal N of a
residue r is its breadth-first distance from 0 in the Cayley digraph of
Z/pZ with generators G (r = 0 itself needs at least one step). Every
residue is reached within p steps because x = 1 is always admissible
(a copies of 1 sum to a). Each BFS level runs one of three kernels, the
one a cost model of the frontier size, the unreached count, H and p
expects to be cheapest: a numpy push (all sums of a sparse frontier with
G), a word-parallel shift (the frontier as a Python-int bitmap, shifted by
each generator and OR-ed, stopping once every unreached residue is hit),
or a blocked numpy pull (each unreached u probes u - g) when the base is
too large for a shift pass. Consecutive shift levels stay in bit form and
reach the distance table once, through bit planes. A witness is recovered
by backtracking along the distances, one vectorised probe over all bases
per term; ties resolve to the lexicographically smallest sequence. A
problem computes its distance table on first use and keeps it for as long
as it lives; nothing outlives the problem, so a batch of problems holds
one table at a time.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import Error
from .field import PrimeField, require_dense
from .intmath import pow_floor


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
    def admissible(self) -> range:
        """Bases 1 <= x <= height with p not dividing x, ascending. As
        height <= p, only x = p can be excluded, so they form one range."""
        return range(1, min(self.height, self.field.p - 1) + 1)

    @cached_property
    def reciprocals(self) -> np.ndarray:
        """1/x^k mod p for each admissible x, in the same order (write-locked int64)."""
        bases = self.admissible
        recips = self.field.recip_powers(np.arange(bases.start, bases.stop, dtype=np.int64), self.k)
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
    target: int
    xs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.target < self.problem.field.p:
            raise ValueError(f"target {self.target} out of range [0, {self.problem.field.p - 1}]")
        if not check_representation(self.xs, self.target, self.problem):
            raise ValueError(f"witness {self.xs} does not represent {self.target}")

    @property
    def n(self) -> int:
        return len(self.xs)


def check_representation(xs, target_value: int, problem: ReprProblem) -> bool:
    """Admissibility plus the congruence, recomputed from field arithmetic only."""
    p = problem.field.p
    bases = problem.admissible
    total = 0
    for x in xs:
        if x not in bases:
            return False
        total = (total + problem.field.recip_power(x, problem.k)) % p
    return total == target_value % p


@dataclass(frozen=True)
class LayerTable:
    """Minimal term count of every residue, as BFS distances from 0."""

    generators: np.ndarray  # G = {1/x^k mod p : x admissible}, ascending (write-locked int64)
    coverage: np.ndarray  # coverage[r] = minimal N >= 1 with r a sum of N terms


def build_layer_table(problem: ReprProblem) -> LayerTable:
    """The minimal term counts of problem, computed once per problem."""
    return problem.layer_table


def _layer_table(problem: ReprProblem) -> LayerTable:
    """BFS from 0 over the generators G: level j+1 is (level j + G) minus
    the residues already reached. The residue 0 starts unreached, so it gets
    its minimal positive count; level 1 is G itself, as 0 is not in G.
    coverage is the only length-p array the table keeps, and it is allocated
    first, so a p too large for memory fails before any other is built; G is
    read off its level 1, ascending and without repeats.
    Each later level runs the kernel that _kernel_chooser expects to be
    cheapest. The push and the pull hold the frontier as an index array and
    write each level into coverage at once. The shift holds the frontier
    and the unreached set as Python-int bitmaps from level to level; its
    levels reach coverage as bit planes, once, when the BFS leaves bit form.
    The planes are about log2(depth) ints of p bits, so memory stays O(p)."""
    p = problem.field.p
    coverage = np.zeros(p, dtype=np.int64)
    coverage[problem.reciprocals] = 1
    gens = np.flatnonzero(coverage == 1)
    gens.setflags(write=False)
    gen_list: list[int] = []  # gens as Python ints, made for the first shift level
    frontier = gens  # None while the BFS is in bit form
    front = unreached = 0  # bit form: bit r stands for residue r
    planes: list[int] = []  # planes[b]: residues of bit-form levels with bit b of the level set
    choose = _kernel_chooser(gens.size, p)
    size, remaining, level = gens.size, p - gens.size, 1
    while remaining:
        level += 1
        kernel = choose(size, remaining, frontier is None)
        if kernel is _shift:
            if frontier is not None:
                front, unreached = _to_bits(coverage == level - 1), _to_bits(coverage == 0)
                frontier, gen_list = None, gen_list or gens.tolist()
            front = _shift(front, unreached, gen_list, p, size, remaining)
            unreached ^= front
            size = front.bit_count()
            planes += [0] * (level.bit_length() - len(planes))
            for b in range(level.bit_length()):
                if level >> b & 1:
                    planes[b] |= front
        else:
            if frontier is None:
                _write_planes(coverage, planes)
                planes, frontier = [], np.flatnonzero(_from_bits(front, p))
            frontier = kernel(frontier, gens, coverage)
            coverage[frontier] = level
            size = frontier.size
        if not size:  # pragma: no cover - 1 is a generator, so no level is empty
            raise RuntimeError(f"BFS stalled with {remaining} residues unreached")
        remaining -= size
    _write_planes(coverage, planes)
    coverage.setflags(write=False)
    return LayerTable(generators=gens, coverage=coverage)


# Cost model of one BFS level, in nanoseconds, fitted to per-level timings of
# each kernel on the tools/bench_bfs.py ladder (2 vCPUs, Python 3.11, numpy 2.4).
_PUSH_NS = (12_000, 25)  # fixed; per sum of a frontier residue and a generator
_PULL_NS = (10_000, 6, 30)  # fixed; per residue of Z/pZ; per probe of an unreached residue
_SHIFT_NS = (300, 0.068)  # per generator: fixed; per residue of Z/pZ
_SWITCH_NS = (10_000, 2)  # between index and bit form: fixed; per residue of Z/pZ
_PUSH_SUMS_PER_RESIDUE = 4  # a push holds at most 4p sums, so its temporaries stay O(p)
# The shift is priced at its expected early stop only while a pass through
# all generators would cost at most this many times the cheaper index kernel.
_SHIFT_RISK = 4


def _kernel_chooser(h: int, p: int):
    """A function (size, remaining, in_bits) -> the kernel expected to expand a
    frontier of size residues fastest, with remaining residues unreached, h
    generators and the frontier in bit form or not.

    The push costs one sum per frontier residue and generator. The pull
    probes each unreached u against u - g, generator by generator, until a
    probe hits the frontier: about p / size probes each, never more than h.
    The shift costs one pass over a p-bit int per generator. It stops early
    only on a level that reaches every residue left, and a residue that needs
    one more term (0, say, when no two generators sum to it) makes it run
    through all h; so it is priced at its expected stop only where that
    worst case costs at most _SHIFT_RISK times the cheaper index kernel.
    Changing between index and bit form costs O(p)."""
    step = _SHIFT_NS[0] + _SHIFT_NS[1] * p
    switch = _SWITCH_NS[0] + _SWITCH_NS[1] * p
    max_sums = _PUSH_SUMS_PER_RESIDUE * p
    # Below this many sums a push costs less than any pull and any shift
    # from index form can, which settles the many small levels of a deep BFS
    # without the full comparison.
    floor = min(_PULL_NS[0] + _PULL_NS[1] * p, 4 * step + switch)
    cheap_sums = (floor - _PUSH_NS[0]) / _PUSH_NS[1]

    def choose(size: int, remaining: int, in_bits: bool):
        sums = size * h
        if sums <= cheap_sums and not in_bits:
            return _push
        push = _PUSH_NS[0] + _PUSH_NS[1] * sums if sums <= max_sums else math.inf
        pull = _PULL_NS[0] + _PULL_NS[1] * p + _PULL_NS[2] * remaining * min(h, p / size)
        shift = (h + 3) * step
        if in_bits:
            push, pull = push + switch, pull + switch
        else:
            shift += switch
        index = min(push, pull)
        if shift > index and shift <= _SHIFT_RISK * index:
            shift = (min(h, _expected_stop(size, remaining, p)) + 3) * step
        if shift <= index:
            return _shift
        return _push if push <= pull else _pull

    return choose


def _expected_stop(size: int, remaining: int, p: int) -> int:
    """Generators a shift pass needs to hit all remaining residues, if they
    can all be hit: each generator hits each with probability about
    size / p, so about ln(remaining) / -ln(1 - size / p)."""
    if size >= p:
        return 1
    return max(1, math.ceil(math.log(remaining) / -math.log1p(-size / p)))


def _push(frontier: np.ndarray, gens: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """The next level from all sums of the frontier with G."""
    p = coverage.size
    sums = (frontier[:, None] + gens).ravel()
    np.subtract(sums, p, out=sums, where=sums >= p)
    sums = sums[coverage[sums] == 0]
    # Deduplicate without sorting: tag each sum's slot in coverage,
    # and keep the one occurrence per residue whose tag survived.
    tags = np.arange(-1, -1 - sums.size, -1)
    coverage[sums] = tags
    return sums[coverage[sums] == tags]


def _pull(frontier: np.ndarray, gens: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """The next level as each unreached u with u - g in the frontier for some g."""
    p = coverage.size
    back = p - gens  # u - g taken as u + (p - g) in a doubled frontier bitmap
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
    return np.concatenate(hits)


def _shift(front: int, unreached: int, gens: list[int], p: int, size: int, remaining: int) -> int:
    """The next level in bit form: the OR of front << g over G, with bit r + p
    folded onto bit r, restricted to the unreached bits. The pass checks
    whether every unreached residue is hit, and so whether it can stop, first
    after the expected number of generators, then at doubling intervals."""
    mask = (1 << p) - 1
    acc, start, stop, step = 0, 0, _expected_stop(size, remaining, p), 4
    while True:
        for g in gens[start:stop]:
            acc |= front << g
        hit = ((acc >> p) | (acc & mask)) & unreached
        if stop >= len(gens) or hit == unreached:
            return hit
        start, stop, step = stop, stop + step, 2 * step


def _to_bits(indicator: np.ndarray) -> int:
    """A bool vector as an int whose bit r is indicator[r]."""
    return int.from_bytes(np.packbits(indicator, bitorder="little").tobytes(), "little")


def _from_bits(bits: int, p: int) -> np.ndarray:
    """The 0/1 uint8 vector of length p whose entry r is bit r of bits."""
    raw = np.frombuffer(bits.to_bytes((p + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=p, bitorder="little")


def _write_planes(coverage: np.ndarray, planes: list[int]) -> None:
    """Add the levels held as bit planes to coverage, where they are still 0.
    The planes are summed in the narrowest unsigned dtype first, so that
    coverage is read and written once; depth < p < 2**32 keeps it uint32
    at most, which adds to int64 exactly."""
    if not planes:
        return
    weight = np.min_scalar_type((1 << len(planes)) - 1).type
    levels = _from_bits(planes[0], coverage.size).astype(weight, copy=False)
    for b, plane in enumerate(planes[1:], 1):
        if plane:
            levels += _from_bits(plane, coverage.size) * weight(1 << b)
    coverage += levels


def min_terms(a: int, problem: ReprProblem) -> Witness:
    """Minimal representation of a, with the lexicographically smallest witness."""
    p = problem.field.p
    target = int(a) % p
    coverage = build_layer_table(problem).coverage
    bases, recips = problem.admissible, problem.reciprocals
    n = int(coverage[target])
    xs: list[int] = []
    t = target
    # Bases ascend, so the first hit of each probe is the smallest x, which
    # makes the witness the lexicographically smallest.
    for j in range(n, 1, -1):
        hit = coverage[(t - recips) % p] == j - 1
        i = int(hit.argmax())
        if not hit[i]:  # pragma: no cover - table guarantees a predecessor
            raise RuntimeError("backtracking found no predecessor; table corrupt")
        xs.append(bases[i])
        t = (t - int(recips[i])) % p
    xs.append(bases[int((recips == t).argmax())])
    return Witness(problem=problem, target=target, xs=tuple(xs))


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
        problem = ReprProblem(PrimeField(p), k, epsilon)
        table = build_layer_table(problem)
        row["H"] = problem.height
        row["base_size"] = table.generators.size
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
