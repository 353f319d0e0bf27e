"""Minimal-length representations a = 1/x_1^k + ... + 1/x_N^k (mod p).

Admissible bases are integers 1 <= x <= floor(p^epsilon) not divisible by
p, and G is the set of their reciprocal k-th powers. The inverses of all
bases come from the recurrence inv(x) = -(p // x) * inv(p mod x) mod p,
one step per base, and each is then raised to the k-th power. When the
bases fill (Z/pZ)* and gcd(k, p - 1) = 1, G is all of (Z/pZ)*, and only
backtracking computes the inverses. The minimal N of a residue r is its
breadth-first distance from 0 in the Cayley digraph of Z/pZ with
generators G (r = 0 itself needs at least one step).
Every residue is reached within p steps because x = 1 is always admissible
(a copies of 1 sum to a).

The module is plain Python and imports no numpy. Each BFS level runs one
of two kernels, the one a cost model of the frontier size, the unreached
count, |G| and p expects to be cheaper:
- push: every sum of a small frontier, held as a list, with G, checked
  against a bytearray that flags the residues reached so far;
- shift: the frontier as a Python-int bitmap, shifted by each generator and
  OR-ed, stopping once every unreached residue is hit. The few residues it
  has not hit by then are pulled: each unreached u probes u - g in a
  bit-packed copy of the frontier, generator by generator, and stops at its
  first hit; past a budget of probes it tests all of u - G at once, as one
  shifted bitmap.
The shift keeps its levels as bit planes of the level numbers; the push's
levels join the planes, or go to a uint32 array in a deep BFS. The
distance array is put together from the two on first use, in the narrowest
unsigned type that holds the depth, so a scan, which needs only the depth
and |G|, never builds it. A witness is recovered by backtracking along
the distances; ties resolve to the lexicographically smallest sequence. A
problem computes its table on first use and keeps it for as long as it
lives; nothing outlives the problem, so a batch of problems holds one
table at a time.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat

from .errors import Error
from .field import PrimeField, _Value, require_dense
from .intmath import pow_floor


class ReprProblem(_Value):
    """A representation problem: modulus, power k, and height exponent."""

    _fields = ("field", "k", "epsilon")

    def __init__(self, field: PrimeField, k: int, epsilon: Fraction) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not (0 < epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        require_dense(field.p)
        vars(self).update(field=field, k=k, epsilon=epsilon)

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
    def reciprocals(self) -> tuple[int, ...]:
        """1/x^k mod p for each admissible x, in the same order. The bases are
        1..h with h < p, so p = (p // x) x + p mod x with 0 < p mod x < x
        gives 1/x = -(p // x) / (p mod x): each inverse from a smaller one."""
        p, h = self.field.p, len(self.admissible)
        inv = [0] * (h + 1)
        inv[1] = 1
        for x in range(2, h + 1):
            inv[x] = -(p // x) * inv[p % x] % p
        del inv[0]
        e = self.k % (p - 1)  # x^(p-1) = 1
        return tuple(inv) if e == 1 else tuple(map(pow, inv, repeat(e), repeat(p)))

    @cached_property
    def layer_table(self) -> "LayerTable":
        """The BFS distance table (see build_layer_table), built once."""
        return _layer_table(self)


class Witness(_Value):
    """A verified representation target = sum of reciprocal k-th powers."""

    _fields = ("problem", "target", "xs")

    def __init__(self, problem: ReprProblem, target: int, xs: tuple[int, ...]) -> None:
        if not 0 <= target < problem.field.p:
            raise ValueError(f"target {target} out of range [0, {problem.field.p - 1}]")
        if not check_representation(xs, target, problem):
            raise ValueError(f"witness {xs} does not represent {target}")
        vars(self).update(problem=problem, target=target, xs=xs)

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


class LayerTable:
    """Minimal term counts of a problem, as BFS distances from 0.

    base_size is |G| and depth the largest count, n_max. coverage is a
    read-only buffer put together from the BFS record on first use:
    coverage[r] is the minimal N >= 1 with r a sum of N terms, in the
    narrowest of B, H and I that holds the depth."""

    def __init__(self, depth: int, levels: array | None, planes: list[int], base_size: int, p: int):
        self.depth, self.base_size = depth, base_size
        self._levels, self._planes, self._p = levels, planes, p

    @cached_property
    def coverage(self) -> memoryview:
        p, width = self._p, 1 if self.depth < 1 << 8 else 2 if self.depth < 1 << 16 else 4
        parts = []
        if self._levels is not None:  # the levels written by the push, narrowed to width bytes
            if sys.byteorder == "big":
                self._levels.byteswap()
            raw = self._levels.tobytes()
            parts.append(_interleave([raw[j::4] for j in range(width)], p))
        if any(self._planes):
            planes = self._planes + [0] * (8 * width - len(self._planes))
            parts.append(_interleave([_transpose(planes[8 * j : 8 * j + 8], p) for j in range(width)], p))
        lanes = parts[0] if len(parts) == 1 else (
            int.from_bytes(parts[0], "little") | int.from_bytes(parts[1], "little")
        ).to_bytes(width * p, "little")
        fmt = "BHI"[width.bit_length() - 1]
        if sys.byteorder == "big":  # the lanes are little-endian
            swapped = array(fmt, lanes)
            swapped.byteswap()
            lanes = swapped.tobytes()
        self._levels = self._planes = None
        return memoryview(lanes).cast(fmt)


def build_layer_table(problem: ReprProblem) -> LayerTable:
    """The minimal term counts of problem, computed once per problem."""
    return problem.layer_table


def _layer_table(problem: ReprProblem) -> LayerTable:
    """BFS from 0 over the generators G: level j+1 is (level j + G) minus
    the residues already reached. The residue 0 starts unreached, so it gets
    its minimal positive count; level 1 is G itself, as 0 is not in G.
    The level array is the first length-p array, so a p too large for
    memory fails before any other is built.
    The BFS is in one of two forms, level 1 in both. In bit form the
    frontier and the unreached residues are Python-int bitmaps (bit r for
    residue r); the shift runs there, and its levels go into bit planes:
    planes[b] holds the residues whose level has bit b set, about
    log2(depth) ints of p bits. In index form the frontier is a list
    and the reached residues are flagged one byte each; the push runs there.
    Its levels are held as lists while they are few and short (_HELD), and
    join the planes when the BFS leaves index form or ends; past that they
    are written to the uint32 level array, as in a deep BFS. Changing form
    costs a conversion of O(p) bytes in C plus a Python step per held or
    frontier residue, never a Python step per residue of Z/pZ."""
    p = problem.field.p
    try:
        levels = array("I", [0]) * p
    except MemoryError:  # in numpy's words for an allocation it cannot make
        message = f"Unable to allocate {4 * p / 2**30:.1f} GiB for an array with shape ({p},) and data type uint32"
        raise MemoryError(message) from None
    gens, front, flags = _level_one(problem, p)
    base, h, mask = _Base(gens, front, p), front.bit_count(), (1 << p) - 1
    frontier, unreached = gens, mask ^ front
    in_bits = in_index = True
    planes = [front]
    held: list[tuple[int, list[int]]] | None = []  # None once the push writes to levels
    written = False
    choose = _kernel_chooser(h, p)
    size, remaining, level = h, p - h, 1
    while remaining:
        level += 1
        kernel = choose(size, remaining, in_bits, in_index)
        if kernel is _push:
            if not in_index:
                frontier, flags, held = _members(front, p), _flags(mask ^ unreached, p), []
            frontier = _push(frontier, base, flags)
            size, in_bits, in_index = len(frontier), False, True
            if held is not None:
                held.append((level, frontier))
                if len(held) > _HELD[0] or sum(len(residues) for _, residues in held) > p >> _HELD[1]:
                    for held_level, residues in held:
                        for s in residues:
                            levels[s] = held_level
                    held, written = None, True
            else:
                for s in frontier:
                    levels[s] = level
        else:
            if not in_bits:
                front = _bits(frontier, p)
                if held is None:
                    unreached = int(flags.translate(_ZERO_TO_ONE)[::-1], 2)
                else:
                    unreached ^= _hold(planes, held, p)
            front = kernel(front, unreached, base, size, remaining)
            unreached ^= front
            size, in_bits, in_index = front.bit_count(), True, False
            frontier = flags = None
            _record(planes, level, front)
        if not size:  # pragma: no cover - 1 is a generator, so no level is empty
            raise RuntimeError(f"BFS stalled with {remaining} residues unreached")
        remaining -= size
    if in_index and held:
        _hold(planes, held, p)
    return LayerTable(level, levels if written else None, planes, h, p)


# Push levels are held as lists while there are at most _HELD[0] of them with
# at most p >> _HELD[1] residues in all: each costs O(p / 8) bytes to join
# the planes, and each held residue a Python step.
_HELD = (8, 4)


def _record(planes: list[int], level: int, bits: int) -> None:
    """Add a level, given as a bitmap, to the bit planes."""
    planes += [0] * (level.bit_length() - len(planes))
    for b in range(level.bit_length()):
        if level >> b & 1:
            planes[b] |= bits


def _hold(planes: list[int], held: list[tuple[int, list[int]]], p: int) -> int:
    """Add held push levels to the bit planes; return the bitmap of their residues."""
    union = 0
    for level, residues in held:
        bits = _bits(residues, p)
        _record(planes, level, bits)
        union |= bits
    return union


def _fills_group(problem: ReprProblem, p: int) -> bool:
    """Whether G is all of (Z/pZ)*: the bases fill it, and x -> 1/x^k permutes it."""
    return len(problem.admissible) == p - 1 and math.gcd(problem.k, p - 1) == 1


def _level_one(problem: ReprProblem, p: int) -> tuple[list[int] | tuple[int, ...] | range, int, bytearray]:
    """The generators as the kernels run through them, the bitmap of G and
    its flags, one byte per residue. When G is all of (Z/pZ)*, no reciprocal
    is computed. Otherwise a few bases are sorted into G ascending. Many
    are flagged, and C code reads the flags as binary digits; the kernels
    then run through the reciprocals in the order of their bases, where a
    residue that several bases share repeats, as sorting them would cost
    more than the repeats do."""
    if _fills_group(problem, p):
        flags = bytearray(b"\x01") * p
        flags[0] = 0
        return range(1, p), (1 << p) - 2, flags
    recips, flags = problem.reciprocals, bytearray(p)
    if 16 * len(recips) < p:
        gens = sorted(set(recips))
        for g in gens:
            flags[g] = 1
        return gens, _bits(gens, p), flags
    for r in recips:
        flags[r] = 1
    return recips, int(flags.translate(_ONE_TO_ONE)[::-1], 2), flags


class _Base:
    """G as the kernels read it: the generators in the order they run through
    them, its bitmap and, made on first use, the bitmap of -G."""

    def __init__(self, gens: list[int] | tuple[int, ...] | range, bits: int, p: int):
        self.gens, self.bits, self.p = gens, bits, p

    @cached_property
    def negated(self) -> int:
        """G's bits reversed, bit g to bit p - 1 - g, then shifted to p - g."""
        return int(bin(self.bits)[:1:-1].ljust(self.p, "0"), 2) << 1


# A 0/1 flag as the binary digit it stands for, or as the digit of its complement.
_ONE_TO_ONE = bytes.maketrans(b"\x00\x01", b"01")
_ZERO_TO_ONE = bytes.maketrans(b"\x00\x01", b"10")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_NONZERO = bytes([0] + [1] * 255)  # a byte as whether it is nonzero


def _bits(residues, p: int) -> int:
    """The bitmap of some residues: bit r stands for residue r."""
    packed = bytearray((p + 7) >> 3)
    for r in residues:
        packed[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(packed, "little")


def _members(bits: int, p: int) -> list[int]:
    """The residues of a bitmap, ascending. C code lists the flags of a dense
    bitmap, or finds the nonzero bytes of a sparse one."""
    if bits.bit_count() > p >> 5:
        return list(compress(range(p), _flags(bits, p)))
    packed = bits.to_bytes((p + 7) >> 3, "little")
    nonzero = packed.translate(_NONZERO)
    out: list[int] = []
    i = nonzero.find(1)
    while i >= 0:
        byte, r = packed[i], i << 3
        while byte:
            low = byte & -byte
            out.append(r + low.bit_length() - 1)
            byte ^= low
        i = nonzero.find(1, i + 1)
    return out


def _flags(bits: int, p: int) -> bytearray:
    """The flags of a bitmap, one byte per residue, from its binary digits."""
    return bytearray(bin(bits)[:1:-1], "ascii").ljust(p, b"0").translate(_FROM_DIGITS)


# Cost model of one BFS level, in nanoseconds, fitted to timings of each kernel
# at p = 10^3 to 10^6 and checked on the BFS rungs of tools/bench.py (2 shared
# vCPUs, Python 3.11).
_PUSH_NS = (1_500, 70, 60)  # fixed; per sum of a frontier residue and a generator; per residue reached
_PROBE_NS = 170  # per probe of the pull that finishes a shift
_SHIFT_NS = (100, 0.044)  # per generator: fixed; per residue of Z/pZ
_LIST_NS = 200  # per residue listed from a bitmap, or held as a list
_TO_BITS_NS = (3_000, 1)  # index form to bit form: fixed; per residue of Z/pZ
_TO_INDEX_NS = (3_000, 2)  # bit form to index form: fixed; per residue of Z/pZ
# A pull tests a residue against all of u - G at once, which costs about
# this many generators' shift passes, after probing as many generators as
# that test costs.
_TEST_STEPS = 3


def _kernel_chooser(h: int, p: int):
    """A function (size, remaining, in_bits, in_index) -> _push or _shift,
    the kernel expected to expand a frontier of size residues faster, with
    remaining residues unreached, h generators and the frontier in bit form,
    index form or both.

    The push costs one sum per frontier residue and generator, and a write
    per residue it reaches. The shift costs one pass over a p-bit int per
    generator and stops, at the earliest, once every residue left can be
    expected hit (_expected_stop); a residue that needs one more term (0,
    say, when no two generators sum to it) would make it run through all h,
    so the residues it has not hit by then are pulled when they are few
    (see _shift). Changing form costs a conversion in C, linear in p, plus a
    Python step per frontier residue."""
    step = _SHIFT_NS[0] + _SHIFT_NS[1] * p
    to_bits = _TO_BITS_NS[0] + _TO_BITS_NS[1] * p
    to_index = _TO_INDEX_NS[0] + _TO_INDEX_NS[1] * p
    # Below this many sums they cost a push less than the fewest passes cost
    # a shift. Each level also has a fixed cost, larger for the shift, so
    # this settles the many small levels of a deep BFS without the full
    # comparison, at a small p too.
    cheap_sums = 4 * step / _PUSH_NS[1]

    def choose(size: int, remaining: int, in_bits: bool, in_index: bool):
        sums = size * h
        if sums <= cheap_sums and in_index:
            return _push
        # A sum hits each unreached residue with probability about 1 / p.
        push = _PUSH_NS[0] + _PUSH_NS[1] * sums - _PUSH_NS[2] * remaining * math.expm1(-sums / p)
        shift = (min(h, _expected_stop(size, remaining, p)) + 3) * step
        if not in_index:
            push += to_index + _LIST_NS * size
        if not in_bits:
            shift += to_bits + _LIST_NS * size
        return _push if push <= shift else _shift

    return choose


def _expected_stop(size: int, remaining: int, p: int) -> int:
    """Generators a shift pass needs to hit all remaining residues, if they
    can all be hit: each generator hits each with probability about
    size / p, so about ln(remaining) / -ln(1 - size / p)."""
    if size >= p:
        return 1
    return max(1, math.ceil(math.log(remaining) / -math.log1p(-size / p)))


def _push(frontier, base: _Base, flags: bytearray) -> list[int]:
    """The next level in index form: every sum of a frontier residue and a
    generator not reached before, flagged as reached."""
    p, new = base.p, []
    for r in frontier:
        r -= p
        for g in base.gens:
            s = r + g  # in (-p, p - 1): a negative index wraps to s + p
            if not flags[s]:
                flags[s] = 1
                new.append(s % p)
    return new


def _shift(front: int, unreached: int, base: _Base, size: int, remaining: int) -> int:
    """The next level in bit form: the OR of front << g over G, with bit r + p
    folded onto bit r, restricted to the unreached bits. The pass checks
    whether every unreached residue is hit, and so whether it can stop, first
    after the expected number of generators, then at doubling intervals. At
    each check, once pulling the residues not yet hit costs less than the
    passes left, the pull finishes them from the next generator on."""
    p, gens = base.p, base.gens
    mask = (1 << p) - 1
    acc, start, stop, interval = 0, 0, _expected_stop(size, remaining, p), 4
    while True:
        for g in gens[start:stop]:
            acc |= front << g
        hit = ((acc >> p) | (acc & mask)) & unreached
        if stop >= len(gens) or hit == unreached:
            return hit
        left = unreached ^ hit
        if 2 * _TEST_STEPS * left.bit_count() < len(gens) - stop:
            return hit | _pull(front, left, base, size, remaining, stop)
        start, stop, interval = stop, stop + interval, 2 * interval


def _pull(front: int, unreached: int, base: _Base, size: int, remaining: int, start: int = 0) -> int:
    """The next level in bit form: each unreached u with u - g in the frontier
    for some g of G, probing generator by generator from gens[start] up to
    the first hit. The frontier is doubled, so that bit u + p - g stands for
    u - g mod p. A residue that has probed as many generators as a shift pass
    over _TEST_STEPS generators costs is tested against all of u - G at once:
    the bitmap of -G shifted by u, with bit u + p - g folded onto u - g."""
    p, gens = base.p, base.gens
    budget = int(_TEST_STEPS * (_SHIFT_NS[0] + _SHIFT_NS[1] * p) / _PROBE_NS)
    doubled = (front << p | front).to_bytes((2 * p + 7) >> 3, "little")
    probes = gens[start : start + budget]
    hits = []
    for u in _members(unreached, p):
        for g in probes:
            x = u + p - g
            if doubled[x >> 3] >> (x & 7) & 1:
                hits.append(u)
                break
        else:
            if len(gens) - start > budget:
                shifted = base.negated << u
                if (shifted | shifted >> p) & front:
                    hits.append(u)
    return _bits(hits, p)


def _transpose(planes: list[int], p: int) -> bytes:
    """Byte r = the sum of (bit r of planes[b]) << b over the eight planes:
    each 8 x 8 block of bits (eight residues of eight planes) is transposed
    in one 64-bit word of a big int, by three delta swaps."""
    n = (p + 7) >> 3
    words = bytearray(8 * n)
    for b, plane in enumerate(planes):
        words[b::8] = plane.to_bytes(n, "little")
    x = int.from_bytes(words, "little")
    for shift, word in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        mask, width = word, 64
        while width < 64 * n:  # word repeated in every 64-bit slot
            mask |= mask << width
            width *= 2
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x.to_bytes(8 * n, "little")[:p]


def _interleave(columns: list[bytes], p: int) -> bytes:
    """Lanes of len(columns) bytes: byte j of lane r is columns[j][r]."""
    if len(columns) == 1:
        return columns[0]
    lanes = bytearray(len(columns) * p)
    for j, column in enumerate(columns):
        lanes[j :: len(columns)] = column
    return bytes(lanes)


def min_terms(a: int, problem: ReprProblem) -> Witness:
    """Minimal representation of a, with the lexicographically smallest witness."""
    p = problem.field.p
    target = int(a) % p
    coverage = build_layer_table(problem).coverage
    bases, recips = problem.admissible, problem.reciprocals
    n = coverage[target]
    xs: list[int] = []
    t = target
    # Bases ascend, so the first hit of each probe is the smallest x, which
    # makes the witness the lexicographically smallest. t - r > -p, so a
    # negative index wraps to t - r + p.
    for j in range(n - 1, 0, -1):
        i = next((i for i, r in enumerate(recips) if coverage[t - r] == j), None)
        if i is None:  # pragma: no cover - table guarantees a predecessor
            raise RuntimeError("backtracking found no predecessor; table corrupt")
        xs.append(bases[i])
        t = (t - recips[i]) % p
    xs.append(bases[recips.index(t)])
    return Witness(problem=problem, target=target, xs=tuple(xs))


def n_max(problem: ReprProblem) -> tuple[int, list[int]]:
    """Largest minimal term count over all residues, plus the full per-residue table."""
    table = build_layer_table(problem)
    return table.depth, table.coverage.tolist()


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
        row["base_size"] = table.base_size
        # max_layer is kept for CSV format stability: the deepest BFS level is n_max.
        row["n_max"] = row["max_layer"] = table.depth
    except Error as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    if timing:
        row["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    return row


# A scan row costs at least _ROW_NS and, unless G is all of (Z/pZ)*, a price
# per residue: _RESIDUE_NS[0], or _RESIDUE_NS[1] / H for a small height H,
# whose BFS runs deep. That is a lower envelope of row times at p = 10^3 to
# 10^6 (2 shared vCPUs, Python 3.11); importing and starting a pool costs _POOL_NS.
_ROW_NS, _RESIDUE_NS, _POOL_NS = 50_000, (15, 150), 40_000_000


def _pool_size(args: list[tuple[int, int, Fraction, bool]], workers: int) -> int:
    """How many processes run the rows: at most workers, one per row and per
    CPU (a fork-started pool starts them all up front), and 1 unless the
    priced work they take off this process repays their start."""
    workers = min(workers, len(args), os.cpu_count() or 1)
    if workers < 2:
        return 1
    work = 0.0
    for p, k, epsilon, _ in args:
        h = max(p, 1) ** float(epsilon)  # the height, near enough to price the row
        fills = h >= p - 1 and math.gcd(k, p - 1) == 1
        work += _ROW_NS + (0 if fills else p * max(_RESIDUE_NS[0], _RESIDUE_NS[1] / h))
    return workers if work * (1 - 1 / workers) > _POOL_NS else 1


def scan(
    primes: list[int],
    k: int,
    epsilon: Fraction,
    workers: int = 1,
    timing: bool = False,
) -> list[dict]:
    """One row per prime: height, base size, n_max (and max_layer, equal to it).

    Rows are ordered by p and identical for any worker count, an upper bound
    (see _pool_size). Wall-clock timing is suppressed (reported as 0) unless
    explicitly requested, so repeated runs produce byte-identical reports.
    """
    args = [(p, k, epsilon, timing) for p in sorted(primes)]
    workers = _pool_size(args, workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs start-up time, so only here

        with ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(_scan_row, args, chunksize=max(1, len(args) // (4 * workers))))
    else:
        rows = [_scan_row(a) for a in args]
    return rows
