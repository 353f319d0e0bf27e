"""Independent verification of recipsums CLI outputs.

Nothing here imports recipsums. Every expected value is recomputed by a
different method from the program's:

- minimal term counts come from a breadth-first distance array over the
  Cayley digraph of Z/pZ whose generators are the admissible reciprocals
  (the program grows stored exactly-j-term layers by sumsets);
- witnesses are checked with ``pow(x, -k, p)`` and an exact integer
  ``floor(p^eps)``, and their lexicographic order is re-derived from the
  distance array;
- growth runs are replayed with naive outer-sum / outer-product kernels;
- covering counts are recomputed by a Kronecker big-integer power written
  here, sharing no code with ``recipsums.convolve``.

``Checker.check(argv, stdout)`` returns a list of problems; empty means
the output is correct. One ``Checker`` caches the distance arrays of the
problems it has seen, so commands sharing (p, k, eps) pay once.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

# Pair counts above this are processed in row chunks to bound memory.
_CHUNK_PAIRS = 1 << 22


# ---------------------------------------------------------------------------
# exact integer helpers


def iroot(x: int, n: int) -> int:
    """Largest r with r**n <= x (x >= 0, n >= 1), by bisection."""
    lo, hi = 0, 1 << (x.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def floor_pow(p: int, e: Fraction) -> int:
    """Exact floor(p**e) for a positive rational e."""
    return iroot(p**e.numerator, e.denominator)


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by trial division (windows here are small)."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# minimal representations by breadth-first search


class MinTerms:
    """Minimal term counts for a = 1/x_1^k + ... + 1/x_N^k (mod p), N >= 1."""

    def __init__(self, p: int, k: int, eps: Fraction):
        self.p = p
        self.height = floor_pow(p, eps)
        xs = np.array([x for x in range(1, self.height + 1) if x % p], dtype=np.int64)
        self.xs = xs
        self.recips = np.array([pow(int(x), -k, p) for x in xs], dtype=np.int64)
        gens = np.unique(self.recips)
        self.base_size = int(gens.size)
        self.dist = _bfs(p, gens)
        counts = self.dist.copy()
        # The empty sum reaches 0 with no terms; the program wants N >= 1.
        counts[0] = 1 + int(self.dist[(-gens) % p].min())
        self.counts = counts

    def witness(self, target: int) -> list[int]:
        """The lexicographically smallest minimal witness, greedy on the distances."""
        p, t = self.p, target % self.p
        out = []
        for j in range(int(self.counts[t]), 1, -1):
            ok = self.dist[(t - self.recips) % p] == j - 1
            i = int(np.argmax(ok))
            if not ok[i]:
                raise AssertionError(f"no predecessor at depth {j}")
            out.append(int(self.xs[i]))
            t = (t - int(self.recips[i])) % p
        out.append(int(self.xs[int(np.argmax(self.recips == t))]))
        return out


def _bfs(p: int, gens: np.ndarray) -> np.ndarray:
    dist = np.full(p, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        reach = np.zeros(p, dtype=bool)
        if frontier.size * gens.size <= _CHUNK_PAIRS:
            reach[((frontier[:, None] + gens[None, :]) % p).ravel()] = True
        else:
            small, big = sorted((frontier, gens), key=len)
            big_bits = np.zeros(p, dtype=bool)
            big_bits[big] = True
            for s in small:
                reach |= np.roll(big_bits, int(s))
        new = reach & (dist < 0)
        dist[new] = depth
        frontier = np.flatnonzero(new)
        if (dist >= 0).all():
            break
    return dist


# ---------------------------------------------------------------------------
# naive set kernels and the growth replay


def _pair_image(members: np.ndarray, p: int, op) -> np.ndarray:
    bits = np.zeros(p, dtype=bool)
    rows = max(1, _CHUNK_PAIRS // max(members.size, 1))
    for i in range(0, members.size, rows):
        bits[op(members[i : i + rows, None], members[None, :]) % p] = True
    return bits


def base_set(p: int, k: int, beta: Fraction, u: int | None) -> dict:
    if u is None:
        limit = 1 / (2 * k * beta)
        u = int(limit) - 1 if limit.denominator == 1 else math.floor(limit)
    height = floor_pow(p, beta)
    primes = primes_in(2, height)
    recips = [pow(q, -k, p) for q in primes]
    bits = np.zeros(p, dtype=bool)
    for combo in combinations(recips, u):
        bits[sum(combo) % p] = True
    return {
        "u": u,
        "prime_height": height,
        "prime_count": len(primes),
        "tuple_count": math.comb(len(primes), u),
        "set_size": int(bits.sum()),
        "bits": bits,
    }


def grow(p: int, bits: np.ndarray, threshold: Fraction = Fraction(2, 3)) -> tuple[list, np.ndarray]:
    """Replay the greedy growth: keep the larger of S+S and S*S, products on ties."""
    steps = []
    while int(bits.sum()) ** threshold.denominator <= p**threshold.numerator:
        members = np.flatnonzero(bits).astype(np.int64)
        plus = _pair_image(members, p, np.add)
        times = _pair_image(members, p, np.multiply)
        nxt, op = (plus, "sum") if plus.sum() > times.sum() else (times, "product")
        if np.array_equal(nxt, bits) or len(steps) == 64:
            break  # the program reports Stalled / IterationCap here
        before, after = members.size, int(nxt.sum())
        theta = math.log(after) / math.log(before) - 1.0 if before > 1 else None
        steps.append({"op": op, "size_before": before, "size_after": after, "theta_hat": theta})
        bits = nxt
    return steps, bits


# ---------------------------------------------------------------------------
# exact covering counts by a big-integer power


def pair_products(members: np.ndarray, p: int) -> np.ndarray:
    """w[m] = #{(t1, t2) in T x T : t1*t2 = m mod p}."""
    w = np.zeros(p, dtype=np.int64)
    rows = max(1, _CHUNK_PAIRS // max(members.size, 1))
    for i in range(0, members.size, rows):
        w += np.bincount(((members[i : i + rows, None] * members[None, :]) % p).ravel(), minlength=p)
    return w


def _to_int(values: list[int], width: int) -> int:
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _fold(x: int, n: int, width: int) -> list[int]:
    raw = x.to_bytes(2 * n * width, "little")
    coeff = [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(2 * n)]
    return [coeff[i] + coeff[i + n] for i in range(n)]


def covering_counts(w: np.ndarray, j: int) -> list[int]:
    """Exact J-fold cyclic self-convolution of w, one width for every product."""
    n = len(w)
    total = int(w.sum())
    # No coefficient of any partial power exceeds total**j; one spare byte
    # absorbs the cyclic fold.
    width = (total**j).bit_length() // 8 + 2
    base = [int(v) for v in w]
    acc = None
    while j:
        if j & 1:
            acc = base if acc is None else _fold(_to_int(acc, width) * _to_int(base, width), n, width)
        j >>= 1
        if j:
            packed = _to_int(base, width)
            base = _fold(packed * packed, n, width)
    return acc


def minimal_covering_j(w: np.ndarray, cap: int) -> int | None:
    """Smallest J with every residue a sum of J pair products, from supports only."""
    n = len(w)
    support = w > 0
    reach = support.copy()
    spectrum = np.fft.rfft(support.astype(np.float64))
    for j in range(1, cap + 1):
        if reach.all():
            return j
        # 0/1 vectors: every count is below n, so rounding at 1/2 is exact.
        conv = np.fft.irfft(np.fft.rfft(reach.astype(np.float64)) * spectrum, n)
        reach = conv > 0.5
    return None


def compute_j(beta: float) -> int:
    b = Fraction(beta)
    return math.floor(2 * (1 + 2 * b) / b) + 1


# ---------------------------------------------------------------------------
# the checker


def _args(argv: list[str]) -> tuple[str, dict]:
    cmd, opts, i = argv[0], {}, 1
    while i < len(argv):
        key = argv[i].lstrip("-").replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return cmd, opts


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Checker:
    """Verifies outputs; caches the minimal-term tables it builds."""

    def __init__(self):
        self._tables: dict[tuple, MinTerms] = {}

    def min_terms(self, p: int, k: int, eps: Fraction) -> MinTerms:
        key = (p, k, eps)
        if key not in self._tables:
            self._tables[key] = MinTerms(p, k, eps)
        return self._tables[key]

    def check(self, argv: list[str], stdout: bytes) -> list[str]:
        cmd, opts = _args(argv)
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        if "error" in doc:
            return [f"program reported an error: {doc['error']}"]
        problems: list[str] = []
        try:
            getattr(self, f"_check_{cmd}")(opts, doc, problems)
        except Exception as exc:  # malformed output must fail the command, not the benchmark
            problems.append(f"cannot check {cmd} output: {type(exc).__name__}: {exc}")
        return problems

    @staticmethod
    def _expect(problems: list[str], what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    def _check_represent(self, opts, doc, problems) -> None:
        p, k, eps = int(opts["p"]), int(opts["k"]), parse_fraction(opts["epsilon"])
        target = int(opts["a"]) % p
        res, diag = doc["result"], doc["diagnostics"]
        table = self.min_terms(p, k, eps)
        xs = res["witness"]
        if any(not (1 <= x <= table.height) or x % p == 0 for x in xs):
            problems.append(f"witness {xs} has a base outside [1, {table.height}]")
        elif sum(pow(x, -k, p) for x in xs) % p != target:
            problems.append(f"witness {xs} does not sum to {target} mod {p}")
        self._expect(problems, "target", res["target"], target)
        self._expect(problems, "N", res["N"], int(table.counts[target]))
        self._expect(problems, "N vs witness length", res["N"], len(xs))
        self._expect(problems, "witness", xs, table.witness(target))
        self._expect(problems, "H", diag["H"], table.height)
        self._expect(problems, "base_size", diag["base_size"], table.base_size)

    def _check_nmax(self, opts, doc, problems) -> None:
        p, k, eps = int(opts["p"]), int(opts["k"]), parse_fraction(opts["epsilon"])
        table = self.min_terms(p, k, eps)
        hist = doc["result"]["histogram"]
        want = table.counts.tolist()
        if hist != want:
            bad = next(i for i in range(p) if i >= len(hist) or hist[i] != want[i])
            problems.append(f"histogram differs first at residue {bad}")
        self._expect(problems, "n_max", doc["result"]["n_max"], int(table.counts.max()))
        self._expect(problems, "H", doc["diagnostics"]["H"], table.height)

    def _check_scan(self, opts, doc, problems) -> None:
        lo, _, hi = opts["primes"].partition("..")
        k, eps = int(opts["k"]), parse_fraction(opts["epsilon"])
        primes = primes_in(int(lo), int(hi))
        rows = doc["result"]
        self._expect(problems, "scanned primes", [r["p"] for r in rows], primes)
        self._expect(problems, "prime_count", doc["diagnostics"]["prime_count"], len(primes))
        for row in rows:
            t = MinTerms(row["p"], k, eps)
            n_max = int(t.counts.max())
            want = {"p": row["p"], "H": t.height, "base_size": t.base_size, "n_max": n_max,
                    "max_layer": n_max, "elapsed_ms": 0, "error": None}
            self._expect(problems, f"scan row p={row['p']}", row, want)

    def _check_grow(self, opts, doc, problems) -> None:
        p, k, beta = int(opts["p"]), int(opts.get("k", 1)), parse_fraction(opts["beta"])
        u = int(opts["u"]) if "u" in opts else None
        res = doc["result"]
        base = base_set(p, k, beta, u)
        for key in ("u", "prime_height", "prime_count", "tuple_count", "set_size"):
            self._expect(problems, f"base.{key}", res["base"][key], base[key])
        steps, final = grow(p, base["bits"])
        got = res["steps"]
        self._expect(problems, "n", res["n"], len(steps))
        self._expect(problems, "step count", len(got), len(steps))
        for i, (g, s) in enumerate(zip(got, steps)):
            for key in ("op", "size_before", "size_after"):
                self._expect(problems, f"steps[{i}].{key}", g[key], s[key])
            if s["theta_hat"] is None:
                self._expect(problems, f"steps[{i}].theta_hat", g["theta_hat"], None)
            elif not _close(g["theta_hat"], s["theta_hat"]):
                problems.append(f"steps[{i}].theta_hat {g['theta_hat']} != {s['theta_hat']}")
        self._expect(problems, "final_size", res["final_size"], int(final.sum()))
        self._expect(problems, "threshold_value", res["threshold_value"], floor_pow(p, Fraction(2, 3)))

    def _check_expsum(self, opts, doc, problems) -> None:
        p = int(opts["p"])
        if "random_size" in opts:
            picks = random.Random(int(opts.get("seed", 0))).sample(range(p), int(opts["random_size"]))
            bits = np.zeros(p, dtype=bool)
            bits[picks] = True
        else:
            beta = parse_fraction(opts.get("beta", "1/4"))
            base = base_set(p, int(opts.get("k", 1)), beta, int(opts["u"]) if "u" in opts else None)
            _, bits = grow(p, base["bits"])
        members = np.flatnonzero(bits).astype(np.int64)
        size = int(members.size)
        res = doc["result"]
        self._expect(problems, "set_size", res["set_size"], size)
        self._expect(problems, "f0", res["f0"], size * size)
        if not _close(res["h0"], size):
            problems.append(f"h0 = {res['h0']}, expected |T| = {size}")
        if not res["parseval_relative_error"] < 1e-9:
            problems.append(f"parseval_relative_error {res['parseval_relative_error']} >= 1e-9")
        self._expect(problems, "bilinear.holds", res["bilinear"]["holds"], True)

        w = pair_products(members, p)
        # f(a) = sum_m w[m] e(am/p); compare the reported worst ratio with it.
        f_abs = np.abs(np.fft.fft(w.astype(np.float64)))
        ratio = f_abs[1:].max() / (math.sqrt(p) * size)
        if not _close(res["bilinear"]["max_ratio"], ratio, 1e-6):
            problems.append(f"bilinear.max_ratio {res['bilinear']['max_ratio']} != {ratio}")

        j = int(opts["J"]) if "J" in opts else None
        if "auto_J" in opts:
            j = compute_j(math.log(size) / math.log(p) - 0.5)
            self._expect(problems, "auto_J", doc["diagnostics"]["auto_J"], j)
        if j is not None:
            cov = res["covering"]
            counts = covering_counts(w, j)
            low = min(counts)
            self._expect(problems, "covering.J", cov["J"], j)
            self._expect(problems, "covering.min_count", cov["min_count"], low)
            self._expect(problems, "covering.min_residue", cov["min_residue"], counts.index(low))
            self._expect(problems, "covering.all_covered", cov["all_covered"], low > 0)
            if size * size > p:
                excess = math.log(size) / math.log(p) - 0.5
                self._expect(problems, "covering.j_required", cov["j_required"], compute_j(excess))
                self._expect(problems, "covering.j_sufficient", cov["j_sufficient"], j >= compute_j(excess))
        if "min_J" in opts:
            cap = int(opts.get("min_J_cap", 64))
            self._expect(problems, "minimal_J", res["minimal_J"], minimal_covering_j(w, cap))
