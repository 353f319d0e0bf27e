"""Turn the spans written by tracer.py into per-layer metrics.

A span's self time is its duration minus the part of it covered by child
spans of the same process, minus the time of the hot functions counted on
it. Waiting for a process pool is therefore self time of the span that
waits (``represent.scan``); the workers' spans carry their own self time.
Within the process that runs ``cli.main`` the self times add up to
``cli.main_s``; ``self_sum_s`` is that sum, kept as a check on the tracer.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

# (metric name, unit, better): the per-layer metrics a traced run reports.
METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("intmath.is_prime.calls", "count", "lower"),
    ("intmath.is_prime.s", "s", "lower"),
    ("intmath.inv_mod.calls", "count", "lower"),
    ("intmath.inv_mod.s", "s", "lower"),
    ("field.recip_power.calls", "count", "lower"),
    ("field.recip_power.s", "s", "lower"),
    ("field.recip_power.repeat_frac", "ratio", "lower"),
    ("sets.ResidueSet.count", "count", "lower"),
    ("sets.ResidueSet.bytes", "B", "lower"),
    ("basesets.build_prime_reciprocal_set.s", "s", "lower"),
    ("basesets.tuples", "count", "lower"),
    ("basesets.primes_up_to.s", "s", "lower"),
    ("convolve.cyclic_counts_01.calls", "count", "lower"),
    ("convolve.cyclic_counts_01.s", "s", "lower"),
    ("convolve.cyclic_counts_01.len", "count", "lower"),
    ("convolve.cyclic_counts_01.bytes", "B", "lower"),
    ("convolve.cyclic_convolve_exact.calls", "count", "lower"),
    ("convolve.cyclic_convolve_exact.s", "s", "lower"),
    ("convolve.cyclic_convolve_exact.bucket_bits_max", "bits", "lower"),
    ("convolve.cyclic_convolve_exact.bytes", "B", "lower"),
    ("convolve.cyclic_power_exact.s", "s", "lower"),
    ("growth.sumset.calls", "count", "lower"),
    ("growth.sumset.s", "s", "lower"),
    ("growth.sumset.conv_frac", "ratio", "lower"),
    ("growth.productset.calls", "count", "lower"),
    ("growth.productset.s", "s", "lower"),
    ("growth.productset.first_s", "s", "lower"),
    ("growth.grow_step.calls", "count", "lower"),
    ("growth.grow_step.s", "s", "lower"),
    ("growth.kept_frac", "ratio", "higher"),
    ("growth.grow_until.s", "s", "lower"),
    ("growth.steps", "count", "lower"),
    ("expsums.h_profile.s", "s", "lower"),
    ("expsums.f_profile.s", "s", "lower"),
    ("expsums.pair_product_multiplicity.s", "s", "lower"),
    ("expsums.covering_counts.s", "s", "lower"),
    ("expsums.covering_counts_fourier.s", "s", "lower"),
    ("expsums.fourier_check_frac", "ratio", "lower"),
    ("expsums.count_bits_max", "bits", "lower"),
    ("expsums.minimal_covering_J.s", "s", "lower"),
    ("represent.build_layer_table.calls", "count", "lower"),
    ("represent.build_layer_table.s", "s", "lower"),
    ("represent.build_layer_table.self_s", "s", "lower"),
    ("represent.layers", "count", "lower"),
    ("represent.layer_bytes", "B", "lower"),
    ("represent.min_terms.calls", "count", "lower"),
    ("represent.min_terms.self_s", "s", "lower"),
    ("represent.probes_per_term", "ratio", "lower"),
    ("represent.scan.s", "s", "lower"),
    ("represent.scan.rows", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.base_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("code.src_lines", "lines", "lower"),
]

# Spans whose call count and inclusive time are reported as <name>.calls / <name>.s.
TIMED = [
    "basesets.build_prime_reciprocal_set", "basesets.primes_up_to",
    "convolve.cyclic_counts_01", "convolve.cyclic_convolve_exact", "convolve.cyclic_power_exact",
    "growth.sumset", "growth.productset", "growth.grow_step", "growth.grow_until",
    "expsums.h_profile", "expsums.f_profile", "expsums.pair_product_multiplicity",
    "expsums.covering_counts", "expsums.covering_counts_fourier", "expsums.minimal_covering_J",
    "represent.build_layer_table", "represent.min_terms", "represent.scan",
]


def load_spans(span_dir: str) -> list[list]:
    """All spans of one command; a rewritten span (pool.worker) keeps its last record."""
    by_id: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                by_id[span[0]] = span
    return list(by_id.values())


def span_problems(spans: list[list]) -> list[str]:
    """Ways the spans of one command fail to form one tree under ``cli.main``.

    A span whose parent is missing was lost or never flushed; a span that
    does not lie inside its parent of the same process, or a parentless
    span other than ``cli.main`` in the process that ran it, was timed
    outside the command. Either would make the layer times wrong.
    """
    by_id = {s[0]: s for s in spans}
    main = [s for s in spans if s[2] == "cli.main"]
    if len(main) != 1:
        return [f"{len(main)} cli.main spans instead of 1"]
    problems = []
    for s in spans:
        parent = by_id.get(s[1])
        if s[1] is not None and parent is None:
            problems.append(f"{s[2]} span {s[0]}: parent {s[1]} is missing")
        elif parent is None and s is not main[0] and s[3] == main[0][3]:
            problems.append(f"{s[2]} span {s[0]} lies outside cli.main")
        elif parent is not None and parent[3] == s[3] and not parent[4] <= s[4] <= s[5] <= parent[5]:
            problems.append(f"{s[2]} span {s[0]} is not inside its parent {parent[2]}")
    return problems


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def command_totals(spans: list[list]) -> dict[str, float]:
    """Raw sums for one traced command; ratios are formed after summing commands."""
    t: dict[str, float] = defaultdict(float)
    by_id = {s[0]: s for s in spans}
    kids: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            kids[s[1]].append(s)

    def self_time(s: list) -> float:
        same = [(c[4], c[5]) for c in kids[s[0]] if c[3] == s[3]]
        return (s[5] - s[4]) - _covered(same) - s[8]

    def under(s: list, name: str) -> bool:
        while s[1] in by_id:
            s = by_id[s[1]]
            if s[2] == name:
                return True
        return False

    main = [s for s in spans if s[2] == "cli.main"]
    main_pid = main[0][3] if main else None
    for s in main:
        t["cli.main_s"] += s[5] - s[4]
        t["cli.import_s"] += s[6].get("import_s", 0.0)
    for s in spans:
        name, dur, attrs = s[2], s[5] - s[4], s[6]
        if s[3] == main_pid:
            t["self_sum_s"] += self_time(s) + s[8]
        for counter, (calls, secs, extra) in s[7].items():
            t[f"{counter}.calls"] += calls
            t[f"{counter}.s"] += secs
            t[f"{counter}.extra"] += extra
        if name not in TIMED:
            continue
        t[f"{name}.calls"] += 1
        t[f"{name}.s"] += dur
        if name == "convolve.cyclic_counts_01":
            t["counts_01.len"] += attrs.get("n", 0)
        elif name == "convolve.cyclic_convolve_exact":
            bits = attrs.get("bits", 0)
            t["exact.bits_max"] = max(t["exact.bits_max"], bits)
            t["exact.bytes"] += 4 * attrs.get("n", 0) * -(-bits // 8)
        elif name == "growth.sumset":
            t["sumset.conv"] += bool(attrs.get("conv"))
        elif name == "growth.productset":
            t["productset.first_s"] += dur if attrs.get("first") else 0.0
        elif name == "growth.grow_step":
            both = {c[2]: c[5] - c[4] for c in kids[s[0]]}
            kept = "growth.sumset" if attrs.get("op") == "sum" else "growth.productset"
            t["grow.kept_s"] += both.get(kept, 0.0)
            t["grow.both_s"] += both.get("growth.sumset", 0.0) + both.get("growth.productset", 0.0)
        elif name == "growth.grow_until":
            t["growth.steps"] += attrs.get("steps", 0)
        elif name == "basesets.build_prime_reciprocal_set":
            t["basesets.tuples"] += attrs.get("tuples", 0)
        elif name == "expsums.covering_counts":
            t["covering.bits_max"] = max(t["covering.bits_max"], attrs.get("bits", 0))
        elif name == "expsums.covering_counts_fourier":
            t["covering.fourier_checks"] += under(s, "expsums.covering_counts")
        elif name == "represent.build_layer_table":
            t["represent.build_layer_table.self_s"] += self_time(s)
            t["represent.layers"] += attrs.get("layers", 0)
            t["represent.layer_bytes"] += attrs.get("layers", 0) * attrs.get("p", 0)
            if attrs.get("miss") and under(s, "represent.scan"):
                t["represent.scan.rows"] += 1
        elif name == "represent.min_terms":
            t["represent.min_terms.self_s"] += self_time(s)
            t["min_terms.probes"] += attrs.get("probes", 0)
            t["min_terms.terms"] += attrs.get("n", 0)
        elif name == "represent.scan":
            t["represent.scan.primes"] += attrs.get("primes", 0)
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finish(t: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the raw sums of a whole pass over the workload."""
    t = defaultdict(float, t)
    m = {
        "cli.import_s": t["cli.import_s"],
        "cli.main_s": t["cli.main_s"],
        "cli.cpu_s": t["cli.cpu_s"],
        "field.recip_power.repeat_frac": _ratio(t["field.recip_power.extra"], t["field.recip_power.calls"]),
        "sets.ResidueSet.count": t["sets.ResidueSet.calls"],
        "sets.ResidueSet.bytes": t["sets.ResidueSet.extra"],
        "basesets.tuples": t["basesets.tuples"],
        "convolve.cyclic_counts_01.len": t["counts_01.len"],
        "convolve.cyclic_counts_01.bytes": 32 * t["counts_01.len"],
        "convolve.cyclic_convolve_exact.bucket_bits_max": t["exact.bits_max"],
        "convolve.cyclic_convolve_exact.bytes": t["exact.bytes"],
        "growth.sumset.conv_frac": _ratio(t["sumset.conv"], t["growth.sumset.calls"]),
        "growth.productset.first_s": t["productset.first_s"],
        "growth.kept_frac": _ratio(t["grow.kept_s"], t["grow.both_s"]),
        "growth.steps": t["growth.steps"],
        "expsums.fourier_check_frac": _ratio(t["covering.fourier_checks"], t["expsums.covering_counts.calls"]),
        "expsums.count_bits_max": t["covering.bits_max"],
        "represent.build_layer_table.self_s": t["represent.build_layer_table.self_s"],
        "represent.layers": t["represent.layers"],
        "represent.layer_bytes": t["represent.layer_bytes"],
        "represent.min_terms.self_s": t["represent.min_terms.self_s"],
        "represent.probes_per_term": _ratio(t["min_terms.probes"], t["min_terms.terms"]),
        "represent.scan.rows": t["represent.scan.rows"],
        "trace.self_sum_s": t["self_sum_s"],
    }
    for name, _, _ in METRICS:
        m.setdefault(name, t[name])
    return m
