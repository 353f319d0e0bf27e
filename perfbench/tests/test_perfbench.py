"""Tests of the benchmark itself: checker, workload generation, a smoke run.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checker import Checker  # noqa: E402


def cli(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "recipsums", *args], env=env, cwd=ROOT,
                         capture_output=True, check=True).stdout
    return json.loads(out)


def problems(args: tuple[str, ...], doc: dict) -> list[str]:
    return Checker().check(list(args), json.dumps(doc).encode())


def mutated(doc: dict, edit) -> dict:
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


REPRESENT = ("represent", "--p", "1009", "--k", "1", "--epsilon", "1/2", "--a", "17")
NMAX = ("nmax", "--p", "1009", "--k", "2", "--epsilon", "1/2")
GROW = ("grow", "--p", "16001", "--k", "1", "--beta", "1/6")
EXPSUM = ("expsum", "--p", "211", "--random-size", "30", "--J", "4", "--min-J", "--seed", "7")


@pytest.mark.parametrize(
    "args, edit",
    [
        (REPRESENT, lambda d: d["result"]["witness"].__setitem__(0, d["result"]["witness"][0] + 1)),
        (REPRESENT, lambda d: d["result"].__setitem__("N", d["result"]["N"] + 1)),
        (NMAX, lambda d: d["result"]["histogram"].__setitem__(5, d["result"]["histogram"][5] + 1)),
        (GROW, lambda d: d["result"]["steps"][1].__setitem__("size_after", d["result"]["steps"][1]["size_after"] + 1)),
        (EXPSUM, lambda d: d["result"]["covering"].__setitem__("all_covered", not d["result"]["covering"]["all_covered"])),
    ],
    ids=["witness-base", "N-off-by-one", "histogram-entry", "grow-step-size", "all-covered-flip"],
)
def test_checker_accepts_real_output_and_rejects_a_mutation(args, edit):
    doc = cli(*args)
    assert problems(args, doc) == []
    assert problems(args, mutated(doc, edit)) != []


def test_checker_rejects_a_valid_but_not_lexicographically_smallest_witness():
    doc = cli(*REPRESENT)
    xs = doc["result"]["witness"]
    assert len(xs) >= 2 and xs != sorted(xs, reverse=True)
    swapped = mutated(doc, lambda d: d["result"].__setitem__("witness", sorted(xs, reverse=True)))
    assert any("witness" in p for p in problems(REPRESENT, swapped))


def _shape(cmd: list[str]) -> list[str]:
    return [re.sub(r"\d+", "#", tok) for tok in cmd]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_command_lines_and_varies_primes(name):
    first = workloads.generate(name, 1)
    assert workloads.generate(name, 1) == first
    other = workloads.generate(name, 2)
    assert [_shape(c) for c in other] == [_shape(c) for c in first]
    numbers = lambda cmds: [tok for c in cmds for tok in c if re.search(r"\d", tok)]
    assert numbers(other) != numbers(first)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_at_tiny_primes(name):
    commands = workloads.generate(name, 3, workloads.TINY)
    bench = run.Bench(ROOT, seconds=0.0)
    try:
        result = bench.run(commands, trace=True)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    bench.problems += run.trace_checks(commands, result["layers"])
    assert bench.problems == []
    assert bench.failed == 0 and bench.attempted == 2 * len(commands)
    assert result["layers"]["cli.main_s"] > 0


def test_benchmark_json_lists_the_reported_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_trace_checks_flag_lost_worker_spans_and_unaccounted_time():
    commands = [["scan", "--primes", "2..30", "--k", "1", "--epsilon", "1/2", "--workers", "2"]]
    ok = {"represent.scan.rows": 10, "trace.self_sum_s": 2.0, "cli.main_s": 2.0, "trace.overhead_frac": 0.1}
    assert run.trace_checks(commands, ok) == []
    assert run.trace_checks(commands, {**ok, "represent.scan.rows": 0}) != []
    assert run.trace_checks(commands, {**ok, "trace.self_sum_s": 1.0}) != []
    assert run.trace_checks(commands, {**ok, "trace.self_sum_s": 0.0, "cli.main_s": 0.0}) != []


def _span(id_, parent, name, pid, start, end):
    return [id_, parent, name, pid, start, end, {}, {}, 0.0]


def test_span_problems_flag_lost_and_stray_spans():
    main = _span("1.1", None, "cli.main", 1, 0.0, 10.0)
    scan = _span("1.2", "1.1", "represent.scan", 1, 1.0, 9.0)
    worker = _span("2.1", "1.2", "pool.worker", 2, 2.0, 9.5)
    table = _span("2.2", "2.1", "represent.build_layer_table", 2, 3.0, 4.0)
    assert layers.span_problems([main, scan, worker, table]) == []
    assert layers.span_problems([main, scan, table]) != []
    assert layers.span_problems([scan, worker, table]) != []
    assert layers.span_problems([main, _span("1.2", None, "growth.sumset", 1, 11.0, 12.0)]) != []
    assert layers.span_problems([main, _span("1.2", "1.1", "growth.sumset", 1, 9.0, 11.0)]) != []
