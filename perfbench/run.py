"""recipsums benchmark: seeded CLI workloads, timed end to end and per layer.

Usage, from the root of a recipsums checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command is a fresh ``python -m recipsums ...`` process, run in a
closed loop with one client. The command list is cycled until S seconds
have passed and at least one full pass is done. The first output of each
distinct command line is verified by checker.py; every later run of it
must be byte-identical to that first output.

With ``--trace 0`` the last line reports the end-to-end metrics:
``wall_s`` (sum over the command list of each command's median time from
spawn to exit), ``setup_s`` (median cold start of ``python -m recipsums
--version``, one before each command and at least SETUP_STARTS) and
``peak_rss_mb`` (highest child peak RSS). With ``--trace 1``
each command runs untraced and then under tracer.py, in turn, and the last
line reports the per-layer metrics of layers.py. Failed commands are
counted in ``failed`` out of ``attempted``; their ratio is the workload's
fail ratio. The ``--version`` starts are not commands; a failed start
makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402
from checker import Checker, primes_in  # noqa: E402

perf = time.perf_counter

SETUP_STARTS = 9
COMMAND_TIMEOUT_S = 150.0
HERE = Path(__file__).resolve().parent


class Bench:
    """Runs commands for one benchmark invocation and keeps its tallies."""

    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.seconds = seconds
        self.work = root / ".perfbench_run"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.checker = Checker()
        self.reference: dict[tuple, tuple[bytes, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.starts = 0
        self.starts_failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, bytes]:
        """Run one child; return (wall s, peak RSS MB, user+sys s, exit code, stdout).

        A child still running after COMMAND_TIMEOUT_S is killed with its
        process group and reported with exit code -9.
        """
        self.work.mkdir(exist_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root,
                                    start_new_session=True)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], COMMAND_TIMEOUT_S)[0]
                if timed_out:
                    os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            elapsed = perf() - start
        proc.returncode = -9 if timed_out else os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        if proc.returncode and stderr:
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return (elapsed, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime, proc.returncode,
                out_path.read_bytes())

    def record(self, cmd: list[str], code: int, stdout: bytes) -> None:
        """Verify one run of cmd; count and report it if it failed."""
        self.attempted += 1
        key = tuple(cmd)
        problems = [f"exit code {code}"] if code else []
        if key not in self.reference:
            problems = problems or self.checker.check(cmd, stdout)
            self.reference[key] = (stdout, problems)
        else:
            first, first_problems = self.reference[key]
            problems = problems or list(first_problems)
            if stdout != first:
                problems.append("output differs from the first run of this command")
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(cmd)}: {'; '.join(problems[:3])}")

    def cli(self, cmd: list[str]) -> list[str]:
        return [sys.executable, "-m", "recipsums", *cmd]

    def version_start(self) -> float:
        """One cold start of ``python -m recipsums --version``; returns its time.

        Starts are tallied apart from the commands, so ``failed / attempted``
        stays the commands' fail ratio; a failed start still fails the run.
        """
        elapsed, _, _, code, out = self.spawn(self.cli(["--version"]))
        self.starts += 1
        if code or not out.strip():
            self.starts_failed += 1
            self.problems.append(f"--version: exit code {code}, output {out[:80]!r}")
        return elapsed

    def traced(self, cmd: list[str]) -> tuple[float, dict]:
        span_dir = self.work / "spans"
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(span_dir), *cmd]
        elapsed, _, cpu, code, out = self.spawn(argv)
        self.record(cmd, code, out)
        spans = layers.load_spans(str(span_dir))
        self.problems += [f"{' '.join(cmd)}: traced: {p}" for p in layers.span_problems(spans)[:3]]
        totals = layers.command_totals(spans)
        totals["cli.cpu_s"] += cpu
        return elapsed, totals

    def run(self, commands: list[list[str]], trace: bool) -> dict:
        times: list[list[float]] = [[] for _ in commands]
        traced_times: list[list[float]] = [[] for _ in commands]
        passes: list[dict] = []
        starts: list[float] = []
        peak = 0.0
        start = perf()
        deadline = start + self.seconds
        while True:
            pass_totals: dict = {}
            for i, cmd in enumerate(commands):
                if not trace:
                    # Cold starts interleaved with the work see the same machine state.
                    starts.append(self.version_start())
                elapsed, rss, _, code, out = self.spawn(self.cli(cmd))
                self.record(cmd, code, out)
                times[i].append(elapsed)
                peak = max(peak, rss)
                if trace:
                    elapsed, totals = self.traced(cmd)
                    traced_times[i].append(elapsed)
                    for key, value in totals.items():
                        pass_totals[key] = pass_totals.get(key, 0.0) + value
                elif passes and perf() >= deadline:
                    break
            passes.append(pass_totals)
            # Traced passes stay whole: stop if the next one would end past the deadline.
            now = perf()
            next_pass = (now - start) / len(passes) if trace else 0.0
            if now + next_pass >= deadline:
                break
        while not trace and len(starts) < SETUP_STARTS:
            starts.append(self.version_start())
        wall = sum(statistics.median(t) for t in times)
        result = {"wall_s": wall, "peak_rss_mb": peak, "passes": len(passes),
                  "samples": [len(t) for t in times],
                  "medians": [statistics.median(t) for t in times]}
        if starts:
            result["setup_s"] = statistics.median(starts)
        if trace:
            per_pass = [layers.finish(p) for p in passes]
            metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
            traced_wall = sum(statistics.median(t) for t in traced_times)
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.base_wall_s"] = wall
            metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
            result["layers"] = metrics
        return result


def trace_checks(commands: list[list[str]], metrics: dict) -> list[str]:
    """Checks on a traced pass: pool workers flushed, self times add up to cli.main_s.

    Self times add up whenever spans nest, which ``layers.span_problems``
    checks for each command; this catches a sum that is off all the same.
    """
    problems = []
    scanned = 0
    for cmd in commands:
        if cmd[0] == "scan":
            lo, _, hi = cmd[cmd.index("--primes") + 1].partition("..")
            scanned += len(primes_in(int(lo), int(hi)))
    if scanned and metrics["represent.scan.rows"] != scanned:
        problems.append(f"represent.scan.rows = {metrics['represent.scan.rows']:g}, "
                        f"but {scanned} primes were scanned: pool workers lost their spans")
    if metrics["cli.main_s"] <= 0:
        return problems + ["no time recorded inside cli.main"]
    gap = abs(metrics["trace.self_sum_s"] - metrics["cli.main_s"]) / metrics["cli.main_s"]
    if gap > abs(metrics["trace.overhead_frac"]) + 1e-9:
        problems.append(f"self times under cli.main miss cli.main_s by {gap:.3%}, "
                        f"more than trace.overhead_frac")
    return problems


def metadata(root: Path, args) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            commit = git.stdout.strip() or commit
        except OSError:
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "code.src_lines": src_lines(root),
    }


def src_lines(root: Path) -> int:
    total = 0
    for path in sorted(glob.glob(str(root / "src" / "recipsums" / "*.py"))):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "recipsums" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/recipsums; run from the root of a recipsums checkout",
              file=sys.stderr)
        return 2
    commands = workloads.generate(args.workload, args.seed)
    bench = Bench(root, args.seconds)
    try:
        # A first start compiles the bytecode of a fresh checkout.
        warm = bench.spawn(bench.cli(["--version"]))
        if warm[3]:
            print(f"perfbench: python -m recipsums --version failed with exit code {warm[3]}",
                  file=sys.stderr)
            return 2
        meta = metadata(root, args)
        if args.trace:
            result = bench.run(commands, trace=True)
            metrics = result["layers"]
            metrics["code.src_lines"] = meta["code.src_lines"]
            bench.problems += trace_checks(commands, metrics)
            units = {name: unit for name, unit, _ in layers.METRICS}
        else:
            result = bench.run(commands, trace=False)
            metrics = {name: result[name] for name in ("wall_s", "setup_s", "peak_rss_mb")}
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    meta.update(passes=result["passes"], samples_per_command=result["samples"],
                median_s_per_command=result["medians"],
                fail_ratio=bench.failed / bench.attempted, setup_starts=bench.starts,
                setup_starts_failed=bench.starts_failed, commands=[" ".join(c) for c in commands])
    print(json.dumps({"meta": meta}))
    for problem in bench.problems:
        print(f"FAIL {problem}")
    for name in units:
        print(f"{args.workload:10s} {name:48s} {metrics[name]:14.6g} {units[name]}")
    print(f"{args.workload:10s} {'fail_ratio':48s} {bench.failed / bench.attempted:14.6g} ratio "
          f"({bench.failed} of {bench.attempted} failed)")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
