import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_alternates_two_checkouts_and_flags_differing_output(tmp_path):
    for side in ("base", "change"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "change" / "src" / "recipsums" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "changed-', 1))
    out = tmp_path / "report.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), str(tmp_path / "base"), str(tmp_path / "change"),
         "--rounds", "2", "--first", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 1, child.stderr
    report = json.loads(out.read_text())
    assert report["rounds"] == 2
    assert report["src_lines"]["base"] == report["src_lines"]["change"] > 0
    assert [(case["kind"], case["case"]) for case in report["cases"]] == [
        ("command", "--version"), ("bfs", "scan k=3 eps=1/3"), ("count", "p=20333 J=2 synthetic"),
    ]
    for case in report["cases"]:
        assert case["differs"] == (case["case"] == "--version")
        assert all(0 <= rounds <= 2 for rounds in case["change_lower"].values())
        for side in ("base", "change"):
            metrics = dict(case[side])
            assert metrics.pop("runs") == 2
            assert metrics and metrics.keys() == case["ratio"].keys() == case["change_lower"].keys()
            for value in metrics.values():
                assert value["q1"] <= value["median"] <= value["q3"]
