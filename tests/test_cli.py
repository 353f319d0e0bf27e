import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import plain_json
from recipsums import cli
from recipsums.cli import main
from recipsums.field import DENSE_P_MAX, require_dense


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_represent(capsys):
    doc = run_json(capsys, "represent", "--p", "7", "--k", "1", "--epsilon", "1/1", "--a", "0")
    assert doc["result"] == {"N": 2, "target": 0, "witness": [1, 6]}
    assert doc["config"]["command"] == "represent"
    assert doc["config"]["epsilon"] == "1/1"
    assert doc["version"] == "0.1.0"


def test_represent_with_oracle(capsys):
    doc = run_json(
        capsys, "represent", "--p", "31", "--k", "2", "--epsilon", "1/2", "--a", "17", "--oracle"
    )
    assert doc["diagnostics"]["oracle_N"] == doc["result"]["N"]


def test_nmax(capsys):
    doc = run_json(capsys, "nmax", "--p", "7", "--k", "1", "--epsilon", "1/1")
    assert doc["result"]["n_max"] == 2
    assert doc["result"]["histogram"] == [2, 1, 1, 1, 1, 1, 1]


def test_nmax_oracle(capsys):
    doc = run_json(capsys, "nmax", "--p", "13", "--k", "2", "--epsilon", "1/2", "--oracle")
    assert doc["diagnostics"]["oracle_agrees"] is True


def test_scan_csv(capsys):
    code, out = run_cli(
        capsys, "scan", "--primes", "2..31", "--k", "1", "--epsilon", "1/1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,H,base_size,n_max,max_layer,elapsed_ms"
    assert len(lines) == 12
    assert lines[1] == "2,2,1,2,2,0"
    assert "\r" not in out


def test_scan_json(capsys):
    doc = run_json(capsys, "scan", "--primes", "2..11", "--k", "1", "--epsilon", "1/2")
    assert [row["p"] for row in doc["result"]] == [2, 3, 5, 7, 11]
    assert doc["diagnostics"]["timing_suppressed"] is True


def test_grow(capsys):
    doc = run_json(capsys, "grow", "--p", "101", "--k", "1", "--beta", "1/4")
    result = doc["result"]
    assert result["final_size"] > result["threshold_value"]
    assert result["base"]["set_size"] == 2  # primes {2, 3} below floor(101^(1/4)) = 3
    assert result["n"] == len(result["steps"])
    sizes = [s["size_after"] for s in result["steps"]]
    assert sizes == sorted(sizes)


def test_expsum_members(capsys):
    doc = run_json(capsys, "expsum", "--p", "7", "--members", "1,2,3", "--J", "2")
    assert doc["result"]["f0"] == 9
    assert doc["result"]["bilinear"]["holds"] is True
    assert doc["result"]["covering"]["all_covered"] is True
    assert doc["result"]["covering"]["min_count"] == 8


def test_expsum_random_seeded(capsys):
    doc1 = run_json(capsys, "expsum", "--p", "101", "--random-size", "20", "--seed", "5")
    doc2 = run_json(capsys, "expsum", "--p", "101", "--random-size", "20", "--seed", "5")
    assert doc1 == doc2
    assert doc1["result"]["set_size"] == 20


def test_expsum_worst_a_is_the_least_of_exact_ties(capsys):
    # T*x = T for every square x, so |f| is constant on both cosets of the
    # quadratic residues, and rounding alone would pick among their members.
    members = sorted({x * x % 101 for x in range(1, 101)})
    assert len(members) == 50
    doc = run_json(capsys, "expsum", "--p", "101", "--members", ",".join(map(str, members)))
    assert doc["result"]["bilinear"]["worst_a"] == 2
    assert doc["result"]["h0"] == 50.0


def test_expsum_takes_one_spectrum(capsys, monkeypatch):
    from recipsums import expsums

    calls = []
    for name in ("fft", "rfft", "irfft"):

        def spy(a, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append((_name, kwargs.get("n", len(a))))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)

    def refuse(*args):
        raise AssertionError("full covering table built")

    monkeypatch.setattr(expsums, "covering_counts", refuse)
    doc = run_json(capsys, "expsum", "--p", "101", "--members", "1,2,3,5,8,13", "--J", "3")
    assert doc["result"]["covering"]["min_count"] == 96
    assert doc["result"]["h0"] == float(doc["result"]["set_size"]) == 6.0
    # One rfft of w feeds the profile, the bound and the ranking; the ranking inverts once.
    assert calls == [("rfft", 101), ("irfft", 101)]


def test_expsum_computes_pair_products_once(capsys, monkeypatch):
    from recipsums import expsums

    product_counts = expsums.product_counts
    calls = []

    def counting(a, b):
        calls.append(a.field.p)
        return product_counts(a, b)

    monkeypatch.setattr(expsums, "product_counts", counting)
    doc = run_json(
        capsys, "expsum", "--p", "211", "--random-size", "40", "--seed", "3", "--J", "4", "--min-J"
    )
    assert "covering" in doc["result"] and "minimal_J" in doc["result"]
    assert calls == [211]


def test_counts_past_the_int_to_str_limit_are_written_in_full(capsys):
    # T = {1, 2, 3, 4} mod 5 has w = [0, 4, 4, 4, 4], so for even J the least
    # count is c_J(1) = 4^J (4^J - 1) / 5: about 4,800 digits at J = 4000.
    j = 4000
    expected = 4**j * (4**j - 1) // 5
    argv = ["expsum", "--p", "5", "--members", "1,2,3,4", "--J", str(j)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out = run_cli(capsys, *argv)
    text_code, text = run_cli(capsys, *argv, "--format", "text")
    assert (code, text_code) == (0, 0)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # the caller's limit is back
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)  # parsing the count needs the limit lifted here too
    try:
        covering = json.loads(out)["result"]["covering"]
        assert (covering["min_count"], covering["min_residue"]) == (expected, 1)
        assert f"result.covering.min_count: {expected}\n" in text
        assert "result.covering.min_residue: 1\n" in text
    finally:
        set_limit(limit)


def test_represent_runs_one_bfs(capsys, monkeypatch):
    from recipsums import represent

    layer_table = represent._layer_table
    calls = []

    def counting(problem):
        calls.append(problem.field.p)
        return layer_table(problem)

    monkeypatch.setattr(represent, "_layer_table", counting)
    doc = run_json(capsys, "represent", "--p", "1009", "--k", "2", "--epsilon", "1/2", "--a", "5")
    assert doc["diagnostics"]["base_size"] > 0
    assert calls == [1009]


def test_expsum_pipeline_auto_J(capsys):
    doc = run_json(capsys, "expsum", "--p", "101", "--grow", "--k", "1", "--beta", "1/4", "--auto-J")
    covering = doc["result"]["covering"]
    assert covering["all_covered"] is True
    assert covering["min_count"] > 0
    assert covering["j_sufficient"] is True


def test_expsum_minimal_J(capsys):
    doc = run_json(capsys, "expsum", "--p", "7", "--members", "1,2", "--min-J")
    assert doc["result"]["minimal_J"] == 3


def test_baseset(capsys):
    doc = run_json(capsys, "baseset", "--p", "101", "--k", "1", "--beta", "1/2", "--u", "1",
                   "--list-members")
    assert doc["result"]["set_size"] == 4
    assert doc["result"]["members"] == [29, 34, 51, 81]
    assert doc["result"]["regime_holds"] is True


def test_smoothset(capsys):
    doc = run_json(capsys, "smoothset", "--p", "11", "--bound", "2", "--epsilon", "1/2",
                   "--theta", "1/2", "--list-members")
    assert doc["result"]["members"] == [1, 2, 4, 8]
    assert doc["result"]["conditions"]["closure_holds"] is True


def test_domain_error_exit_1(capsys):
    code, out = run_cli(capsys, "represent", "--p", "9", "--k", "1", "--epsilon", "1/1", "--a", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotPrime"


def test_out_of_range_epsilon_exit_1(capsys):
    code, out = run_cli(capsys, "represent", "--p", "7", "--epsilon", "3/2", "--a", "0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_grow_empty_base_exit_1(capsys):
    code, out = run_cli(capsys, "grow", "--p", "11", "--k", "1", "--beta", "3/5", "--u", "3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "EmptyBase"


def test_usage_error_exit_2(capsys):
    assert main(["represent", "--p", "7"]) == 2  # missing required args
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()
    assert main(["represent", "--p", "7", "--epsilon", "0.5", "--a", "1"]) == 2  # float rejected
    capsys.readouterr()


def test_csv_only_for_scan(capsys):
    code = main(["represent", "--p", "7", "--epsilon", "1/1", "--a", "0", "--format", "csv"])
    assert code == 2


def test_oracle_prime_guard(capsys):
    code = main(["nmax", "--p", "101", "--epsilon", "1/1", "--oracle"])
    assert code == 2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["nmax", "--p", "7", "--epsilon", "1/1", "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["result"]["n_max"] == 2


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, where):
    def fail(args):
        raise AssertionError("the command ran before its output was opened")

    monkeypatch.setitem(cli._HANDLERS, "represent", fail)
    path = tmp_path / "no" / "x.json" if where == "missing" else tmp_path
    code = main(["represent", "--p", "7", "--epsilon", "1/1", "--a", "3", "-o", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_text_format(capsys):
    code, out = run_cli(capsys, "nmax", "--p", "7", "--epsilon", "1/1", "--format", "text")
    assert code == 0
    assert "result.n_max: 2" in out


def readme_examples():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        return [line.split()[1:] for line in fh if line.startswith("recipsums ")]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_text_format_is_the_json_read_back(capsys, argv):
    # _render_text walks the document itself; it must print what the JSON holds.
    argv = [arg for arg in argv if arg not in ("--format", "csv")]
    code, text = run_cli(capsys, *argv, "--format", "text")
    doc = run_json(capsys, *argv)
    doc["config"]["format"] = "text"
    assert code == 0 and text == cli._render_text(doc)


def test_json_byte_determinism(capsys):
    args = ["grow", "--p", "499", "--k", "1", "--beta", "1/4"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# SHA-256 of stdout pinned before the dense kernels shared one convolution;
# the last command sums uint64 intermediates past 2^64, the one before it
# carries 184-bit covering counts (J = 13). The two expsum pins were taken
# again once f became the DFT of the pair-product counts: only the last
# digits of result.bilinear.max_ratio changed (0.17081395168309715 ->
# ...718 and 0.069800053911507 -> 0.06980005391150709).
GOLDEN = {
    "represent --p 30011 --k 1 --epsilon 1/1 --a 2683":
        "516c35a760180305e6f267cb9b1308b7e18479d43486533d487f1f62a039d3ee",
    "nmax --p 1009 --k 2 --epsilon 1/3":
        "8dde6a2a5315c6de31156b3cd97c6ce292849785aa56a187df5f7e326d0a72e2",
    "scan --primes 2..300 --k 1 --epsilon 1/2 --format csv":
        "bbac9856ed46720e14956eb9d25e5f846748a0bfd12d57b3ddd55e88d94c60b9",
    # Re-pinned when one-term sums (u = 1) were bounded as if u = 2: three
    # steps took term_bound and term_budget 1 -> 256, covering_terms_bound
    # 16 -> 1048576.
    "grow --p 10007 --k 1 --beta 1/4":
        "7bd15420a601a94d67aee6f28d07d7f6ee2bea43a2d8ce1f2b4f7860eec61fc7",
    # Re-pinned when one rfft of w replaced the h transform and the full fft
    # of w; only float fields moved, each covering count and minimal_J stayed.
    # parseval_relative_error 1.6388768389457216e-16 -> 0.0,
    # max_ratio 0.17081395168309718 -> 0.1708139516830971.
    "expsum --p 1009 --grow --auto-J":
        "18ef1c2cad774fad01db76ea51d8d5ce8e0a65f8b35846863d66baeb65c6bcd5",
    # parseval_relative_error 3.874698679545176e-16 -> 2.2777505165116326e-16,
    # max_ratio 0.06980005391150709 -> 0.06980005391150702.
    "expsum --p 2003 --random-size 300 --J 5 --min-J --seed 3":
        "99bfd00c031b2876f89d64a66950a5bc5bd840f439e18c29d1897fd9ca32ac97",
    # Pinned while minimal term counts still came from stored exactly-j
    # layers; these reach both the push and the pull step of the BFS.
    "nmax --p 10007 --k 2 --epsilon 1/2":
        "f262d5c2c55c361a74e1e30d39bc680d14c556b9f30e68a7504be9c5b336b9d2",
    "represent --p 10007 --k 2 --epsilon 1/3 --a 4321":
        "6a65918752e103d5701e2dbcea276aa1ba906f1f68d5947378f527de27a4b817",
    "scan --primes 2..2000 --k 3 --epsilon 1/3 --format csv":
        "6aea38ae5857f01127969119deb8d1b15b18ad190b210c5c2fb6f334e85772a5",
    # Pinned while the JSON encoder still spliced whole int lists; each
    # histogram or member list spans more than one encoder chunk.
    "nmax --p 200003 --k 1 --epsilon 1/2":
        "7d07b1b3b1e8a6452d3e9b24cc3c7185340c2ae286ca6029210d08b15d0513d4",
    "nmax --p 200003 --k 1 --epsilon 1/2 --format text":
        "4dd18d143f2289892112f2e547d4c122674c96ba06af0b4c162a7919dce6c0ff",
    "scan --primes 2..3000 --k 2 --epsilon 1/2":
        "009b5542962f482afa5dedde19b426e48aac622add46e3307c013a84fb97e389",
    "baseset --p 200003 --k 1 --beta 2/3 --u 2 --list-members":
        "757fb0d1616b55429d5e2112e2831066305243fd3cbd1628f8c178c45edbd3dc",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def test_uncertified_prime_exit_1(capsys):
    code, out = run_cli(capsys, "baseset", "--p", "3317044064679887385961981", "--k", "1",
                        "--beta", "1/20", "--u", "1")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert "certif" in error["message"]


@pytest.mark.parametrize(
    "command",
    [
        "represent --p 1000000000039 --k 1 --epsilon 1/1 --a 5",
        "nmax --p 1000000000039 --epsilon 1/3",
        "scan --primes 2..1000000000000 --epsilon 1/2",
        "grow --p 1000000000039 --beta 1/4",
        "baseset --p 1000000000039 --beta 1/2 --u 1",
        "expsum --p 1000000000039 --random-size 5",
        "expsum --p 1000000000039 --grow",
    ],
)
def test_dense_ceiling_exit_1(capsys, command):
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, *command.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert f"dense-modulus ceiling {DENSE_P_MAX}" in error["message"]
    assert peak < 1 << 24


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS and ru_maxrss in kB")
@pytest.mark.parametrize(
    "command",
    [
        "represent --p 3037000493 --k 1 --epsilon 1/3 --a 5",
        "nmax --p 3037000493 --k 2 --epsilon 1/4",
        "scan --primes 3037000400..3037000500 --k 1 --epsilon 1/8",
    ],
)
def test_largest_dense_prime_fails_before_touching_memory(command, tmp_path):
    """The BFS distance array of the largest prime under the ceiling needs
    22.6 GiB, which an 8 GiB address space refuses. It is the first length-p
    array a command builds, so the MemoryError comes before any memory is used."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))  # the wait below has no timeout of its own

    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))
    with open(tmp_path / "stderr", "wb") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "recipsums", *command.split()],
            env=env, stdout=subprocess.PIPE, stderr=err, preexec_fn=limit,
        )
        out = child.stdout.read()
        child.stdout.close()
        # The child's own peak; RUSAGE_CHILDREN would also count earlier children.
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 1, (tmp_path / "stderr").read_text()
    assert json.loads(out)["error"]["type"] == "MemoryError"
    assert usage.ru_maxrss < 200 * 1024


def test_reports_are_printed_as_their_dataclasses(capsys):
    from recipsums import BilinearReport, CoveringPositivity, GrowthStep, MultiplicativityReport

    def names(cls):
        return set(cls._fields)

    result = run_json(capsys, "expsum", "--p", "101", "--grow", "--k", "1", "--beta", "1/4", "--auto-J")["result"]
    assert set(result["bilinear"]) == names(BilinearReport)
    assert set(result["covering"]) == names(CoveringPositivity)
    steps = run_json(capsys, "grow", "--p", "1009", "--k", "1", "--beta", "1/4")["result"]["steps"]
    assert steps and all(set(step) == names(GrowthStep) for step in steps)
    argv = ["smoothset", "--p", "1009", "--bound", "7", "--epsilon", "1/2", "--theta", "1/3"]
    conditions = run_json(capsys, *argv)["result"]["conditions"]
    assert set(conditions) == names(MultiplicativityReport) - {"closure_counterexample"}


def test_dense_ceiling_value():
    assert (DENSE_P_MAX - 1) ** 2 < 2**63 <= DENSE_P_MAX**2
    require_dense(DENSE_P_MAX)
    with pytest.raises(ValueError, match="ceiling"):
        require_dense(DENSE_P_MAX + 1)


@pytest.mark.parametrize("exc", [RuntimeError("covering mass 1 != 2; kernel bug"), MemoryError()])
def test_internal_failure_exit_1(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "grow", fail)
    code, out = run_cli(capsys, "grow", "--p", "101", "--k", "1", "--beta", "1/4")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == {"type": type(exc).__name__, "message": str(exc)}
    assert doc["config"]["command"] == "grow"


def encode(doc) -> str:
    return "".join(cli._encode(doc))


def test_encode_converts_fractions_nan_and_tuples():
    ints = list(range(1000))
    assert json.loads(encode(ints)) == ints
    assert json.loads(encode((3, 4))) == [3, 4]
    assert json.loads(encode([1, float("nan"), 2.5])) == [1, None, 2.5]
    assert json.loads(encode([Fraction(1, 2), 7])) == ["1/2", 7]
    kept = json.loads(encode([True, 0]))
    assert kept == [True, 0] and type(kept[0]) is bool
    assert json.loads(encode({"h": [2, 1], "x": []})) == {"h": [2, 1], "x": []}
    assert json.loads(encode({"e": Fraction(-3, 4), "t": (1, (float("nan"), Fraction(2)))})) == {
        "e": "-3/4",
        "t": [1, [None, "2/1"]],
    }


_LONG = np.arange(-(2 * cli._CHUNK) - 5, 2 * cli._CHUNK + 6, 3, dtype=np.int64)  # > 2 chunks
_LOCKED = np.array([3, 1, 2], dtype=np.int64)
_LOCKED.setflags(write=False)


@pytest.mark.parametrize(
    "doc",
    [
        {"result": {"histogram": [3, 1, 2], "n_max": 3}, "version": "0.1.0"},
        {"a": {"b": {"c": [[1, -2], [], [3]]}}, "d": [-1], "e": []},
        {"flags": [True, False], "mixed": [1, True], "floats": [1.5, 2], "bigs": [10**30, -(10**30)]},
        [[1, 2], [3, [4, 5]], []],
        [7, 8],
        {"nul": "\0" + "0", "ints": [5, 6]},  # a string that starts with NUL
        {"quote": 'a"\0', "ints": [1]},
        {},
        [],
        np.zeros(0, dtype=np.int64),
        _LONG,
        {"result": {"histogram": _LONG, "n_max": 3}, "empty": np.zeros(0, dtype=np.int64)},
        {"result": {"histogram": _LOCKED, "n_max": 3}},
        {"z": 1, "a": "x", "n": None, "f": 1.5, "b": True, "q": Fraction(1, 3), "nan": float("nan"),
         "inf": float("-inf"), "big": -(10**40), "u": "\u00e9\u20ac\0\""},
        [{"p": 2, "n_max": None, "error": "x"}, {"p": 3, "n_max": 1, "error": None}, {}],
        {"rows": [{"p": 5, "theta": float("nan")}, {"p": 7, "theta": 0.25}], "t": (Fraction(1, 2),)},
    ],
)
def test_dump_json_matches_indented_dumps(doc):
    assert encode(doc) == json.dumps(plain_json(doc), sort_keys=True, indent=2)


def test_dump_json_on_an_nmax_document(capsys):
    code, out = run_cli(capsys, "nmax", "--p", "1009", "--k", "2", "--epsilon", "1/3")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fresh_python(code, **env):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_recipsums_leaves_numpy_unloaded():
    out = _fresh_python(
        "import sys, recipsums\n"
        "print('numpy' in sys.modules)\n"
        "from recipsums import *\n"
        "print(all(getattr(recipsums, n) is globals()[n] for n in recipsums.__all__))"
    )
    assert out.split() == ["False", "True"]


def test_representation_commands_start_without_numpy():
    """--version, represent, nmax and scan import only the representation
    layer: no numpy, none of the layers of the other subcommands, and neither
    dataclasses, csv nor, for a scan too small to repay it, the process pool;
    the exhaustive oracle only under --oracle. grow, baseset and smoothset
    load neither numpy, dataclasses, convolve nor expsums; expsum loads
    numpy; no command loads dataclasses."""
    out = _fresh_python(
        "import os, sys\n"
        "from recipsums.cli import main\n"
        "null = open(os.devnull, 'w')\n"
        "sys.stdout = null\n"
        "codes = [main(argv.split()) for argv in (\n"
        "    '--version',\n"
        "    'represent --p 1009 --k 2 --epsilon 1/2 --a 5',\n"
        "    'nmax --p 1009 --k 1 --epsilon 1/3',\n"
        "    'scan --primes 2..200 --k 2 --epsilon 1/2 --workers 1',\n"
        "    'scan --primes 2..200 --k 2 --epsilon 1/2 --workers 2',\n"
        ")]\n"
        "layers = ('numpy', 'recipsums.basesets', 'recipsums.growth', 'recipsums.expsums',\n"
        "          'recipsums.sets', 'recipsums.convolve', 'recipsums.bruteforce',\n"
        "          'dataclasses', 'csv', 'concurrent.futures')\n"
        "loaded = [name for name in layers if name in sys.modules]\n"
        "main('represent --p 97 --k 2 --epsilon 1/2 --a 13 --oracle'.split())\n"
        "oracle = 'recipsums.bruteforce' in sys.modules and 'numpy' not in sys.modules\n"
        "codes += [main(argv.split()) for argv in (\n"
        "    'grow --p 1009 --k 1 --beta 1/4',\n"
        "    'baseset --p 99929 --k 1 --beta 1/6 --list-members',\n"
        "    'smoothset --p 1009 --bound 7 --epsilon 1/2 --theta 1/3',\n"
        ")]\n"
        "heavy = ('numpy', 'dataclasses', 'recipsums.convolve', 'recipsums.expsums')\n"
        "sets = [name for name in heavy if name in sys.modules]\n"
        "codes.append(main('expsum --p 101 --members 1,2,3 --J 2'.split()))\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, loaded, oracle, sets, 'numpy' in sys.modules, 'dataclasses' in sys.modules)"
    )
    assert out == "[0, 0, 0, 0, 0, 0, 0, 0, 0] [] True [] True False"


def test_parser_builds_only_the_named_subcommand_with_unchanged_help(capsys):
    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    full = cli.build_parser()
    names = list(subparsers(full))
    assert len(names) == 7
    assert cli.build_parser(set()).format_help() == full.format_help()
    for name in names:
        selective = subparsers(cli.build_parser({name}))
        assert selective[name].format_help() == subparsers(full)[name].format_help()
        assert all(len(sp._actions) == 1 for other, sp in selective.items() if other != name)  # only -h
        assert run_cli(capsys, name, "--help") == (0, subparsers(full)[name].format_help())
    assert run_cli(capsys, "--help") == (0, full.format_help())


def test_cli_sets_one_blas_thread_unless_told_otherwise():
    code = "import os, recipsums.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code) == "1"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def _peak_bytes(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nmax_holds_no_list_of_the_histogram():
    problem = ["--p", "1000003", "--k", "1", "--epsilon", "1/3", "-o", os.devnull]
    represent = _peak_bytes(["represent", *problem, "--a", "12345"])
    nmax = _peak_bytes(["nmax", *problem])
    assert nmax - represent < 8 * 1000003  # less than one more length-p int64 array
