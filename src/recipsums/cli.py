"""Command-line front end.

Subcommands:
  represent  minimal N and witness for one residue
  nmax       minimal-N profile over all residues of one prime
  scan       nmax rows over a range of primes (JSON or CSV)
  grow       base set construction plus the sum-product growth run
  expsum     exponential-sum profile, bilinear bound, covering counts
  baseset    prime reciprocal-power base set with distinctness report
  smoothset  smooth multiplicative set with closure/density checks

Exponents are exact rationals written as "num/den" (or a bare integer);
floating-point forms are rejected. JSON output is canonical (sorted keys,
indent 2); repeated runs with the same arguments produce byte-identical
reports. One streaming encoder, _encode, writes every JSON document, error
documents included; the nmax histogram goes out in chunks straight from the
BFS distance array, never as a list of p ints. --format text walks the same
document and prints each leaf as the canonical JSON would read back.
Exit codes: 0 success, 1 domain or internal error (incl. out of memory),
2 usage error (incl. an --output path that cannot be opened).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import random
import sys
from fractions import Fraction

# The one BLAS call (a length-p dot product in expsums) gains nothing from a
# second thread, and OpenBLAS's idle worker costs every start CPU time. This
# has to run before numpy's first import; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__  # noqa: E402 - the package itself imports nothing heavy
from .basesets import (
    BaseSetSpec,
    build_prime_reciprocal_set,
    build_smooth_set,
    check_multiplicative_conditions,
    primes_up_to,
)
from .bruteforce import exhaustive_depth_table, exhaustive_min_terms
from .errors import Error
from .expsums import (
    check_covering_positivity,
    compute_J,
    exp_sum_profile,
    exponent_excess,
    minimal_covering_J,
    verify_bilinear_bound,
)
from .field import make_field, require_dense
from .growth import GrowthConfig, grow_until, n_bound, term_budget
from .intmath import pow_floor
from .represent import ReprProblem, build_layer_table, min_terms, scan
from .sets import ResidueSet

_ORACLE_PRIME_LIMIT = 100

CSV_COLUMNS = ["p", "H", "base_size", "n_max", "max_layer", "elapsed_ms"]


def rational(text: str) -> Fraction:
    """Parse an exact rational "num/den" or a bare integer string."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text), 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 2/3, got {text!r}"
        ) from exc


def prime_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a range like 2..499, got {text!r}") from exc
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo_i, hi_i


def int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


_CHUNK = 1 << 16  # array entries per C-encoder call
_SCALARS = (str, int, float, type(None))  # bool is an int
_PLAIN = frozenset({str, int, bool, type(None)})  # scalars written as they are


def _scalar(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _flat(values):
    """values as JSON scalars, or None when one of them is a container."""
    if _PLAIN.issuperset(map(type, values)):
        return values
    values = [_scalar(v) for v in values]
    return values if all(isinstance(v, _SCALARS) for v in values) else None


def _encode(value, pad: str = ""):
    """Yield the pieces of json.dumps(value, sort_keys=True, indent=2), with
    Fractions written "num/den", NaN as null, and tuples and int arrays as lists.

    Each container of scalars is one C-encoder call, with the indent written
    into its item separator. An array (anything with .tolist()) is encoded in
    chunks of _CHUNK entries, so no piece holds a whole histogram."""
    value = _scalar(value)
    if isinstance(value, _SCALARS):
        yield json.dumps(value)
        return
    is_dict = isinstance(value, dict)
    if not len(value):
        yield "{}" if is_dict else "[]"
        return
    inner = pad + "  "
    sep = ",\n" + inner
    dumps = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode
    yield ("{\n" if is_dict else "[\n") + inner
    if isinstance(value, (dict, list, tuple)):
        flat = _flat(list(value.values()) if is_dict else value)
        if flat is not None:
            yield dumps(dict(zip(value, flat)) if is_dict else flat)[1:-1]
        else:
            for i, key in enumerate(sorted(value) if is_dict else range(len(value))):
                if i:
                    yield sep
                if is_dict:
                    yield json.dumps(key) + ": "
                yield from _encode(value[key], inner)
    else:
        for start in range(0, len(value), _CHUNK):
            yield (sep if start else "") + dumps(value[start : start + _CHUNK].tolist())[1:-1]
    yield "\n" + pad + ("}" if is_dict else "]")


def _render_text(doc: dict) -> str:
    """One "path: value" line per leaf, each value as its canonical JSON reads back."""
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        value = _scalar(value)
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else k, value[k])
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            if hasattr(value, "tolist"):
                value = value.tolist()
            elif isinstance(value, (list, tuple)):
                value = [_scalar(v) for v in value]
            lines.append(f"{prefix}: {value}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _write_csv(rows: list[dict], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(["" if row.get(col) is None else row[col] for col in CSV_COLUMNS] for row in rows)


def _emit(doc: dict, fh) -> None:
    fh.writelines(_encode(doc))
    fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_represent(args) -> tuple[dict, dict]:
    problem = ReprProblem(make_field(args.p), args.k, args.epsilon)
    witness = min_terms(args.a, problem)
    result = {"target": witness.target.value, "N": witness.n, "witness": list(witness.xs)}
    diagnostics: dict = {"H": problem.height, "base_size": build_layer_table(problem).generators.size}
    if args.oracle:
        oracle_n, oracle_witness = exhaustive_min_terms(args.a, problem)
        if oracle_n != witness.n:
            raise Error(
                f"oracle disagreement: BFS N = {witness.n}, exhaustive N = {oracle_n}"
            )
        diagnostics["oracle_N"] = oracle_n
        diagnostics["oracle_witness"] = list(oracle_witness)
    return result, diagnostics


def _cmd_nmax(args) -> tuple[dict, dict]:
    problem = ReprProblem(make_field(args.p), args.k, args.epsilon)
    histogram = build_layer_table(problem).coverage  # write-locked int64, one entry per residue
    result = {"n_max": int(histogram.max()), "histogram": histogram}
    diagnostics: dict = {"H": problem.height}
    if args.oracle:
        if exhaustive_depth_table(problem) != histogram.tolist():
            raise Error("oracle disagreement: per-residue term counts differ")
        diagnostics["oracle_agrees"] = True
    return result, diagnostics


def _cmd_scan(args) -> tuple[list[dict], dict]:
    lo, hi = args.primes
    require_dense(hi)  # the sieve has length hi + 1
    primes = [p for p in primes_up_to(hi) if p >= lo]
    rows = scan(primes, args.k, args.epsilon, workers=args.workers, timing=args.timing)
    diagnostics = {"prime_count": len(rows), "timing_suppressed": not args.timing}
    return rows, diagnostics


def _cmd_grow(args) -> tuple[dict, dict]:
    field = make_field(args.p)
    spec = BaseSetSpec(field, args.k, args.beta, u=args.u)
    base, report = build_prime_reciprocal_set(spec)
    cfg = GrowthConfig(threshold_exponent=args.threshold_exponent, max_iters=args.max_iters)
    final, trace = grow_until(base, cfg, spec.tuple_length, args.beta)
    result = {
        "base": {"u": spec.tuple_length, **dataclasses.asdict(report)},
        "steps": [dataclasses.asdict(s) for s in trace.steps],
        "n": trace.n,
        "final_size": final.card,
        "threshold_exponent": cfg.threshold_exponent,
        "threshold_value": pow_floor(args.p, cfg.threshold_exponent),
        "term_bound": trace.term_bound,
        "term_bound_capped": trace.term_bound_capped,
        "height_exponent": trace.height_exponent,
    }
    diagnostics: dict = {"delta": Fraction(1, 4 * args.k)}
    thetas = [s.theta_hat for s in trace.steps if not math.isnan(s.theta_hat)]
    if thetas and min(thetas) > 0:
        theta_min = min(thetas)
        diagnostics["theta_hat_min"] = theta_min
        diagnostics["n_bound"] = n_bound(args.k, theta_min)
        try:
            h = term_budget(spec.tuple_length, args.k, theta_min)
            diagnostics["term_budget"] = h
            diagnostics["covering_terms_bound"] = 16 * h * h
        except OverflowError:
            diagnostics["term_budget"] = None
    return result, diagnostics


def _build_expsum_set(args) -> tuple[ResidueSet, dict]:
    field = make_field(args.p)
    if args.members is not None:
        t = ResidueSet.from_members(field, args.members)
        source = {"source": "members"}
    elif args.random_size is not None:
        rng = random.Random(args.seed)
        picks = rng.sample(range(field.p), args.random_size)
        t = ResidueSet.from_members(field, picks)
        source = {"source": "random", "seed": args.seed, "requested_size": args.random_size}
    elif args.grow:
        spec = BaseSetSpec(field, args.k, args.beta, u=args.u)
        base, _ = build_prime_reciprocal_set(spec)
        cfg = GrowthConfig()
        t, trace = grow_until(base, cfg, spec.tuple_length, args.beta)
        source = {"source": "grow", "growth_steps": trace.n}
    else:
        raise Error("expsum needs one of --members, --random-size, or --grow")
    if t.card == 0:
        raise Error("the set T is empty")
    return t, source


def _cmd_expsum(args) -> tuple[dict, dict]:
    t, diagnostics = _build_expsum_set(args)
    profile = exp_sum_profile(t)
    bilinear = verify_bilinear_bound(profile)
    result = {
        "set_size": profile.set_size,
        "h0": float(profile.h_abs[0]),
        "f0": profile.f0,
        "parseval_relative_error": profile.parseval_relative_error,
        "bilinear": dataclasses.asdict(bilinear),
    }
    j = args.J
    if args.auto_J:
        excess = exponent_excess(t)
        if excess is None:
            raise Error(f"--auto-J needs |T| > sqrt(p); |T| = {t.card}, p = {t.field.p}")
        j = diagnostics["auto_J"] = compute_J(excess)
    if j is not None:
        covering = dataclasses.asdict(check_covering_positivity(t, j))
        covering["J"] = covering.pop("j")
        result["covering"] = covering
    if args.min_J:
        result["minimal_J"] = minimal_covering_J(t, j_cap=args.min_J_cap)
    return result, diagnostics


def _cmd_baseset(args) -> tuple[dict, dict]:
    field = make_field(args.p)
    spec = BaseSetSpec(field, args.k, args.beta, u=args.u)
    members, report = build_prime_reciprocal_set(spec)
    result = {"u": spec.tuple_length, **dataclasses.asdict(report)}
    if args.list_members:
        result["members"] = members.to_list()
    return result, {}


def _cmd_smoothset(args) -> tuple[dict, dict]:
    field = make_field(args.p)
    smooth = build_smooth_set(field, args.bound)
    result: dict = {"bound": args.bound, "size": len(smooth)}
    if args.epsilon is not None and args.theta is not None:
        report = check_multiplicative_conditions(smooth, field, args.epsilon, args.theta)
        conditions = result["conditions"] = dataclasses.asdict(report)
        del conditions["closure_counterexample"]
    if args.list_members:
        result["members"] = list(smooth.integers)
    return result, {}


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipsums",
        description="Reciprocal-power sums, sum-product growth, and covering counts mod p.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", "-o", help="write the report to this path instead of stdout")
        sp.add_argument(
            "--format",
            choices=["json", "csv", "text"],
            default="json",
            help="output format (csv is valid for scan only)",
        )

    sp = sub.add_parser("represent", help="minimal N and witness for one residue")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--epsilon", type=rational, required=True)
    sp.add_argument("--a", type=int, required=True, help="target residue")
    sp.add_argument("--oracle", action="store_true", help="cross-check with exhaustive search")
    add_common(sp)

    sp = sub.add_parser("nmax", help="minimal-N profile over all residues")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--epsilon", type=rational, required=True)
    sp.add_argument("--oracle", action="store_true")
    add_common(sp)

    sp = sub.add_parser("scan", help="nmax rows over a prime range")
    sp.add_argument("--primes", type=prime_range, required=True, help="inclusive range, e.g. 2..499")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--epsilon", type=rational, required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument(
        "--timing",
        action="store_true",
        help="report wall-clock per row (makes output non-reproducible)",
    )
    add_common(sp)

    sp = sub.add_parser("grow", help="base set plus sum-product growth run")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--beta", type=rational, required=True)
    sp.add_argument("--u", type=int, default=None, help="override the tuple length")
    sp.add_argument("--threshold-exponent", type=rational, default=Fraction(2, 3))
    sp.add_argument("--max-iters", type=int, default=64)
    add_common(sp)

    sp = sub.add_parser("expsum", help="exponential sums and covering counts for a set T")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--members", type=int_list, default=None, help="explicit T, e.g. 1,2,4")
    sp.add_argument("--random-size", type=int, default=None, help="|T| for a seeded random T")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grow", action="store_true", help="take T from a growth run")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--beta", type=rational, default=Fraction(1, 4))
    sp.add_argument("--u", type=int, default=None)
    sp.add_argument("--J", type=int, default=None, help="covering count exponent")
    sp.add_argument("--auto-J", action="store_true", help="derive J from the size of T")
    sp.add_argument("--min-J", action="store_true", help="search for the minimal covering J")
    sp.add_argument("--min-J-cap", type=int, default=64)
    add_common(sp)

    sp = sub.add_parser("baseset", help="prime reciprocal-power base set")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--beta", type=rational, required=True)
    sp.add_argument("--u", type=int, default=None)
    sp.add_argument("--list-members", action="store_true")
    add_common(sp)

    sp = sub.add_parser("smoothset", help="smooth multiplicative set and its conditions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--epsilon", type=rational, default=None)
    sp.add_argument("--theta", type=rational, default=None)
    sp.add_argument("--list-members", action="store_true")
    add_common(sp)

    return parser


_HANDLERS = {
    "represent": _cmd_represent,
    "nmax": _cmd_nmax,
    "scan": _cmd_scan,
    "grow": _cmd_grow,
    "expsum": _cmd_expsum,
    "baseset": _cmd_baseset,
    "smoothset": _cmd_smoothset,
}


def _config_dict(args) -> dict:
    config = {key: value for key, value in vars(args).items() if key != "output"}
    if args.command == "scan":
        config["primes"] = "{}..{}".format(*args.primes)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.format == "csv" and args.command != "scan":
        sys.stderr.write("error: --format csv is only supported by scan\n")
        return 2
    if getattr(args, "oracle", False) and args.p > _ORACLE_PRIME_LIMIT:
        sys.stderr.write(f"error: --oracle refuses primes above {_ORACLE_PRIME_LIMIT}\n")
        return 2

    try:  # before any work, so an unwritable path is a usage error
        output = open(args.output, "w", encoding="utf-8", newline="") if args.output else None
    except OSError as exc:
        sys.stderr.write(f"error: cannot write --output: {exc}\n")
        return 2
    with output or contextlib.nullcontext(sys.stdout) as fh:
        return _run(args, fh)


def _run(args, fh) -> int:
    doc = {"version": __version__, "config": _config_dict(args)}
    try:
        result, diagnostics = _HANDLERS[args.command](args)
    except (Error, ValueError, OverflowError, RuntimeError, MemoryError) as exc:
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit(doc, fh)
        return 1
    if args.format == "csv":
        _write_csv(result, fh)
        return 0
    doc.update(result=result, diagnostics=diagnostics)
    if args.format == "text":
        fh.write(_render_text(doc))
    else:
        _emit(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
