"""Run one recipsums CLI command with spans recorded from outside the program.

Usage: python tracer.py SPAN_DIR CLI_ARG...

The program is imported from PYTHONPATH and left unmodified on disk. Every
public function of its layer modules is replaced, in every module namespace
that binds it (the package re-binds names with ``from .x import y``), by a
wrapper that records a span: name, start, end, parent and a few attributes
read from the arguments and the result. The tiny hot functions become
counters on the enclosing span instead of spans of their own. The command
then runs through ``recipsums.cli.main`` inside a ``cli.main`` span.

Spans go to SPAN_DIR/spans-<pid>.jsonl, one JSON list per line:
``[id, parent, name, pid, start, end, attrs, counters, hot_s]`` where
``counters`` maps a hot function to ``[calls, seconds, extra]`` and
``hot_s`` is the time spent in outermost hot calls. Pool workers are forked
with the wrappers in place but leave through ``os._exit``, so they write
their own spans each time their stack returns to its root.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

perf = time.perf_counter

LAYER_MODULES = ("intmath", "field", "sets", "basesets", "convolve", "growth", "expsums", "represent")
# xgcd is reached only through inv_mod; field.recip_power only delegates
# to PrimeField.recip_power, which is counted.
SKIP = {"intmath.xgcd", "field.recip_power"}
# Naive/convolution threshold of growth.sumset when the module names none.
DEFAULT_NAIVE_PAIR_LIMIT = 1 << 12


class Tracer:
    """Span stack and finished spans of one process."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.next_id = 0
        self.root = None
        self.stack: list[list] = []
        self.done: list[list] = []
        self.hot_depth = 0
        self.seen_recips: set = set()
        self.product_ps: set = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def open(self, name: str) -> list:
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        span = [f"{self.pid}.{self.next_id}", parent, name, self.pid, perf(), None, {}, {}, 0.0]
        self.stack.append(span)
        return span

    def close(self, span: list, end: float | None = None) -> None:
        span[5] = perf() if end is None else end
        self.stack.pop()
        self.done.append(span)
        if self.root is not None and len(self.stack) == 1:
            self.flush()

    def _after_fork(self) -> None:
        # The worker inherits the parent's open spans; its own work hangs
        # under one "pool.worker" span that it rewrites on every flush.
        parent = self.stack[-1][0] if self.stack else None
        self.pid = os.getpid()
        self.next_id = 0
        self.done = []
        self.stack = []
        self.hot_depth = 0
        self.seen_recips = set()
        self.product_ps = set()
        self.root = self.open("pool.worker")
        self.root[1] = parent

    def flush(self) -> None:
        records = self.done
        if self.root is not None:
            self.root[5] = perf()
            records = records + [self.root]
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in records:
                fh.write(json.dumps(span) + "\n")
        self.done = []


# ---------------------------------------------------------------------------
# attributes read from arguments and results; any failure leaves them out


def _build_layer_table_pre(fn, args):
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _build_layer_table(args, result, pre, fn):
    info = getattr(fn, "cache_info", None)
    miss = pre is None or info().misses > pre
    layers = len(getattr(result, "layers", ())) if miss else 0
    return {"miss": miss, "layers": layers, "p": args[0].field.p}


def _min_terms(args, result, pre, fn):
    admissible = args[1].admissible
    return {"n": len(result.xs), "probes": sum(admissible.index(x) + 1 for x in result.xs)}


def _cyclic_convolve_exact(args, result, pre, fn):
    a, b, n = args
    return {"n": n, "bits": (n * max(a, default=0) * max(b, default=0)).bit_length()}


def _above_naive_limit(args) -> bool:
    limit = getattr(sys.modules["recipsums.growth"], "_NAIVE_PAIR_LIMIT", DEFAULT_NAIVE_PAIR_LIMIT)
    return args[0].card * args[1].card > limit


ATTRS = {
    "represent.build_layer_table": (_build_layer_table_pre, _build_layer_table),
    "represent.min_terms": (None, _min_terms),
    "represent.scan": (None, lambda args, result, pre, fn: {"primes": len(args[0])}),
    "convolve.cyclic_counts_01": (None, lambda args, result, pre, fn: {"n": args[2]}),
    "convolve.cyclic_convolve_exact": (None, _cyclic_convolve_exact),
    "growth.sumset": (None, lambda args, result, pre, fn: {"conv": _above_naive_limit(args)}),
    "growth.grow_step": (None, lambda args, result, pre, fn: {"op": result[1]}),
    "growth.grow_until": (None, lambda args, result, pre, fn: {"steps": len(result[1].steps)}),
    "basesets.build_prime_reciprocal_set": (
        None,
        lambda args, result, pre, fn: {"tuples": result[1].tuple_count},
    ),
    "expsums.covering_counts": (
        None,
        lambda args, result, pre, fn: {"bits": max(result.counts).bit_length()},
    ),
}


def span_wrapper(tr: Tracer, name: str, fn):
    pre_fn, post_fn = ATTRS.get(name, (None, None))
    is_product = name == "growth.productset"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        pre = _safe(pre_fn, fn, args) if pre_fn else None
        span = tr.open(name)
        if is_product and _safe(_above_naive_limit, args):
            # The first dense productset per p builds the discrete-log tables.
            p = args[0].field.p
            span[6]["first"] = p not in tr.product_ps
            tr.product_ps.add(p)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.close(span)
            raise
        end = perf()
        if post_fn:
            span[6].update(_safe(post_fn, args, result, pre, fn) or {})
        tr.close(span, end)
        return result

    return wrapped


def _safe(fn, *args):
    try:
        return fn(*args)
    except Exception:  # a renamed internal must not break the traced run
        return None


def counter_wrapper(tr: Tracer, name: str, fn, extra=None):
    """Count calls and time on the enclosing span; extra(args) adds to the third slot."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        top = tr.stack[-1]
        tr.hot_depth += 1
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            tr.hot_depth -= 1
            slot = top[7].get(name)
            if slot is None:
                slot = top[7][name] = [0, 0.0, 0]
            slot[0] += 1
            slot[1] += elapsed
            if extra is not None:
                slot[2] += _safe(extra, args) or 0
            if tr.hot_depth == 0:
                top[8] += elapsed

    return wrapped


def install(tr: Tracer) -> None:
    """Wrap the layer functions wherever recipsums binds them."""
    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules.get(f"recipsums.{short}")
        if module is None:
            continue
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (
                attr.startswith("_")
                or name in SKIP
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            if name in ("intmath.is_prime", "intmath.inv_mod"):
                wrappers[id(obj)] = (obj, counter_wrapper(tr, name, obj))
            else:
                wrappers[id(obj)] = (obj, span_wrapper(tr, name, obj))
    for module_name, module in list(sys.modules.items()):
        if module_name == "recipsums" or module_name.startswith("recipsums."):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    field_cls = getattr(sys.modules.get("recipsums.field"), "PrimeField", None)
    if field_cls is not None and hasattr(field_cls, "recip_power"):

        def repeat(args):
            key = (args[0].p, args[1], args[2])
            if key in tr.seen_recips:
                return 1
            tr.seen_recips.add(key)
            return 0

        field_cls.recip_power = counter_wrapper(tr, "field.recip_power", field_cls.recip_power, repeat)
    set_cls = getattr(sys.modules.get("recipsums.sets"), "ResidueSet", None)
    if set_cls is not None:
        set_cls.__init__ = counter_wrapper(
            tr, "sets.ResidueSet", set_cls.__init__, lambda args: args[1].p
        )


def main(argv: list[str]) -> int:
    span_dir, cli_args = argv[0], argv[1:]
    start = perf()
    import recipsums.cli

    import_s = perf() - start
    tr = Tracer(span_dir)
    install(tr)
    span = tr.open("cli.main")
    span[6]["import_s"] = import_s
    try:
        code = recipsums.cli.main(cli_args)
    finally:
        tr.close(span)
        tr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
