"""Traced in-process run of `bernmod verify`, and the per-layer figures.

Run as a script in a fresh interpreter (so every module-level cache in
bernmod starts cold) with `src` on PYTHONPATH:

    python perfbench/tracer.py --result R.json [--spans] --out OUT -- VERIFY_ARGS

It imports `bernmod.cli`, optionally wraps the public entry points of each
layer in spans, calls `cli.main(["verify", *VERIFY_ARGS])` with stdout sent
to OUT, and only then writes the spans and counters it kept in memory to R.
Spans sit in the benchmark's own code, around calls into the package; the
package itself is not changed.  `layer_metrics` turns R into the per-layer
metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

# (name, start, end, parent index); parent -1 marks a root span
_SPANS: list = []
_STACK: list[int] = []
_COUNTERS = {"modular.reduce_calls": 0, "modular.reduce_input_bits": 0}


def _span(name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = len(_SPANS)
        _SPANS.append(None)
        parent = _STACK[-1] if _STACK else -1
        _STACK.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _SPANS[idx] = (name, start, time.perf_counter(), parent)
            _STACK.pop()
    return wrapped


def _counted_reduce(fn):
    @functools.wraps(fn)
    def wrapped(x, *args, **kwargs):
        f = Fraction(x)
        _COUNTERS["modular.reduce_calls"] += 1
        _COUNTERS["modular.reduce_input_bits"] += (
            f.numerator.bit_length() + f.denominator.bit_length())
        return fn(x, *args, **kwargs)
    return wrapped


def _install(cli) -> None:
    """Wrap each layer's entry points where the package looks them up."""
    from bernmod import cache, identities, modular, sequences

    cli.sweep = _span("identities.sweep", cli.sweep)
    identities._check_batch = _span("identities.batch",
                                    identities._check_batch)
    identities.get_prime_context = _span("sequences.prime_context",
                                         identities.get_prime_context)
    ctx_cls = sequences.PrimeContext
    ctx_cls.even_ascent_residue = _span("sequences.even_ascent",
                                        ctx_cls.even_ascent_residue)
    table_cls = sequences.BernoulliTable
    table_cls._extend = _span("sequences.bernoulli_table", table_cls._extend)
    reduce = _span("modular.reduce", _counted_reduce(modular.mod_reduce))
    identities.mod_reduce = reduce
    modular.mod_reduce = reduce  # hensel_digit looks it up here
    cache.load = _span("cache.load", cache.load)
    cache.save = _span("cache.save", cache.save)
    for ident, desc in identities._CATALOG.items():
        identities._CATALOG[ident] = dataclasses.replace(
            desc,
            lhs=_span(f"identities.{ident}.lhs", desc.lhs),
            rhs=_span(f"identities.{ident}.rhs", desc.rhs),
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("verify_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = [a for a in args.verify_args if a != "--"]

    start = time.perf_counter()
    import bernmod.cli as cli
    from bernmod.sequences import bernoulli_table
    import_s = time.perf_counter() - start
    main_fn = cli.main
    if args.spans:
        _install(cli)
        main_fn = _span("cli.main", cli.main)
    with open(args.out, "w") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            code = main_fn(["verify", *argv])
        finally:
            sys.stdout = saved
    wall_s = time.perf_counter() - _T0

    _COUNTERS["sequences.bernoulli_max_index"] = bernoulli_table().max_index
    with open(args.result, "w") as handle:
        json.dump({"exit": code, "import_s": import_s, "wall_s": wall_s,
                   "counters": _COUNTERS, "spans": _SPANS}, handle)
    return code


# ---------------------------------------------------------------------------
# aggregation, used by run.py

# (name, unit) of every per-layer metric but the per-identity ones
SCALAR_LAYERS = (
    ("sequences.bernoulli_table_s", "s"),
    ("sequences.bernoulli_max_index", "count"),
    ("sequences.prime_context_s", "s"),
    ("sequences.even_ascent_s", "s"),
    ("identities.lhs_s", "s"),
    ("identities.rhs_s", "s"),
    ("identities.points", "count"),
    ("identities.batch_max_s", "s"),
    ("identities.pool_overhead_s", "s"),
    ("modular.reduce_s", "s"),
    ("modular.reduce_calls", "count"),
    ("modular.reduce_input_bits", "bits"),
    ("cache.load_s", "s"),
    ("cache.save_s", "s"),
    ("cache.file_bytes", "bytes"),
    ("cli.import_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_share", "ratio"),
)

# spans that only dispatch to the layers below them; their self time is
# bookkeeping, not a layer's work
_DISPATCH_SPANS = ("cli.main", "identities.sweep", "identities.batch")


def per_layer_names(identity_ids: list[str]) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in BENCHMARK.json's order."""
    names = list(SCALAR_LAYERS)
    for ident in identity_ids:
        names.append((f"identities.{ident}.lhs_s", "s"))
        names.append((f"identities.{ident}.rhs_s", "s"))
    return names


def _totals(spans: list) -> tuple[dict, dict, list[float]]:
    """Total and self time per span name, and each batch's duration."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    batches = []
    for name, start, end, parent in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur
        if parent >= 0:
            pname = spans[parent][0]
            self_time[pname] = self_time.get(pname, 0.0) - dur
        if name == "identities.batch":
            batches.append(dur)
    return total, self_time, batches


def layer_metrics(traced: dict, untraced: dict, serial: dict | None,
                  jobs: int, identity_ids: list[str], report_bytes: int,
                  cache_bytes: int, points: int) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    `untraced` is the same run with no spans, for the overhead.  For a
    parallel workload the spans inside worker processes are lost, so
    `serial` is a traced --jobs 1 run of the same sweep: the layer times
    inside the sweep come from it, and the pool overhead is the parallel
    sweep's wall time minus the serial batch times divided by the jobs.
    """
    total, _, _ = _totals(traced["spans"])
    inner = serial if serial is not None else traced
    in_total, in_self, batches = _totals(inner["spans"])
    counters = inner["counters"]
    lhs = {i: in_total.get(f"identities.{i}.lhs", 0.0) for i in identity_ids}
    rhs = {i: in_total.get(f"identities.{i}.rhs", 0.0) for i in identity_ids}
    sweep_s = total.get("identities.sweep", 0.0)
    pool = sweep_s - sum(batches) / jobs if serial is not None else 0.0
    layer_self = sum(v for k, v in in_self.items() if k not in _DISPATCH_SPANS)
    metrics = {
        "sequences.bernoulli_table_s": total.get("sequences.bernoulli_table",
                                                 0.0),
        "sequences.bernoulli_max_index":
            traced["counters"]["sequences.bernoulli_max_index"],
        "sequences.prime_context_s": in_total.get("sequences.prime_context",
                                                  0.0),
        "sequences.even_ascent_s": in_total.get("sequences.even_ascent", 0.0),
        "identities.lhs_s": sum(lhs.values()),
        "identities.rhs_s": sum(rhs.values()),
        "identities.points": points,
        "identities.batch_max_s": max(batches, default=0.0),
        "identities.pool_overhead_s": pool,
        "modular.reduce_s": in_total.get("modular.reduce", 0.0),
        "modular.reduce_calls": counters["modular.reduce_calls"],
        "modular.reduce_input_bits": counters["modular.reduce_input_bits"],
        "cache.load_s": total.get("cache.load", 0.0),
        "cache.save_s": total.get("cache.save", 0.0),
        "cache.file_bytes": cache_bytes,
        "cli.import_s": traced["import_s"],
        "cli.overhead_s": total.get("cli.main", 0.0) - sweep_s,
        "cli.report_bytes": report_bytes,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        "trace.layer_share": (inner["import_s"] + layer_self)
                             / inner["wall_s"],
    }
    for ident in identity_ids:
        metrics[f"identities.{ident}.lhs_s"] = lhs[ident]
        metrics[f"identities.{ident}.rhs_s"] = rhs[ident]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
