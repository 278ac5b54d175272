"""Command line front end: verify sweeps, single computations, brute-force oracle.

Exit codes: 0 all checks passed, 1 at least one failed, hit a p-adic pole or
raised an error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from datetime import datetime, timezone

from . import cache as cache_store
from . import identities
from .identities import ERROR, FAILED, NOT_P_INTEGRAL, identity_ids, sweep
from .modular import is_prime
from .permutations import profile
from .sequences import (
    MINUS_HALF,
    PLUS_HALF,
    bernoulli,
    bernoulli_table,
    even_ascent_count,
    even_ascent_count_mod,
    eulerian,
    eulerian_mod,
    fermat_quotient_2,
    gen_harmonic,
    weighted_convolution,
)

__all__ = ["main"]

_STATUS_ORDER = ("verified", "failed", "inapplicable", "not_p_integral",
                 "error")


def _prime_range(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.partition("..")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI, got {text!r}"
        ) from None
    if lo < 5:
        raise argparse.ArgumentTypeError("range must start at 5 or above")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    return value


def _load_cache(path: str, convention: str) -> int:
    """Advisory read: a missing or bad cache never stops a run.

    Returns how many entries the file holds; an unusable file holds none.
    """
    try:
        loaded = cache_store.load(path, convention=convention)
    except FileNotFoundError:
        return 0
    except (cache_store.CorruptCache, cache_store.ConventionMismatch,
            OSError) as exc:
        print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
        return 0
    bernoulli_table(convention).merge(loaded)
    return loaded.max_index + 1


def _save_cache(path: str, convention: str, cached: int) -> None:
    """Write the table back only if it now holds more than the file did."""
    table = bernoulli_table(convention)
    if table.max_index + 1 <= cached:
        return
    try:
        cache_store.save(table, path)
    except OSError as exc:
        print(f"warning: could not write cache {path}: {exc}",
              file=sys.stderr)


def _fmt_value(value, modulus: int | None) -> str | int | None:
    """A residue stays an integer; an exact value is written as a string."""
    if value is None or modulus is not None:
        return value
    return str(value)


def _params_text(params: dict[str, int]) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


_COLUMNS = ("identity", "params", "modulus", "lhs", "rhs", "status")
_TIMED_COLUMNS = _COLUMNS + ("elapsed_ms", "timestamp")


def _report_row(r, with_times: bool) -> dict:
    """The fields of one report in column order, for either output format."""
    values = [r.identity, dict(r.params), r.modulus,
              _fmt_value(r.lhs, r.modulus), _fmt_value(r.rhs, r.modulus),
              r.status]
    if with_times:
        values += [round(r.elapsed * 1000.0, 3),
                   datetime.now(timezone.utc).isoformat()]
    return dict(zip(_TIMED_COLUMNS, values))


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, dict):
        return _params_text(value)
    return str(value)


def _write_reports(reports, out, fmt: str, with_times: bool) -> None:
    rows = (_report_row(r, with_times) for r in reports)
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row) + "\n")
        return
    out.write(",".join(_TIMED_COLUMNS if with_times else _COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_csv_field(v) for v in row.values()) + "\n")


def _cmd_verify(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    lo, hi = args.primes
    try:
        # opened before the sweep, so an unwritable path costs no work
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    if args.cache:
        cached = _load_cache(args.cache, MINUS_HALF)
    selected = args.identity if args.identity else "all"
    with out as stream:
        reports = sweep(selected, lo, hi, jobs=args.jobs,
                        modulus_override=args.modulus)
        if args.cache:
            # pool workers grew their own tables, not this one: grow it as
            # far, so the file holds every entry the workers read
            bernoulli(identities._pool_table_top)
            _save_cache(args.cache, MINUS_HALF, cached)
        if args.verbose:
            for r in reports:
                print(f"{r.identity} {_params_text(r.params)} {r.status}",
                      file=sys.stderr)
        _write_reports(reports, stream, args.format, not args.no_timestamps)
    counts = {status: 0 for status in _STATUS_ORDER}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{counts[s]} {s}" for s in _STATUS_ORDER)
    print(f"checked {len(reports)} points: {summary}", file=sys.stderr)
    bad = counts[FAILED] + counts[NOT_P_INTEGRAL] + counts[ERROR]
    return 1 if bad else 0


def _require_prime(parser, p: int, minimum: int = 5) -> None:
    if p < minimum or not is_prime(p):
        parser.error(f"p must be a prime >= {minimum}, got {p}")


def _cmd_compute(args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> int:
    what = args.what
    try:
        if what == "bernoulli":
            if args.n < 0:
                parser.error("n must be >= 0")
            if args.cache:
                cached = _load_cache(args.cache, args.convention)
            print(bernoulli(args.n, convention=args.convention))
            if args.cache:
                _save_cache(args.cache, args.convention, cached)
        elif what == "eulerian":
            if args.n < 0 or args.m < 0:
                parser.error("n and m must be >= 0")
            if args.p is not None:
                _require_prime(parser, args.p, minimum=2)
                print(eulerian_mod(args.n, args.m, args.p, args.k))
            else:
                print(eulerian(args.n, args.m))
        elif what == "harmonic":
            if args.n < 0:
                parser.error("n must be >= 0")
            print(gen_harmonic(args.n, args.order))
        elif what == "nk":
            if args.p is not None:
                _require_prime(parser, args.p)
                print(even_ascent_count_mod(args.p, args.k))
            elif args.n is None:
                parser.error("give N for the exact count or --p for a residue")
            else:
                if args.n < 1:
                    parser.error("N must be >= 1")
                print(even_ascent_count(args.n))
        elif what == "q2":
            _require_prime(parser, args.p, minimum=3)
            print(fermat_quotient_2(args.p))
        elif what == "conv":
            _require_prime(parser, args.p)
            print(weighted_convolution(args.p, args.a))
    except ValueError as exc:
        parser.error(str(exc))
    return 0


def _cmd_oracle(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    try:
        prof = profile(args.n)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"n = {prof.n}")
    print("eulerian row:", " ".join(str(v) for v in prof.eulerian_row))
    print("even-ascent total:", prof.even_ascent_total)
    print("alternating total:", prof.alternating_total)
    expected_row = tuple(eulerian(prof.n, m) for m in range(prof.n))
    agree = (prof.eulerian_row == expected_row
             and prof.even_ascent_total == even_ascent_count(prof.n))
    if agree:
        print("agreement OK")
        return 0
    print("agreement FAILED: recurrence path disagrees with enumeration",
          file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernmod",
        description="Exact Bernoulli, Eulerian and harmonic computations "
                    "with congruence verification over prime sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="sweep identities over a prime range")
    verify.add_argument("--primes", type=_prime_range, required=True,
                        metavar="LO..HI",
                        help="inclusive prime search range, LO >= 5")
    verify.add_argument("--identity", action="append",
                        choices=["all"] + identity_ids(), metavar="ID",
                        help="identity to check (repeatable, default all)")
    verify.add_argument("--modulus", type=_positive_int, default=None,
                        metavar="K",
                        help="override the prime-power exponent")
    verify.add_argument("--format", choices=["json", "csv"], default="json")
    verify.add_argument("--out", metavar="PATH",
                        help="write results here instead of stdout")
    verify.add_argument("--cache", metavar="PATH",
                        default=os.environ.get("BERNMOD_CACHE"),
                        help="Bernoulli cache file (default $BERNMOD_CACHE)")
    verify.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the sweep")
    verify.add_argument("--no-timestamps", action="store_true",
                        help="omit timestamp and elapsed_ms for "
                             "reproducible output")
    verify.add_argument("-v", "--verbose", action="store_true",
                        help="echo each check to stderr")
    verify.set_defaults(func=_cmd_verify)

    compute = sub.add_parser("compute", help="print one value exactly")
    csub = compute.add_subparsers(dest="what", required=True)

    c_bern = csub.add_parser("bernoulli", help="Bernoulli number B_n")
    c_bern.add_argument("n", type=int)
    c_bern.add_argument("--convention", choices=[MINUS_HALF, PLUS_HALF],
                        default=MINUS_HALF)
    c_bern.add_argument("--cache", metavar="PATH",
                        default=os.environ.get("BERNMOD_CACHE"))

    c_eul = csub.add_parser("eulerian", help="Eulerian number E(n, m)")
    c_eul.add_argument("n", type=int)
    c_eul.add_argument("m", type=int)
    c_eul.add_argument("--p", type=int, help="reduce mod a prime power")
    c_eul.add_argument("--k", type=int, default=1)

    c_harm = csub.add_parser("harmonic", help="harmonic number H_n^(r)")
    c_harm.add_argument("n", type=int)
    c_harm.add_argument("--order", type=int, default=1, metavar="R")

    c_nk = csub.add_parser(
        "nk", help="even-ascent permutation count N_n, exact or mod p^k")
    c_nk.add_argument("n", type=int, nargs="?")
    c_nk.add_argument("--p", type=int,
                      help="compute N_{p-2} mod p^k instead")
    c_nk.add_argument("--k", type=int, default=1)

    c_q2 = csub.add_parser("q2", help="Fermat quotient (2^(p-1) - 1)/p")
    c_q2.add_argument("p", type=int)

    c_conv = csub.add_parser(
        "conv", help="order-(p-1) convolution of a^-j-weighted Bernoullis")
    c_conv.add_argument("--p", type=int, required=True)
    c_conv.add_argument("--a", type=int, default=2)

    compute.set_defaults(func=_cmd_compute)

    oracle = sub.add_parser(
        "oracle",
        help="brute-force permutation statistics for small n, cross-checked")
    oracle.add_argument("n", type=int)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # every number converted here was computed or validated here
    with cache_store.unlimited_int_digits():
        return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
