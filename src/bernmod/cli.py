"""Command line front end: verify sweeps, single computations, brute-force oracle.

Exit codes: 0 all checks passed, 1 at least one failed, hit a p-adic pole or
raised an error, or a write failed (one `<command>: error:` line, as on a
full device), 2 usage error, named by the command's own usage line, 141
(128 + SIGPIPE) the reader closed the output pipe before the last row, as in
`bernmod verify ... | head -1`, 143 (128 + SIGTERM) the run was terminated;
on each the spool directory is removed and no --jobs child is left running.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack, nullcontext
from functools import partial

from . import cache as cache_store
from .identities import (ERROR, FAILED, INAPPLICABLE, NOT_P_INTEGRAL, VERIFIED,
                         identity_ids, sweep)
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
    set_bernoulli_table,
    weighted_convolution,
)

__all__ = ["main"]

_STATUS_ORDER = (VERIFIED, FAILED, INAPPLICABLE, NOT_P_INTEGRAL, ERROR)


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


def _load_cache(path: str) -> int:
    """Advisory read: a missing or bad cache never stops a run, and a good
    one becomes this process's table.

    Returns how many entries the file holds; an unusable file holds none.
    """
    try:
        loaded = cache_store.load(path)
    except FileNotFoundError:
        return 0
    except (cache_store.CorruptCache, OSError) as exc:
        print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
        return 0
    set_bernoulli_table(loaded)
    return loaded.max_index + 1


def _save_cache(path: str, cached: int) -> None:
    """Write the table back only if it now holds more than the file did."""
    table = bernoulli_table()
    if table.max_index + 1 <= cached:
        return
    try:
        cache_store.save(table, path)
    except OSError as exc:
        print(f"warning: could not write cache {path}: {exc}",
              file=sys.stderr)


_COLUMNS = ("identity", "params", "modulus", "lhs", "rhs", "status")
_TIMED_COLUMNS = _COLUMNS + ("elapsed_ms", "timestamp")


def _timestamp() -> str:
    """The time now in UTC, ISO format, for a row's timestamp field; datetime
    is imported here, so a run without the time fields never loads it."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _render(chunk, fmt: str, with_times: bool,
            verbose: bool) -> tuple[str, str, Counter]:
    """One chunk as its output rows, its -v echo lines (empty without -v)
    and the count of each status; run in the sweep's batches, so a
    timestamp records when its point's batch was checked.

    A chunk holds the points of one identity at one prime, or of one
    index-parameterized identity.  Its rows come from two %-templates, with
    values and without, that hold the identity, p and the modulus; a row
    fills in the rest from the chunk's lists.  Ids, parameter names,
    statuses, Fraction strings and ISO timestamps need no JSON escaping, so
    a template gives the bytes json.dumps would.  A residue is a JSON
    integer, an exact value a string.
    """
    names, modulus = chunk.params, chunk.modulus
    fixed = int(len(names) > 1 and names[0] == "p")
    params = [(k, v if i < fixed else "%s")
              for i, (k, v) in enumerate(zip(names, chunk.points[0]))]
    if fmt == "json":
        head = (f'{{"identity": "{chunk.identity}", "params": {{'
                + ", ".join(f'"{k}": {v}' for k, v in params) + "}, ")
        value = "%s" if modulus else '"%s"'
        valued = (f'{head}"modulus": {modulus or "null"}, "lhs": {value}, '
                  f'"rhs": {value}, "status": "%s"')
        empty = head + '"modulus": null, "lhs": null, "rhs": null, ' \
            '"status": "%s"'
        tail = ', "elapsed_ms": %r, "timestamp": "%s"}\n' if with_times \
            else "}\n"
    else:
        head = f"{chunk.identity},{';'.join(f'{k}={v}' for k, v in params)},"
        valued, empty = f'{head}{modulus or ""},%s,%s,%s', head + ",,,%s"
        tail = ",%r,%s\n" if with_times else "\n"
    valued, empty = valued + tail, empty + tail
    times = (round(chunk.elapsed * 1000.0, 3),
             _timestamp()) if with_times else ()
    rows = "".join([
        empty % (*point[fixed:], status, *times) if lhs is None
        else valued % (*point[fixed:], lhs, rhs, status, *times)
        for point, lhs, rhs, status in zip(
            chunk.points, chunk.lhs, chunk.rhs, chunk.status)])
    echo = "".join(
        f"{chunk.identity} {';'.join(f'{k}={v}' for k, v in zip(names, pt))}"
        f" {status}\n" for pt, status in zip(chunk.points, chunk.status)
    ) if verbose else ""
    return rows, echo, Counter(chunk.status)


def _spool_batch(chunks, directory: str, fmt: str, with_times: bool,
                 verbose: bool) -> list[tuple[str, int, int, int, Counter]]:
    """Render a batch's chunks and append each one's rows, then its -v echo,
    to this process's spool file in directory, open for this batch alone.
    Returns per chunk where they lie, (file name, offset, rows length, echo
    length), and its status counts: all a batch sends back, so no rendered
    text outlives the batch in memory, and no file of this process is open
    when it forks a child."""
    name = str(os.getpid())
    records = []
    with open(os.path.join(directory, name), "ab") as spool:
        for chunk in chunks:
            rows, echo, counts = _render(chunk, fmt, with_times, verbose)
            records.append((name, spool.tell(), len(rows), len(echo), counts))
            # ASCII, so each length in characters is the length in bytes
            spool.write((rows + echo).encode("ascii"))
    return records


def _copy_ranges(directory: str, ranges, stream) -> None:
    """Write the (spool file name, offset, length) byte ranges to a binary
    stream, in order."""
    with ExitStack() as files:
        opened = {}
        for name, offset, length in ranges:
            if name not in opened:
                opened[name] = files.enter_context(
                    open(os.path.join(directory, name), "rb"))
            spool = opened[name]
            spool.seek(offset)
            stream.write(spool.read(length))


def _byte_stream(stream):
    """The binary stream under a text stream, after what the text holds."""
    stream.flush()
    return stream.buffer


def _cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.primes
    # each process appends its rendered chunks to a file in a directory
    # made here before the sweep, as --out is opened, so a failure costs no
    # work; in $TMPDIR as set, which tempfile would pass over if unwritable
    tmp = os.environ.get("TMPDIR") or tempfile.gettempdir()
    try:
        spool = tempfile.TemporaryDirectory(prefix="bernmod-", dir=tmp)
    except OSError as exc:
        args.parser.error(f"cannot make a spool directory in {tmp}: "
                          f"{exc.strerror}")
    with spool as directory:
        try:
            out = (open(args.out, "wb") if args.out
                   else nullcontext(_byte_stream(sys.stdout)))
        except OSError as exc:
            args.parser.error(f"cannot write --out {args.out}: {exc.strerror}")
        with out as stream:
            if args.cache:
                cached = _load_cache(args.cache)
            selected = args.identity if args.identity else "all"
            render = partial(_spool_batch, directory=directory,
                             fmt=args.format,
                             with_times=not args.no_timestamps,
                             verbose=args.verbose)
            records = [record for _, record in sweep(
                selected, lo, hi, jobs=args.jobs,
                modulus_override=args.modulus, render=render)]
            if args.cache:
                _save_cache(args.cache, cached)
            if args.verbose:
                _copy_ranges(directory, [(name, at + rows, echo) for
                                         name, at, rows, echo, _ in records],
                             _byte_stream(sys.stderr))
            if args.format == "csv":
                columns = _COLUMNS if args.no_timestamps else _TIMED_COLUMNS
                stream.write((",".join(columns) + "\n").encode())
            _copy_ranges(directory, [(name, at, rows) for
                                     name, at, rows, _, _ in records], stream)
            # a full device fails here, before the summary, not at exit
            stream.flush()
    counts = Counter()
    for *_, chunk_counts in records:
        counts.update(chunk_counts)
    summary = ", ".join(f"{counts[s]} {s}" for s in _STATUS_ORDER)
    print(f"checked {counts.total()} points: {summary}", file=sys.stderr)
    bad = counts[FAILED] + counts[NOT_P_INTEGRAL] + counts[ERROR]
    return 1 if bad else 0


def _cmd_bernoulli(args: argparse.Namespace) -> None:
    cached = _load_cache(args.cache) if args.cache else 0
    print(bernoulli(args.n, convention=args.convention))
    if args.cache:
        _save_cache(args.cache, cached)


def _cmd_eulerian(args: argparse.Namespace) -> None:
    # --k is the exponent of the modulus p^k, so it means nothing alone
    if args.k is not None and args.p is None:
        args.parser.error("--k needs --p")
    if args.m < 0:  # eulerian(n, -1) is 0
        args.parser.error("m must be >= 0")
    k = 1 if args.k is None else args.k
    print(eulerian(args.n, args.m) if args.p is None
          else eulerian_mod(args.n, args.m, args.p, k))


def _cmd_harmonic(args: argparse.Namespace) -> None:
    print(gen_harmonic(args.n, args.order))


def _cmd_nk(args: argparse.Namespace) -> None:
    if args.k is not None and args.p is None:  # --k is the exponent of p^k
        args.parser.error("--k needs --p")
    k = 1 if args.k is None else args.k
    print(even_ascent_count(args.n) if args.p is None
          else even_ascent_count_mod(args.p, k))


def _cmd_q2(args: argparse.Namespace) -> None:
    print(fermat_quotient_2(args.p))


def _cmd_conv(args: argparse.Namespace) -> None:
    print(weighted_convolution(args.p, args.a))


def _cmd_oracle(args: argparse.Namespace) -> int:
    prof = profile(args.n)
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
                        help="processes that check points, this one "
                             "included (default 1)")
    verify.add_argument("--no-timestamps", action="store_true",
                        help="omit timestamp and elapsed_ms for "
                             "reproducible output")
    verify.add_argument("-v", "--verbose", action="store_true",
                        help="echo each check to stderr")
    verify.set_defaults(func=_cmd_verify, parser=verify)

    compute = sub.add_parser("compute", help="print one value exactly")
    csub = compute.add_subparsers(dest="what", required=True)

    c_bern = csub.add_parser("bernoulli", help="Bernoulli number B_n")
    c_bern.set_defaults(func=_cmd_bernoulli, parser=c_bern)
    c_bern.add_argument("n", type=int)
    c_bern.add_argument("--convention", choices=[MINUS_HALF, PLUS_HALF],
                        default=MINUS_HALF,
                        help="sign of B_1; both read one table")
    c_bern.add_argument("--cache", metavar="PATH",
                        default=os.environ.get("BERNMOD_CACHE"),
                        help="Bernoulli cache file (default $BERNMOD_CACHE)")

    c_eul = csub.add_parser("eulerian", help="Eulerian number E(n, m)")
    c_eul.set_defaults(func=_cmd_eulerian, parser=c_eul)
    c_eul.add_argument("n", type=int)
    c_eul.add_argument("m", type=int)
    c_eul.add_argument("--p", type=int, help="reduce mod a prime power")
    c_eul.add_argument("--k", type=int,
                       help="exponent of the modulus p^k (default 1)")

    c_harm = csub.add_parser("harmonic", help="harmonic number H_n^(r)")
    c_harm.set_defaults(func=_cmd_harmonic, parser=c_harm)
    c_harm.add_argument("n", type=int)
    c_harm.add_argument("--order", type=int, default=1, metavar="R")

    c_nk = csub.add_parser(
        "nk", help="even-ascent permutation count N_n, exact or mod p^k")
    c_nk.set_defaults(func=_cmd_nk, parser=c_nk)
    n_or_p = c_nk.add_mutually_exclusive_group(required=True)
    n_or_p.add_argument("n", type=int, nargs="?")
    n_or_p.add_argument("--p", type=int,
                        help="compute N_{p-2} mod p^k instead")
    c_nk.add_argument("--k", type=int,
                      help="exponent of the modulus p^k (default 1)")

    c_q2 = csub.add_parser("q2", help="Fermat quotient (2^(p-1) - 1)/p")
    c_q2.set_defaults(func=_cmd_q2, parser=c_q2)
    c_q2.add_argument("p", type=int)

    c_conv = csub.add_parser(
        "conv", help="order-(p-1) convolution of a^-j-weighted Bernoullis")
    c_conv.set_defaults(func=_cmd_conv, parser=c_conv)
    c_conv.add_argument("--p", type=int, required=True)
    c_conv.add_argument("--a", type=int, default=2)

    oracle = sub.add_parser(
        "oracle",
        help="brute-force permutation statistics for small n, cross-checked")
    oracle.add_argument("n", type=int)
    oracle.set_defaults(func=_cmd_oracle, parser=oracle)

    return parser


def _exit_on_sigterm(signum: int, frame) -> None:
    """SIGTERM as SystemExit(143), which unwinds through the blocks that
    remove the spool and kill the --jobs children (a forked child inherits
    it, so one signalled with its group exits 143 too).  Any further
    SIGTERM, such as the second one timeout(1) sends to its process group,
    is ignored, so it cannot cut that unwinding short."""
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        # every number converted here was computed or validated here
        with cache_store.unlimited_int_digits():
            status = args.func(args) or 0
        # buffered output meets a full device here, not at shutdown
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout goes nowhere from here on, so the flush at shutdown finds
        # no closed pipe to complain about
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a write failed: a full device, say
        print(f"{args.parser.prog}: error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        if args.command == "verify":  # a fault, not a refused value
            raise
        args.parser.error(str(exc))
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
