"""Command line behavior: output formats, exit codes, cache wiring."""
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bernmod.cli as cli
import bernmod.identities as idmod
from bernmod import sequences
from bernmod.cache import load, save, unlimited_int_digits
from bernmod.cli import main
from bernmod.sequences import BernoulliTable, bernoulli, fermat_quotient_2

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_WILSON_CSV = """\
identity,params,modulus,lhs,rhs,status
wilson,p=5,5,4,4,verified
wilson,p=7,7,6,6,verified
wilson,p=11,11,10,10,verified
wilson,p=13,13,12,12,verified
wilson,p=17,17,16,16,verified
wilson,p=19,19,18,18,verified
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_wilson_csv(capsys):
    code, out, err = run(
        ["verify", "--primes", "5..20", "--identity", "wilson",
         "--format", "csv", "--no-timestamps"], capsys)
    assert code == 0
    assert out == EXPECTED_WILSON_CSV
    assert "6 verified" in err


def test_verify_json_lines_shape(capsys):
    code, out, err = run(
        ["verify", "--primes", "5..11", "--identity", "result2"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["params"]["p"] for r in rows] == [5, 7, 11]
    for row in rows:
        assert set(row) == {"identity", "params", "modulus", "lhs", "rhs",
                            "status", "elapsed_ms", "timestamp"}
        assert row["status"] == "verified"
        assert row["lhs"] == row["rhs"]
        assert row["modulus"] == row["params"]["p"]


def test_no_timestamps_strips_volatile_fields(capsys):
    code, out, _ = run(
        ["verify", "--primes", "5..11", "--identity", "result2",
         "--no-timestamps"], capsys)
    assert code == 0
    for line in out.splitlines():
        row = json.loads(line)
        assert set(row) == {"identity", "params", "modulus", "lhs", "rhs",
                            "status"}


def test_no_timestamps_output_is_reproducible(capsys):
    argv = ["verify", "--primes", "5..23", "--identity", "lemma2",
            "--no-timestamps"]
    code_a, out_a, _ = run(argv, capsys)
    code_b, out_b, _ = run(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


# runs the command line under the start method named by the first argument
START_METHOD_MAIN = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from bernmod.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_jobs_do_not_change_output(capsys):
    base = ["verify", "--primes", "5..19", "--identity", "eisenstein",
            "--identity", "result4", "--no-timestamps"]
    _, serial, _ = run(base, capsys)
    _, parallel, _ = run(base + ["--jobs", "2"], capsys)
    assert serial == parallel
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for method in ("spawn", "forkserver"):
        proc = subprocess.run(
            [sys.executable, "-c", START_METHOD_MAIN, method, *base,
             "--jobs", "2"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == serial, method


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "reports.jsonl"
    code, out, _ = run(
        ["verify", "--primes", "5..7", "--identity", "wilson",
         "--out", str(target), "--no-timestamps"], capsys)
    assert code == 0
    assert out == ""
    rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert [r["params"]["p"] for r in rows] == [5, 7]


def test_verify_unwritable_out_exits_two_before_sweeping(
        tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("bernmod.cli.sweep",
                        lambda *args, **kwargs: calls.append(args))
    target = tmp_path / "missing" / "reports.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", "5..7", "--identity", "wilson",
              "--out", str(target)])
    assert exc.value.code == 2
    assert calls == []
    assert "cannot write --out" in capsys.readouterr().err
    assert not target.parent.exists()


def test_verify_unwritable_tmpdir_exits_two_before_sweeping(
        tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("bernmod.cli.sweep",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setenv("TMPDIR", str(tmp_path / "missing"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", "5..7", "--identity", "wilson"])
    assert exc.value.code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"bernmod: error: cannot make a spool directory in "
        f"{tmp_path / 'missing'}: No such file or directory"]


def _raise_at_11(side):
    def raising(ctx, p):
        if p == 11:
            raise KeyboardInterrupt
        return side(ctx, p)
    return raising


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", ["verified", "failed", "interrupted"])
def test_verify_leaves_no_spool(case, jobs, tmp_path, monkeypatch, capsys,
                                start_children_by):
    # the spool directory is made in $TMPDIR and removed on every exit
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    made = []
    if jobs == "1":  # a spy on a pool worker's chunks would not pickle
        real_spool_chunk = cli._spool_chunk

        def spool_chunk(chunk, directory, **kwargs):
            made.append(directory)
            return real_spool_chunk(chunk, directory, **kwargs)

        monkeypatch.setattr(cli, "_spool_chunk", spool_chunk)
    argv = ["verify", "--primes", "5..13", "--identity", "result4",
            "--no-timestamps", "--jobs", jobs]
    if case == "failed":  # N_9 differs from H_1 + ... + H_9 mod 121
        argv += ["--modulus", "2"]
    if case == "interrupted":
        desc = idmod._CATALOG["result4"]
        monkeypatch.setitem(idmod._CATALOG, "result4", dataclasses.replace(
            desc, lhs=_raise_at_11(desc.lhs)))
        # the patched catalog reaches a child only through fork; at
        # --jobs 2 p = 11 is in the child's stripe
        launched = start_children_by("fork")
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert launched == ["fork"] * (jobs == "2")
    else:
        code, out, _ = run(argv, capsys)
        assert code == (case == "failed")
        assert len(out.splitlines()) == 4
    if jobs == "1":
        assert made and {os.path.dirname(d) for d in made} == {str(tmp_path)}
    assert list(tmp_path.iterdir()) == []
    assert cli._spool is None


def test_interrupted_parallel_verify_does_not_wait_for_a_child(
        tmp_path, monkeypatch, start_children_by):
    # this process runs p = 13 first, then the lighter of the stripes
    # (11, 5) and (7); an interrupt in its stripe ends the run at once,
    # though the child's would take a minute, and leaves no child and no
    # spool
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    parent = os.getpid()
    desc = idmod._CATALOG["result4"]

    def lhs(ctx, p):
        if os.getpid() != parent:
            time.sleep(60)
        elif p < 13:
            raise KeyboardInterrupt
        return desc.lhs(ctx, p)

    monkeypatch.setitem(idmod._CATALOG, "result4",
                        dataclasses.replace(desc, lhs=lhs))
    launched = start_children_by("fork")
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--primes", "5..13", "--identity", "result4",
              "--no-timestamps", "--jobs", "2"])
    assert time.monotonic() - start < 20
    assert launched == ["fork"]
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_spawned_worker_renders_beyond_the_str_digit_limit(tmp_path):
    # 5^7000 and 7^7000 have 4893 and 5916 digits; under spawn a worker
    # starts with the interpreter's 4300-digit limit
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", START_METHOD_MAIN, "spawn", "verify",
         "--identity", "wilson", "--primes", "5..7", "--modulus", "7000",
         "--no-timestamps", "--jobs", "2"],
        capture_output=True, text=True, timeout=120, env=env)
    # Wilson's theorem holds mod p only: two failed points, exit 1
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    with unlimited_int_digits():
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["modulus"] for r in rows] == [5 ** 7000, 7 ** 7000]
    assert [r["rhs"] for r in rows] == [5 ** 7000 - 1, 7 ** 7000 - 1]
    assert list(tmp_path.iterdir()) == []


# SHA-256 of the stdout of `verify --identity all --primes 5..61
# --no-timestamps` (3503 points), which pins every field of every report, at
# the declared exponents and at --modulus 1 and 4, with the exit code
REPORT_DIGESTS = {
    (None, "json"): (
        "f3168a2e0c7118afbcddc8240b3fe386b4520a2806a4465f1abe6e5659f5fccb", 0),
    (None, "csv"): (
        "0e44d8e82b581cafc4787a6598130fa0526f1164f28a1521f7226e47a834e590", 0),
    ("1", "json"): (
        "2fb88a46045bbdf9d8c8759a9a6b9fc8d0e003d485f636e488c9f559ca371f68", 0),
    ("1", "csv"): (
        "6e30a378f626a8ae861b05bb558d226587911f53b04ef3966ee8964f75ecf8f5", 0),
    ("4", "json"): (
        "e4d33ffa562cff256b12b03240588a516718768d6efdc1a4213050080cf3f562", 1),
    ("4", "csv"): (
        "68c8acb4d6045e28d69c58b751f2f09dd18841f592b5f88a6129e4275304960e", 1),
}


@pytest.mark.parametrize("jobs, modulus", [
    pytest.param(jobs, modulus, id=jobs + (f"-modulus{modulus}" if modulus
                                           else ""))
    for modulus in (None, "1", "4") for jobs in ("1", "2")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_stream_is_pinned(fmt, jobs, modulus, capsys):
    override = ["--modulus", modulus] if modulus else []
    code, out, _ = run(
        ["verify", "--identity", "all", "--primes", "5..61",
         "--no-timestamps", "--jobs", jobs, "--format", fmt, *override],
        capsys)
    digest, exit_code = REPORT_DIGESTS[modulus, fmt]
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if fmt == "json":
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3503
        # a residue is a JSON integer, an exact value a string, and a point
        # outside its domain has no values
        kinds = {(r["modulus"] is None, type(r["lhs"]), type(r["rhs"]))
                 for r in rows}
        assert kinds == {(False, int, int), (True, str, str),
                         (True, type(None), type(None))}


def test_verify_modulus_override_failure_exits_one(capsys):
    code, out, err = run(
        ["verify", "--primes", "5..7", "--identity", "conv_order_p1",
         "--modulus", "2", "--no-timestamps"], capsys)
    assert code == 1
    statuses = [json.loads(line)["status"] for line in out.splitlines()]
    assert "failed" in statuses
    assert "failed" in err


def test_an_evaluator_that_raises_reports_error(monkeypatch, capsys):
    argv = ["verify", "--primes", "5..13", "--identity", "lemma2",
            "--identity", "wilson", "--no-timestamps"]
    _, clean, _ = run(argv, capsys)
    desc = idmod._CATALOG["lemma2"]

    # lemma2's lhs is a row evaluator: it raises for every m at p = 11
    def lhs(ctx, p, top):
        if p == 11:
            raise ZeroDivisionError("deliberate")
        return desc.lhs(ctx, p, top)

    monkeypatch.setitem(idmod._CATALOG, "lemma2",
                        dataclasses.replace(desc, lhs=lhs))
    code, out, err = run(argv, capsys)
    assert code == 1
    # the sweep finished and only the points of the raising row changed
    changed = [(a, b) for a, b in zip(clean.splitlines(), out.splitlines())
               if a != b]
    assert len(out.splitlines()) == len(clean.splitlines()) == 16
    assert [json.loads(b) for _, b in changed] == [
        {"identity": "lemma2", "params": {"p": 11, "m": m}, "modulus": None,
         "lhs": None, "rhs": None, "status": "error"} for m in range(1, 5)]
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == [
        f"error: lemma2 p=11;m={m}: ZeroDivisionError: deliberate"
        for m in range(1, 5)]
    assert lines[-1].endswith("0 not_p_integral, 4 error")


def test_verify_renders_the_rows_with_no_check_reports(monkeypatch, capsys):
    # the CLI renders each chunk's rows as they are; only the library's
    # check and sweep build reports, from the same chunks
    built = []

    class Counted(idmod.CheckReport):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(idmod, "CheckReport", Counted)
    code, out, _ = run(["verify", "--identity", "all", "--primes", "5..61",
                        "--no-timestamps"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3503
    assert built == []
    assert idmod.check("wilson", {"p": 7}).status == idmod.VERIFIED
    assert len(idmod.sweep("wilson", 5, 61)) == 16
    assert built == ["wilson"] * 17


def test_row_points_share_the_row_time(capsys):
    # a point checked in a row is timed as its share of the row: the time
    # of both rows and the comparisons, split evenly over the prime's points
    code, out, _ = run(["verify", "--primes", "5..31", "--identity",
                        "lemma2"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["elapsed_ms"] >= 0 for r in rows)
    by_prime = {}
    for r in rows:
        by_prime.setdefault(r["params"]["p"], set()).add(r["elapsed_ms"])
    assert sorted(by_prime) == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert all(len(times) == 1 for times in by_prime.values()), by_prime


# the whole stderr of a -v sweep: each point in report order, then the
# summary; the index-parameterized family is one chunk, the others one per
# prime
VERBOSE_STDERR = "".join(line + "\n" for line in [
    "conv_order_p1 p=5 failed",
    "conv_order_p1 p=7 failed",
    *(f"euler_tangent_relation n={n} verified" for n in range(1, 32, 2)),
    "lehmer_i p=5;k=2 verified",
    "lehmer_i p=5;k=3 inapplicable",
    "lehmer_i p=5;k=4 verified",
    "lehmer_i p=7;k=2 verified",
    "lehmer_i p=7;k=3 verified",
    "lehmer_i p=7;k=4 inapplicable",
    "lehmer_i p=7;k=5 verified",
    "lehmer_i p=7;k=6 verified",
    "wilson p=5 verified",
    "wilson p=7 failed",
    "checked 28 points: 23 verified, 3 failed, 2 inapplicable, "
    "0 not_p_integral, 0 error",
])


def test_verify_verbose_echoes_points(capsys):
    for jobs in ("1", "2"):
        code, _, err = run(
            ["verify", "--primes", "5..7", "--identity", "wilson",
             "--identity", "lehmer_i", "--identity", "euler_tangent_relation",
             "--identity", "conv_order_p1", "--modulus", "2", "-v",
             "--no-timestamps", "--jobs", jobs], capsys)
        assert code == 1
        assert err == VERBOSE_STDERR, jobs


# the fields of one report as the rows were once built, a dict through
# json.dumps or a CSV join: the oracle for the row templates
def _fmt_value(value, modulus):
    if value is None or modulus is not None:
        return value
    return str(value)


def _report_row(r, stamp):
    values = [r.identity, dict(r.params), r.modulus,
              _fmt_value(r.lhs, r.modulus), _fmt_value(r.rhs, r.modulus),
              r.status]
    if stamp is not None:
        values += [round(r.elapsed * 1000.0, 3), stamp]
    keys = ("identity", "params", "modulus", "lhs", "rhs", "status",
            "elapsed_ms", "timestamp")
    return dict(zip(keys, values))


def _csv_field(value):
    if value is None:
        return ""
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    return str(value)


def test_row_templates_match_json_dumps_and_the_csv_join(monkeypatch):
    stamp = "2026-10-18T17:11:13.123456+00:00"

    class Clock:
        @staticmethod
        def now(tz):
            return Clock

        @staticmethod
        def isoformat():
            return stamp

    monkeypatch.setattr(cli, "datetime", Clock)

    def rows(ident, *points):
        return idmod._check_rows(ident, list(points), None)

    exploratory = rows("sun_lemma", (7, 6))
    # one chunk per identity, as a sweep batch renders them
    chunks = [
        rows("wilson", (7,)),  # residues
        # two parameters, p written into the template, and an
        # inapplicable point between residues
        rows("lehmer_i", *((11, k) for k in range(2, 11))),
        # an exploratory point that fails: inapplicable, with values
        exploratory._replace(
            points=[(7, 6), (7, 7)], lhs=[*exploratory.lhs, 1],
            rhs=[*exploratory.rhs, 2],
            status=[*exploratory.status, idmod.INAPPLICABLE]),
        rows("alzer", (1,), (7,)),  # exact Fractions
        rows("euler_identity", (5,)),  # negative Fraction
        rows("clausen_von_staudt", (10,)),  # integral Fraction
        # two index parameters, neither written into the template
        rows("prop1", (1, 3), (1, 4), (2, 3), (2, 4)),
        rows("wilson", (9,)),  # inapplicable, no values
        idmod.Chunk("lemma2", ("p", "m"), [(11, 2), (11, 3)], [None, None],
                    [None, None], [idmod.NOT_P_INTEGRAL, idmod.ERROR], 121,
                    0.0),
    ]
    times = [0.0, 1.23456e-5, 0.5, 2e-9, 12.3456789, 3.0, 0.0001, 7.77e-6]
    chunks = [chunk._replace(elapsed=times[i % len(times)])
              for i, chunk in enumerate(chunks)]
    reports = [r for chunk in chunks for r in idmod._reports(chunk)]
    assert {r.status for r in reports} == {
        idmod.VERIFIED, idmod.INAPPLICABLE, idmod.NOT_P_INTEGRAL, idmod.ERROR}
    assert any(r.status == idmod.INAPPLICABLE and r.lhs is not None
               for r in reports)
    for chunk in chunks:
        for with_times in (False, True):
            want = [_report_row(r, stamp if with_times else None)
                    for r in idmod._reports(chunk)]
            json_rows, _, _ = cli._render(chunk, "json", with_times, False)
            assert json_rows == "".join(json.dumps(row) + "\n"
                                        for row in want)
            csv_rows, _, _ = cli._render(chunk, "csv", with_times, False)
            assert csv_rows == "".join(
                ",".join(_csv_field(v) for v in row.values()) + "\n"
                for row in want)


def test_import_leaves_the_process_pool_unloaded():
    # a serial run never starts a child process, so it pays nothing to
    # import the machinery for one
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bernmod.cli import main; "
         "code = main(['verify', '--primes', '5..31', '--no-timestamps']); "
         "print(code, *(name in sys.modules for name in ("
         "'bernmod.parallel', 'multiprocessing', 'concurrent.futures')))"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False False"


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "3..10"],
    ["verify", "--primes", "11..7"],
    ["verify", "--primes", "5-7"],
    ["verify", "--primes", "5..7", "--identity", "nope"],
    ["oracle", "12"],
    ["compute", "q2", "8"],
    ["compute", "nk"],
    ["compute", "bernoulli", "-5"],
    # a bad prime, degree, exponent or index is refused by the library
    ["compute", "eulerian", "3", "1", "--p", "4"],
    ["compute", "eulerian", "3", "-1"],
    ["compute", "nk", "--p", "4"],
    ["compute", "nk", "0"],
    ["compute", "harmonic", "-1"],
    ["compute", "q2", "2"],
    ["compute", "conv", "--p", "4"],
    ["verify", "--primes", "5..7", "--modulus", "0"],
    ["verify", "--primes", "5..7", "--modulus", "-1"],
    ["verify", "--primes", "5..7", "--jobs", "0"],
    ["verify", "--primes", "5..7", "--jobs", "-2"],
])
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,expected", [
    (["compute", "bernoulli", "12"], "-691/2730"),
    (["compute", "bernoulli", "0"], "1"),
    (["compute", "bernoulli", "1", "--convention", "plus_half"], "1/2"),
    (["compute", "eulerian", "5", "2"], "66"),
    (["compute", "eulerian", "20", "10", "--p", "7", "--k", "2"], "10"),
    (["compute", "harmonic", "4"], "25/12"),
    (["compute", "harmonic", "3", "--order", "2"], "49/36"),
    (["compute", "nk", "5"], "68"),
    (["compute", "nk", "--p", "7", "--k", "2"], "19"),
    (["compute", "q2", "7"], "9"),
    (["compute", "conv", "--p", "5"], "1/144"),
    (["compute", "conv", "--p", "5", "--a", "1"], "1/36"),
])
def test_compute_frozen_outputs(argv, expected, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.strip() == expected


def test_oracle_reports_agreement(capsys):
    code, out, _ = run(["oracle", "5"], capsys)
    assert code == 0
    assert "eulerian row: 1 26 66 26 1" in out
    assert "even-ascent total: 68" in out
    assert "alternating total: 16" in out
    assert "agreement OK" in out


def test_verify_cache_is_created_and_reused(tmp_path, capsys):
    cache = tmp_path / "bern.cache"
    argv = ["verify", "--primes", "5..11", "--identity", "glaisher",
            "--cache", str(cache), "--no-timestamps"]
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert cache.exists()
    first = cache.read_text()
    assert first.startswith("BERNCACHE 1 minus_half")
    code, _, err = run(argv, capsys)
    assert code == 0
    assert "warning" not in err


def test_verify_cache_is_not_rewritten_when_covered(tmp_path, capsys):
    cache = tmp_path / "bern.cache"
    argv = ["verify", "--primes", "5..11", "--identity", "glaisher",
            "--cache", str(cache), "--no-timestamps"]
    assert run(argv, capsys)[0] == 0
    before = cache.stat()
    assert run(argv, capsys)[0] == 0
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_parallel_verify_fills_the_cache(tmp_path):
    # a fresh interpreter, so the parent's table starts empty: only the
    # workers read B_j, and the cache must still hold what they read, the
    # same file a serial run writes
    def verify(cache, jobs):
        argv = [sys.executable, "-m", "bernmod", "verify", "--identity",
                "lev3_div_p1", "--primes", "5..61", "--jobs", jobs,
                "--cache", str(cache), "--no-timestamps"]
        path = filter(None, [str(ROOT / "src"),
                             os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, env=env)

    serial = tmp_path / "serial.cache"
    assert verify(serial, "1").returncode == 0
    assert load(serial).max_index == 120  # B_{2p-2} at p = 61
    cache = tmp_path / "bern.cache"
    proc = verify(cache, "2")
    assert proc.returncode == 0, proc.stderr
    assert cache.read_bytes() == serial.read_bytes()
    before = cache.stat()
    again = verify(cache, "2")
    assert again.returncode == 0, again.stderr
    assert again.stdout == proc.stdout
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_parallel_verify_builds_no_entry_after_the_pool(tmp_path, capsys,
                                                       monkeypatch,
                                                       start_children_by):
    # this process runs the top prime's batch, which reads furthest, before
    # the children start: it builds B_0..B_120 once, and no forked child
    # extends the table it inherits; each extension is logged to a file, so
    # the children's show up too
    log = tmp_path / "extended"
    extend = BernoulliTable._extend

    def spy(table, target):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {target}\n")
        extend(table, target)

    monkeypatch.setattr(sequences, "_TABLE", BernoulliTable())
    monkeypatch.setattr(BernoulliTable, "_extend", spy)
    launched = start_children_by("fork")
    cache = tmp_path / "bern.cache"
    code, _, _ = run(["verify", "--identity", "lev3_div_p1", "--primes",
                      "5..61", "--jobs", "2", "--cache", str(cache),
                      "--no-timestamps"], capsys)
    assert code == 0
    assert launched == ["fork"]
    extended = [line.split() for line in log.read_text().splitlines()]
    assert {pid for pid, _ in extended} == {str(os.getpid())}
    assert [int(target) for _, target in extended][-1] == 120
    assert load(cache).max_index == 120


def test_cache_is_rewritten_when_the_table_grows(tmp_path, capsys):
    cache = tmp_path / "bern.cache"
    save(BernoulliTable(), cache)  # holds B_0 and B_1 only
    assert run(["compute", "bernoulli", "12", "--cache", str(cache)],
               capsys)[0] == 0
    assert load(cache).max_index >= 12


def test_plus_half_compute_shares_the_minus_half_cache(tmp_path, capsys,
                                                      monkeypatch):
    # one file serves both conventions: each run starts from a fresh table,
    # as a new process would, and reads the file as it is
    cache = tmp_path / "bern.cache"

    def compute(*argv):
        monkeypatch.setattr(sequences, "_TABLE", BernoulliTable())
        return run(["compute", "bernoulli", *argv, "--cache", str(cache)],
                   capsys)

    def last_index():
        return int(cache.read_text().splitlines()[-1].split()[0])

    assert compute("40")[0] == 0
    before = cache.stat()
    code, out, err = compute("1", "--convention", "plus_half")
    assert (code, out) == (0, "1/2\n")
    assert "ignoring cache" not in err
    assert cache.stat().st_mtime_ns == before.st_mtime_ns
    assert last_index() == 40
    assert compute("41", "--convention", "plus_half")[0] == 0
    assert last_index() == 41


def test_verify_corrupt_cache_warns_but_runs(tmp_path, capsys):
    cache = tmp_path / "bern.cache"
    cache.write_text("BERNCACHE 1 minus_half\n0 2 1\n")
    code, out, err = run(
        ["verify", "--primes", "5..7", "--identity", "wilson",
         "--cache", str(cache), "--no-timestamps"], capsys)
    assert code == 0
    assert "warning" in err
    assert len(out.splitlines()) == 2


def test_compute_bernoulli_env_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "bern.cache"
    monkeypatch.setenv("BERNMOD_CACHE", str(cache))
    code, out, _ = run(["compute", "bernoulli", "10"], capsys)
    assert code == 0
    assert out.strip() == "5/66"
    assert cache.exists()
    assert "10 5 66" in cache.read_text()


def _str_unlimited(value) -> str:
    """str() of an int of any length, whatever the interpreter's limit."""
    with unlimited_int_digits():
        return str(value)


def test_compute_prints_integers_beyond_the_str_digit_limit(capsys):
    want = _str_unlimited(fermat_quotient_2(16843))
    assert len(want) > 4300
    code, out, _ = run(["compute", "q2", "16843"], capsys)
    assert code == 0
    assert out.strip() == want


def test_cache_holds_integers_beyond_the_str_digit_limit(tmp_path, capsys):
    # B_2100 has a numerator of more than 4300 digits
    cache = tmp_path / "bern.cache"
    argv = ["compute", "bernoulli", "2100", "--cache", str(cache)]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert out.strip() == _str_unlimited(bernoulli(2100))
    before = cache.stat()
    code, _, err = run(argv, capsys)
    assert code == 0
    assert "warning: ignoring cache" not in err
    assert cache.stat().st_mtime_ns == before.st_mtime_ns


# spawns the command in its arguments and prints its exit code and peak
# resident set in KB; Linux carries ru_maxrss across exec, so the command
# must be spawned from this small interpreter, not from the test process
PEAK_RSS_LAUNCHER = """
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_large_prime_set_peak_rss_at_the_wolstenholme_prime():
    # the eight large-prime identities at p = 16843 in one fresh process
    ids = ["wolstenholme", "wilson", "eisenstein", "remark1a", "remark1b",
           "result1", "result2", "result4"]
    argv = [sys.executable, "-S", "-c", PEAK_RSS_LAUNCHER, sys.executable,
            "-m", "bernmod", "verify", "--primes", "16843..16843",
            "--no-timestamps"]
    for ident in ids:
        argv += ["--identity", ident]
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert "8 verified" in proc.stderr
    assert peak_kb < 60 * 1024, f"peak RSS {peak_kb} KB"


def _catalog_peak_kb(primes, jobs):
    """Peak RSS in KB of the whole catalog's verify over primes, in one
    fresh process and its workers, and the stderr of that run."""
    argv = [sys.executable, "-S", "-c", PEAK_RSS_LAUNCHER, sys.executable,
            "-m", "bernmod", "verify", "--identity", "all", "--primes",
            primes, "--no-timestamps", "--jobs", jobs]
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return peak_kb, proc.stderr


def test_catalog_sweep_peak_rss_over_5_to_401():
    # the whole catalog over 5..401 (52,764 points) in one fresh process:
    # each batch renders its rows as it checks them and spools them, so no
    # row outlives its batch in memory; 19.3 MB measured (24.5 MB when the
    # rendered rows were held, 63.7 MB when every report was)
    peak_kb, err = _catalog_peak_kb("5..401", "1")
    assert "checked 52764 points" in err
    assert peak_kb < 40 * 1024, f"peak RSS {peak_kb} KB"


def test_catalog_sweep_peak_rss_does_not_grow_with_the_range():
    # with a 2-worker pool, 5..1009 (274,217 points) peaks within 8 MB of
    # 5..401, as each batch spools its rows and sends back only where they
    # lie: 4.5 MB apart measured (31 MB when the parent held the text)
    small_kb, _ = _catalog_peak_kb("5..401", "2")
    large_kb, err = _catalog_peak_kb("5..1009", "2")
    assert "checked 274217 points" in err
    assert large_kb - small_kb < 8 * 1024, (small_kb, large_kb)


def test_a_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # `bernmod verify ... | head -1`: the rows of 5..61 (about 0.5 MB)
    # overflow the pipe, so a write meets the closed read end, and the
    # spool goes with the rest
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bernmod", "verify", "--identity", "all",
         "--primes", "5..61", "--no-timestamps"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(b'{"identity": ')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141, err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bernmod", "compute", "bernoulli", "12"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-691/2730"
