"""Command line behavior: output formats, exit codes, cache wiring."""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bernmod.identities as idmod
from bernmod.cache import load, save
from bernmod.cli import main
from bernmod.sequences import BernoulliTable

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


# SHA-256 of the stdout of `verify --identity all --primes 5..61
# --no-timestamps` (3503 points), which pins every field of every report
REPORT_DIGESTS = {
    "json": "f3168a2e0c7118afbcddc8240b3fe386b4520a2806a4465f1abe6e5659f5fccb",
    "csv": "0e44d8e82b581cafc4787a6598130fa0526f1164f28a1521f7226e47a834e590",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_stream_is_pinned(fmt, jobs, capsys):
    code, out, _ = run(
        ["verify", "--identity", "all", "--primes", "5..61",
         "--no-timestamps", "--jobs", jobs, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[fmt]
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

    def lhs(ctx, p, m):
        if (p, m) == (11, 2):
            raise ZeroDivisionError("deliberate")
        return desc.lhs(ctx, p, m)

    monkeypatch.setitem(idmod._CATALOG, "lemma2",
                        dataclasses.replace(desc, lhs=lhs))
    code, out, err = run(argv, capsys)
    assert code == 1
    # the sweep finished and only the raising point changed
    changed = [(a, b) for a, b in zip(clean.splitlines(), out.splitlines())
               if a != b]
    assert len(out.splitlines()) == len(clean.splitlines()) == 16
    assert len(changed) == 1
    assert json.loads(changed[0][1]) == {
        "identity": "lemma2", "params": {"p": 11, "m": 2}, "modulus": None,
        "lhs": None, "rhs": None, "status": "error"}
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == [
        "error: lemma2 p=11;m=2: ZeroDivisionError: deliberate"]
    assert lines[-1].endswith("0 not_p_integral, 1 error")


def test_verify_verbose_echoes_points(capsys):
    code, _, err = run(
        ["verify", "--primes", "5..7", "--identity", "wilson", "-v",
         "--no-timestamps"], capsys)
    assert code == 0
    assert "wilson p=5 verified" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "3..10"],
    ["verify", "--primes", "11..7"],
    ["verify", "--primes", "5-7"],
    ["verify", "--primes", "5..7", "--identity", "nope"],
    ["oracle", "12"],
    ["compute", "q2", "8"],
    ["compute", "nk"],
    ["compute", "bernoulli", "-5"],
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
    # workers read B_j, and the cache must still hold what they read
    cache = tmp_path / "bern.cache"
    argv = [sys.executable, "-m", "bernmod", "verify", "--identity",
            "lev3_div_p1", "--primes", "5..61", "--jobs", "2",
            "--cache", str(cache), "--no-timestamps"]
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert load(cache).max_index >= 120
    before = cache.stat()
    again = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                           env=env)
    assert again.returncode == 0, again.stderr
    assert again.stdout == proc.stdout
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_cache_is_rewritten_when_the_table_grows(tmp_path, capsys):
    cache = tmp_path / "bern.cache"
    save(BernoulliTable(), cache)  # holds B_0 and B_1 only
    assert run(["compute", "bernoulli", "12", "--cache", str(cache)],
               capsys)[0] == 0
    assert load(cache).max_index >= 12


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


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bernmod", "compute", "bernoulli", "12"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-691/2730"
