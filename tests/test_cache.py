"""Cache file round-trips, validation, and failure modes."""
import os
import stat
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from bernmod import sequences
from bernmod.cache import (
    CorruptCache,
    load,
    save,
    unlimited_int_digits,
)
from bernmod.sequences import PLUS_HALF, BernoulliTable, bernoulli


def fresh_table(top: int) -> BernoulliTable:
    table = BernoulliTable()
    table.value(top)
    return table


def test_round_trip_is_exact(tmp_path):
    path = tmp_path / "bern.cache"
    table = fresh_table(40)
    save(table, path)
    back = load(path)
    assert back.items() == table.items()


def test_round_trip_plus_half(tmp_path, monkeypatch):
    # one file serves both conventions: a plus_half read of a loaded table
    # flips B_1 and nothing else
    path = tmp_path / "bern.cache"
    table = fresh_table(12)
    save(table, path)
    monkeypatch.setattr(sequences, "_TABLE", load(path))
    assert bernoulli(1, PLUS_HALF) == Fraction(1, 2)
    assert [bernoulli(n, PLUS_HALF) for n in range(2, 13)] == [
        table.value(n) for n in range(2, 13)]


def test_header_records_convention(tmp_path):
    path = tmp_path / "bern.cache"
    save(fresh_table(8), path)
    first = path.read_text().splitlines()[0]
    assert first == "BERNCACHE 1 minus_half"


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load(tmp_path / "absent.cache")


def test_save_into_missing_directory_is_oserror(tmp_path):
    with pytest.raises(OSError):
        save(fresh_table(4), tmp_path / "no" / "such" / "dir" / "x.cache")


def corrupt(path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"fixture drift: {old!r} not found"
    path.write_text(text.replace(old, new))


@pytest.mark.parametrize("old,new,reason", [
    ("BERNCACHE 1", "WRONGMAGIC 1", "bad magic"),
    ("BERNCACHE 1", "BERNCACHE 9", "bad version"),
    ("minus_half", "half_minus", "bad convention"),
    ("minus_half", "plus_half", "other convention"),
    ("2 1 6", "2 one 6", "non-integer field"),
    ("2 1 6", "2 1", "short line"),
    ("2 1 6", "7 1 6", "gap in indices"),
    ("2 1 6", "0 1 6", "repeated index"),
    ("2 1 6", "2 2 12", "unreduced fraction"),
    ("2 1 6", "2 -1 -6", "negative denominator"),
    ("0 1 1", "0 2 1", "wrong B_0"),
    ("1 -1 2", "1 1 3", "wrong B_1"),
    ("3 0 1", "3 1 1", "odd entry nonzero"),
    ("4 -1 30", "4 -1 42", "wrong denominator"),
    ("4 -1 30", "4 1 30", "flipped numerator"),
])
def test_corruption_is_detected(tmp_path, old, new, reason):
    path = tmp_path / "bern.cache"
    save(fresh_table(12), path)
    corrupt(path, old, new)
    with pytest.raises(CorruptCache):
        load(path)


@pytest.mark.parametrize("index,field,reason", [
    (400, 2, "denominator"),
    (800, 2, "denominator"),
    (400, 1, "recurrence"),
    (800, 1, "recurrence"),
])
def test_corruption_deep_in_a_b802_cache_is_detected(tmp_path, index, field,
                                                      reason):
    # one entry of the table the benchmark loads, altered so the fraction
    # stays reduced: the denominator times a prime it lacks, or the
    # numerator plus the denominator
    path = tmp_path / "bern.cache"
    save(fresh_table(802), path)
    lines = path.read_text().splitlines(keepends=True)
    n, num, den = map(int, lines[index + 1].split())
    assert n == index
    if field == 2:
        q = next(q for q in (7, 11, 13, 17, 19, 23) if num % q and den % q)
        num, den = num, den * q
    else:
        num += den
    lines[index + 1] = f"{n} {num} {den}\n"
    path.write_text("".join(lines))
    with pytest.raises(CorruptCache, match=reason):
        load(path)


def test_empty_and_headerless_files(tmp_path):
    path = tmp_path / "bern.cache"
    path.write_text("")
    with pytest.raises(CorruptCache):
        load(path)
    path.write_text("BERNCACHE 1 minus_half\n")
    with pytest.raises(CorruptCache):
        load(path)


def test_save_is_atomic_replace(tmp_path):
    path = tmp_path / "bern.cache"
    save(fresh_table(6), path)
    before = path.read_text()
    save(fresh_table(20), path)
    after = path.read_text()
    assert before != after
    assert load(path).max_index == 20
    leftovers = [f for f in os.listdir(tmp_path) if f != "bern.cache"]
    assert leftovers == []  # no temp files left behind


def test_save_gives_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600), (0o002, 0o664)):
            os.umask(umask)
            path = tmp_path / f"bern-{umask:03o}.cache"
            save(fresh_table(6), path)
            plain = tmp_path / f"plain-{umask:03o}"
            plain.write_text("")
            assert stat.S_IMODE(path.stat().st_mode) == mode
            assert stat.S_IMODE(plain.stat().st_mode) == mode
    finally:
        os.umask(old)
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".berncache-")]


# in a fresh interpreter that keeps the default 4300-digit int/str limit:
# B_2100 has a numerator of more than 4300 digits
_BIG_ROUND_TRIP = textwrap.dedent("""
    import sys
    import bernmod
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert limit in (0, 4300), limit
    b = bernmod.bernoulli(2100)
    bernmod.save(bernmod.bernoulli_table(), sys.argv[1])
    back = bernmod.load(sys.argv[1])
    assert back.value(2100) == b
    assert back.max_index == bernmod.bernoulli_table().max_index
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    print("ok")
""")


def test_round_trip_past_the_int_digit_limit_in_a_fresh_process(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.run(
        [sys.executable, "-c", _BIG_ROUND_TRIP, str(tmp_path / "big.cache")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit before Python 3.10.7")
def test_unlimited_int_digits_restores_the_limit():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        with unlimited_int_digits():
            assert sys.get_int_max_str_digits() == 0
            assert len(str(10 ** 6000)) == 6001
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(KeyError):
            with unlimited_int_digits():
                raise KeyError("inside")
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(ValueError):
            str(10 ** 6000)
    finally:
        sys.set_int_max_str_digits(old)


def test_blank_lines_tolerated(tmp_path):
    path = tmp_path / "bern.cache"
    save(fresh_table(6), path)
    path.write_text(path.read_text() + "\n\n")
    assert load(path).max_index == 6
