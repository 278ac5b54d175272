"""Plain-text persistence for Bernoulli tables.

Format: a header line ``BERNCACHE 1 minus_half`` followed by one
``n numerator denominator`` line per index, contiguous from 0; one file
serves both conventions, as the table does.  Writes are atomic (temp file in
the target directory, then replace) so a crashed or concurrent writer never
leaves a torn file behind; the file gets the permissions a plain ``open()``
would give under the current umask.
"""
from __future__ import annotations

import os
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from .sequences import MINUS_HALF, BernoulliTable

__all__ = ["CorruptCache", "save", "load"]

MAGIC = "BERNCACHE"
VERSION = 1


class CorruptCache(ValueError):
    """Cache file failed structural or arithmetic validation."""


@contextmanager
def unlimited_int_digits():
    """Lift the int/str digit limit, which B_2064 passes, and restore it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7+
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@unlimited_int_digits()
def save(table: BernoulliTable, path: str | os.PathLike) -> None:
    """Write the table atomically; readers see old or new, never partial."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    lines = [f"{MAGIC} {VERSION} {MINUS_HALF}\n"]
    for n, value in table.items():
        lines.append(f"{n} {value.numerator} {value.denominator}\n")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".berncache-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(lines)
        # mkstemp creates 0600; give the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_header(line: str, path: str) -> None:
    fields = line.split()
    if len(fields) != 3 or fields[0] != MAGIC:
        raise CorruptCache(f"{path}: not a Bernoulli cache file")
    if fields[1] != str(VERSION):
        raise CorruptCache(f"{path}: unsupported cache version {fields[1]!r}")
    if fields[2] != MINUS_HALF:
        raise CorruptCache(f"{path}: unsupported convention {fields[2]!r}")


@unlimited_int_digits()
def load(path: str | os.PathLike) -> BernoulliTable:
    """Read and fully validate a cache file.

    Raises CorruptCache for any structural or arithmetic defect, a header
    naming any convention but minus_half included, and OSError when the
    file cannot be read at all.
    """
    path = os.fspath(path)
    with open(path, "r") as handle:
        raw = handle.read()
    lines = raw.splitlines()
    if not lines:
        raise CorruptCache(f"{path}: empty file")
    _parse_header(lines[0], path)
    entries: dict[int, Fraction] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise CorruptCache(f"{path}:{lineno}: expected 'n num den'")
        try:
            n, num, den = (int(f) for f in fields)
        except ValueError:
            raise CorruptCache(
                f"{path}:{lineno}: non-integer field"
            ) from None
        if n < 0 or n in entries:
            raise CorruptCache(f"{path}:{lineno}: bad or repeated index {n}")
        if den <= 0:
            raise CorruptCache(f"{path}:{lineno}: denominator must be > 0")
        if gcd(num, den) != 1:
            raise CorruptCache(f"{path}:{lineno}: fraction not reduced")
        entries[n] = Fraction(num, den)
    if not entries:
        raise CorruptCache(f"{path}: header but no entries")
    try:
        table = BernoulliTable(entries=entries)
        table.validate()
    except ValueError as exc:
        raise CorruptCache(f"{path}: {exc}") from None
    return table
