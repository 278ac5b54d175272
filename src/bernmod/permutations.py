"""Brute-force permutation statistics for small degrees.

Exhaustive lexicographic enumeration (iterative successor stepping, no
recursion) of Sym(n) for n <= 9, tallying ascent counts, the even-ascent
total, and the alternating-permutation total.  This is the ground-truth
oracle the closed-form Eulerian machinery is checked against.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

__all__ = [
    "MAX_DEGREE",
    "InvalidPermutation",
    "DegreeTooLarge",
    "PermStatProfile",
    "ascent_count",
    "profile",
]

MAX_DEGREE = 9


class InvalidPermutation(ValueError):
    """The sequence is not a permutation of 1..n."""


class DegreeTooLarge(ValueError):
    """Exhaustive enumeration is capped at degree MAX_DEGREE."""


class PermStatProfile(NamedTuple):
    """Exhaustive statistics over all permutations of degree n."""

    n: int
    eulerian_row: tuple[int, ...]  # index m -> permutations with m ascents
    even_ascent_total: int
    alternating_total: int


def _validate(perm: Sequence[int]) -> list[int]:
    seq = list(perm)
    n = len(seq)
    if n < 1 or sorted(seq) != list(range(1, n + 1)):
        raise InvalidPermutation(f"not a permutation of 1..n: {perm!r}")
    return seq


def ascent_count(perm: Sequence[int]) -> int:
    """Number of positions k with perm[k] < perm[k+1]."""
    seq = _validate(perm)
    return sum(1 for i in range(len(seq) - 1) if seq[i] < seq[i + 1])


def _advance(a: list[int]) -> bool:
    """Step a to its lexicographic successor in place; False at the last one."""
    n = len(a)
    i = n - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = n - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[:i:-1]
    return True


def _is_alternating(a: list[int]) -> bool:
    """Descent positions (1-based) are exactly the odd positions 1, 3, 5, ..."""
    for k in range(1, len(a)):
        descent = a[k - 1] > a[k]
        if descent != (k % 2 == 1):
            return False
    return True


def profile(n: int) -> PermStatProfile:
    """Enumerate Sym(n) and tally ascent statistics; n must be in [1, 9]."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} exceeds cap {MAX_DEGREE}")
    row = [0] * n
    alternating = 0
    a = list(range(1, n + 1))
    while True:
        asc = sum(1 for i in range(n - 1) if a[i] < a[i + 1])
        row[asc] += 1
        if _is_alternating(a):
            alternating += 1
        if not _advance(a):
            break
    even_total = sum(row[m] for m in range(0, n, 2))
    return PermStatProfile(
        n=n,
        eulerian_row=tuple(row),
        even_ascent_total=even_total,
        alternating_total=alternating,
    )
