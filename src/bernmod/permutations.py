"""Brute-force permutation statistics for small degrees.

Exhaustive enumeration of Sym(n) for n <= 9 by itertools.permutations,
tallying ascent counts, the even-ascent total, and the alternating-permutation
total.  This is the ground-truth oracle the closed-form Eulerian machinery is
checked against.
"""
from __future__ import annotations

from itertools import permutations
from operator import lt
from typing import NamedTuple

__all__ = [
    "MAX_DEGREE",
    "DegreeTooLarge",
    "PermStatProfile",
    "profile",
]

MAX_DEGREE = 9


class DegreeTooLarge(ValueError):
    """Exhaustive enumeration is capped at degree MAX_DEGREE."""


class PermStatProfile(NamedTuple):
    """Exhaustive statistics over all permutations of degree n."""

    n: int
    eulerian_row: tuple[int, ...]  # index m -> permutations with m ascents
    even_ascent_total: int
    alternating_total: int


def _is_alternating(a: tuple[int, ...]) -> bool:
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
    for a in permutations(range(1, n + 1)):
        row[sum(map(lt, a, a[1:]))] += 1
        if _is_alternating(a):
            alternating += 1
    even_total = sum(row[m] for m in range(0, n, 2))
    return PermStatProfile(
        n=n,
        eulerian_row=tuple(row),
        even_ascent_total=even_total,
        alternating_total=alternating,
    )
