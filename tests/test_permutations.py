"""Brute-force permutation statistics against a second enumeration and
frozen counts."""
from math import factorial

import pytest

from bernmod.permutations import MAX_DEGREE, DegreeTooLarge, profile
from bernmod.sequences import eulerian, even_ascent_count


def insertion_permutations(n):
    """Sym(n) built by inserting n at every position of each permutation of
    Sym(n - 1); independent of itertools."""
    perms = [()]
    for d in range(1, n + 1):
        perms = [p[:i] + (d,) + p[i:] for p in perms for i in range(d)]
    return perms


def iter_ascents(perm):
    return sum(1 for i in range(len(perm) - 1) if perm[i] < perm[i + 1])


def iter_is_alternating(perm):
    # descents exactly at odd 1-based positions: a1 > a2 < a3 > a4 ...
    for i in range(len(perm) - 1):
        descending = perm[i] > perm[i + 1]
        if descending != (i % 2 == 0):
            return False
    return True


def test_profile_degree_cap():
    assert MAX_DEGREE == 9
    with pytest.raises(DegreeTooLarge):
        profile(MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        profile(0)


def test_profile_frozen_small_degrees():
    p3 = profile(3)
    assert p3.eulerian_row == (1, 4, 1)
    assert p3.even_ascent_total == 2
    assert p3.alternating_total == 2

    p5 = profile(5)
    assert p5.eulerian_row == (1, 26, 66, 26, 1)
    assert p5.even_ascent_total == 68
    assert p5.alternating_total == 16


@pytest.mark.parametrize("n", range(1, 8))
def test_profile_against_itertools(n):
    """Two independent enumerations must produce identical statistics."""
    rows = [0] * n
    evens = 0
    alternating = 0
    perms = insertion_permutations(n)
    assert len(set(perms)) == factorial(n)
    for perm in perms:
        a = iter_ascents(perm)
        rows[a] += 1
        if a % 2 == 0:
            evens += 1
        if iter_is_alternating(perm):
            alternating += 1
    prof = profile(n)
    assert prof.eulerian_row == tuple(rows)
    assert prof.even_ascent_total == evens
    assert prof.alternating_total == alternating


@pytest.mark.parametrize("n", range(1, MAX_DEGREE + 1))
def test_profile_matches_formula_paths(n):
    prof = profile(n)
    assert prof.eulerian_row == tuple(eulerian(n, m) for m in range(n))
    assert sum(prof.eulerian_row) == factorial(n)
    assert prof.even_ascent_total == even_ascent_count(n)


def test_alternating_totals_are_the_zigzag_numbers():
    got = [profile(n).alternating_total for n in range(1, 10)]
    assert got == [1, 1, 2, 5, 16, 61, 272, 1385, 7936]


def test_enumeration_size_gives_wilson_fact():
    # |Sym(p-1)| = (p-1)! = -1 mod p, seen directly from the row sums
    for p in (5, 7):
        total = sum(profile(p - 1).eulerian_row)
        assert total % p == p - 1
