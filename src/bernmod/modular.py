"""Exact residue arithmetic on p-integral rationals.

Everything here is exact: rationals are `fractions.Fraction`, a residue is a
plain int in [0, p^k), and reduction mod p^k is the ring homomorphism
num * den^-1 (mod p^k), defined exactly when p does not divide the
denominator.  The caller knows p and k, so a residue carries neither.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt

__all__ = [
    "NotPIntegral",
    "mod_reduce",
    "hensel_digit",
    "is_prime",
    "primes_in",
]


class NotPIntegral(ValueError):
    """The rational has the prime in its denominator, so no residue exists."""


def mod_reduce(x: Fraction | int, p: int, k: int = 1) -> int:
    """Canonical residue in [0, p^k) of an int or p-integral rational mod p^k.

    Raises NotPIntegral when p divides the denominator of x.
    """
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if isinstance(x, int):
        return x % p ** k
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} is not p-integral at p={p}")
    m = p ** k
    return x.numerator * pow(x.denominator, -1, m) % m


def hensel_digit(x: Fraction | int, p: int, i: int) -> int:
    """Digit i of the base-p expansion of a p-integral rational, in [0, p).

    One reduction mod p^(i+1) followed by base-p extraction; digits satisfy
    sum_j digit_j * p^j = x (mod p^(i+1)).
    """
    if i < 0:
        raise ValueError(f"digit index must be >= 0, got {i}")
    return mod_reduce(x, p, i + 1) // p ** i


# Deterministic Miller-Rabin witness set, sound for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending.  Requires lo <= hi.

    Sieves the window [lo, hi] alone, crossing off the multiples of each
    q <= isqrt(hi) from max(q^2, lo) on: a narrow window high up costs its
    width and isqrt(hi) steps, not hi.  A composite q crosses off nothing
    new, which is cheaper than finding the primes below isqrt(hi) first.
    """
    if lo > hi:
        raise ValueError(f"empty range bounds: {lo} > {hi}")
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    if root > 1_000_000:
        return [n for n in range(lo, hi + 1) if is_prime(n)]
    window = bytearray([1]) * (hi + 1 - lo)
    for q in range(2, root + 1):
        first = max(q * q, -(-lo // q) * q)
        if first <= hi:
            window[first - lo::q] = bytes(len(range(first, hi + 1, q)))
    return list(compress(range(lo, hi + 1), window))
