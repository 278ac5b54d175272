"""Exact residue arithmetic on p-integral rationals.

Everything here is exact: rationals are `fractions.Fraction`, a residue is a
plain int in [0, p^k), and reduction mod p^k is the ring homomorphism
num * den^-1 (mod p^k), defined exactly when p does not divide the
denominator.  The caller knows p and k, so a residue carries neither.
"""
from __future__ import annotations

from fractions import Fraction
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
    """Canonical residue in [0, p^k) of a p-integral rational modulo p^k.

    Raises NotPIntegral when p divides the denominator of x.
    """
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if not isinstance(x, Fraction):
        x = Fraction(x)
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
    """All primes p with lo <= p <= hi, ascending.  Requires lo <= hi."""
    if lo > hi:
        raise ValueError(f"empty range bounds: {lo} > {hi}")
    if hi < 2:
        return []
    if hi <= 1_000_000:
        sieve = bytearray([1]) * (hi + 1)
        sieve[0:2] = b"\x00\x00"
        for q in range(2, isqrt(hi) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
        return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]
