"""p-adic reduction, digits, primality."""
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bernmod.modular import (
    NotPIntegral,
    hensel_digit,
    is_prime,
    mod_reduce,
    primes_in,
)

PRIMES = [3, 5, 7, 11, 13]


def brute_reduce(x: Fraction, modulus: int) -> int:
    """The unique r in [0, modulus) with r * den = num (mod modulus)."""
    for r in range(modulus):
        if (r * x.denominator - x.numerator) % modulus == 0:
            return r
    raise AssertionError(f"{x} has no residue mod {modulus}")


def test_mod_reduce_frozen_values():
    assert mod_reduce(Fraction(7, 3), 5, 2) == 19
    assert mod_reduce(Fraction(-1, 2), 7, 1) == 3
    assert mod_reduce(Fraction(22), 5) == 2
    assert mod_reduce(0, 11, 3) == 0


def test_hensel_digit_frozen_values():
    # 7/3 = 19 mod 25, so digits base 5 are 4 then 3
    assert hensel_digit(Fraction(7, 3), 5, 0) == 4
    assert hensel_digit(Fraction(7, 3), 5, 1) == 3


def test_mod_reduce_pole_raises():
    with pytest.raises(NotPIntegral):
        mod_reduce(Fraction(1, 5), 5, 1)
    with pytest.raises(NotPIntegral):
        mod_reduce(Fraction(3, 50), 5, 2)
    # coprime denominator sharing no factor with p is fine
    assert mod_reduce(Fraction(3, 14), 5, 1) == brute_reduce(
        Fraction(3, 14), 5)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mod_reduce_matches_exhaustive_scan(p, k):
    modulus = p ** k
    for num in range(-6, 7):
        for den in range(1, 8):
            if den % p == 0:
                continue
            x = Fraction(num, den)
            assert mod_reduce(x, p, k) == brute_reduce(x, modulus)


@st.composite
def p_integral(draw, p):
    num = draw(st.integers(min_value=-10**6, max_value=10**6))
    den = draw(st.integers(min_value=1, max_value=10**4).filter(
        lambda d: d % p != 0))
    return Fraction(num, den)


@given(data=st.data(), p=st.sampled_from(PRIMES),
       k=st.integers(min_value=1, max_value=4))
def test_mod_reduce_is_a_ring_homomorphism(data, p, k):
    x = data.draw(p_integral(p))
    y = data.draw(p_integral(p))
    m = p ** k
    rx, ry = mod_reduce(x, p, k), mod_reduce(y, p, k)
    assert (rx + ry) % m == mod_reduce(x + y, p, k)
    assert (rx - ry) % m == mod_reduce(x - y, p, k)
    assert rx * ry % m == mod_reduce(x * y, p, k)


@given(data=st.data(), p=st.sampled_from(PRIMES),
       k=st.integers(min_value=1, max_value=5))
def test_hensel_digits_reconstruct_the_residue(data, p, k):
    x = data.draw(p_integral(p))
    total = sum(hensel_digit(x, p, i) * p ** i for i in range(k))
    assert total == mod_reduce(x, p, k)
    for i in range(k):
        assert 0 <= hensel_digit(x, p, i) < p


def test_is_prime_small_table():
    primes_to_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 51):
        assert is_prime(n) == (n in primes_to_50)


def test_is_prime_larger_values():
    assert is_prime(104729)  # the 10000th prime
    assert not is_prime(104730)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_primes_in_inclusive_endpoints():
    assert primes_in(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in(7, 7) == [7]
    assert primes_in(8, 10) == []
    with pytest.raises(ValueError):
        primes_in(10, 5)


@pytest.mark.parametrize("lo,hi", [
    (-7, 1), (-7, 2), (0, 30), (1, 2), (2, 2), (3, 3), (4, 4), (25, 25),
    (401, 401), (2, 10_000), (9_973, 10_007), (100_000, 101_000),
    (999_983, 999_983), (999_000, 1_001_000), (10 ** 9, 10 ** 9 + 300),
    (10 ** 14, 10 ** 14 + 300),
])
def test_primes_in_matches_sympy(lo, hi):
    # narrow and wide windows, below 2, at lo = hi, and across 10^6; past
    # isqrt(hi) = 10^6 the window is scanned with is_prime, not sieved
    assert primes_in(lo, hi) == list(sympy.primerange(lo, hi + 1))


@settings(max_examples=30)
@given(lo=st.integers(min_value=2, max_value=400),
       width=st.integers(min_value=0, max_value=300))
def test_primes_in_agrees_with_is_prime(lo, width):
    hi = lo + width
    assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]
