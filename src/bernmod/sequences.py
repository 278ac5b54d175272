"""Exact generators for the number families under study.

Bernoulli numbers (both B_1 conventions; built from the tangent numbers),
divided Bernoulli numbers, harmonic and generalized harmonic numbers, sums of
powers, the Eulerian triangle with its even-ascent column sums, the Fermat
quotient of 2, the Agoh-Giuga quotient, and the power-weighted Bernoulli
convolution.  Everything returns exact ints or Fractions; the *_mod variants
work purely in modular arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import Iterable

from .modular import is_prime

__all__ = [
    "MINUS_HALF",
    "PLUS_HALF",
    "BernoulliTable",
    "bernoulli",
    "bernoulli_table",
    "divided_bernoulli",
    "von_staudt_denominator",
    "harmonic",
    "gen_harmonic",
    "odd_reciprocal_sum",
    "sum_powers",
    "sum_powers_bernoulli",
    "eulerian",
    "eulerian_explicit",
    "eulerian_mod",
    "even_ascent_count",
    "even_ascent_count_mod",
    "euler_number_sides",
    "fermat_quotient_2",
    "agoh_giuga_quotient",
    "weighted_convolution",
    "PrimeContext",
    "get_prime_context",
]

MINUS_HALF = "minus_half"
PLUS_HALF = "plus_half"
_CONVENTIONS = (MINUS_HALF, PLUS_HALF)


def von_staudt_denominator(n: int) -> int:
    """Product of the primes q with (q-1) | n; the denominator of B_n for even n."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    d = 1
    for div in range(1, n + 1):
        if n % div == 0 and is_prime(div + 1):
            d *= div + 1
    return d


def _b1(convention: str) -> Fraction:
    """B_1 under a convention: -1/2 or +1/2."""
    return Fraction(-1 if convention == MINUS_HALF else 1, 2)


def _tangent_numbers(m: int) -> list[int]:
    """[0, T_1, ..., T_m], tan x = sum T_k x^(2k-1)/(2k-1)!, in O(m^2) integer
    steps (R. P. Brent and D. Harvey, arXiv:1108.0286, TangentNumbers)."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


class BernoulliTable:
    """Memoized Bernoulli numbers B_0..B_max under a fixed B_1 convention.

    Entries are extended on demand from the tangent numbers T_m, by
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)); odd entries beyond B_1
    vanish.  Each extension rebuilds the tangent numbers from scratch to at
    least twice the current size, so the table keeps no triangle as state.
    """

    def __init__(self, convention: str = MINUS_HALF,
                 entries: dict[int, Fraction] | None = None):
        if convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        self.convention = convention
        if entries is None:
            entries = {0: Fraction(1), 1: _b1(convention)}
        else:
            entries = dict(entries)
            if sorted(entries) != list(range(len(entries))):
                raise ValueError("entries must be contiguous from index 0")
        self._entries = entries
        self._max = max(entries)

    @property
    def max_index(self) -> int:
        return self._max

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._entries.items())

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
        if n > self._max:
            self._extend(n)
        return self._entries[n]

    def _extend(self, target: int) -> None:
        top = max(target, 2 * self._max)
        tangents = _tangent_numbers(top // 2)
        e = self._entries
        for n in range(self._max + 1, top + 1):
            if n % 2 == 1:
                e[n] = _b1(self.convention) if n == 1 else Fraction(0)
            else:  # 1 << n is 4^m for n = 2m
                e[n] = Fraction((-1) ** (n // 2 - 1) * n * tangents[n // 2],
                                (1 << n) * ((1 << n) - 1))
        self._max = top

    def merge(self, other: "BernoulliTable") -> None:
        """Adopt entries from another table of the same convention."""
        if other.convention != self.convention:
            raise ValueError(
                f"convention mismatch: {self.convention} vs {other.convention}"
            )
        for n, val in other.items():
            if n <= self._max:
                if self._entries[n] != val:
                    raise ValueError(f"conflicting value for B_{n}")
            else:
                if n != self._max + 1:
                    raise ValueError("merge would leave a gap in the table")
                self._entries[n] = val
                self._max = n

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        e = self._entries
        if e[0] != 1:
            raise ValueError("B_0 must be 1")
        want_b1 = _b1(self.convention)
        if self._max >= 1 and e[1] != want_b1:
            raise ValueError(f"B_1 must be {want_b1} under {self.convention}")
        for n in range(3, self._max + 1, 2):
            if e[n] != 0:
                raise ValueError(f"B_{n} must be 0")
        for n in range(2, self._max + 1, 2):
            if e[n].denominator != von_staudt_denominator(n):
                raise ValueError(f"B_{n} has denominator {e[n].denominator}, "
                                 f"expected {von_staudt_denominator(n)}")
        # the defining recurrence at the top entry ties every earlier value
        # in, so a single altered numerator anywhere breaks this sum
        n = self._max if self._max % 2 == 0 else self._max - 1
        if n >= 2:
            total = sum(comb(n + 1, j) * e[j] for j in range(n + 1))
            want = 0 if self.convention == MINUS_HALF else n + 1
            if total != want:
                raise ValueError(f"entries fail the defining recurrence "
                                 f"at B_{n}")


_TABLES = {c: BernoulliTable(c) for c in _CONVENTIONS}


def bernoulli_table(convention: str = MINUS_HALF) -> BernoulliTable:
    """The process-wide shared table for a convention."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    return _TABLES[convention]


def bernoulli(n: int, convention: str = MINUS_HALF) -> Fraction:
    """Exact Bernoulli number B_n; B_1 is -1/2 unless convention says +1/2."""
    return bernoulli_table(convention).value(n)


def divided_bernoulli(n: int) -> Fraction:
    """B_n / n for n >= 1 (B_1 convention -1/2)."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return bernoulli(n) / n


_HARMONIC: list[Fraction] = [Fraction(0)]
_GEN_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(n: int) -> Fraction:
    """H_n = sum_{j=1}^{n} 1/j, with H_0 = 0."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    h = _HARMONIC
    while len(h) <= n:
        h.append(h[-1] + Fraction(1, len(h)))
    return h[n]


def gen_harmonic(n: int, r: int) -> Fraction:
    """H_n^(r) = sum_{j=1}^{n} 1/j^r, with H_0^(r) = 0."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if r == 1:
        return harmonic(n)
    h = _GEN_HARMONIC.setdefault(r, [Fraction(0)])
    while len(h) <= n:
        h.append(h[-1] + Fraction(1, len(h) ** r))
    return h[n]


def odd_reciprocal_sum(p: int) -> Fraction:
    """Sum of 1/j over odd j in [1, p-2] for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return sum((Fraction(1, j) for j in range(1, p - 1, 2)), Fraction(0))


def sum_powers(n: int, k: int) -> int:
    """S_{n,k} = 1^k + 2^k + ... + n^k by direct summation."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    return sum(a ** k for a in range(1, n + 1))


def sum_powers_bernoulli(n: int, k: int) -> int:
    """S_{n,k} via the Bernoulli-number formula (B_1 = +1/2 variant).

    S_{n,k} = (1/(k+1)) * sum_{j=0}^{k} C(k+1, j) B_j n^{k+1-j}.
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    acc = Fraction(0)
    for j in range(k + 1):
        b = bernoulli(j, PLUS_HALF)
        if b:
            acc += comb(k + 1, j) * b * n ** (k + 1 - j)
    acc /= k + 1
    if acc.denominator != 1:
        raise AssertionError(f"power-sum formula gave non-integer {acc}")
    return int(acc)


_EULER_ROWS: list[tuple[int, ...]] = [(), (1,)]


def eulerian(n: int, m: int) -> int:
    """Eulerian number E(n, m) by the triangular recurrence; 0 outside the row."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if m < 0 or m > n - 1:
        return 0
    rows = _EULER_ROWS
    while len(rows) <= n:
        prev = rows[-1]
        d = len(rows)  # degree of the row being built
        row = tuple(
            (j + 1) * (prev[j] if j < d - 1 else 0)
            + (d - j) * (prev[j - 1] if j >= 1 else 0)
            for j in range(d)
        )
        rows.append(row)
    return rows[n][m]


def eulerian_explicit(n: int, m: int) -> int:
    """E(n, m) by the alternating binomial sum; 0 outside the row."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if m < 0 or m > n - 1:
        return 0
    return sum(
        (-1) ** j * comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1)
    )


def _signed_binomials_mod(n: int, top: int, p: int, k: int) -> list[int]:
    """(-1)^j C(n+1, j) mod p^k for j = 0..top, where top <= n.

    The running binomial is kept as unit * p^v with the p-part tracked
    separately so the incremental update stays valid when j or n+2-j is
    divisible by p.
    """
    pk = p ** k
    out = [1]
    unit = 1
    val = 0
    for j in range(1, top + 1):
        a = n + 2 - j
        while a % p == 0:
            a //= p
            val += 1
        b = j
        while b % p == 0:
            b //= p
            val -= 1
        unit = unit * a % pk * pow(b, -1, pk) % pk
        c = unit * p ** val % pk
        out.append(-c % pk if j % 2 else c)
    return out


def eulerian_mod(n: int, m: int, p: int, k: int = 1) -> int:
    """E(n, m) mod p^k in [0, p^k), computed purely modularly in O(m) steps."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"need a prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    pk = p ** k
    if m < 0 or m > n - 1:
        return 0
    total = sum(c * pow(m + 1 - j, n, pk)
                for j, c in enumerate(_signed_binomials_mod(n, m, p, k)) if c)
    return total % pk


def even_ascent_count(n: int) -> int:
    """N_n: permutations of degree n with an even number of ascents."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return sum(eulerian(n, m) for m in range(0, n, 2))


def even_ascent_count_mod(p: int, k: int = 1) -> int:
    """N_{p-2} mod p^k, in [0, p^k), for a prime p >= 5, via the modular
    Eulerian path."""
    return get_prime_context(p).even_ascent_residue(k)


def euler_number_sides(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the tangent-number relation at odd n.

    Left: 2^(n+1) (2^(n+1) - 1) B_{n+1} / (n+1).
    Right: the alternating Eulerian row sum sum_{m=0}^{n-1} (-1)^m E(n, m).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need odd n >= 1, got {n}")
    w = 2 ** (n + 1)
    lhs = w * (w - 1) * bernoulli(n + 1) / (n + 1)
    rhs = Fraction(sum((-1) ** m * eulerian(n, m) for m in range(n)))
    return lhs, rhs


def fermat_quotient_2(p: int) -> int:
    """q_2(p) = (2^(p-1) - 1) / p, exact, for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    num = 2 ** (p - 1) - 1
    if num % p:
        raise AssertionError(f"2^{p - 1} - 1 not divisible by {p}")
    return num // p


def agoh_giuga_quotient(p: int) -> Fraction:
    """(1 + p B_{p-1}) / p, a p-integral rational, for a prime p >= 5."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    return (1 + p * bernoulli(p - 1)) / p


def weighted_convolution(p: int, a: int = 2) -> Fraction:
    """CB_w^(a)(p-1) = sum_{i=2}^{p-3} (B_i / a^i) B_{p-1-i}, exact."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    if not 1 <= a <= p - 1:
        raise ValueError(f"weight must be in [1, {p - 1}], got {a}")
    acc = Fraction(0)
    # odd i contribute nothing: B_i = 0 for odd i >= 3
    for i in range(2, p - 2, 2):
        acc += bernoulli(i) / a ** i * bernoulli(p - 1 - i)
    return acc


class _PowerRow:
    """Exact sums of b^k over a fixed set of bases b, one exponent at a time.

    Only the current powers are kept.  Asking for the exponent one past the
    last one multiplies each power by its base; any other exponent raises
    every base from scratch, so the sum never depends on the request order.
    """

    def __init__(self, bases: Iterable[int]):
        self._bases = tuple(bases)
        self._k = 0
        self._powers = [1] * len(self._bases)

    def total(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"exponent must be >= 0, got {k}")
        if k == self._k + 1:
            self._powers = list(map(mul, self._powers, self._bases))
        else:
            self._powers = [b ** k for b in self._bases]
        self._k = k
        return sum(self._powers)


class PrimeContext:
    """Per-prime workspace shared by congruence evaluators.

    Holds the exact harmonic and order-2 harmonic prefixes H_0..H_{p-1},
    lazily computed per-prime sums, and the integer kernels behind the
    power-sum and shifted-tail evaluators, so a sweep builds each of them
    once per prime.
    """

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime >= 5, got {p}")
        self.p = p
        self.harmonics = tuple(harmonic(i) for i in range(p))
        self.gen_harmonics2 = tuple(gen_harmonic(i, 2) for i in range(p))
        self._even_ascent: dict[int, int] = {}
        self._odd_power_sum_total: int | None = None
        self._odd_harmonic_sum: Fraction | None = None
        self._tail_kernel: tuple[list[int], list[int], int] | None = None
        self._full_row = _PowerRow(range(1, p))
        self._half_square_row = _PowerRow(
            b * b for b in range(1, (p - 1) // 2 + 1))
        self._odd_square_row = _PowerRow(x * x for x in range(1, p - 1, 2))

    def odd_harmonic_sum(self) -> Fraction:
        if self._odd_harmonic_sum is None:
            self._odd_harmonic_sum = sum(
                (self.harmonics[m] for m in range(1, self.p - 1, 2)),
                Fraction(0),
            )
        return self._odd_harmonic_sum

    def even_ascent_residue(self, exponent: int = 1) -> int:
        """N_{p-2} mod p^exponent from the explicit Eulerian sums."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        if exponent not in self._even_ascent:
            p = self.p
            pk = p ** exponent
            binoms = _signed_binomials_mod(p - 2, p - 3, p, exponent)
            pows = [pow(a, p - 2, pk) for a in range(p)]
            total = 0
            for mm in range(0, p - 2, 2):
                total += sum(binoms[j] * pows[mm + 1 - j]
                             for j in range(mm + 1))
            self._even_ascent[exponent] = total % pk
        return self._even_ascent[exponent]

    def odd_power_sum_total(self) -> int:
        """sum over m = 0..(p-3)/2 of S_{2m+1, p-2}, exactly.

        Summed by power rather than by m: a^(p-2) occurs in S_{t, p-2} for
        each of the (p-1)/2 - a//2 odd t in [a, p-2].
        """
        if self._odd_power_sum_total is None:
            p = self.p
            half = (p - 1) // 2
            self._odd_power_sum_total = sum(
                a ** (p - 2) * (half - a // 2) for a in range(1, p - 1))
        return self._odd_power_sum_total

    def full_power_sum(self, k: int) -> int:
        """S_{p-1,k} = 1^k + 2^k + ... + (p-1)^k."""
        return self._full_row.total(k)

    def half_even_power_sum(self, k: int) -> int:
        """S_{(p-1)/2, 2k} = 1^(2k) + 2^(2k) + ... + ((p-1)/2)^(2k)."""
        return self._half_square_row.total(k)

    def odd_even_power_sum(self, k: int) -> int:
        """1^(2k) + 3^(2k) + ... + (p-2)^(2k), the odd bases below p."""
        return self._odd_square_row.total(k)

    def shifted_harmonic_tail(self, m: int) -> Fraction:
        """sum_{K=p-(2m+1)}^{p-2} H_K / (K + 2m + 2); empty at m = 0.

        Every term is put over the one denominator L M, where
        L = lcm(1..p-2) clears each H_K and M = lcm(p+1..2p-3) clears each
        divisor K + 2m + 2, so the tail is one integer dot product.
        """
        p = self.p
        if m < 0 or 2 * m + 1 > p - 1:
            raise ValueError(f"need 0 <= m <= (p-3)/2, got m={m}, p={p}")
        if self._tail_kernel is None:
            L = lcm(*range(1, p - 1))
            M = lcm(*range(p + 1, 2 * p - 2))
            h_times_l = [0]  # H_K * L for K = 0..p-2
            for K in range(1, p - 1):
                h_times_l.append(h_times_l[-1] + L // K)
            # M // d for the divisors d = p+1..2p-3, in order
            cofactors = [M // d for d in range(p + 1, 2 * p - 2)]
            self._tail_kernel = (h_times_l, cofactors, L * M)
        h_times_l, cofactors, denominator = self._tail_kernel
        # K = p-2m-1+i meets the divisor p+1+i for i = 0..2m-1
        terms = h_times_l[p - 2 * m - 1:p - 1]
        return Fraction(sum(map(mul, terms, cofactors)), denominator)


@lru_cache(maxsize=1)
def get_prime_context(p: int) -> PrimeContext:
    """The PrimeContext of the last prime asked for.

    A sweep batch holds the points of one prime, so one live context is
    enough, and the power rows and tail kernel of earlier primes are freed.
    """
    return PrimeContext(p)
