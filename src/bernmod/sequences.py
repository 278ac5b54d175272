"""Exact generators for the number families under study.

Bernoulli numbers (both B_1 conventions read one table, built from the
tangent numbers), divided Bernoulli numbers, harmonic and generalized harmonic
numbers, sums of powers, the Eulerian triangle with its even-ascent column
sums, the Fermat quotient of 2, and the power-weighted Bernoulli convolution.
Everything returns exact ints or Fractions; the *_mod variants return residues
mod p^k; fraction_sum adds exact terms over one denominator.
PrimeContext caches per-prime residue rows; N_{p-2} mod p^k is read off its
parity row of same-parity sums of a^(p-2).  Exact harmonic numbers are held
in one store, the per-order memo behind harmonic and gen_harmonic.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import comb, isqrt, lcm, prod
from operator import mul
from typing import Callable, Iterable

from .modular import is_prime, primes_in

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
    "sum_powers",
    "sum_powers_bernoulli",
    "eulerian",
    "eulerian_explicit",
    "eulerian_mod",
    "even_ascent_count",
    "even_ascent_count_mod",
    "tangent_side",
    "alternating_eulerian_sum",
    "fermat_quotient_2",
    "fraction_sum",
    "product_term",
    "weighted_convolution",
    "PrimeContext",
    "get_prime_context",
]

MINUS_HALF = "minus_half"
PLUS_HALF = "plus_half"
_CONVENTIONS = (MINUS_HALF, PLUS_HALF)


def von_staudt_denominator(n: int) -> int:
    """Product of the primes q with (q-1) | n; the denominator of B_n for even
    n.  The divisors d of n come in pairs (d, n // d) with d <= isqrt(n)."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    divisors = {d for a in range(1, isqrt(n) + 1) if n % a == 0
                for d in (a, n // a)}
    return prod(d + 1 for d in divisors if is_prime(d + 1))


def _von_staudt_denominators(top: int) -> list[int]:
    """von_staudt_denominator(n) at every n <= top, in one sieve pass: each
    prime q <= top + 1 multiplies into every multiple of q - 1.  Odd entries
    are 2 (only q = 2 has q - 1 | n), and entry 0 is 1."""
    d = [1] * (top + 1)
    if top >= 1:
        for q in primes_in(2, top + 1):
            for n in range(q - 1, top + 1, q - 1):
                d[n] *= q
    return d


class BernoulliTable:
    """Memoized Bernoulli numbers B_0..B_max, with B_1 = -1/2.

    Entries are appended on demand, exactly as far as read, from the tangent
    numbers T_m (tan x = sum T_m x^(2m-1)/(2m-1)!) by
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)); odd entries beyond B_1
    vanish.  The one state beyond the entries is the last column of the
    tangent triangle (R. P. Brent and D. Harvey, arXiv:1108.0286,
    TangentNumbers): column j ends in T_j, and each step to the next column
    costs O(j) integer operations.
    """

    def __init__(self, entries: dict[int, Fraction] | None = None):
        if entries is None:
            entries = {0: Fraction(1), 1: Fraction(-1, 2)}
        if not entries or sorted(entries) != list(range(len(entries))):
            raise ValueError("entries must be contiguous from index 0")
        self._entries = [entries[n] for n in range(len(entries))]
        self._column = [0, 1]  # column 1: T_1 = 1

    @property
    def max_index(self) -> int:
        return len(self._entries) - 1

    def items(self) -> list[tuple[int, Fraction]]:
        return list(enumerate(self._entries))

    def entries(self) -> list[Fraction]:
        """B_0..B_max, the entries held."""
        return self._entries[:]

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
        if n >= len(self._entries):
            self._extend(n)
        return self._entries[n]

    def _extend(self, target: int) -> None:
        """Append B_{max+1}..B_target.  The column may lag the entries (after
        a merge or a load); it advances from where it is either way."""
        e, col = self._entries, self._column
        for n in range(len(e), target + 1):
            if n % 2 == 1:
                e.append(Fraction(-1, 2) if n == 1 else Fraction(0))
                continue
            m = n // 2
            for j in range(len(col), m + 1):  # column j-1 to column j
                prev = col[1] = (j - 1) * col[1]
                for k in range(2, j):
                    prev = col[k] = (j - k) * col[k] + (j - k + 2) * prev
                col.append(2 * prev)
            # 1 << n is 4^m
            e.append(Fraction((-1) ** (m - 1) * n * col[m],
                              (1 << n) * ((1 << n) - 1)))

    def merge(self, values: list[Fraction]) -> None:
        """Adopt B_0, B_1, ... from `values` past where this table ends; an
        index it already holds must agree."""
        mine = self._entries
        for n, (a, b) in enumerate(zip(mine, values)):
            if a != b:
                raise ValueError(f"conflicting value for B_{n}")
        mine.extend(values[len(mine):])

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        e, top = self._entries, self.max_index
        if e[0] != 1:
            raise ValueError("B_0 must be 1")
        if top >= 1 and e[1] != Fraction(-1, 2):
            raise ValueError("B_1 must be -1/2")
        for n in range(3, top + 1, 2):
            if e[n] != 0:
                raise ValueError(f"B_{n} must be 0")
        want_den = _von_staudt_denominators(top)
        for n in range(2, top + 1, 2):
            if e[n].denominator != want_den[n]:
                raise ValueError(f"B_{n} has denominator {e[n].denominator}, "
                                 f"expected {want_den[n]}")
        # the defining recurrence sum_j C(n+1, j) B_j = 0 at the top entry
        # ties every earlier value in, so a single altered numerator anywhere
        # breaks it; summed as integers over D = lcm of the denominators, the
        # nonzero terms only, with C(n+1, j) as a running product
        n = top - top % 2
        if n >= 2:
            D = lcm(*want_den[:n + 1:2])
            total = (n + 1) * e[1].numerator * (D // e[1].denominator)
            c = 1  # C(n+1, j)
            for j in range(0, n + 1, 2):
                total += c * e[j].numerator * (D // e[j].denominator)
                c = c * (n + 1 - j) * (n - j) // ((j + 1) * (j + 2))
            if total != 0:
                raise ValueError(f"entries fail the defining recurrence "
                                 f"at B_{n}")


_TABLE = BernoulliTable()


def bernoulli_table() -> BernoulliTable:
    """The process-wide shared table, which serves both conventions."""
    return _TABLE


def bernoulli(n: int, convention: str = MINUS_HALF) -> Fraction:
    """Exact Bernoulli number B_n from the shared table, which stores
    B_1 = -1/2; under PLUS_HALF, B_1 is read as +1/2."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    b = _TABLE.value(n)
    return -b if n == 1 and convention == PLUS_HALF else b


def divided_bernoulli(n: int) -> Fraction:
    """B_n / n for n >= 1 (B_1 convention -1/2)."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return bernoulli(n) / n


# H_0^(r), H_1^(r), ... per order r, as far as read: the one harmonic store
_GEN_HARMONIC: defaultdict[int, list[Fraction]] = defaultdict(
    lambda: [Fraction(0)])


def harmonic(n: int) -> Fraction:
    """H_n = sum_{j=1}^{n} 1/j, with H_0 = 0."""
    return gen_harmonic(n, 1)


def gen_harmonic(n: int, r: int) -> Fraction:
    """H_n^(r) = sum_{j=1}^{n} 1/j^r, with H_0^(r) = 0."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    h = _GEN_HARMONIC[r]
    while len(h) <= n:
        h.append(h[-1] + Fraction(1, len(h) ** r))
    return h[n]


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
    acc = fraction_sum(
        product_term(comb(k + 1, j) * n ** (k + 1 - j), bernoulli(j, PLUS_HALF))
        for j in range(k + 1)) / (k + 1)
    if acc.denominator != 1:
        raise AssertionError(f"power-sum formula gave non-integer {acc}")
    return int(acc)


@lru_cache(maxsize=1)
def _eulerian_row(n: int) -> tuple[int, ...]:
    """E(n, 0..n-1), built down the triangle one row at a time; only the
    last row asked for is kept."""
    row = (1,)
    for d in range(2, n + 1):
        prev = (0, *row, 0)
        row = tuple((j + 1) * prev[j + 1] + (d - j) * prev[j]
                    for j in range(d))
    return row


def eulerian(n: int, m: int) -> int:
    """Eulerian number E(n, m) by the triangular recurrence; 0 outside the row."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if m < 0 or m > n - 1:
        return 0
    return _eulerian_row(n)[m]


def eulerian_explicit(n: int, m: int) -> int:
    """E(n, m) by the alternating binomial sum; 0 outside the row."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if m < 0 or m > n - 1:
        return 0
    return sum(
        (-1) ** j * comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1)
    )


def eulerian_mod(n: int, m: int, p: int, k: int = 1) -> int:
    """E(n, m) mod p^k in [0, p^k) by the alternating binomial sum in O(m)
    steps: the powers are taken mod p^k, the binomials exactly."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"need a prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    pk = p ** k
    if m < 0 or m > n - 1:
        return 0
    total, c = 0, 1  # c = (-1)^j C(n+1, j)
    for j in range(m + 1):
        total += c * pow(m + 1 - j, n, pk)
        c = -c * (n + 1 - j) // (j + 1)
    return total % pk


def even_ascent_count(n: int) -> int:
    """N_n: permutations of degree n with an even number of ascents."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return sum(eulerian(n, m) for m in range(0, n, 2))


def even_ascent_count_mod(p: int, k: int = 1) -> int:
    """N_{p-2} mod p^k, in [0, p^k), for a prime p >= 5, off the parity
    row of its PrimeContext."""
    return get_prime_context(p).even_ascent_residue(k)


def _require_odd(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need odd n >= 1, got {n}")


def tangent_side(n: int) -> Fraction:
    """2^(n+1) (2^(n+1) - 1) B_{n+1} / (n+1) at odd n: the left side of the
    tangent-number relation."""
    _require_odd(n)
    w = 2 ** (n + 1)
    return w * (w - 1) * bernoulli(n + 1) / (n + 1)


def alternating_eulerian_sum(n: int) -> Fraction:
    """sum_{m=0}^{n-1} (-1)^m E(n, m) at odd n: the right side of the
    tangent-number relation."""
    _require_odd(n)
    return Fraction(sum((-1) ** m * eulerian(n, m) for m in range(n)))


def fermat_quotient_2(p: int) -> int:
    """q_2(p) = (2^(p-1) - 1) / p, exact, for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    num = 2 ** (p - 1) - 1
    if num % p:
        raise AssertionError(f"2^{p - 1} - 1 not divisible by {p}")
    return num // p


def fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """sum n/d over (n, d) int pairs, d != 0, unreduced, as one Fraction: one
    lcm D, one dot product sum n (D // d) and one gcd, not two gcds a term."""
    terms = list(terms)
    D = lcm(*(d for _, d in terms))
    return Fraction(sum(n * (D // d) for n, d in terms), D)


def product_term(*factors: int | Fraction) -> tuple[int, int]:
    """Unreduced (numerator, denominator) of a product of ints and Fractions."""
    n = d = 1
    for f in factors:
        n *= f.numerator
        d *= f.denominator
    return n, d


def weighted_convolution(p: int, a: int = 2) -> Fraction:
    """CB_w^(a)(p-1) = sum_{i=2}^{p-3} (B_i / a^i) B_{p-1-i}, exact."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    if not 1 <= a <= p - 1:
        raise ValueError(f"weight must be in [1, {p - 1}], got {a}")
    # odd i contribute nothing: B_i = 0 for odd i >= 3
    return fraction_sum(
        product_term(bernoulli(i), Fraction(1, a ** i), bernoulli(p - 1 - i))
        for i in range(2, p - 2, 2))


def _pack(values: Iterable[int], w: int) -> int:
    """One int holding the values in slots of w bytes, the first lowest."""
    return int.from_bytes(b"".join([v.to_bytes(w, "little") for v in values]),
                          "little")


def _slots(x: int, w: int, first: int, count: int) -> list[int]:
    """count slots of w bytes of x >= 0 from slot `first` on, the lowest
    first; a slot past the top of x is 0."""
    b = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return [int.from_bytes(b[i:i + w], "little")
            for i in range(first * w, (first + count) * w, w)]


def _half_power_sums(h: int, top: int, q: int) -> list[int]:
    """S_{h,j} = 1^j + 2^j + ... + h^j mod q for j = 0..top, by baby and
    giant steps over packed ints: with m = isqrt(top + 1), each base a gets
    one int holding a^0..a^(m-1) mod q in slots of w bytes, and giant row u
    is the dot product of the a^(um) mod q (no pow: row 0 is a^0 = 1) with
    those ints, whose slot v is S_{h,um+v} before reduction.  A slot sums h
    products below q^2, so w bytes hold it with no carry into the next slot.
    """
    m = isqrt(top + 1)
    w = (2 * q.bit_length() + h.bit_length() + 7) // 8
    packs, steps = [], []
    for a in range(1, h + 1):
        baby, x = [], 1
        for _ in range(m):
            baby.append(x.to_bytes(w, "little"))
            x = x * a % q
        packs.append(int.from_bytes(b"".join(baby), "little"))
        steps.append(x)
    giant, sums = [1] * h, []
    while len(sums) <= top:
        sums += [s % q for s in _slots(sum(map(mul, giant, packs)), w, 0, m)]
        giant = [g * s % q for g, s in zip(giant, steps)]
    return sums[:top + 1]


class PrimeContext:
    """Per-prime workspace shared by congruence evaluators.

    Holds rows only: the residue tables of the catalog's prime-indexed
    sides mod p^N, a row per exponent N that the reader names: Bernoulli
    numbers, half-range and full-range power sums, inverses, harmonic
    numbers and the parity row of a^(p-2), which also holds the odd-power
    total and N_{p-2}.  Every row grows by one rule, _grow: one source call,
    or a reduction of a finer row.  It holds no exact harmonic numbers.
    Building one is a check's prime test.
    """

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime >= 5, got {p}")
        self.p = p
        self._parity_power: dict[int, list[int]] = {}
        self._bernoulli: dict[int, list[int]] = {}
        self._half_power: dict[int, list[int]] = {}
        self._full_power: dict[int, list[int]] = {}
        self._harmonic: dict[int, list[int]] = {}
        self._inverse: dict[int, list[int]] = {}

    def _parity_row(self, exponent: int) -> list[int]:
        """P_0..P_{p-2}, their total and N_{p-2} mod p^exponent: one row
        grown by _grow from one pow pass.  N_{p-2} groups the explicit sums
        E(p-2, mm) over even mm by j: the sum over j < p-2 of (-1)^j
        C(p-1, j) P_{p-2-j}, the binomials a running product over the
        inverses 1/j, all units since j < p."""
        p = self.p

        def by_parity(top: int, q: int) -> list[int]:
            row = [pow(a, p - 2, q) for a in range(p - 1)]
            for t in range(2, p - 1):
                row[t] = (row[t] + row[t - 2]) % q
            c, ascents = 1, 0
            for j, v in enumerate(self.inverse_residues(exponent)[1:p - 1]):
                ascents += c * row[p - 2 - j]  # c = (-1)^j C(p-1, j)
                c = -c * (p - 1 - j) * v % q  # v = 1/(j+1)
            return row + [sum(row) % q, ascents % q]

        return self._grow(self._parity_power, exponent, p, by_parity)

    def parity_power_residues(self, exponent: int) -> list[int]:
        """P_t = sum of a^(p-2) over 0 < a <= t with a = t (mod 2), mod
        p^exponent, for t = 0..p-2: the parity row less its two sums."""
        return self._parity_row(exponent)[:self.p - 1]

    def even_ascent_residue(self, exponent: int = 1) -> int:
        """N_{p-2} mod p^exponent, summed into the parity row."""
        return self._parity_row(exponent)[self.p]

    def odd_power_residue(self, exponent: int) -> int:
        """sum over m = 0..(p-3)/2 of S_{2m+1, p-2}, mod p^exponent: the
        parity row's total, since S_{t, p-2} = P_t + P_{t-1}."""
        return self._parity_row(exponent)[self.p - 1]

    def _grow(self, rows: dict[int, list[int]], exponent: int, top: int,
              source: Callable[[int, int], list[int]]) -> list[int]:
        """The row at `exponent` in `rows`, grown to top + 1 entries for the
        largest top read, from the longest row at a higher exponent if it
        reaches top, else from source(top, q), the entries 0..top mod
        q = p^exponent.  A top between p and 2p reads to 2p: E. Lehmer's
        rows end there, read to 2p - 2 at p^3 first.  A sweep reads a
        prime's finest exponent first, so each source runs once a prime."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        if self.p < top < 2 * self.p:
            top = 2 * self.p
        row = rows.setdefault(exponent, [])
        if len(row) <= top:
            q = self.p ** exponent
            finer = max((r for e, r in rows.items() if e > exponent),
                        key=len, default=[])
            if len(finer) > top:
                row += [x % q for x in finer[len(row):top + 1]]
            else:
                row += source(top, q)[len(row):]
        return row

    def bernoulli_residues(self, exponent: int, top: int) -> list[int]:
        """B_i mod p^exponent for i = 0..top at least, except at the positive
        multiples of p-1, where p divides the squarefree denominator: those
        hold p B_i mod p^exponent.  Grown by _grow from the exact table, read
        through one value(top) and one slice of its entries, of which only
        B_0, B_1 and the even entries are reduced: B_i = 0 at odd i > 1."""
        def exact(top: int, q: int) -> list[int]:
            table = bernoulli_table()
            table.value(top)
            return [0 if i % 2 and i > 1 else self._bernoulli_mod(x, q)
                    for i, x in enumerate(table.entries()[:top + 1])]

        return self._grow(self._bernoulli, exponent, top, exact)

    def bernoulli_residue(self, exponent: int, n: int) -> int:
        """Entry n of bernoulli_residues(exponent, n), without growing a row:
        reduced from a row held at this exponent or a finer one that reaches
        n, else from the one exact B_n.  For the sides that read a few
        entries of a row they do not sum over."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        q = self.p ** exponent
        for e, row in self._bernoulli.items():
            if e >= exponent and 0 <= n < len(row):
                return row[n] % q
        return self._bernoulli_mod(bernoulli(n), q)

    def _bernoulli_mod(self, x: Fraction, q: int) -> int:
        """x mod q, or p x mod q where p divides the squarefree denominator
        of x, as at B_n for the positive multiples n of p-1."""
        p, (n, d) = self.p, x.as_integer_ratio()
        return n % q * pow(d // p if d % p == 0 else d, -1, q) % q

    def half_power_residues(self, exponent: int, top: int) -> list[int]:
        """S_{h,j} = 1^j + 2^j + ... + h^j mod p^exponent, h = (p-1)/2, for
        j = 0..top at least, grown by _grow from _half_power_sums."""
        return self._grow(self._half_power, exponent, top,
                          partial(_half_power_sums, (self.p - 1) // 2))

    def full_power_residues(self, exponent: int, top: int) -> list[int]:
        """S_{p-1,k} mod p^exponent for k = 0..top, a row grown by _grow
        from the half-range row by E. Lehmer's pairing of a with p - a:
        (p - a)^k expanded in powers of p leaves S_{h,k} + (-1)^k
        sum_{i < exponent} C(k, i) (-p)^i S_{h,k-i}, a pass per i."""
        def paired(top: int, q: int) -> list[int]:
            s = self.half_power_residues(exponent, top)
            t = s[:top + 1]  # the term i = 0
            for i in range(1, min(exponent, top + 1)):
                c = (-self.p) ** i
                t[i:] = [x + comb(k, i) * c * y
                         for k, x, y in zip(range(i, top + 1), t[i:], s)]
            return [(y - x if k % 2 else y + x) % q
                    for k, (x, y) in enumerate(zip(t, s))]

        return self._grow(self._full_power, exponent, top, paired)[:top + 1]

    def harmonic_residues(
            self, exponent: int) -> tuple[list[int], list[int], list[int]]:
        """H_K and H_K^(2) mod p^exponent for K = 0..p-1, and the inverses
        of p+1..2p-3, the divisors of the shifted harmonic tail: the three
        parts of one row of 3p - 3 entries grown by _grow.  Exponent 0 is
        the modulus 1, where every residue is 0."""
        p = self.p
        if exponent == 0:
            return [0] * p, [0] * p, [0] * (p - 3)

        def by_inverses(top: int, q: int) -> list[int]:
            # 1/(p + j) = v (1 - pv + (pv)^2 - ...), v = 1/j, to p^N | (pv)^N
            inverses, shifted = self.inverse_residues(exponent), []
            for v in inverses[1:p - 2]:
                x, total = -p * v % q, 0
                while v:
                    total, v = total + v, v * x % q
                shifted.append(total % q)
            h, h2 = ([x % q for x in accumulate(row)]
                     for row in (inverses, [v * v for v in inverses]))
            return h + h2 + shifted

        row = self._grow(self._harmonic, exponent, 3 * p - 4, by_inverses)
        return row[:p], row[p:2 * p], row[2 * p:]

    def inverse_residues(self, exponent: int) -> list[int]:
        """1/j mod p^exponent for j = 0..p-1 (0 at j = 0), a row grown by
        _grow from q = (q // j) j + q % j, where q % j < j."""
        def by_division(top: int, q: int) -> list[int]:
            row = [0, 1]
            for j in range(2, top + 1):
                row.append(-(q // j) * row[q % j] % q)
            return row

        return self._grow(self._inverse, exponent, self.p - 1, by_division)


@lru_cache(maxsize=1)
def get_prime_context(p: int) -> PrimeContext:
    """The PrimeContext of the last prime asked for.

    A sweep batch holds the points of one prime, so one live context is
    enough, and the residue tables of earlier primes are freed.
    """
    return PrimeContext(p)
