"""Catalog of congruences and exact identities, with check and sweep drivers.

Each catalog entry carries independent evaluators for its two sides.  A check
computes both sides in exact residue arithmetic at the declared prime power
(or as exact rationals, compared exactly), and reports verified / failed /
inapplicable / not_p_integral, or error when an evaluator raises.  Sweeps
run the catalog over a prime range with deterministic report ordering
regardless of worker parallelism.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from math import comb, factorial, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple

from .modular import (
    NotPIntegral,
    hensel_digit,
    is_prime,
    mod_reduce,
    primes_in,
)
from .sequences import (
    PrimeContext,
    _pack,
    _slots,
    alternating_eulerian_sum,
    bernoulli,
    bernoulli_table,
    divided_bernoulli,
    fermat_quotient_2,
    fraction_sum,
    gen_harmonic,
    get_prime_context,
    harmonic,
    product_term,
    tangent_side,
    von_staudt_denominator,
)

__all__ = [
    "VERIFIED",
    "FAILED",
    "INAPPLICABLE",
    "NOT_P_INTEGRAL",
    "ERROR",
    "UnknownIdentity",
    "CheckReport",
    "IdentityDescriptor",
    "catalog",
    "identity_ids",
    "check",
    "sweep",
    "theorem1_rhs",
]

VERIFIED = "verified"
FAILED = "failed"
INAPPLICABLE = "inapplicable"
NOT_P_INTEGRAL = "not_p_integral"
ERROR = "error"


class UnknownIdentity(KeyError):
    """No catalog entry under that identifier."""


@dataclass
class CheckReport:
    """Outcome of one identity check at one parameter point."""

    identity: str
    params: dict[str, int]
    status: str
    # a residue in [0, modulus) at a modular point, the exact value at an
    # exact one, None when no value was reached
    lhs: int | Fraction | None
    rhs: int | Fraction | None
    modulus: int | None  # None for exact comparisons
    elapsed: float = 0.0


class Chunk(NamedTuple):
    """One identity at its points of one prime, or an index identity at all
    its points, as parameter tuples; per point both sides (None where no
    value was reached) and the status; elapsed is each point's share."""

    identity: str
    params: tuple[str, ...]
    points: list[tuple[int, ...]]
    lhs: tuple
    rhs: tuple
    status: list[str]
    modulus: int | None
    elapsed: float


@dataclass(frozen=True)
class IdentityDescriptor:
    """One catalog entry: evaluators, domain, modulus, and sweep points."""

    id: str
    title: str
    source: str
    params: tuple[str, ...]
    exponent: int | None  # prime-power exponent; None compares exactly
    lhs: Callable[..., int | Fraction | list]
    rhs: Callable[..., int | Fraction | list]
    domain: Callable[..., bool]
    # the points at a prime p as parameter tuples; an index identity's: None
    points: Callable[[int | None], list[tuple[int, ...]]]
    counted: Callable[..., bool] | None = None  # None: every domain point counts


# ---------------------------------------------------------------------------
# shared evaluator pieces
#
# The prime-indexed sides are residues mod p^N, N = ctx.exponent, read from
# the context's tables: a Bernoulli side that sums over a row from
# bernoulli_residues, one that reads a few entries from bernoulli_residue, a
# power side from power residues, a harmonic side from harmonic_residues.

def _divided_convolution(t: int) -> Fraction:
    """sum_{j=2}^{t-2} (B_j/j)(B_{t-j}/(t-j)); odd j contribute nothing."""
    return fraction_sum(product_term(
        bernoulli(j), bernoulli(t - j), Fraction(1, j * (t - j)))
        for j in range(2, t - 1, 2))


def _convolution_residue(ctx: PrimeContext, p: int, s: int) -> int:
    """sum_{j=2}^{t-2} B_j B_{t-j} mod p^N at t = p - s, s odd."""
    t = p - s
    b = ctx.bernoulli_residues(ctx.exponent, t)
    return sum(map(mul, b[2:t - 1:2], b[t - 2:1:-2])) % p ** ctx.exponent


def _divided_residue(ctx: PrimeContext, p: int, s: int) -> int:
    """sum_{j=2}^{t-2} (B_j/j)(B_{t-j}/(t-j)) mod p^N at t = p - s, s odd."""
    t, q = p - s, p ** ctx.exponent
    b = ctx.bernoulli_residues(ctx.exponent, t)
    inverses = ctx.inverse_residues(ctx.exponent)
    d = [b[j] * inverses[j] for j in range(2, t - 1, 2)]
    return sum(map(mul, d, reversed(d))) % q


def _theorem1_lhs(ctx: PrimeContext, p: int) -> int:
    """CB(p) = sum_{i=2}^{p-3} (B_i / 2^i) B_{p-1-i} mod p^N; odd i
    contribute nothing, so the weights step by 1/4."""
    q = p ** ctx.exponent
    b = ctx.bernoulli_residues(ctx.exponent, p - 1)
    w = _quarter_powers(q, (p - 1) // 2)
    return sum(b[i] * w[i // 2] * b[p - 1 - i]
               for i in range(2, p - 2, 2)) % q


def _p_bernoulli_row(ctx: PrimeContext, top: int) -> list[int]:
    """p B_n mod p^N for n = 0..top from the Bernoulli row, which holds
    p B_n itself where p divides the denominator, at n a multiple of p - 1."""
    p, q = ctx.p, ctx.p ** ctx.exponent
    b = ctx.bernoulli_residues(ctx.exponent, top)[:top + 1]
    return [x if n and n % (p - 1) == 0 else p * x % q
            for n, x in enumerate(b)]


def _quarter_powers(q: int, count: int) -> list[int]:
    """4^-k mod q for k = 0..count-1, by a running product."""
    quarter = pow(4, -1, q)
    return list(accumulate(repeat(quarter, count - 1),
                           lambda w, _: w * quarter % q, initial=1))


def _agoh_giuga_residue(ctx: PrimeContext, exponent: int) -> int:
    """A_p = (1 + p B_{p-1}) / p mod p^exponent, from p B_{p-1} one power
    higher: p B_{p-1} = -1 mod p, so the division is exact."""
    r = ctx.p ** (exponent + 1)
    return (1 + ctx.bernoulli_residue(exponent + 1, ctx.p - 1)) % r // ctx.p


def _two_n_digits(ctx: PrimeContext) -> tuple[int, int]:
    """Base-p digits 0 and 1 of 2 N_{p-2}, via the modular Eulerian path."""
    p = ctx.p
    r = 2 * ctx.even_ascent_residue(2) % (p * p)
    return r % p, (r // p) % p


def theorem1_rhs(p: int) -> Fraction:
    """Exact harmonic-sum side of the main convolution congruence."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    half = (p - 3) // 2
    S = fraction_sum(product_term(harmonic(m)) for m in range(1, p - 1, 2))
    G = fraction_sum(product_term(gen_harmonic(2 * m, 2))
                     for m in range(1, half + 1))
    X = fraction_sum(product_term(harmonic(2 * m), harmonic(2 * m + 1))
                     for m in range(1, half + 1))
    # T sums H_1/(2m-1) + ... + H_{2m-1}/1 over m >= 2 by its closed form
    # H_{2m}^2 - H_{2m}^(2) (see _lemma2_rhs); H_2^(2) = 5/4
    T = fraction_sum(product_term(harmonic(2 * m), harmonic(2 * m))
                     for m in range(2, half + 1)) - (G - Fraction(5, 4))
    # digit terms, inside-out: inner digits are plain integers in [0, p)
    d = hensel_digit(2 * S, p, 0)
    term2 = 2 * hensel_digit(Fraction(d, 2), p, 1)
    e = hensel_digit(S, p, 0)
    term3 = hensel_digit(2 * e, p, 1)
    return -1 + term2 + term3 + 6 * S + 4 * G - 4 * X - 4 * S * S + 2 * T


# ---------------------------------------------------------------------------
# evaluators: a prime-indexed side takes (ctx, p), ctx the PrimeContext; an
# index identity's exact side takes its point's parameters alone (see _each)

def _euler_lhs(n):
    return fraction_sum(product_term(comb(n, j), bernoulli(j), bernoulli(n - j))
                        for j in range(n + 1))


def _euler_rhs(n):
    return -n * bernoulli(n - 1) - (n - 1) * bernoulli(n)


def _miki_lhs(n):
    return fraction_sum(product_term(
        comb(n, j), bernoulli(j), bernoulli(n - j), Fraction(1, j * (n - j)))
        for j in range(2, n - 1))


def _miki_rhs(n):
    return _divided_convolution(n) - 2 * divided_bernoulli(n) * harmonic(n)


def _one_rhs(ctx, p):
    return 1


def _zhao_p3_rhs(ctx, p):
    return -2 * ctx.bernoulli_residue(ctx.exponent, p - 3)


def _zhao_p5_rhs(ctx, p):
    n, q = ctx.exponent, p ** ctx.exponent
    return (-2 * ctx.bernoulli_residue(n, p - 5) - 2 * pow(3, -1, q)
            * ctx.bernoulli_residue(n, p - 3) ** 2) % q


def _lev3_p1_rhs(ctx, p):
    # digit 2 of 2p B_{2p-2}/(2p-2) - p^2 (B_{p-1}/(p-1))^2, that is of
    # (p B_{2p-2} - (p B_{p-1})^2 / (p-1)) / (p-1), read at p^3
    r = p ** 3
    b1, b2 = (ctx.bernoulli_residue(3, i) for i in (p - 1, 2 * p - 2))
    inv = pow(p - 1, -1, r)
    return (b2 - b1 ** 2 * inv) * inv % r // (p * p)


def _lev3_shifted_rhs(ctx, p, s):
    # 2 (A_p - 1) D_{p-s} + 2 (digit 1 of D_{2p-1-s} - D_{p-s}), D_i = B_i/i,
    # less D_{p-3}^2 at s = 5; A_p and the digit read B_i mod p^(N+1).  For
    # p >= 5 the one divisor that p divides is 0 = p - s, at s = p
    if s == p:
        raise NotPIntegral(f"D_0 = B_0/0 is not p-integral at p={p}")
    n = ctx.exponent
    r = p ** (n + 1)
    d = {i: ctx.bernoulli_residue(n + 1, i) * pow(i, -1, r) % r
         for i in (p - 3, p - s, 2 * p - 1 - s)}
    digit = (d[2 * p - 1 - s] - d[p - s]) % (p * p) // p
    value = 2 * (_agoh_giuga_residue(ctx, n) - 1) * d[p - s] + 2 * digit
    if s == 5:
        value -= d[p - 3] ** 2
    return value % p ** n


def _sub_h_lhs(ctx, p, r=1):
    # sum_{k<p} H_k^(r) / (k 2^k); 1/k is H_k - H_{k-1}
    q = p ** ctx.exponent
    h, h2, _ = ctx.harmonic_residues(ctx.exponent)
    hr = h if r == 1 else h2
    half, w, total = pow(2, -1, q), 1, 0
    for k in range(1, p):
        w = w * half % q
        total += hr[k] * (h[k] - h[k - 1]) * w
    return total % q


def _sub_h_rhs(ctx, p):
    b = ctx.bernoulli_residue(ctx.exponent, p - 3)
    q = p ** ctx.exponent
    return 7 * pow(24, -1, q) * p * b % q


def _sub_h2_rhs(ctx, p):
    q = p ** ctx.exponent
    return -3 * pow(8, -1, q) * ctx.bernoulli_residue(ctx.exponent, p - 3) % q


def _lev3_b_lhs(ctx, p):
    # sum_{k=1}^{p-2} B_k / (k 2^k); odd k > 1 contribute nothing
    n, q = ctx.exponent, p ** ctx.exponent
    b, inverses = ctx.bernoulli_residues(n, p - 2), ctx.inverse_residues(n)
    w = _quarter_powers(q, (p - 1) // 2)
    return (b[1] * inverses[2] + sum(b[k] * w[k // 2] * inverses[k]
                                     for k in range(2, p - 1, 2))) % q


def _lev3_b_rhs(ctx, p):
    # -H_{(p-1)/2} / 2 + A_p - 1
    n = ctx.exponent
    q = p ** n
    h, _, _ = ctx.harmonic_residues(n)
    return (-h[(p - 1) // 2] * pow(2, -1, q)
            + _agoh_giuga_residue(ctx, n) - 1) % q


def _even_ascent_lhs(ctx, p):
    return ctx.even_ascent_residue(ctx.exponent)


def _result1_rhs(ctx, p):
    # sum_m T_m regrouped by K: H_K meets 1/j once for every p < j < p + K
    # with j = K (mod 2), so one running sum per parity of K covers it; the
    # tails are multiplied by p, so they count only mod p^(N-1)
    n = ctx.exponent
    h, _, shifted = ctx.harmonic_residues(n - 1)
    parity_sums, tails = [0, 0], 0
    for K in range(2, p - 1):
        parity_sums[K % 2] += shifted[K - 2]  # 1/(p + K - 1)
        tails += h[K] * parity_sums[K % 2]
    return (ctx.odd_power_residue(n) - p * tails) % p ** n


def _q2_lhs(ctx, p):
    return fermat_quotient_2(p)


def _result2_rhs(ctx, p):
    return 2 * ctx.even_ascent_residue(ctx.exponent) - 1


def _result3_lhs(ctx, p):
    # the odd x <= p-2: P_{p-2} of the parity row
    return ctx.parity_power_residues(ctx.exponent)[p - 2]


def _result3_rhs(ctx, p):
    # p A_p needs A_p mod p^(N-1) only
    d0, d1 = _two_n_digits(ctx)
    n = ctx.exponent
    ag = _agoh_giuga_residue(ctx, n - 1)
    return (d0 - 1 + p * (ag + d1 - (d0 - 1) ** 2 - 2)) % p ** n


def _odd_harmonic_sum(ctx, p):
    # H_1 + H_3 + ... + H_{p-2}
    h, _, _ = ctx.harmonic_residues(ctx.exponent)
    return sum(h[1:p - 1:2]) % p ** ctx.exponent


def _odd_reciprocal_sum(ctx, p):
    # 1 + 1/3 + ... + 1/(p-2) is H_{p-1} less its even terms, which add up
    # to H_{(p-1)/2} / 2
    q = p ** ctx.exponent
    h, _, _ = ctx.harmonic_residues(ctx.exponent)
    return (h[p - 1] - h[(p - 1) // 2] * pow(2, -1, q)) % q


# The identities with a parameter after p have row evaluators: lhs(ctx, p,
# top) and rhs(ctx, p, top) give the residues at k = 0..top (at m = 0..top
# for lemma2), each in one pass over the context's tables.  An index
# identity's lhs(ctx, points) and rhs(ctx, points) are rows over its points.

def _lehmer_i_lhs(ctx, p, top):
    return _p_bernoulli_row(ctx, 2 * top)[::2]


def _lehmer_i_rhs(ctx, p, top):
    # p - 2a for a = 1..(p-1)/2 runs over the odd numbers below p, the full
    # range less the even bases 2a: (S_{p-1,2k} - 4^k S_{h,2k}) / 2^(2k-1)
    n, q = ctx.exponent, p ** ctx.exponent
    full = ctx.full_power_residues(n, 2 * top)[::2]
    half = ctx.half_power_residues(n, 2 * top)[::2]
    return [2 * (w * f - h) % q
            for w, f, h in zip(_quarter_powers(q, top + 1), full, half)]


def _lehmer_ii_lhs(ctx, p, top):
    return ctx.half_power_residues(ctx.exponent, 2 * top)[:2 * top + 1:2]


def _lehmer_ii_rhs(ctx, p, top):
    # (2^(1-2k) - 1) p B_{2k} / 2 = (4^(-k) - 2^(-1)) p B_{2k}
    q = p ** ctx.exponent
    half, b = pow(2, -1, q), _p_bernoulli_row(ctx, 2 * top)[::2]
    return [(w - half) * x % q
            for w, x in zip(_quarter_powers(q, top + 1), b)]


def _sun_lhs(ctx, p, top):
    return ctx.full_power_residues(ctx.exponent, top)


def _sun_rhs(ctx, p, top):
    # p B_k + (p^2 / 2) k B_{k-1}; at k = 0 the second term vanishes
    q = p ** ctx.exponent
    b, half = _p_bernoulli_row(ctx, top), pow(2, -1, q)
    return [(b[k] + p * k * b[k - 1] * half) % q for k in range(top + 1)]


def _alzer_rhs(n):
    return (harmonic(n) ** 2 + gen_harmonic(n, 2)) / 2


def _cs1_rhs(n):
    return (harmonic(n + 1) ** 2 - gen_harmonic(n + 1, 2)) / 2


def _cs2_rhs(n):
    return ((harmonic(n + 2) ** 2 - gen_harmonic(n + 2, 2)) / 2
            + Fraction(1, n + 2) - 1)


def _cs3_rhs(n):
    return ((harmonic(n + 3) ** 2 - gen_harmonic(n + 3, 2)) / 2
            + Fraction(3, 2 * (n + 3)) + Fraction(1, 2 * (n + 2))
            - Fraction(7, 4))


def _harmonic_prefix(top: int) -> tuple[int, list[int], list[int], list[int]]:
    """L = lcm(1..top) and, for j = 0..top, the integers L / j (0 at j = 0),
    H_j L and H_j^(2) L^2, built on each call."""
    L = lcm(*range(1, top + 1))
    recips = [0] + [L // j for j in range(1, top + 1)]
    return (L, recips, list(accumulate(recips)),
            list(accumulate(x * x for x in recips)))


def _h_over_shift_lhs(ctx, points, s=None):
    # sum_{j<=n} H_j / (j + s) at each point (n,), or (n, s) for prop1: one
    # running sum of the integers H_j L * L / (j + s) per shift, over L^2
    pairs = [(pt[0], s if s is not None else pt[1]) for pt in points]
    L, recips, hl, _ = _harmonic_prefix(max(n + t for n, t in pairs))
    top, square = max(n for n, _ in pairs), L * L
    runs = {t: list(accumulate(map(mul, hl[:top + 1], recips[t:])))
            for t in {t for _, t in pairs}}
    return [Fraction(runs[t][n], square) for n, t in pairs]


def _prop1_rhs(ctx, points):
    # main + corr - base - cross + tail at each point (n, s), all over
    # 2 L^2; base - 2 (tail - cross) depends on s alone
    L, recips, hl, h2l2 = _harmonic_prefix(max(n + s for n, s in points))
    fixed = {s: hl[s] ** 2 - h2l2[s] + 2 * (hl[s - 1] * hl[s] - sum(
        hl[k] * recips[s - k] for k in range(1, s)))
        for s in {s for _, s in points}}
    return [Fraction(
        hl[n + s] ** 2 - h2l2[n + s] - fixed[s] + 2 * sum(
            (hl[s - 1] - hl[i]) * recips[n + s - i] for i in range(s - 1)),
        2 * L * L) for n, s in points]


def _lemma1_lhs(ctx, p):
    return ctx.odd_power_residue(ctx.exponent)


def _lemma1_rhs(ctx, p):
    # d0/2 + p (d0/2 + d1/2 - (d0-1)^2/2 - CB/2 - 1)
    d0, d1 = _two_n_digits(ctx)
    q = p ** ctx.exponent
    cb = _theorem1_lhs(ctx, p)
    return ((d0 + p * (d0 + d1 - (d0 - 1) ** 2 - cb - 2))
            * pow(2, -1, q) % q)


def _lemma2_lhs(ctx, p, top):
    # -p times the tails T_j = sum_{K=j}^{p-2} H_K / (K + 2m + 2) at
    # j = p-2m-1, which count only mod p^(N-1).  K = j + i meets the divisor
    # p+1+i, so T_j is slot j + p - 4 of the product of two ints that hold
    # H_0..H_{p-2} and the inverses of 2p-3 down to p+1 in slots of w bytes,
    # room for a sum of p products; only the slots of m = 1..top are read
    n = ctx.exponent
    h, _, inverses = ctx.harmonic_residues(n - 1)
    w = (2 * (p ** (n - 1)).bit_length() + p.bit_length() + 7) // 8
    t = _slots(_pack(h[:p - 1], w) * _pack(reversed(inverses), w), w,
               2 * p - 2 * top - 5, 2 * top - 1)
    return [0] + [-p * x % p ** n for x in t[::-2]]


def _lemma2_rhs(ctx, p, top):
    # p (2 H_n^(2) - 2 H_n H_{n+1} + sum_{s<n} H_s/(n-s)) at n = 2m; that
    # sum is H_n^2 - H_n^(2), since both equal 2 sum_{s<=n} H_{s-1}/s
    q = p ** ctx.exponent
    h, h2, _ = ctx.harmonic_residues(ctx.exponent - 1)
    return [p * (h2[n] + h[n] * (h[n] - 2 * h[n + 1])) % q
            for n in range(0, 2 * top + 1, 2)]


def _theorem1_rhs(ctx, p):
    # -1 + 2 d1(d0(2S)/2) + d1(2 d0(S)) + 6S + 4G - 4X - 4S^2 + 2T, where
    # d_i is base-p digit i; S = H_1 + H_3 + ... + H_{p-2}, G sums H_{2m}^(2)
    # and X sums H_{2m} H_{2m+1} over m <= (p-3)/2, and T sums H_{2m}^2 -
    # H_{2m}^(2) over 2 <= m <= (p-3)/2 (see theorem1_rhs)
    q = p ** ctx.exponent
    h, h2, _ = ctx.harmonic_residues(ctx.exponent)
    S = sum(h[1:p - 1:2])
    G = sum(h2[2:p - 2:2])
    X = sum(map(mul, h[2:p - 2:2], h[3:p - 1:2]))
    T = sum(x * x for x in h[4:p - 2:2]) - G + 5 * pow(4, -1, q)
    term2 = 2 * (2 * S % p * pow(2, -1, p * p) % (p * p) // p)
    term3 = 2 * (S % p) // p
    return (-1 + term2 + term3 + 6 * S + 4 * G - 4 * X - 4 * S * S
            + 2 * T) % q


def _remark1b_rhs(ctx, p):
    q = p ** ctx.exponent
    return (_odd_reciprocal_sum(ctx, p) + 1) * pow(2, -1, q) % q


def _eisenstein_rhs(ctx, p):
    # half the alternating sum 1 - 1/2 + ... - 1/(p-1) = H_{p-1} - H_{(p-1)/2}
    q = p ** ctx.exponent
    h, _, _ = ctx.harmonic_residues(ctx.exponent)
    return (h[p - 1] - h[(p - 1) // 2]) * pow(2, -1, q) % q


def _wolstenholme_lhs(ctx, p):
    return ctx.harmonic_residues(ctx.exponent)[0][p - 1]


def _zero_rhs(ctx, p):
    return 0


def _factorial_lhs(ctx, p):
    return factorial(p - 1)


def _glaisher_rhs(ctx, p):
    # p B_{p-1} - p; the residue is p B_{p-1} itself
    return (ctx.bernoulli_residue(ctx.exponent, p - 1) - p) % p ** ctx.exponent


def _wilson_rhs(ctx, p):
    return -1


def _cvs_lhs(n):
    return Fraction(bernoulli(n).denominator)


def _cvs_rhs(n):
    return Fraction(von_staudt_denominator(n))


# ---------------------------------------------------------------------------
# catalog assembly

def _by_prime(min_p: int) -> dict[str, Callable]:
    """Domain and points of an identity with one point per prime >= min_p."""
    return {"domain": lambda p: p >= min_p,
            "points": lambda p: [(p,)] if p >= min_p else []}


def _index_points(values: Iterable[int]) -> Callable:
    return lambda p: [(n,) for n in values]


def _each(side: Callable) -> Callable:
    """An index identity's row evaluator from its exact side at one point,
    which takes the point's parameters alone."""
    return lambda ctx, points: [side(*point) for point in points]


def _build_catalog() -> dict[str, IdentityDescriptor]:
    entries: list[IdentityDescriptor] = []

    def add(*args, **kwargs):
        entries.append(IdentityDescriptor(*args, **kwargs))

    add(
        "euler_identity",
        "binomial Bernoulli self-convolution collapses to two terms",
        "L. Euler (1755)",
        ("n",), None, _each(_euler_lhs), _each(_euler_rhs),
        domain=lambda n: n >= 1,
        points=_index_points(range(1, 61)),
    )
    add(
        "miki_identity",
        "binomial minus plain convolution of divided Bernoulli numbers "
        "equals -2 (B_n/n) H_n",
        "H. Miki (1978)",
        ("n",), None, _each(_miki_lhs), _each(_miki_rhs),
        domain=lambda n: n >= 4,
        points=_index_points(range(4, 41)),
    )
    add(
        "conv_order_p1",
        "order-(p-1) Bernoulli convolution is 1 mod p",
        "classical; follows from the quadratic recurrence and "
        "Clausen-von Staudt",
        ("p",), 1, partial(_convolution_residue, s=1), _one_rhs,
        **_by_prime(5),
    )
    add(
        "zhao_p3",
        "order-(p-3) Bernoulli convolution is -2 B_{p-3} mod p",
        "J. Zhao",
        ("p",), 1, partial(_convolution_residue, s=3), _zhao_p3_rhs,
        **_by_prime(11),
    )
    add(
        "zhao_p5",
        "order-(p-5) Bernoulli convolution mod p",
        "J. Zhao",
        ("p",), 1, partial(_convolution_residue, s=5), _zhao_p5_rhs,
        **_by_prime(13),
    )
    add(
        "lev3_div_p1",
        "divided order-(p-1) convolution equals a second Hensel digit mod p",
        "divided-convolution congruence family",
        ("p",), 1, partial(_divided_residue, s=1), _lev3_p1_rhs,
        **_by_prime(5),
    )
    add(
        "lev3_div_p3",
        "divided order-(p-3) convolution mod p",
        "divided-convolution congruence family",
        ("p",), 1, partial(_divided_residue, s=3),
        partial(_lev3_shifted_rhs, s=3),
        **_by_prime(11),
    )
    add(
        "lev3_div_p5",
        "divided order-(p-5) convolution mod p",
        "divided-convolution congruence family",
        ("p",), 1, partial(_divided_residue, s=5),
        partial(_lev3_shifted_rhs, s=5),
        **_by_prime(13),
    )
    add(
        "sub_h_over_k2k",
        "sum of H_k/(k 2^k) over k < p is (7/24) p B_{p-3} mod p^2",
        "power-of-two harmonic sum congruences",
        ("p",), 2, _sub_h_lhs, _sub_h_rhs,
        **_by_prime(5),
    )
    add(
        "sub_h2_over_k2k",
        "sum of H_k^(2)/(k 2^k) over k < p is -(3/8) B_{p-3} mod p",
        "power-of-two harmonic sum congruences",
        ("p",), 1, partial(_sub_h_lhs, r=2), _sub_h2_rhs,
        **_by_prime(5),
    )
    add(
        "lev3_b_over_k2k",
        "sum of B_k/(k 2^k) over k <= p-2 mod p",
        "power-of-two Bernoulli sum congruence",
        ("p",), 1, _lev3_b_lhs, _lev3_b_rhs,
        **_by_prime(5),
    )
    add(
        "euler_tangent_relation",
        "tangent-number form equals the alternating Eulerian row sum (odd n)",
        "L. Euler (tangent numbers)",
        ("n",), None, _each(tangent_side),
        _each(alternating_eulerian_sum),
        domain=lambda n: n >= 1 and n % 2 == 1,
        points=_index_points(range(1, 32, 2)),
    )
    add(
        "result1",
        "even-ascent count N_{p-2} from odd power sums and shifted "
        "harmonic tails mod p^2",
        "even-ascent count analysis",
        ("p",), 2, _even_ascent_lhs, _result1_rhs,
        **_by_prime(5),
    )
    add(
        "result2",
        "Fermat quotient q_2 equals 2 N_{p-2} - 1 mod p",
        "even-ascent count analysis",
        ("p",), 1, _q2_lhs, _result2_rhs,
        **_by_prime(5),
    )
    add(
        "result3",
        "odd (p-2)-th power sum via digits of 2 N_{p-2} and the "
        "Agoh-Giuga quotient mod p^2",
        "even-ascent count analysis",
        ("p",), 2, _result3_lhs, _result3_rhs,
        **_by_prime(5),
    )
    add(
        "result4",
        "N_{p-2} equals the odd-index harmonic sum mod p",
        "even-ascent count analysis",
        ("p",), 1, _even_ascent_lhs, _odd_harmonic_sum,
        **_by_prime(5),
    )
    add(
        "lehmer_i",
        "p B_{2k} from the half-range odd power sum mod p^3",
        "E. Lehmer (1938)",
        ("p", "k"), 3, _lehmer_i_lhs, _lehmer_i_rhs,
        domain=lambda p, k: 1 <= k <= p and (2 * k - 2) % (p - 1) != 0,
        points=lambda p: [(p, k) for k in range(2, p)],
    )
    add(
        "lehmer_ii",
        "half-range even power sum via B_{2k} mod p^2",
        "E. Lehmer (1938)",
        ("p", "k"), 2, _lehmer_ii_lhs, _lehmer_ii_rhs,
        domain=lambda p, k: 1 <= k <= p,
        points=lambda p: [(p, k) for k in range(1, p + 1)],
    )
    add(
        "sun_lemma",
        "full-range power sum S_{p-1,k} = p B_k + (p^2/2) k B_{k-1} mod p^2",
        "Z.-H. Sun",
        ("p", "k"), 2, _sun_lhs, _sun_rhs,
        domain=lambda p, k: 2 <= k <= p,
        points=lambda p: [(p, k) for k in range(2, p + 1)],
        counted=lambda p, k: k <= p - 2,
    )
    for s, source, rhs in ((0, "H. Alzer", _alzer_rhs),
                           (1, "J. Choi & H. M. Srivastava", _cs1_rhs),
                           (2, "J. Choi & H. M. Srivastava", _cs2_rhs),
                           (3, "J. Choi & H. M. Srivastava", _cs3_rhs)):
        add(
            f"choi_srivastava_s{s}" if s else "alzer",
            f"sum of H_j/(j+{s}) in closed form" if s
            else "sum of H_j/j in closed form",
            source,
            ("n",), None, partial(_h_over_shift_lhs, s=s), _each(rhs),
            domain=lambda n: n >= 1,
            points=_index_points(range(1, 101)),
        )
    add(
        "prop1",
        "shifted harmonic sum sum_j H_j/(j+s) in closed form (s >= 3)",
        "generalizes the Choi-Srivastava family",
        ("n", "s"), None, _h_over_shift_lhs, _prop1_rhs,
        domain=lambda n, s: n >= 1 and s >= 3,
        points=lambda p: [(n, s) for n in range(1, 51)
                          for s in range(3, 21)],
    )
    add(
        "lemma1",
        "odd power-sum total via digits of 2 N_{p-2} and the weighted "
        "convolution mod p^2",
        "even-ascent count analysis",
        ("p",), 2, _lemma1_lhs, _lemma1_rhs,
        **_by_prime(5),
    )
    add(
        "lemma2",
        "shifted harmonic tail equals a quadratic harmonic form mod p^2",
        "even-ascent count analysis",
        ("p", "m"), 2, _lemma2_lhs, _lemma2_rhs,
        domain=lambda p, m: 1 <= m <= (p - 3) // 2,
        points=lambda p: [(p, m) for m in range(1, (p - 1) // 2)],
    )
    add(
        "theorem1",
        "order-(p-1) convolution of 2^-j-weighted Bernoulli numbers via "
        "harmonic sums and Hensel digits mod p",
        "main convolution congruence",
        ("p",), 1, _theorem1_lhs, _theorem1_rhs,
        **_by_prime(5),
    )
    add(
        "remark1a",
        "Fermat quotient q_2 equals the odd reciprocal sum mod p",
        "J. W. L. Glaisher",
        ("p",), 1, _q2_lhs, _odd_reciprocal_sum,
        **_by_prime(5),
    )
    add(
        "remark1b",
        "odd-index harmonic sum equals (H'_{p-1} + 1)/2 mod p",
        "even-ascent count analysis",
        ("p",), 1, _odd_harmonic_sum, _remark1b_rhs,
        **_by_prime(5),
    )
    add(
        "eisenstein",
        "Fermat quotient q_2 as half the alternating harmonic sum mod p",
        "G. Eisenstein (1850)",
        ("p",), 1, _q2_lhs, _eisenstein_rhs,
        **_by_prime(5),
    )
    add(
        "wolstenholme",
        "H_{p-1} vanishes mod p^2",
        "J. Wolstenholme (1862)",
        ("p",), 2, _wolstenholme_lhs, _zero_rhs,
        **_by_prime(5),
    )
    add(
        "glaisher",
        "(p-1)! equals p B_{p-1} - p mod p^2",
        "J. W. L. Glaisher",
        ("p",), 2, _factorial_lhs, _glaisher_rhs,
        **_by_prime(5),
    )
    add(
        "wilson",
        "(p-1)! is -1 mod p",
        "Wilson / Lagrange",
        ("p",), 1, _factorial_lhs, _wilson_rhs,
        **_by_prime(5),
    )
    add(
        "clausen_von_staudt",
        "denominator of B_n is the product of primes q with (q-1) | n",
        "T. Clausen / K. G. C. von Staudt (1840)",
        ("n",), None, _each(_cvs_lhs), _each(_cvs_rhs),
        domain=lambda n: n >= 2 and n % 2 == 0,
        points=_index_points(range(2, 201, 2)),
    )

    cat = {d.id: d for d in entries}
    if len(cat) != len(entries):
        raise AssertionError("duplicate identity id in catalog")
    return cat


_CATALOG = _build_catalog()


def catalog() -> dict[str, IdentityDescriptor]:
    """The identity catalog, keyed by id, in declaration order."""
    return dict(_CATALOG)


def identity_ids() -> list[str]:
    return list(_CATALOG)


def _descriptor(identity: str) -> IdentityDescriptor:
    try:
        return _CATALOG[identity]
    except KeyError:
        raise UnknownIdentity(identity) from None


def _require_exponent(modulus_override: int | None) -> None:
    if modulus_override is not None and modulus_override < 1:
        raise ValueError(f"exponent must be >= 1, got {modulus_override}")


def check(identity: str, params: dict[str, int], *,
          modulus_override: int | None = None) -> CheckReport:
    """Evaluate both sides of one identity at one parameter point."""
    desc = _descriptor(identity)
    _require_exponent(modulus_override)
    if set(params) != set(desc.params):
        raise ValueError(
            f"{identity} takes parameters {desc.params}, got {tuple(params)}"
        )
    point = tuple(params[name] for name in desc.params)
    return _reports(_check_rows(identity, [point], modulus_override))[0]


def _reports(chunk: Chunk) -> list[CheckReport]:
    """A chunk's points as reports; a point with no values has no modulus."""
    return [CheckReport(chunk.identity, dict(zip(chunk.params, point)),
                        status, lhs, rhs,
                        None if lhs is None else chunk.modulus, chunk.elapsed)
            for point, lhs, rhs, status in zip(
                chunk.points, chunk.lhs, chunk.rhs, chunk.status)]


def _sides(desc: IdentityDescriptor, ctx: PrimeContext | None,
           points: list[tuple[int, ...]], exponent: int | None) -> Iterable:
    """(lhs, rhs) at each of the points, all in the domain, from one row per
    side: over the points, over 0..top read at each, or one entry reduced."""
    if ctx is None:
        return zip(desc.lhs(None, points), desc.rhs(None, points))
    p = ctx.p
    if len(desc.params) > 1:
        top = max(k for _, k in points)
        lhs, rhs = desc.lhs(ctx, p, top), desc.rhs(ctx, p, top)
        return [(lhs[k], rhs[k]) for _, k in points]
    lhs, rhs = desc.lhs(ctx, p), desc.rhs(ctx, p)
    if exponent is not None:
        lhs, rhs = mod_reduce(lhs, p, exponent), mod_reduce(rhs, p, exponent)
    return [(lhs, rhs)]


def _check_rows(identity: str, points: list[tuple[int, ...]],
                modulus_override: int | None) -> Chunk:
    """check at points of one identity, all at one prime if it is
    prime-indexed, given as parameter tuples in the identity's order.  Each
    side is one row over the points in the domain, evaluated once, and one
    pass over the pair gives the statuses; a side that raises gives each of
    those points not_p_integral, or error with one stderr line each.  The
    points share the call's time evenly.

    The PrimeContext is the one prime test, so it comes before the domain
    predicate; it carries the exponent of the reduction to its residues."""
    desc = _CATALOG[identity]
    start = time.perf_counter()
    p = points[0][0] if desc.params[0] == "p" else None
    exponent = desc.exponent
    if exponent is not None and modulus_override is not None:
        exponent = modulus_override
    domain = desc.domain
    try:
        ctx = None if p is None else get_prime_context(p)
    except ValueError:  # not a prime >= 5
        ctx = domain = None
    if ctx:
        ctx.exponent = exponent
    applies = [domain is not None and domain(*point) for point in points]
    inside = [point for point, ok in zip(points, applies) if ok]
    failure, values = None, repeat((None, None))
    try:
        values = iter(_sides(desc, ctx, inside, exponent) if inside else ())
    except NotPIntegral:
        failure = NOT_P_INTEGRAL
    except Exception as exc:
        # one broken evaluator must not sink the rest of a sweep
        failure = ERROR
        for point in inside:
            where = ";".join(f"{k}={v}" for k, v in zip(desc.params, point))
            print(f"error: {identity} {where}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    pairs = [next(values) if ok else (None, None) for ok in applies]
    status = [(failure or (VERIFIED if lhs == rhs else FAILED)) if ok
              else INAPPLICABLE for ok, (lhs, rhs) in zip(applies, pairs)]
    if desc.counted is not None:
        # exploratory points outside the stated domain: report, don't count
        status = [INAPPLICABLE if s == FAILED and not desc.counted(*point)
                  else s for s, point in zip(status, points)]
    return Chunk(identity, desc.params, points, *zip(*pairs), status,
                 None if exponent is None else p ** exponent,
                 (time.perf_counter() - start) / len(points))


def _check_batch(batch: tuple[int | None, tuple[str, ...]],
                 modulus_override: int | None) -> list[Chunk]:
    """check at a batch's points, one chunk per identity with points: (p,
    ids), the points of prime p, or (None, (id,)), an index identity's."""
    p, ids = batch
    return [_check_rows(ident, points, modulus_override) for ident in ids
            if (points := _CATALOG[ident].points(p))]


def _run_batch(batch: tuple[int | None, tuple[str, ...]],
               modulus_override: int | None,
               render: Callable[[Chunk], object] | None
               ) -> tuple[list[tuple[tuple, object]], int]:
    """Check a batch: per chunk, the sort key of its first point and
    render(chunk), or the chunk without render (points ascend within a
    prime, so the chunks sort into report order); and the last index of its
    process's Bernoulli table, which holds every entry the batch read."""
    chunks = [((chunk.identity, chunk.points[0]),
               chunk if render is None else render(chunk))
              for chunk in _check_batch(batch, modulus_override)]
    return chunks, bernoulli_table().max_index


def sweep(identities: str | Iterable[str], lo: int, hi: int, *,
          jobs: int = 1, modulus_override: int | None = None,
          render: Callable[[Chunk], object] | None = None
          ) -> list:
    """Check every selected identity over its parameter points in [lo, hi].

    Prime-indexed identities sweep the primes of the range, a batch a
    prime, which checks its identities finest declared exponent first, ties
    in catalog order: its first read of each PrimeContext table is then the
    finest and longest, and every coarser read reduces it.
    Index-parameterized exact identities sweep their fixed default ranges.
    Reports come back sorted by (identity, parameter tuple) no matter how
    many workers ran or in what order the ids were given.

    With `render`, a picklable callable, each batch renders each identity's
    Chunk as it checks it, in the process that runs the batch, and sweep
    returns (sort key of the chunk's first point, render(chunk)) in that
    order instead of reports: one per identity per batch.

    `jobs` processes check points, this one included.  This process runs
    the top prime's batch first, then deals the other batches round-robin
    into at most `jobs` stripes: a child process runs each stripe but the
    last, starting with the Bernoulli table that batch left, and this
    process runs the last.  Afterwards this process's table is the one a
    serial sweep leaves, with or without children.
    """
    if lo < 5:
        raise ValueError(f"sweep range must start at 5 or above, got {lo}")
    if lo > hi:
        raise ValueError(f"empty sweep range {lo}..{hi}")
    _require_exponent(modulus_override)
    chosen = [identities] if isinstance(identities, str) else list(identities)
    for ident in chosen:
        if ident != "all":
            _descriptor(ident)  # raises UnknownIdentity
    ids = [i for i in _CATALOG if "all" in chosen or i in chosen]
    by_prime = tuple(sorted((i for i in ids if "p" in _CATALOG[i].params),
                            key=lambda i: -_CATALOG[i].exponent))

    # costliest first, so no long batch starts last: the fixed-size
    # index-parameter batches, then the primes with points from the top of
    # the range down
    index = [(None, (i,)) for i in ids if "p" not in _CATALOG[i].params]
    primed = [(p, by_prime) for p in reversed(primes_in(lo, hi))
              if any(_CATALOG[i].points(p) for i in by_prime)] \
        if by_prime else []
    run = partial(_run_batch, modulus_override=modulus_override,
                  render=render)
    if jobs <= 1 or len(index) + len(primed) <= 2:
        # with two batches this process would run both and start no child
        done = [run(batch) for batch in index + primed]
    else:
        # imported here, so a serial sweep loads neither this module nor
        # multiprocessing
        from .parallel import run_stripes

        # the top prime's batch reads furthest into the Bernoulli table, so
        # it runs here first, and the children start with that table; the
        # rest are dealt round-robin, so the last stripe, which this process
        # runs, is the lightest
        done = [run(batch) for batch in primed[:1]]
        pooled = index + primed[1:]
        count = min(jobs, len(pooled))
        done += run_stripes(run, [pooled[i::count] for i in range(count)])
        # an index batch can read further (clausen_von_staudt reads B_200)
        bernoulli_table().value(max(top for _, top in done))
    chunks = sorted((c for batch_chunks, _ in done for c in batch_chunks),
                    key=itemgetter(0))
    if render is not None:
        return chunks
    return [r for _, chunk in chunks for r in _reports(chunk)]
