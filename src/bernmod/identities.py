"""Catalog of congruences and exact identities, with check and sweep drivers.

Each catalog entry carries independent evaluators for its two sides.  A check
computes both sides exactly, reduces them at the declared prime power (or
compares exactly), and reports verified / failed / inapplicable /
not_p_integral, or error when an evaluator raises.  Sweeps run the catalog
over a prime range with deterministic report ordering regardless of worker
parallelism.
"""
from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from .modular import (
    NotPIntegral,
    hensel_digit,
    is_prime,
    mod_reduce,
    primes_in,
)
from .sequences import (
    PrimeContext,
    agoh_giuga_quotient,
    bernoulli,
    bernoulli_table,
    divided_bernoulli,
    euler_number_sides,
    fermat_quotient_2,
    gen_harmonic,
    get_prime_context,
    harmonic,
    odd_reciprocal_sum,
    von_staudt_denominator,
    weighted_convolution,
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

    def sort_key(self) -> tuple:
        return (self.identity, tuple(self.params.values()))


@dataclass(frozen=True)
class IdentityDescriptor:
    """One catalog entry: evaluators, domain, modulus, and sweep points."""

    id: str
    title: str
    source: str
    params: tuple[str, ...]
    exponent: int | None  # prime-power exponent; None compares exactly
    lhs: Callable[..., Fraction]
    rhs: Callable[..., Fraction]
    domain: Callable[..., bool]
    points: Callable[[int, int], Iterator[dict[str, int]]]
    counted: Callable[..., bool] | None = None  # None: every domain point counts


# ---------------------------------------------------------------------------
# shared evaluator pieces

def _bernoulli_convolution(t: int) -> Fraction:
    """sum_{j=2}^{t-2} B_j B_{t-j}; odd j contribute nothing."""
    return sum(
        (bernoulli(j) * bernoulli(t - j) for j in range(2, t - 1, 2)),
        Fraction(0),
    )


def _divided_convolution(t: int) -> Fraction:
    """sum_{j=2}^{t-2} (B_j/j)(B_{t-j}/(t-j)); odd j contribute nothing."""
    return sum(
        (divided_bernoulli(j) * divided_bernoulli(t - j)
         for j in range(2, t - 1, 2)),
        Fraction(0),
    )


def _hc(ctx: PrimeContext, m: int) -> Fraction:
    """H_1/(2m-1) + ... + H_{2m-1}/1, by its closed form H_n^2 - H_n^(2), n = 2m.

    Both equal 2 sum_{s<=n} H_{s-1}/s: the sum is sum 1/(ij) over i + j <= n,
    grouped by s = i + j; H_n^2 - H_n^(2) is sum 1/(ij) over i != j <= n,
    grouped by s = max(i, j).
    """
    n = 2 * m
    return ctx.harmonics[n] ** 2 - ctx.gen_harmonics2[n]


def _two_n_digits(ctx: PrimeContext) -> tuple[int, int]:
    """Base-p digits 0 and 1 of 2 N_{p-2}, via the modular Eulerian path."""
    p = ctx.p
    r = 2 * ctx.even_ascent_residue(2) % (p * p)
    return r % p, (r // p) % p


def _theorem1_rhs(ctx: PrimeContext, p: int) -> Fraction:
    half = (p - 3) // 2
    S = ctx.odd_harmonic_sum()
    G = sum((ctx.gen_harmonics2[2 * m] for m in range(1, half + 1)),
            Fraction(0))
    X = sum((ctx.harmonics[2 * m] * ctx.harmonics[2 * m + 1]
             for m in range(1, half + 1)), Fraction(0))
    T = sum((_hc(ctx, m) for m in range(2, half + 1)), Fraction(0))
    # digit terms, inside-out: inner digits are plain integers in [0, p)
    d = hensel_digit(2 * S, p, 0)
    term2 = 2 * hensel_digit(Fraction(d, 2), p, 1)
    e = hensel_digit(S, p, 0)
    term3 = hensel_digit(2 * e, p, 1)
    return -1 + term2 + term3 + 6 * S + 4 * G - 4 * X - 4 * S * S + 2 * T


def theorem1_rhs(p: int) -> Fraction:
    """Exact harmonic-sum side of the main convolution congruence."""
    return _theorem1_rhs(get_prime_context(p), p)


# ---------------------------------------------------------------------------
# evaluators (ctx is a PrimeContext when the identity is prime-indexed)

def _euler_lhs(ctx, n):
    return sum((comb(n, j) * bernoulli(j) * bernoulli(n - j)
                for j in range(n + 1)), Fraction(0))


def _euler_rhs(ctx, n):
    return -n * bernoulli(n - 1) - (n - 1) * bernoulli(n)


def _miki_lhs(ctx, n):
    return sum((comb(n, j) * divided_bernoulli(j) * divided_bernoulli(n - j)
                for j in range(2, n - 1)), Fraction(0))


def _miki_rhs(ctx, n):
    return _divided_convolution(n) - 2 * divided_bernoulli(n) * harmonic(n)


def _conv_p1_lhs(ctx, p):
    return _bernoulli_convolution(p - 1)


def _one_rhs(ctx, p):
    return Fraction(1)


def _zhao_p3_lhs(ctx, p):
    return _bernoulli_convolution(p - 3)


def _zhao_p3_rhs(ctx, p):
    return -2 * bernoulli(p - 3)


def _zhao_p5_lhs(ctx, p):
    return _bernoulli_convolution(p - 5)


def _zhao_p5_rhs(ctx, p):
    return -2 * bernoulli(p - 5) - Fraction(2, 3) * bernoulli(p - 3) ** 2


def _lev3_p1_lhs(ctx, p):
    return _divided_convolution(p - 1)


def _lev3_p1_rhs(ctx, p):
    inner = (2 * p * divided_bernoulli(2 * p - 2)
             - p * p * divided_bernoulli(p - 1) ** 2)
    return Fraction(hensel_digit(inner, p, 2))


def _lev3_p3_lhs(ctx, p):
    return _divided_convolution(p - 3)


def _lev3_p3_rhs(ctx, p):
    ag = agoh_giuga_quotient(p)
    diff = divided_bernoulli(2 * p - 4) - divided_bernoulli(p - 3)
    return (2 * (ag - 1) * divided_bernoulli(p - 3)
            + 2 * hensel_digit(diff, p, 1))


def _lev3_p5_lhs(ctx, p):
    return _divided_convolution(p - 5)


def _lev3_p5_rhs(ctx, p):
    ag = agoh_giuga_quotient(p)
    diff = divided_bernoulli(2 * p - 6) - divided_bernoulli(p - 5)
    return (-divided_bernoulli(p - 3) ** 2
            + 2 * (ag - 1) * divided_bernoulli(p - 5)
            + 2 * hensel_digit(diff, p, 1))


def _sub_h_lhs(ctx, p):
    return sum((ctx.harmonics[k] / (k * 2 ** k) for k in range(1, p)),
               Fraction(0))


def _sub_h_rhs(ctx, p):
    return Fraction(7, 24) * p * bernoulli(p - 3)


def _sub_h2_lhs(ctx, p):
    return sum((ctx.gen_harmonics2[k] / (k * 2 ** k) for k in range(1, p)),
               Fraction(0))


def _sub_h2_rhs(ctx, p):
    return -Fraction(3, 8) * bernoulli(p - 3)


def _lev3_b_lhs(ctx, p):
    return sum((bernoulli(k) / (k * 2 ** k) for k in range(1, p - 1)),
               Fraction(0))


def _lev3_b_rhs(ctx, p):
    return (-harmonic((p - 1) // 2) / 2 + agoh_giuga_quotient(p) - 1)


def _tangent_lhs(ctx, n):
    return euler_number_sides(n)[0]


def _tangent_rhs(ctx, n):
    return euler_number_sides(n)[1]


def _result1_lhs(ctx, p):
    return Fraction(ctx.even_ascent_residue(2))


def _result1_rhs(ctx, p):
    # sum_m T_m regrouped by K: H_K meets 1/j once for every p < j < p + K
    # with j = K (mod 2), so one running sum per parity of K covers it
    tails = Fraction(0)
    parity_sums = [Fraction(0), Fraction(0)]
    for K in range(2, p - 1):
        parity_sums[K % 2] += Fraction(1, p + K - 1)
        tails += ctx.harmonics[K] * parity_sums[K % 2]
    return ctx.odd_power_sum_total() - p * tails


def _q2_lhs(ctx, p):
    return Fraction(fermat_quotient_2(p))


def _result2_rhs(ctx, p):
    return Fraction(2 * ctx.even_ascent_residue(1) - 1)


def _result3_lhs(ctx, p):
    return Fraction(sum(x ** (p - 2) for x in range(1, p - 1, 2)))


def _result3_rhs(ctx, p):
    d0, d1 = _two_n_digits(ctx)
    ag = agoh_giuga_quotient(p)
    return d0 - 1 + p * (ag + d1 - (d0 - 1) ** 2 - 2)


def _result4_lhs(ctx, p):
    return Fraction(ctx.even_ascent_residue(1))


def _result4_rhs(ctx, p):
    return ctx.odd_harmonic_sum()


def _lehmer_i_lhs(ctx, p, k):
    return p * bernoulli(2 * k)


def _lehmer_i_rhs(ctx, p, k):
    # p - 2a for a = 1..(p-1)/2 runs over the odd numbers below p
    return Fraction(ctx.odd_even_power_sum(k), 1 << (2 * k - 1))


def _lehmer_ii_lhs(ctx, p, k):
    return Fraction(ctx.half_even_power_sum(k))


def _lehmer_ii_rhs(ctx, p, k):
    return (Fraction(1, 2 ** (2 * k - 1)) - 1) * bernoulli(2 * k) * p / 2


def _sun_lhs(ctx, p, k):
    return Fraction(ctx.full_power_sum(k))


def _sun_rhs(ctx, p, k):
    return p * bernoulli(k) + Fraction(p * p, 2) * k * bernoulli(k - 1)


def _alzer_lhs(ctx, n):
    return sum((harmonic(j) / j for j in range(1, n + 1)), Fraction(0))


def _alzer_rhs(ctx, n):
    return (harmonic(n) ** 2 + gen_harmonic(n, 2)) / 2


def _cs1_rhs(ctx, n):
    return (harmonic(n + 1) ** 2 - gen_harmonic(n + 1, 2)) / 2


def _cs2_rhs(ctx, n):
    return ((harmonic(n + 2) ** 2 - gen_harmonic(n + 2, 2)) / 2
            + Fraction(1, n + 2) - 1)


def _cs3_rhs(ctx, n):
    return ((harmonic(n + 3) ** 2 - gen_harmonic(n + 3, 2)) / 2
            + Fraction(3, 2 * (n + 3)) + Fraction(1, 2 * (n + 2))
            - Fraction(7, 4))


def _h_over_shift_lhs(ctx, n, s):
    return sum((harmonic(j) / (j + s) for j in range(1, n + 1)), Fraction(0))


def _prop1_rhs(ctx, n, s):
    main = (harmonic(n + s) ** 2 - gen_harmonic(n + s, 2)) / 2
    corr = sum(((harmonic(s - 1) - harmonic(i)) / (n + s - i)
                for i in range(s - 1)), Fraction(0))
    base = (harmonic(s) ** 2 - gen_harmonic(s, 2)) / 2
    cross = harmonic(s - 1) * harmonic(s)
    tail = sum((harmonic(k) / (s - k) for k in range(1, s)), Fraction(0))
    return main + corr - base - cross + tail


def _lemma1_lhs(ctx, p):
    return Fraction(ctx.odd_power_sum_total())


def _lemma1_rhs(ctx, p):
    d0, d1 = _two_n_digits(ctx)
    cb = weighted_convolution(p, 2)
    return (Fraction(d0, 2)
            + p * (Fraction(d0, 2) + Fraction(d1, 2)
                   - Fraction((d0 - 1) ** 2, 2) - cb / 2 - 1))


def _lemma2_lhs(ctx, p, m):
    return -p * ctx.shifted_harmonic_tail(m)


def _lemma2_rhs(ctx, p, m):
    return p * (2 * ctx.gen_harmonics2[2 * m]
                - 2 * ctx.harmonics[2 * m] * ctx.harmonics[2 * m + 1]
                + _hc(ctx, m))


def _theorem1_lhs(ctx, p):
    return weighted_convolution(p, 2)


def _remark1a_rhs(ctx, p):
    return odd_reciprocal_sum(p)


def _remark1b_lhs(ctx, p):
    return ctx.odd_harmonic_sum()


def _remark1b_rhs(ctx, p):
    return (odd_reciprocal_sum(p) + 1) / 2


def _eisenstein_rhs(ctx, p):
    alt = sum((Fraction((-1) ** (k - 1), k) for k in range(1, p)),
              Fraction(0))
    return alt / 2


def _wolstenholme_lhs(ctx, p):
    return ctx.harmonics[p - 1]


def _zero_rhs(ctx, p):
    return Fraction(0)


def _factorial_lhs(ctx, p):
    return Fraction(factorial(p - 1))


def _glaisher_rhs(ctx, p):
    return p * bernoulli(p - 1) - p


def _wilson_rhs(ctx, p):
    return Fraction(-1)


def _cvs_lhs(ctx, n):
    return Fraction(bernoulli(n).denominator)


def _cvs_rhs(ctx, n):
    return Fraction(von_staudt_denominator(n))


# ---------------------------------------------------------------------------
# catalog assembly

def _prime_domain(min_p: int) -> Callable[..., bool]:
    return lambda p: p >= min_p and is_prime(p)


def _prime_points(min_p: int) -> Callable[[int, int], Iterator[dict[str, int]]]:
    def gen(lo: int, hi: int) -> Iterator[dict[str, int]]:
        lo = max(lo, min_p)
        if lo <= hi:
            for p in primes_in(lo, hi):
                yield {"p": p}
    return gen


def _per_prime_points(
    min_p: int, ks: Callable[[int], Iterable[tuple[str, int]]]
) -> Callable[[int, int], Iterator[dict[str, int]]]:
    def gen(lo: int, hi: int) -> Iterator[dict[str, int]]:
        lo = max(lo, min_p)
        if lo <= hi:
            for p in primes_in(lo, hi):
                for name, v in ks(p):
                    yield {"p": p, name: v}
    return gen


def _index_points(values: Iterable[int]) -> Callable[[int, int], Iterator[dict[str, int]]]:
    vals = tuple(values)

    def gen(lo: int, hi: int) -> Iterator[dict[str, int]]:
        for n in vals:
            yield {"n": n}
    return gen


def _build_catalog() -> dict[str, IdentityDescriptor]:
    entries: list[IdentityDescriptor] = []

    def add(*args, **kwargs):
        entries.append(IdentityDescriptor(*args, **kwargs))

    add(
        "euler_identity",
        "binomial Bernoulli self-convolution collapses to two terms",
        "L. Euler (1755)",
        ("n",), None, _euler_lhs, _euler_rhs,
        domain=lambda n: n >= 1,
        points=_index_points(range(1, 61)),
    )
    add(
        "miki_identity",
        "binomial minus plain convolution of divided Bernoulli numbers "
        "equals -2 (B_n/n) H_n",
        "H. Miki (1978)",
        ("n",), None, _miki_lhs, _miki_rhs,
        domain=lambda n: n >= 4,
        points=_index_points(range(4, 41)),
    )
    add(
        "conv_order_p1",
        "order-(p-1) Bernoulli convolution is 1 mod p",
        "classical; follows from the quadratic recurrence and "
        "Clausen-von Staudt",
        ("p",), 1, _conv_p1_lhs, _one_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "zhao_p3",
        "order-(p-3) Bernoulli convolution is -2 B_{p-3} mod p",
        "J. Zhao",
        ("p",), 1, _zhao_p3_lhs, _zhao_p3_rhs,
        domain=_prime_domain(11),
        points=_prime_points(11),
    )
    add(
        "zhao_p5",
        "order-(p-5) Bernoulli convolution mod p",
        "J. Zhao",
        ("p",), 1, _zhao_p5_lhs, _zhao_p5_rhs,
        domain=_prime_domain(13),
        points=_prime_points(13),
    )
    add(
        "lev3_div_p1",
        "divided order-(p-1) convolution equals a second Hensel digit mod p",
        "divided-convolution congruence family",
        ("p",), 1, _lev3_p1_lhs, _lev3_p1_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "lev3_div_p3",
        "divided order-(p-3) convolution mod p",
        "divided-convolution congruence family",
        ("p",), 1, _lev3_p3_lhs, _lev3_p3_rhs,
        domain=_prime_domain(11),
        points=_prime_points(11),
    )
    add(
        "lev3_div_p5",
        "divided order-(p-5) convolution mod p",
        "divided-convolution congruence family",
        ("p",), 1, _lev3_p5_lhs, _lev3_p5_rhs,
        domain=_prime_domain(13),
        points=_prime_points(13),
    )
    add(
        "sub_h_over_k2k",
        "sum of H_k/(k 2^k) over k < p is (7/24) p B_{p-3} mod p^2",
        "power-of-two harmonic sum congruences",
        ("p",), 2, _sub_h_lhs, _sub_h_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "sub_h2_over_k2k",
        "sum of H_k^(2)/(k 2^k) over k < p is -(3/8) B_{p-3} mod p",
        "power-of-two harmonic sum congruences",
        ("p",), 1, _sub_h2_lhs, _sub_h2_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "lev3_b_over_k2k",
        "sum of B_k/(k 2^k) over k <= p-2 mod p",
        "power-of-two Bernoulli sum congruence",
        ("p",), 1, _lev3_b_lhs, _lev3_b_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "euler_tangent_relation",
        "tangent-number form equals the alternating Eulerian row sum (odd n)",
        "L. Euler (tangent numbers)",
        ("n",), None, _tangent_lhs, _tangent_rhs,
        domain=lambda n: n >= 1 and n % 2 == 1,
        points=_index_points(range(1, 32, 2)),
    )
    add(
        "result1",
        "even-ascent count N_{p-2} from odd power sums and shifted "
        "harmonic tails mod p^2",
        "even-ascent count analysis",
        ("p",), 2, _result1_lhs, _result1_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "result2",
        "Fermat quotient q_2 equals 2 N_{p-2} - 1 mod p",
        "even-ascent count analysis",
        ("p",), 1, _q2_lhs, _result2_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "result3",
        "odd (p-2)-th power sum via digits of 2 N_{p-2} and the "
        "Agoh-Giuga quotient mod p^2",
        "even-ascent count analysis",
        ("p",), 2, _result3_lhs, _result3_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "result4",
        "N_{p-2} equals the odd-index harmonic sum mod p",
        "even-ascent count analysis",
        ("p",), 1, _result4_lhs, _result4_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "lehmer_i",
        "p B_{2k} from the half-range odd power sum mod p^3",
        "E. Lehmer (1938)",
        ("p", "k"), 3, _lehmer_i_lhs, _lehmer_i_rhs,
        domain=lambda p, k: (is_prime(p) and p >= 5 and k >= 1
                             and (2 * k - 2) % (p - 1) != 0),
        points=_per_prime_points(5, lambda p: (("k", k) for k in range(2, p))),
    )
    add(
        "lehmer_ii",
        "half-range even power sum via B_{2k} mod p^2",
        "E. Lehmer (1938)",
        ("p", "k"), 2, _lehmer_ii_lhs, _lehmer_ii_rhs,
        domain=lambda p, k: is_prime(p) and p >= 5 and k >= 1,
        points=_per_prime_points(5, lambda p: (("k", k) for k in range(1, p + 1))),
    )
    add(
        "sun_lemma",
        "full-range power sum S_{p-1,k} = p B_k + (p^2/2) k B_{k-1} mod p^2",
        "Z.-H. Sun",
        ("p", "k"), 2, _sun_lhs, _sun_rhs,
        domain=lambda p, k: is_prime(p) and p >= 5 and 2 <= k <= p,
        points=_per_prime_points(5, lambda p: (("k", k) for k in range(2, p + 1))),
        counted=lambda p, k: k <= p - 2,
    )
    add(
        "alzer",
        "sum of H_j/j in closed form",
        "H. Alzer",
        ("n",), None, _alzer_lhs, _alzer_rhs,
        domain=lambda n: n >= 1,
        points=_index_points(range(1, 101)),
    )
    add(
        "choi_srivastava_s1",
        "sum of H_j/(j+1) in closed form",
        "J. Choi & H. M. Srivastava",
        ("n",), None, partial(_h_over_shift_lhs, s=1), _cs1_rhs,
        domain=lambda n: n >= 1,
        points=_index_points(range(1, 101)),
    )
    add(
        "choi_srivastava_s2",
        "sum of H_j/(j+2) in closed form",
        "J. Choi & H. M. Srivastava",
        ("n",), None, partial(_h_over_shift_lhs, s=2), _cs2_rhs,
        domain=lambda n: n >= 1,
        points=_index_points(range(1, 101)),
    )
    add(
        "choi_srivastava_s3",
        "sum of H_j/(j+3) in closed form",
        "J. Choi & H. M. Srivastava",
        ("n",), None, partial(_h_over_shift_lhs, s=3), _cs3_rhs,
        domain=lambda n: n >= 1,
        points=_index_points(range(1, 101)),
    )
    add(
        "prop1",
        "shifted harmonic sum sum_j H_j/(j+s) in closed form (s >= 3)",
        "generalizes the Choi-Srivastava family",
        ("n", "s"), None, _h_over_shift_lhs, _prop1_rhs,
        domain=lambda n, s: n >= 1 and s >= 3,
        points=lambda lo, hi: ({"n": n, "s": s}
                               for n in range(1, 51) for s in range(3, 21)),
    )
    add(
        "lemma1",
        "odd power-sum total via digits of 2 N_{p-2} and the weighted "
        "convolution mod p^2",
        "even-ascent count analysis",
        ("p",), 2, _lemma1_lhs, _lemma1_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "lemma2",
        "shifted harmonic tail equals a quadratic harmonic form mod p^2",
        "even-ascent count analysis",
        ("p", "m"), 2, _lemma2_lhs, _lemma2_rhs,
        domain=lambda p, m: is_prime(p) and p >= 5 and 1 <= m <= (p - 3) // 2,
        points=_per_prime_points(
            5, lambda p: (("m", m) for m in range(1, (p - 3) // 2 + 1))),
    )
    add(
        "theorem1",
        "order-(p-1) convolution of 2^-j-weighted Bernoulli numbers via "
        "harmonic sums and Hensel digits mod p",
        "main convolution congruence",
        ("p",), 1, _theorem1_lhs, _theorem1_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "remark1a",
        "Fermat quotient q_2 equals the odd reciprocal sum mod p",
        "J. W. L. Glaisher",
        ("p",), 1, _q2_lhs, _remark1a_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "remark1b",
        "odd-index harmonic sum equals (H'_{p-1} + 1)/2 mod p",
        "even-ascent count analysis",
        ("p",), 1, _remark1b_lhs, _remark1b_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "eisenstein",
        "Fermat quotient q_2 as half the alternating harmonic sum mod p",
        "G. Eisenstein (1850)",
        ("p",), 1, _q2_lhs, _eisenstein_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "wolstenholme",
        "H_{p-1} vanishes mod p^2",
        "J. Wolstenholme (1862)",
        ("p",), 2, _wolstenholme_lhs, _zero_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "glaisher",
        "(p-1)! equals p B_{p-1} - p mod p^2",
        "J. W. L. Glaisher",
        ("p",), 2, _factorial_lhs, _glaisher_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "wilson",
        "(p-1)! is -1 mod p",
        "Wilson / Lagrange",
        ("p",), 1, _factorial_lhs, _wilson_rhs,
        domain=_prime_domain(5),
        points=_prime_points(5),
    )
    add(
        "clausen_von_staudt",
        "denominator of B_n is the product of primes q with (q-1) | n",
        "T. Clausen / K. G. C. von Staudt (1840)",
        ("n",), None, _cvs_lhs, _cvs_rhs,
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


def check(identity: str, params: dict[str, int], *,
          modulus_override: int | None = None) -> CheckReport:
    """Evaluate both sides of one identity at one parameter point."""
    desc = _descriptor(identity)
    if set(params) != set(desc.params):
        raise ValueError(
            f"{identity} takes parameters {desc.params}, got {tuple(params)}"
        )
    ordered = {name: params[name] for name in desc.params}
    start = time.perf_counter()
    if not desc.domain(**ordered):
        return CheckReport(identity, ordered, INAPPLICABLE, None, None, None,
                           time.perf_counter() - start)
    ctx = get_prime_context(ordered["p"]) if "p" in ordered else None
    exponent = desc.exponent
    if exponent is not None and modulus_override is not None:
        exponent = modulus_override
    try:
        lhs: int | Fraction = desc.lhs(ctx, **ordered)
        rhs: int | Fraction = desc.rhs(ctx, **ordered)
        modulus = None
        if exponent is not None:
            p = ordered["p"]
            lhs = mod_reduce(lhs, p, exponent)
            rhs = mod_reduce(rhs, p, exponent)
            modulus = p ** exponent
    except NotPIntegral:
        return CheckReport(identity, ordered, NOT_P_INTEGRAL, None, None,
                           None, time.perf_counter() - start)
    except Exception as exc:
        # one broken evaluator must not sink the rest of a sweep
        where = ";".join(f"{k}={v}" for k, v in ordered.items())
        print(f"error: {identity} {where}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return CheckReport(identity, ordered, ERROR, None, None, None,
                           time.perf_counter() - start)
    status = VERIFIED if lhs == rhs else FAILED
    if status == FAILED and desc.counted is not None \
            and not desc.counted(**ordered):
        # exploratory point outside the stated domain: report, don't count
        status = INAPPLICABLE
    return CheckReport(identity, ordered, status, lhs, rhs, modulus,
                       time.perf_counter() - start)


def _resolve_ids(identities: str | Iterable[str]) -> list[str]:
    if isinstance(identities, str):
        identities = [identities]
    ids: list[str] = []
    for ident in identities:
        if ident == "all":
            ids.extend(_CATALOG)
        else:
            _descriptor(ident)  # raises UnknownIdentity
            ids.append(ident)
    seen = set()
    out = []
    for i in ids:
        if i not in seen:
            seen.add(i)
            out.append(i)
    return out


def _check_batch(tasks: list[tuple[str, dict[str, int]]],
                 modulus_override: int | None) -> list[CheckReport]:
    return [check(i, prm, modulus_override=modulus_override)
            for i, prm in tasks]


def _pool_batch(tasks: list[tuple[str, dict[str, int]]],
                modulus_override: int | None) -> tuple[list[CheckReport], int]:
    """A batch run in a pool worker, and how far its Bernoulli table grew."""
    return _check_batch(tasks, modulus_override), bernoulli_table().max_index


def sweep(identities: str | Iterable[str], lo: int, hi: int, *,
          jobs: int = 1, modulus_override: int | None = None) -> list[CheckReport]:
    """Check every selected identity over its parameter points in [lo, hi].

    Prime-indexed identities sweep the primes of the range; index-parameterized
    exact identities sweep their fixed default ranges.  Reports come back
    sorted by (identity, parameter tuple) no matter how many workers ran.
    """
    if lo < 5:
        raise ValueError(f"sweep range must start at 5 or above, got {lo}")
    if lo > hi:
        raise ValueError(f"empty sweep range {lo}..{hi}")
    ids = _resolve_ids(identities)

    batches: dict[object, list[tuple[str, dict[str, int]]]] = {}
    for ident in ids:
        desc = _CATALOG[ident]
        for point in desc.points(lo, hi):
            key = ("p", point["p"]) if "p" in point else ("x", ident)
            batches.setdefault(key, []).append((ident, point))

    # costliest first, so no long batch starts last: the fixed-size
    # index-parameter batches, then the primes from the top of the range down
    ordered = [batches[key] for key in sorted(
        batches, key=lambda k: -k[1] if k[0] == "p" else float("-inf"))]
    if jobs <= 1 or len(ordered) <= 1:
        reports = [r for batch in ordered
                   for r in _check_batch(batch, modulus_override)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_pool_batch, batch, modulus_override)
                       for batch in ordered]
            done = [f.result() for f in futures]
        reports = [r for batch, _ in done for r in batch]
        # grow this process's table as far as any worker's grew, so that a
        # cache saved after the sweep holds every entry the workers read
        bernoulli(max(top for _, top in done))
    reports.sort(key=CheckReport.sort_key)
    return reports
