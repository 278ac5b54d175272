"""Catalog checks: frozen residue anchors, status plumbing, sweep behavior."""
import builtins
import multiprocessing
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from multiprocessing.connection import Connection
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernmod.identities as idmod
from bernmod import parallel, sequences
from bernmod.identities import (
    FAILED,
    INAPPLICABLE,
    NOT_P_INTEGRAL,
    VERIFIED,
    IdentityDescriptor,
    UnknownIdentity,
    catalog,
    check,
    identity_ids,
    sweep,
    theorem1_rhs,
)
from bernmod.modular import (
    NotPIntegral,
    hensel_digit,
    is_prime,
    mod_reduce,
    primes_in,
)
from bernmod.sequences import (
    PrimeContext,
    bernoulli,
    bernoulli_table,
    divided_bernoulli,
    even_ascent_count,
    gen_harmonic,
    get_prime_context,
    harmonic,
    weighted_convolution,
)

# hand-computed residue pairs; every entry is (identity, params,
# lhs residue, rhs residue, modulus)
FROZEN_ANCHORS = [
    ("conv_order_p1", {"p": 5}, 1, 1, 5),
    ("conv_order_p1", {"p": 7}, 1, 1, 7),
    ("theorem1", {"p": 5}, 4, 4, 5),
    ("theorem1", {"p": 7}, 3, 3, 7),
    ("lemma1", {"p": 7}, 47, 47, 49),
    ("lemma2", {"p": 7, "m": 2}, 35, 35, 49),
    ("result1", {"p": 7}, 19, 19, 49),
    ("result2", {"p": 5}, 3, 3, 5),
    ("result3", {"p": 7}, 37, 37, 49),
    ("result4", {"p": 5}, 2, 2, 5),
    ("zhao_p3", {"p": 11}, 3, 3, 11),
    ("zhao_p5", {"p": 13}, 12, 12, 13),
    ("lev3_div_p3", {"p": 11}, 10, 10, 11),
    ("wilson", {"p": 5}, 4, 4, 5),
    ("glaisher", {"p": 5}, 24, 24, 25),
]


@pytest.mark.parametrize("identity,params,lhs,rhs,modulus", FROZEN_ANCHORS)
def test_frozen_residue_anchors(identity, params, lhs, rhs, modulus):
    report = check(identity, params)
    assert report.status == VERIFIED
    assert report.lhs == lhs
    assert report.rhs == rhs
    assert report.modulus == modulus


def test_catalog_shape():
    ids = identity_ids()
    assert len(ids) == len(set(ids)) == 34
    for ident, desc in catalog().items():
        assert desc.id == ident
        assert isinstance(desc, IdentityDescriptor)
        assert desc.title and desc.source
        assert desc.exponent is None or desc.exponent >= 1


def test_dataclasses_replace_copies_a_catalog_entry():
    # perfbench/tracer.py wraps each entry's sides through
    # dataclasses.replace, as it did when entries were dataclasses
    import dataclasses

    desc = idmod._CATALOG["lemma2"]
    copy = dataclasses.replace(desc, lhs=len, rhs=abs)
    assert type(copy) is IdentityDescriptor
    assert copy == desc._replace(lhs=len, rhs=abs)


def test_theorem1_rhs_matches_convolution():
    for p in (5, 7, 11, 13, 17, 19):
        lhs = mod_reduce(weighted_convolution(p, 2), p, 1)
        rhs = mod_reduce(theorem1_rhs(p), p, 1)
        assert lhs == rhs, p


def _harmonic_convolution_oracle(n):
    """H_1/(n-1) + H_2/(n-2) + ... + H_{n-1}/1, summed term by term."""
    return sum((harmonic(k) / (n - k) for k in range(1, n)), Fraction(0))


def _hc(m):
    """H_1/(2m-1) + ... + H_{2m-1}/1, by its closed form H_n^2 - H_n^(2), n = 2m.

    Both equal 2 sum_{s<=n} H_{s-1}/s: the sum is sum 1/(ij) over i + j <= n,
    grouped by s = i + j; H_n^2 - H_n^(2) is sum 1/(ij) over i != j <= n,
    grouped by s = max(i, j).
    """
    return harmonic(2 * m) ** 2 - gen_harmonic(2 * m, 2)


def test_harmonic_convolution_closed_form_matches_the_sum():
    for n in range(1, 200):
        closed = harmonic(n) ** 2 - gen_harmonic(n, 2)
        assert closed == _harmonic_convolution_oracle(n), n
    assert _hc(1) == Fraction(1)
    assert _hc(2) == Fraction(35, 12)
    # lemma 2's rhs row reads the same form off a prime's prefixes
    p = 199
    ctx = get_prime_context(p)
    for e in (2, 3):
        row = catalog()["lemma2"].rhs(ctx, p, e, 98)
        for m in range(1, 99):
            want = p * (2 * gen_harmonic(2 * m, 2)
                        - 2 * harmonic(2 * m) * harmonic(2 * m + 1)
                        + _harmonic_convolution_oracle(2 * m))
            assert row[m] == mod_reduce(want, p, e), m


@lru_cache(maxsize=None)
def _odd_power_sum_total(p):
    """sum over m = 0..(p-3)/2 of S_{2m+1, p-2}, exactly, power sum by power
    sum."""
    return sum(sum(a ** (p - 2) for a in range(1, 2 * m + 2))
               for m in range((p - 1) // 2))


def _result1_rhs_oracle(p):
    # the sum of the shifted tails, one Fraction term at a time
    tails = sum((harmonic(K) / (K + 2 * m + 2)
                 for m in range((p - 1) // 2)
                 for K in range(p - 2 * m - 1, p - 1)), Fraction(0))
    return _odd_power_sum_total(p) - p * tails


def test_result1_rhs_matches_the_double_loop():
    # the double loop is the oracle for the regrouped single loop, which
    # reads the tails mod p^(N-1); exponent 1 reads them mod 1
    for p in primes_in(5, 199):
        ctx = get_prime_context(p)
        want = _exact_side("result1", "rhs", (("p", p),))
        for e in (1, 2, 3):
            assert idmod._result1_rhs(ctx, p, e) == mod_reduce(want, p, e), p


# ---------------------------------------------------------------------------
# the exact evaluators that the prime-indexed residue sides replaced, kept
# here as oracles, and the running Fraction sums that the exact sides over one
# common denominator replaced

class _PowerRow:
    """Exact sums of b^k over a fixed set of bases b, one exponent at a time.

    Asking for the exponent one past the last one multiplies each power by
    its base; any other exponent raises every base.
    """

    def __init__(self, bases):
        self._bases = tuple(bases)
        self._k = -2  # no powers yet: no k >= 0 is one past it
        self._powers = []

    def total(self, k):
        if k == self._k + 1:
            self._powers = list(map(mul, self._powers, self._bases))
        else:
            self._powers = [b ** k for b in self._bases]
        self._k = k
        return sum(self._powers)


class _ExactPrime:
    """The exact power rows and shifted-tail kernel of one prime."""

    def __init__(self, p):
        self.p = p
        self.full = _PowerRow(range(1, p))
        self.half_square = _PowerRow(b * b for b in range(1, (p - 1) // 2 + 1))
        self.odd_square = _PowerRow(x * x for x in range(1, p - 1, 2))
        # H_K L for K = 0..p-2, M // d for the divisors d = p+1..2p-3, L M
        L, M = lcm(*range(1, p - 1)), lcm(*range(p + 1, 2 * p - 2))
        self.h_times_l = list(accumulate((L // K for K in range(1, p - 1)),
                                         initial=0))
        self.cofactors = [M // d for d in range(p + 1, 2 * p - 2)]
        self.denominator = L * M

    def shifted_tail(self, m):
        """sum_{K=p-(2m+1)}^{p-2} H_K / (K + 2m + 2), over one denominator."""
        p = self.p
        terms = self.h_times_l[p - 2 * m - 1:p - 1]
        return Fraction(sum(map(mul, terms, self.cofactors)), self.denominator)


# (identity, side) -> the exact value at (exact prime, p, k or m)
EXACT_KERNEL_ORACLES = {
    ("lehmer_i", "lhs"): lambda x, p, k: p * bernoulli(2 * k),
    ("lehmer_i", "rhs"): lambda x, p, k: Fraction(x.odd_square.total(k),
                                                   1 << (2 * k - 1)),
    ("lehmer_ii", "lhs"): lambda x, p, k: x.half_square.total(k),
    ("lehmer_ii", "rhs"): lambda x, p, k: (
        (Fraction(1, 2 ** (2 * k - 1)) - 1) * bernoulli(2 * k) * p / 2),
    ("sun_lemma", "lhs"): lambda x, p, k: x.full.total(k),
    ("sun_lemma", "rhs"): lambda x, p, k: (
        p * bernoulli(k) + Fraction(p * p, 2) * k * bernoulli(k - 1)),
    ("lemma2", "lhs"): lambda x, p, m: -p * x.shifted_tail(m),
    ("lemma2", "rhs"): lambda x, p, m: p * (
        2 * gen_harmonic(2 * m, 2)
        - 2 * harmonic(2 * m) * harmonic(2 * m + 1) + _hc(m)),
}


# ---------------------------------------------------------------------------
# the per-point evaluators that the rows of the four per-(p, k) families
# replaced, kept here as oracles: (identity, side) -> the residue mod p^e at
# one (p, k or m), read from the context's tables

def _p_bernoulli_residue(ctx, e, n):
    """p B_n mod p^e; the Bernoulli row holds p B_n itself at even n > 0
    with (p - 1) | n."""
    p, q = ctx.p, ctx.p ** e
    b = ctx.bernoulli_residues(e, n)[n]
    return b if n and n % (p - 1) == 0 else p * b % q


def _full_power_residue(ctx, e, k):
    """S_{p-1,k} mod p^e by pairing a with p - a, one k at a time."""
    p = ctx.p
    s = ctx.half_power_residues(e, k)
    total = sum(comb(k, i) * p ** i * (-1) ** (k - i) * s[k - i]
                for i in range(min(e, k + 1)))
    return (s[k] + total) % p ** e


def _lemma2_tail_residue(ctx, e, p, m):
    """-p sum_{K=p-2m-1}^{p-2} H_K / (K + 2m + 2) mod p^e, term by term."""
    h, _, inverses = ctx.harmonic_residues(e - 1)
    tail = sum(map(mul, h[p - 2 * m - 1:p - 1], inverses))
    return -p * tail % p ** e


def _lemma2_form_residue(ctx, e, p, m):
    """p (H_n^(2) + H_n (H_n - 2 H_{n+1})) mod p^e at n = 2m."""
    h, h2, _ = ctx.harmonic_residues(e - 1)
    n = 2 * m
    return p * (h2[n] + h[n] * (h[n] - 2 * h[n + 1])) % p ** e


POINT_ORACLES = {
    ("lehmer_i", "lhs"): lambda ctx, e, p, k: _p_bernoulli_residue(
        ctx, e, 2 * k),
    ("lehmer_i", "rhs"): lambda ctx, e, p, k: 2 * (
        pow(4, -k, p ** e) * _full_power_residue(ctx, e, 2 * k)
        - ctx.half_power_residues(e, 2 * k)[2 * k]),
    ("lehmer_ii", "lhs"): lambda ctx, e, p, k: ctx.half_power_residues(
        e, 2 * k)[2 * k],
    ("lehmer_ii", "rhs"): lambda ctx, e, p, k: (
        (pow(2, -2 * k, p ** e) - pow(2, -1, p ** e))
        * _p_bernoulli_residue(ctx, e, 2 * k)),
    ("sun_lemma", "lhs"): lambda ctx, e, p, k: _full_power_residue(ctx, e, k),
    ("sun_lemma", "rhs"): lambda ctx, e, p, k: (
        _p_bernoulli_residue(ctx, e, k)
        + p * k * _p_bernoulli_residue(ctx, e, k - 1) * pow(2, -1, p ** e)),
    ("lemma2", "lhs"): _lemma2_tail_residue,
    ("lemma2", "rhs"): _lemma2_form_residue,
}

ROW_IDS = ["lehmer_i", "lehmer_ii", "sun_lemma", "lemma2"]


def _points(desc, lo, hi):
    """An identity's sweep points in [lo, hi] as dicts, prime by prime."""
    primes = primes_in(lo, hi) if "p" in desc.params else [None]
    return [dict(zip(desc.params, point))
            for p in primes for point in desc.points(p)]


@pytest.mark.parametrize("hi,overrides", [(199, [None]),
                                          (61, [1, 2, 3, 4])])
@pytest.mark.parametrize("identity", ROW_IDS)
def test_rows_match_the_per_point_oracles(identity, hi, overrides):
    # every entry a point of the range reads, in [0, p^N), at the declared
    # exponent or at each --modulus override; a row ends at its largest point
    desc = catalog()[identity]
    name = desc.params[1]
    assert name == ("m" if identity == "lemma2" else "k")
    for p in primes_in(5, hi):
        ctx = get_prime_context(p)
        points = [pt for pt in _points(desc, p, p) if desc.domain(**pt)]
        assert points
        top = max(pt[name] for pt in points)
        for override in overrides:
            e = override or desc.exponent
            rows = {"lhs": desc.lhs(ctx, p, e, top),
                    "rhs": desc.rhs(ctx, p, e, top)}
            assert [len(row) for row in rows.values()] == [top + 1] * 2
            for params in points:
                i = params[name]
                for side, row in rows.items():
                    want = POINT_ORACLES[identity, side](ctx, e, **params)
                    assert row[i] == mod_reduce(want, p, e), (
                        side, params, e)


@pytest.mark.parametrize("identity, k, top", [
    ("lehmer_ii", 2, 4),  # p B_4
    ("lehmer_i", 3, 6),  # p B_6
    ("sun_lemma", 3, 3),  # p B_3 and p B_2
])
def test_a_single_check_reads_the_table_to_its_own_point(
        monkeypatch, identity, k, top):
    # the rows of one check end at its k, so the exact table ends at the
    # Bernoulli index that k reads, not at B_2p
    fresh = sequences.BernoulliTable()
    monkeypatch.setattr(sequences, "_TABLE", fresh)
    get_prime_context.cache_clear()
    assert check(identity, {"p": 1009, "k": k}).status == VERIFIED
    assert fresh.max_index == top


@pytest.mark.parametrize("identity, k, exponent, size", [
    ("sun_lemma", 3, 2, 4),  # S_{h,0..3} mod p^2
    ("lehmer_ii", 2, 2, 5),  # S_{h,0..4} mod p^2
    ("lehmer_i", 3, 3, 7),  # S_{h,0..6} mod p^3
])
def test_a_single_check_grows_the_half_power_row_to_its_own_point(
        identity, k, exponent, size):
    # the half-range row of one check ends at the power its k reads, not at
    # j = 2p
    get_prime_context.cache_clear()
    assert check(identity, {"p": 1009, "k": k}).status == VERIFIED
    ctx = get_prime_context(1009)
    assert len(ctx.half_power_residues(exponent, -1)) == size


def test_a_sweep_grows_each_half_power_row_to_its_largest_read():
    # lehmer_i reads S_{h,0..2p-2} mod p^3, a read past p, so its row grows
    # to 2p at once; lehmer_ii reads to 2p mod p^2 and sun_lemma to p, both
    # reduced from it
    p = 101
    get_prime_context.cache_clear()
    sweep(["lehmer_i", "lehmer_ii", "sun_lemma"], p, p)
    ctx = get_prime_context(p)
    assert [len(ctx.half_power_residues(e, -1)) for e in (3, 2)] == [
        2 * p + 1, 2 * p + 1]


def test_a_catalog_sweep_runs_the_power_sum_kernel_once_per_prime(
        monkeypatch):
    # lehmer_ii's p^2 row reaches two entries past lehmer_i's largest read
    # at p^3; the p^3 row covers them, so no second kernel pass builds them
    calls = []
    kernel = sequences._half_power_sums
    monkeypatch.setattr(sequences, "_half_power_sums",
                        lambda *args: calls.append(args) or kernel(*args))
    get_prime_context.cache_clear()
    sweep("all", 5, 199)
    assert len(calls) == len(primes_in(5, 199)) == 44


def _bernoulli_convolution_oracle(t):
    return sum((bernoulli(j) * bernoulli(t - j) for j in range(2, t - 1, 2)),
               Fraction(0))


def _divided_convolution_oracle(t):
    return sum((divided_bernoulli(j) * divided_bernoulli(t - j)
                for j in range(2, t - 1, 2)), Fraction(0))


def _weighted_convolution_oracle(p):
    acc = Fraction(0)
    for i in range(2, p - 2, 2):
        acc += bernoulli(i) / 2 ** i * bernoulli(p - 1 - i)
    return acc


def _odd_harmonic_sum_oracle(p):
    return sum((harmonic(m) for m in range(1, p - 1, 2)), Fraction(0))


def agoh_giuga_quotient(p):
    """(1 + p B_{p-1}) / p, exact."""
    return (1 + p * bernoulli(p - 1)) / p


def odd_reciprocal_sum(p):
    """1 + 1/3 + ... + 1/(p-2), exact."""
    return sum((Fraction(1, j) for j in range(1, p - 1, 2)), Fraction(0))


def _theorem1_rhs_oracle(ctx, p):
    half = (p - 3) // 2
    S = _odd_harmonic_sum_oracle(p)
    G = sum((gen_harmonic(2 * m, 2) for m in range(1, half + 1)),
            Fraction(0))
    X = sum((harmonic(2 * m) * harmonic(2 * m + 1)
             for m in range(1, half + 1)), Fraction(0))
    T = sum((_harmonic_convolution_oracle(2 * m) for m in range(2, half + 1)),
            Fraction(0))
    d = hensel_digit(2 * S, p, 0)
    term2 = 2 * hensel_digit(Fraction(d, 2), p, 1)
    term3 = hensel_digit(2 * hensel_digit(S, p, 0), p, 1)
    return -1 + term2 + term3 + 6 * S + 4 * G - 4 * X - 4 * S * S + 2 * T


def _lemma1_rhs_oracle(ctx, p):
    d0, d1 = idmod._two_n_digits(ctx)
    cb = _weighted_convolution_oracle(p)
    return (Fraction(d0, 2) + p * (Fraction(d0, 2) + Fraction(d1, 2)
                                   - Fraction((d0 - 1) ** 2, 2) - cb / 2 - 1))


def _result3_rhs_oracle(ctx, p):
    d0, d1 = idmod._two_n_digits(ctx)
    return d0 - 1 + p * (agoh_giuga_quotient(p) + d1 - (d0 - 1) ** 2 - 2)


def _lev3_shifted_rhs_oracle(ctx, p, s):
    ag = agoh_giuga_quotient(p)
    diff = divided_bernoulli(2 * p - 1 - s) - divided_bernoulli(p - s)
    value = (2 * (ag - 1) * divided_bernoulli(p - s)
             + 2 * hensel_digit(diff, p, 1))
    if s == 5:
        value -= divided_bernoulli(p - 3) ** 2
    return value


def _h_over_shift_oracle(s):
    return lambda ctx, n: sum((harmonic(j) / (j + s) for j in range(1, n + 1)),
                              Fraction(0))


def _prop1_rhs_oracle(ctx, n, s):
    main = (harmonic(n + s) ** 2 - gen_harmonic(n + s, 2)) / 2
    corr = sum(((harmonic(s - 1) - harmonic(i)) / (n + s - i)
                for i in range(s - 1)), Fraction(0))
    base = (harmonic(s) ** 2 - gen_harmonic(s, 2)) / 2
    cross = harmonic(s - 1) * harmonic(s)
    tail = sum((harmonic(k) / (s - k) for k in range(1, s)), Fraction(0))
    return main + corr - base - cross + tail


def _over_k2k_oracle(value, top):
    return lambda ctx, p: sum((value(k) / (k * 2 ** k)
                               for k in range(1, p + top)), Fraction(0))


# (identity, side) -> the running Fraction sum that the exact side replaced,
# called like the catalog's evaluators; the prime-indexed ones are now
# residue sides, checked against the reduced sum
SUM_ORACLES = {
    ("conv_order_p1", "lhs"): lambda ctx, p: _bernoulli_convolution_oracle(
        p - 1),
    ("zhao_p3", "lhs"): lambda ctx, p: _bernoulli_convolution_oracle(p - 3),
    ("zhao_p5", "lhs"): lambda ctx, p: _bernoulli_convolution_oracle(p - 5),
    ("lev3_div_p1", "lhs"): lambda ctx, p: _divided_convolution_oracle(p - 1),
    ("lev3_div_p3", "lhs"): lambda ctx, p: _divided_convolution_oracle(p - 3),
    ("lev3_div_p5", "lhs"): lambda ctx, p: _divided_convolution_oracle(p - 5),
    ("euler_identity", "lhs"): lambda ctx, n: sum(
        (comb(n, j) * bernoulli(j) * bernoulli(n - j) for j in range(n + 1)),
        Fraction(0)),
    ("miki_identity", "lhs"): lambda ctx, n: sum(
        (comb(n, j) * divided_bernoulli(j) * divided_bernoulli(n - j)
         for j in range(2, n - 1)), Fraction(0)),
    ("miki_identity", "rhs"): lambda ctx, n: (
        _divided_convolution_oracle(n)
        - 2 * divided_bernoulli(n) * harmonic(n)),
    ("sub_h_over_k2k", "lhs"): _over_k2k_oracle(harmonic, 0),
    ("sub_h2_over_k2k", "lhs"): _over_k2k_oracle(
        lambda k: gen_harmonic(k, 2), 0),
    ("lev3_b_over_k2k", "lhs"): _over_k2k_oracle(bernoulli, -1),
    ("alzer", "lhs"): _h_over_shift_oracle(0),
    ("choi_srivastava_s1", "lhs"): _h_over_shift_oracle(1),
    ("choi_srivastava_s2", "lhs"): _h_over_shift_oracle(2),
    ("choi_srivastava_s3", "lhs"): _h_over_shift_oracle(3),
    ("prop1", "lhs"): lambda ctx, n, s: _h_over_shift_oracle(s)(ctx, n),
    ("prop1", "rhs"): _prop1_rhs_oracle,
    ("theorem1", "lhs"): lambda ctx, p: _weighted_convolution_oracle(p),
    ("theorem1", "rhs"): _theorem1_rhs_oracle,
    ("lemma1", "rhs"): _lemma1_rhs_oracle,
    ("wolstenholme", "lhs"): lambda ctx, p: harmonic(p - 1),
}

# (identity, side) -> the exact evaluator that the residue side replaced, for
# the prime-indexed sides with no entry above
EXACT_SIDE_ORACLES = {
    **{key: oracle for key, oracle in SUM_ORACLES.items()
       if catalog()[key[0]].exponent is not None},
    ("zhao_p3", "rhs"): lambda ctx, p: -2 * bernoulli(p - 3),
    ("zhao_p5", "rhs"): lambda ctx, p: (
        -2 * bernoulli(p - 5) - Fraction(2, 3) * bernoulli(p - 3) ** 2),
    ("lev3_div_p1", "rhs"): lambda ctx, p: Fraction(hensel_digit(
        2 * p * divided_bernoulli(2 * p - 2)
        - p * p * divided_bernoulli(p - 1) ** 2, p, 2)),
    ("lev3_div_p3", "rhs"): lambda ctx, p: _lev3_shifted_rhs_oracle(ctx, p, 3),
    ("lev3_div_p5", "rhs"): lambda ctx, p: _lev3_shifted_rhs_oracle(ctx, p, 5),
    ("sub_h_over_k2k", "rhs"): lambda ctx, p: (
        Fraction(7, 24) * p * bernoulli(p - 3)),
    ("sub_h2_over_k2k", "rhs"): lambda ctx, p: -Fraction(3, 8) * bernoulli(
        p - 3),
    ("lev3_b_over_k2k", "rhs"): lambda ctx, p: (
        -harmonic((p - 1) // 2) / 2 + agoh_giuga_quotient(p) - 1),
    ("result1", "rhs"): lambda ctx, p: _result1_rhs_oracle(p),
    ("result3", "lhs"): lambda ctx, p: sum(
        x ** (p - 2) for x in range(1, p - 1, 2)),
    ("result3", "rhs"): _result3_rhs_oracle,
    ("result4", "rhs"): lambda ctx, p: _odd_harmonic_sum_oracle(p),
    ("lemma1", "lhs"): lambda ctx, p: _odd_power_sum_total(p),
    ("remark1a", "rhs"): lambda ctx, p: odd_reciprocal_sum(p),
    ("remark1b", "lhs"): lambda ctx, p: _odd_harmonic_sum_oracle(p),
    ("remark1b", "rhs"): lambda ctx, p: (odd_reciprocal_sum(p) + 1) / 2,
    ("eisenstein", "rhs"): lambda ctx, p: sum(
        (Fraction((-1) ** (k - 1), k) for k in range(1, p)), Fraction(0)) / 2,
    ("glaisher", "rhs"): lambda ctx, p: p * bernoulli(p - 1) - p,
}


@lru_cache(maxsize=None)
def _exact_side(identity, side, params):
    """The exact value of a replaced prime-indexed side at one point, given
    as a tuple of (name, value) pairs; each point is summed once per run."""
    params = dict(params)
    return EXACT_SIDE_ORACLES[identity, side](
        get_prime_context(params["p"]), **params)


# the prime-indexed identities with a residue side, in catalog order
RESIDUE_IDS = list(dict.fromkeys(
    ident for ident, _ in [*EXACT_KERNEL_ORACLES, *EXACT_SIDE_ORACLES]))


@pytest.mark.parametrize("hi,overrides", [(199, [None]),
                                          (61, [1, 2, 3, 4])])
@pytest.mark.parametrize("identity", RESIDUE_IDS)
def test_residue_kernels_match_the_exact_evaluators(identity, hi, overrides):
    # every point of the range, at the declared exponent or at each
    # --modulus override, reduced from the exact value by mod_reduce
    desc = catalog()[identity]
    kernel = identity in {ident for ident, _ in EXACT_KERNEL_ORACLES}
    exact = {}
    for params in _points(desc, 5, hi):
        p = params["p"]
        if kernel and p not in exact:
            exact[p] = _ExactPrime(p)
        for override in overrides:
            report = check(identity, params, modulus_override=override)
            if report.status == INAPPLICABLE and report.modulus is None:
                continue  # outside the domain: no side was evaluated
            e = override or desc.exponent
            assert report.modulus == p ** e
            for side in ("lhs", "rhs"):
                if (identity, side) in EXACT_KERNEL_ORACLES:
                    value = EXACT_KERNEL_ORACLES[identity, side](
                        exact[p], **params)
                elif (identity, side) in EXACT_SIDE_ORACLES:
                    value = _exact_side(identity, side,
                                        tuple(params.items()))
                else:
                    continue  # q_2, (p-1)!, N_{p-2} or a constant
                want = mod_reduce(value, p, e)
                assert getattr(report, side) == want, (side, params, e)


# the convolution ids read the most Bernoulli numbers, so they go further
_CONVOLUTION_IDS = {"conv_order_p1", "zhao_p3", "zhao_p5",
                    "lev3_div_p1", "lev3_div_p3", "lev3_div_p5"}


@pytest.mark.parametrize("identity,side", list(SUM_ORACLES))
def test_sums_over_one_denominator_match_the_running_fraction_sums(
        identity, side):
    # an exact side equals its running sum; a residue side equals it
    # reduced at the declared exponent
    desc = catalog()[identity]
    evaluator = getattr(desc, side)
    oracle = SUM_ORACLES[identity, side]
    hi = 401 if identity in _CONVOLUTION_IDS else 199
    points = list(_points(desc, 5, hi))
    assert points
    # an exact side is a row over the points, evaluated as a sweep does
    row = (evaluator(None, [tuple(pt.values()) for pt in points])
           if desc.exponent is None else None)
    for i, params in enumerate(points):
        if desc.exponent is None:
            got = row[i]
            assert isinstance(got, Fraction)
            assert got == oracle(None, **params), params
        else:
            p = params["p"]
            got = getattr(check(identity, params), side)
            want = _exact_side(identity, side, tuple(params.items()))
            assert got == mod_reduce(want, p, desc.exponent), params


def test_residue_sides_report_a_pole_as_not_p_integral():
    # lev3_div_p5's rhs divides by p - 5, which p = 5 makes a pole; the
    # domain keeps p = 5 out, so the evaluator is called directly
    ctx = get_prime_context(5)
    with pytest.raises(NotPIntegral):
        idmod._lev3_shifted_rhs(ctx, 5, 1, s=5)
    desc = IdentityDescriptor(
        id="test_residue_pole",
        title="deliberate pole in a residue side",
        source="test fixture",
        params=("p",),
        exponent=2,
        lhs=lambda ctx, p, n: mod_reduce(Fraction(1, 2 * p), p, n),
        rhs=lambda ctx, p, n: 0,
        domain=lambda p: p >= 5,
        points=lambda p: [],
    )
    idmod._CATALOG["test_residue_pole"] = desc
    try:
        report = check("test_residue_pole", {"p": 7})
    finally:
        del idmod._CATALOG["test_residue_pole"]
    assert report.status == NOT_P_INTEGRAL
    assert report.lhs is None and report.rhs is None


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("s", [3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_lev3_shifted_rhs_has_its_one_pole_at_s_equal_to_p(p, s, n):
    # D_{p-s} = B_0/0 at s = p; every other divisor is a unit mod p, in or
    # out of the catalog's domain
    ctx = get_prime_context(p)
    if p == s:
        with pytest.raises(NotPIntegral):
            idmod._lev3_shifted_rhs(ctx, p, n, s=s)
        return
    got = idmod._lev3_shifted_rhs(ctx, p, n, s=s)
    assert 0 <= got < p ** n
    assert got == mod_reduce(_lev3_shifted_rhs_oracle(ctx, p, s), p, n)


def test_exact_identity_reports_carry_fractions():
    report = check("alzer", {"n": 3})
    assert report.status == VERIFIED
    assert report.lhs == report.rhs == Fraction(85, 36)
    assert report.modulus is None

    report = check("prop1", {"n": 1, "s": 3})
    assert report.lhs == report.rhs == Fraction(1, 4)


def test_prop1_collapses_to_the_s3_closed_form():
    cat = catalog()
    prop1 = cat["prop1"]
    s3 = cat["choi_srivastava_s3"]
    ns = range(1, 61)
    assert prop1.rhs(None, [(n, 3) for n in ns]) == s3.rhs(
        None, [(n,) for n in ns])


def test_unknown_identity_raises():
    with pytest.raises(UnknownIdentity):
        check("no_such_identity", {"p": 7})
    with pytest.raises(UnknownIdentity):
        sweep("no_such_identity", 5, 11)


def test_wrong_parameters_raise():
    with pytest.raises(ValueError):
        check("wilson", {"n": 7})
    with pytest.raises(ValueError):
        check("lemma2", {"p": 7})


def _outcome(report):
    return (report.identity, report.params, report.status, report.lhs,
            report.rhs, report.modulus)


@pytest.mark.parametrize("override", [None, 1, 2, 3, 4])
def test_batches_check_catalog_points_as_check_does(override):
    # a batch skips check's parameter validation, since catalog points come
    # with the identity's parameters in its order
    by_prime = tuple(i for i, d in catalog().items() if "p" in d.params)
    batches = [(None, (i,)) for i in catalog() if i not in by_prime]
    batches += [(p, by_prime) for p in primes_in(5, 61)]
    for p, ids in batches:
        bounds = (5, 61) if p is None else (p, p)
        tasks = [(ident, params) for ident in ids
                 for params in _points(catalog()[ident], *bounds)]
        lists = [idmod._reports(chunk)
                 for chunk in idmod._check_batch((p, ids), override)]
        # one list per identity with points
        assert [rs[0].identity for rs in lists] == list(
            dict.fromkeys(ident for ident, _ in tasks))
        assert [_outcome(r) for rs in lists for r in rs] == [
            _outcome(check(ident, params, modulus_override=override))
            for ident, params in tasks]


_PREFIX_SIDES = [("alzer", 0), ("choi_srivastava_s1", 1),
                 ("choi_srivastava_s2", 2), ("choi_srivastava_s3", 3),
                 ("prop1", None)]


def test_harmonic_prefix_sides_do_not_depend_on_its_top():
    # each point alone, over the prefix of its own top, then the whole row,
    # over the prefix of the largest, descending
    for ident, shift in _PREFIX_SIDES:
        desc = catalog()[ident]
        points = desc.points(None)[::-1]
        want = [_h_over_shift_oracle(pt[-1] if shift is None else shift)(
            None, pt[0]) for pt in points]
        sides = [desc.lhs, desc.rhs] if ident == "prop1" else [desc.lhs]
        for side in sides:
            assert [side(None, [pt])[0] for pt in points] == want, ident
            assert side(None, points) == want, ident


def test_out_of_domain_is_inapplicable():
    assert check("wilson", {"p": 9}).status == INAPPLICABLE
    assert check("theorem1", {"p": 4}).status == INAPPLICABLE
    assert check("miki_identity", {"n": 3}).status == INAPPLICABLE
    assert check("euler_tangent_relation", {"n": 4}).status == INAPPLICABLE
    assert check("lehmer_i", {"p": 5, "k": 3}).status == INAPPLICABLE
    # the prime test comes before the domain predicate: lehmer_i's
    # (2k - 2) % (p - 1) would divide by zero at p = 1
    assert check("lehmer_i", {"p": 1, "k": 2}).status == INAPPLICABLE
    assert check("lemma2", {"p": 9, "m": 1}).status == INAPPLICABLE
    assert check("sun_lemma", {"p": 4, "k": 2}).status == INAPPLICABLE


def test_each_tangent_side_computes_only_its_own_value(monkeypatch):
    desc = catalog()["euler_tangent_relation"]
    points = [(n,) for n in range(1, 32, 2)]
    want = [(sequences.tangent_side(n), sequences.alternating_eulerian_sum(n))
            for n, in points]

    def unread(*args):
        raise AssertionError("read by the other side")

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "eulerian", unread)
        assert desc.lhs(None, points) == [lhs for lhs, _ in want]
    with monkeypatch.context() as patch:
        patch.setattr(sequences, "bernoulli", unread)
        assert desc.rhs(None, points) == [rhs for _, rhs in want]


@pytest.mark.parametrize("ident, p", [("lehmer_i", 7), ("lehmer_ii", 5)])
def test_lehmer_points_past_k_equals_p_are_inapplicable(ident, p, capsys):
    # both domains end at k = p
    assert check(ident, {"p": p, "k": p - 1}).status == VERIFIED
    for k in (p + 1, 2 * p):
        assert check(ident, {"p": p, "k": k}).status == INAPPLICABLE, k
    assert capsys.readouterr().err == ""


def test_modulus_override_can_refute_a_weaker_congruence():
    # the plain convolution is 1 mod p but not mod p^2
    base = check("conv_order_p1", {"p": 5})
    assert base.status == VERIFIED and base.modulus == 5
    pushed = check("conv_order_p1", {"p": 5}, modulus_override=2)
    assert pushed.status == FAILED
    assert pushed.modulus == 25
    assert pushed.lhs != pushed.rhs


def test_modulus_override_computes_the_even_ascent_sides_at_that_power():
    # a side read at a fixed precision would be truncated under an override
    for p in primes_in(5, 61):
        n = even_ascent_count(p - 2)
        for k in range(1, 5):
            for ident in ("result1", "result4"):
                report = check(ident, {"p": p}, modulus_override=k)
                assert report.lhs == n % p ** k, (ident, p, k)
            report = check("result2", {"p": p}, modulus_override=k)
            assert report.rhs == (2 * n - 1) % p ** k, (p, k)


def test_modulus_override_verdicts_on_the_even_ascent_count():
    # N_5 = 68 = H_1 + H_3 + H_5 mod 49, but N_9 differs from the odd
    # harmonic sum mod 121, and q_2(7) = 9 is not 2 N_5 - 1 = 135 mod 49
    assert check("result4", {"p": 7}, modulus_override=2).status == VERIFIED
    assert check("result4", {"p": 11}, modulus_override=2).status == FAILED
    assert check("result2", {"p": 7}, modulus_override=2).status == FAILED


def test_one_primality_test_per_prime(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(sequences, "is_prime", counted)
    monkeypatch.setattr(idmod, "is_prime", counted, raising=False)
    get_prime_context.cache_clear()
    reports = sweep(["lehmer_i", "lehmer_ii", "sun_lemma", "lemma2"], 5, 61)
    assert all(r.status in (VERIFIED, INAPPLICABLE) for r in reports)
    assert sorted(calls) == primes_in(5, 61)  # 16 primes, one test each


def test_not_p_integral_status_via_pole_evaluator():
    """A side with a p in its denominator is reported, not crashed on."""
    desc = IdentityDescriptor(
        id="test_pole",
        title="deliberate pole",
        source="test fixture",
        params=("p",),
        exponent=1,
        lhs=lambda ctx, p, n: Fraction(1, p),
        rhs=lambda ctx, p, n: Fraction(0),
        domain=lambda p: p >= 5,
        points=lambda p: [],
    )
    idmod._CATALOG["test_pole"] = desc
    try:
        report = check("test_pole", {"p": 7})
    finally:
        del idmod._CATALOG["test_pole"]
    assert report.status == NOT_P_INTEGRAL
    assert report.lhs is None and report.rhs is None


def test_sun_lemma_exploratory_points_never_count_as_failures():
    for p in (5, 7, 11):
        for k in (p - 1, p):
            report = check("sun_lemma", {"p": p, "k": k})
            assert report.status in (VERIFIED, INAPPLICABLE)
    # at p^4 the congruence fails at k = p - 1, outside the stated domain,
    # so that point is reported with its values but not counted; k = p holds
    for p in primes_in(7, 23):
        report = check("sun_lemma", {"p": p, "k": p - 1}, modulus_override=4)
        assert report.status == INAPPLICABLE, p
        assert None not in (report.lhs, report.rhs)
        assert report.lhs != report.rhs, p
        report = check("sun_lemma", {"p": p, "k": p}, modulus_override=4)
        assert report.status == VERIFIED, p


def test_sweep_range_validation():
    with pytest.raises(ValueError):
        sweep("wilson", 3, 11)
    with pytest.raises(ValueError):
        sweep("wilson", 11, 7)
    # a modulus exponent below 1 is refused before any point is checked
    for bad in (0, -1):
        with pytest.raises(ValueError, match="must be >= 1"):
            sweep("lehmer_ii", 5, 5, modulus_override=bad)
        with pytest.raises(ValueError, match="must be >= 1"):
            check("lehmer_ii", {"p": 5, "k": 1}, modulus_override=bad)


def test_sweep_reports_are_sorted_and_complete():
    reports = sweep(["wilson", "lemma2"], 5, 13)
    keys = [(r.identity, tuple(r.params.values())) for r in reports]
    assert keys == sorted(keys)
    wilson_primes = [r.params["p"] for r in reports
                     if r.identity == "wilson"]
    assert wilson_primes == [5, 7, 11, 13]
    lemma2_pts = [(r.params["p"], r.params["m"]) for r in reports
                  if r.identity == "lemma2"]
    assert lemma2_pts == [(5, 1), (7, 1), (7, 2), (11, 1), (11, 2), (11, 3),
                          (11, 4), (13, 1), (13, 2), (13, 3), (13, 4), (13, 5)]


def test_sweep_runs_costliest_batches_first(monkeypatch):
    # at any jobs, the top prime's batch first, as it reads furthest into
    # the Bernoulli table, then the index batches and the other primes down
    started = []
    check_batch = idmod._check_batch

    def record(batch, modulus_override):
        started.append(batch[1][0] if batch[0] is None else batch[0])
        return check_batch(batch, modulus_override)

    monkeypatch.setattr(idmod, "_check_batch", record)
    sweep(["wilson", "alzer", "lemma2"], 5, 13)
    assert started == [13, "alzer", 11, 7, 5]


def test_sweep_makes_no_batch_for_a_prime_without_points(monkeypatch):
    # zhao_p5 starts at 13: the primes below it get no batch, not an empty
    # one; a batch checks its identities in catalog order at equal exponents
    started = []
    check_batch = idmod._check_batch

    def record(batch, modulus_override):
        chunks = check_batch(batch, modulus_override)
        started.append([(chunk.identity, point) for chunk in chunks
                        for point in chunk.points])
        return chunks

    monkeypatch.setattr(idmod, "_check_batch", record)
    sweep(["zhao_p5", "zhao_p3"], 5, 17)
    assert started == [[("zhao_p3", (17,)), ("zhao_p5", (17,))],
                       [("zhao_p3", (13,)), ("zhao_p5", (13,))],
                       [("zhao_p3", (11,))]]


def test_this_process_runs_the_top_batch_then_the_lightest_stripe(
        monkeypatch, start_children_by):
    # the batches below 31 are dealt round-robin, costliest first, into the
    # stripes (29, 17, 7), (23, 13, 5) and (19, 11); this process runs the
    # last, and its record is the one kept here
    started = []
    check_batch = idmod._check_batch

    def record(batch, modulus_override):
        started.append(batch[0])
        return check_batch(batch, modulus_override)

    monkeypatch.setattr(idmod, "_check_batch", record)
    launched = start_children_by("fork")
    sweep("wilson", 5, 31, jobs=3)
    assert launched == ["fork"] * 2
    assert started == [31, 19, 11]


def test_sweep_starts_no_more_workers_than_batches(start_children_by):
    # a huge --jobs must be capped by the batch count, less the top prime's,
    # which this process runs first; of the stripes left, this process runs
    # the last and a child each of the others
    launched = start_children_by("fork")
    parallel = sweep("wilson", 5, 31, jobs=10**6)
    # one batch per prime in 5..31, but 31's: 8 stripes, 7 children
    assert launched == ["fork"] * 7
    untimed = lambda rs: [(r.identity, r.params, r.status, r.lhs, r.rhs,
                           r.modulus) for r in rs]
    assert untimed(parallel) == untimed(sweep("wilson", 5, 31))


@pytest.mark.parametrize("ident", identity_ids())
def test_points_ascend_within_a_prime_and_match_per_prime(ident):
    # a sweep batch reads the points of prime p as points(p) and renders
    # each identity's share as one chunk keyed by its first point, so the
    # chunks sort into report order only if these hold
    desc = catalog()[ident]
    if "p" not in desc.params:
        keys = desc.points(None)
        assert keys and all(len(key) == len(desc.params) for key in keys)
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        return
    assert desc.params[0] == "p"
    assert _points(desc, 5, 199)
    for p in primes_in(5, 199):
        keys = desc.points(p)
        assert all(len(key) == 2 and key[0] == p for key in keys) \
            if len(desc.params) == 2 else keys in ([], [(p,)]), p
        assert keys == sorted(keys) and len(set(keys)) == len(keys), p


def _batch_reports(chunks):
    """A sweep's render, picklable under any start method: each chunk of a
    batch as its reports."""
    return [idmod._reports(chunk) for chunk in chunks]


@pytest.mark.parametrize("jobs", [1, 2])
def test_rendered_chunks_hold_the_reports_in_order(jobs, monkeypatch):
    ids = ["alzer", "lemma2", "wilson", "zhao_p5"]
    render, checked, rendered = _batch_reports, [], []
    if jobs == 1:  # spies on a child's batches would not pickle
        check_batch = idmod._check_batch

        def record(batch, modulus_override):
            checked.append(check_batch(batch, modulus_override))
            return checked[-1]

        def render(chunks):
            rendered.append(chunks)
            return _batch_reports(chunks)

        monkeypatch.setattr(idmod, "_check_batch", record)
    chunks = sweep(ids, 5, 17, jobs=jobs, render=render)
    if jobs == 1:
        # one call per batch, alzer's and the primes' 5..17, with its chunks
        assert len(rendered) == len(checked) == 6
        assert all(r is c for r, c in zip(rendered, checked))
    keys = [key for key, _ in chunks]
    assert keys == sorted(keys)
    # one chunk per index-parameterized identity, one per prime for the rest
    assert [k[0] for k in keys] == ["alzer"] + ["lemma2"] * 5 \
        + ["wilson"] * 5 + ["zhao_p5"] * 2
    for key, reports in chunks:
        assert (reports[0].identity,
                tuple(reports[0].params.values())) == key
        assert {r.identity for r in reports} == {key[0]}
    untimed = lambda rs: [(r.identity, r.params, r.status, r.lhs, r.rhs,
                           r.modulus) for r in rs]
    assert untimed([r for _, reports in chunks for r in reports]) == \
        untimed(sweep(ids, 5, 17, jobs=jobs))


def test_prime_context_builds_no_harmonic_numbers():
    # no check of the large-prime set may fill the harmonic memo, even at
    # the Wolstenholme prime, where H_1..H_{p-1} would hold ~55 MB for good
    def memo_sizes():
        return {r: len(h) for r, h in sequences._GEN_HARMONIC.items()}

    before = memo_sizes()
    for ident in ("wolstenholme", "wilson", "eisenstein", "remark1a",
                  "remark1b", "result1", "result2", "result4"):
        assert check(ident, {"p": 16843}).status == VERIFIED, ident
    assert memo_sizes() == before
    # nor may any prime-indexed sweep: the memo serves only the
    # index-parameterized identities
    prime_indexed = [i for i, d in catalog().items() if "p" in d.params]
    for override in (None, 2):
        reports = sweep(prime_indexed, 5, 61, modulus_override=override)
        assert {r.identity for r in reports} == set(prime_indexed)
        assert memo_sizes() == before, override


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
@pytest.mark.parametrize("ids, top", [
    pytest.param("zhao_p3", 28, id="prime-batch"),  # p = 31 reads B_28
    pytest.param(["clausen_von_staudt", "zhao_p3"], 200, id="index-batch"),
])
def test_parallel_sweep_leaves_the_table_a_serial_sweep_leaves(
        monkeypatch, start_children_by, method, ids, top):
    # this process runs the top prime's batch and reads as far as the
    # furthest pool batch read, whatever the start method
    def swept_table(jobs):
        monkeypatch.setattr(sequences, "_TABLE", sequences.BernoulliTable())
        reports = sweep(ids, 5, 31, jobs=jobs)
        assert {r.status for r in reports} == {VERIFIED}
        return bernoulli_table().items()

    serial = swept_table(1)
    assert len(serial) == top + 1
    launched = start_children_by(method)
    assert swept_table(2) == serial
    assert launched == [method]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_workers_start_with_this_process_table(monkeypatch,
                                                    start_children_by,
                                                    method):
    # lev3_div_p1 reads B_{2p-2}, so B_120 at p = 61: a child that starts
    # with this process's B_0..B_122 builds none, so its table still ends
    # at B_122 after its stripe; what this process receives is recorded
    table = sequences.BernoulliTable()
    table.value(122)
    monkeypatch.setattr(sequences, "_TABLE", table)
    received = []
    recv = Connection.recv

    def record(conn):
        received.append(recv(conn))
        return received[-1]

    monkeypatch.setattr(Connection, "recv", record)
    launched = start_children_by(method)
    reports = sweep("lev3_div_p1", 5, 61, jobs=2)
    assert {r.status for r in reports} == {VERIFIED}
    assert launched == [method]
    # one batch per prime in 5..61, less 61's, which this process runs
    # first; the child's stripe is every other one of the 15 left
    [(batches, top)] = received
    assert len(batches) == 8 and top == 122
    assert table.max_index == 122


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("fail, raised, match", [
    pytest.param(lambda: os._exit(3), RuntimeError,
                 "exited with code 3 before sending its batches", id="died"),
    pytest.param(_interrupt, KeyboardInterrupt, None, id="raised"),
])
def test_a_child_that_fails_fails_the_sweep(monkeypatch, start_children_by,
                                            fail, raised, match):
    # a child that dies unsent is an error, and what a child raises is
    # raised here; either way no child is left
    parent = os.getpid()
    desc = idmod._CATALOG["wilson"]

    def lhs(ctx, p, n):
        if os.getpid() != parent:
            fail()
        return desc.lhs(ctx, p, n)

    monkeypatch.setitem(idmod._CATALOG, "wilson",
                        desc._replace(lhs=lhs))
    launched = start_children_by("fork")
    with pytest.raises(raised, match=match):
        sweep("wilson", 5, 31, jobs=2)
    assert launched == ["fork"]
    assert multiprocessing.active_children() == []


def test_a_child_whose_parent_is_gone_stops_quietly(monkeypatch):
    # run in this process as a child's stripe, sent with a fresh table whose
    # pickle fits the pipe's buffer unread: the parent dies during the first
    # batch, so the second never starts and nothing is sent; a send that
    # meets a pipe with no reader ends the stripe without an error, and a
    # child whose parent is gone before it has sent the stripe runs nothing
    monkeypatch.setattr(sequences, "_TABLE", sequences.BernoulliTable())
    alive = [True]
    monkeypatch.setattr(multiprocessing, "parent_process",
                        lambda: SimpleNamespace(is_alive=lambda: alive[0]))
    ran = []

    def run(batch):
        ran.append(batch)
        alive[0] = False
        return batch

    parent, child = multiprocessing.Pipe()
    parent.send((["first", "second"], bernoulli_table()))
    parallel._run_stripe(run, child)
    assert ran == ["first"] and not parent.poll()
    alive[0] = True
    parent.send((["again"], bernoulli_table()))
    parent.close()
    parallel._run_stripe(run, child)
    assert ran == ["first", "again"]
    parallel._run_stripe(run, child)
    assert ran == ["first", "again"]
    child.close()


def test_pooled_sweep_without_a_prime_batch():
    # no batch at all, and index batches only, with no top prime's batch
    # to run first
    assert sweep("wilson", 24, 28, jobs=2) == []
    ids = ["alzer", "clausen_von_staudt", "euler_identity"]
    untimed = lambda rs: [(r.identity, r.params, r.status, r.lhs, r.rhs,
                           r.modulus) for r in rs]
    assert untimed(sweep(ids, 24, 28, jobs=2)) == untimed(sweep(ids, 24, 28))


@pytest.mark.parametrize("raised, status", [
    (ZeroDivisionError("deliberate"), "error"),
    (NotPIntegral("deliberate pole"), NOT_P_INTEGRAL),
])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_row_that_raises_fails_only_its_points(monkeypatch, capsys,
                                                 raised, status, side):
    ids = ["sun_lemma", "wilson"]
    untimed = lambda rs: [(r.identity, r.params, r.status, r.lhs, r.rhs,
                           r.modulus) for r in rs]
    clean = untimed(sweep(ids, 5, 31))
    assert capsys.readouterr().err == ""
    desc = idmod._CATALOG["sun_lemma"]
    row = getattr(desc, side)
    calls = []

    def raising(ctx, p, n, top):
        if p == 13:
            calls.append(top)
            raise raised
        return row(ctx, p, n, top)

    monkeypatch.setitem(idmod._CATALOG, "sun_lemma",
                        desc._replace(**{side: raising}))
    broken = untimed(sweep(ids, 5, 31))
    assert calls == [13]  # the row is evaluated once, not once per point
    assert len(broken) == len(clean)
    changed = [(a, b) for a, b in zip(clean, broken) if a != b]
    # every in-domain point of sun_lemma at 13 is k = 2..13
    assert [a[1] for a, _ in changed] == [{"p": 13, "k": k}
                                         for k in range(2, 14)]
    assert all(b[2:] == (status, None, None, None) for _, b in changed)
    err = capsys.readouterr().err.splitlines()
    if status == "error":
        assert err == [f"error: sun_lemma p=13;k={k}: ZeroDivisionError: "
                       "deliberate" for k in range(2, 14)]
    else:
        assert err == []


def test_a_catalog_sweep_counts_the_even_ascents_once_per_prime(
        monkeypatch):
    # N_{p-2}, the odd-power total and result3's odd sum all read one parity
    # row per prime: one pass of a^(p-2) for a = 0..p-2, at the finest power
    # read, the coarser rows reduced from it.  29,218 pow calls over 5..199
    # when each of the three raised its own powers and lev3_b_over_k2k
    # inverted each k; 16,816 while the half-range kernel raised each base
    # to its first power with pow and the exact Bernoulli entries were
    # reduced at p and again at p^3
    calls = []
    real = builtins.pow
    monkeypatch.setattr(builtins, "pow",
                        lambda *args: calls.append(args) or real(*args))
    get_prime_context.cache_clear()
    sweep("all", 5, 199)
    monkeypatch.undo()
    primes = primes_in(5, 199)
    assert len(primes) == 44
    passes = Counter(args[1] + 2 for args in calls
                     if len(args) == 3 and args[1] + 2 in primes
                     and args[2] % (args[1] + 2) == 0)
    assert passes == {p: p - 1 for p in primes}
    assert len(calls) <= 11998


_TABLES = ("_parity_power", "_bernoulli", "_half_power", "_full_power",
           "_harmonic", "_inverse")


@pytest.mark.parametrize("ids, hi, override, tables", [
    ("all", 199, None, _TABLES),
    (list(reversed(identity_ids())), 199, None, _TABLES),
    ("all", 61, 3, _TABLES),
    (["lemma2", "sub_h_over_k2k"], 61, None, ("_harmonic", "_inverse")),
], ids=["catalog", "reversed", "modulus-3", "reversed-pair"])
def test_a_sweep_runs_each_table_source_once_per_prime(
        monkeypatch, ids, hi, override, tables):
    # a batch checks its identities finest declared exponent first, ties in
    # catalog order whatever order they were asked for in (lemma2 reads the
    # harmonic row at p, sub_h_over_k2k at p^2), so each PrimeContext
    # table's first read is its finest and longest: one source call per
    # prime, every other read a reduction of it
    calls = Counter()
    grow = PrimeContext._grow

    def spy(self, rows, exponent, top, source):
        table = next(name for name in _TABLES if getattr(self, name) is rows)
        return grow(self, rows, exponent, top, lambda *args: calls.update(
            [(self.p, table)]) or source(*args))

    monkeypatch.setattr(PrimeContext, "_grow", spy)
    get_prime_context.cache_clear()
    sweep(ids, 5, hi, modulus_override=override)
    assert calls == {(p, t): 1 for p in primes_in(5, hi) for t in tables}
    # N_{p-2} is summed in that one parity pass, and read off the row after:
    # with P_0..P_{p-2} wiped, the last prime's reads are unchanged
    p = 5
    ctx = get_prime_context(p)
    for e, row in ctx._parity_power.items():
        row[:p - 1] = [0] * (p - 1)
        assert ctx.even_ascent_residue(e) == even_ascent_count(p - 2) % p ** e


def test_result1_is_the_odd_power_total_plus_the_lemma2_tails():
    # the paper's Result 1 through Lemma 2: the rhs of result1 is the total
    # of S_{2m+1,p-2} plus the row of -p T_j over m = 1..(p-3)/2
    for p in primes_in(5, 401):
        ctx = get_prime_context(p)
        for n in (1, 2, 3, 4):
            tails = catalog()["lemma2"].lhs(ctx, p, n, (p - 3) // 2)
            assert catalog()["result1"].rhs(ctx, p, n) == (
                ctx.odd_power_residue(n) + sum(tails)) % p ** n, (p, n)


_BERNOULLI_IDS = ["conv_order_p1", "zhao_p3", "zhao_p5", "lev3_div_p1",
                  "lev3_div_p3", "lev3_div_p5", "glaisher",
                  "clausen_von_staudt"]


def _divided_residue_oracle(ctx, p, e, s):
    """The divided convolution mod p^e with its own inverses, as it was
    summed before it read them off the harmonic row."""
    t, q = p - s, p ** e
    b = ctx.bernoulli_residues(e, t)
    d = [b[j] * pow(j, -1, q) for j in range(2, t - 1, 2)]
    return sum(map(mul, d, reversed(d))) % q


def test_divided_convolutions_read_their_inverses_off_one_row(monkeypatch):
    for p in primes_in(5, 199):
        ctx = get_prime_context(p)
        for e in (1, 2, 3):
            inverses = ctx.inverse_residues(e)
            assert [j * v % p ** e for j, v in enumerate(inverses)] == [
                0] + [1] * (p - 1), (p, e)
            for s in (1, 3, 5):
                assert idmod._divided_residue(ctx, p, e, s) == \
                    _divided_residue_oracle(ctx, p, e, s), (p, e, s)
    # so a Bernoulli-side sweep inverts far less: 10,092 pow calls over
    # 5..199 when each divided convolution took its own inverses
    bernoulli(400)
    get_prime_context.cache_clear()
    calls = []
    real = builtins.pow
    monkeypatch.setattr(builtins, "pow",
                        lambda *args: calls.append(1) or real(*args))
    reports = sweep(_BERNOULLI_IDS, 5, 199)
    monkeypatch.undo()
    assert {r.status for r in reports} == {VERIFIED}
    assert len(calls) < 5000


def test_a_sweep_sieves_its_primes_once(monkeypatch):
    # each identity's points at p are read off the one prime list
    calls = []
    monkeypatch.setattr(idmod, "primes_in",
                        lambda lo, hi: calls.append((lo, hi))
                        or primes_in(lo, hi))
    reports = sweep(_BERNOULLI_IDS, 5, 401)
    assert {r.status for r in reports} == {VERIFIED}
    assert len(calls) <= 2


def test_a_sweep_gives_the_reports_check_gives():
    # every catalog point of the range, in order, as check reports it alone
    reports = sweep("all", 5, 31)
    assert [(r.identity, tuple(r.params.values())) for r in reports] == sorted(
        (ident, tuple(point.values())) for ident, desc in catalog().items()
        for point in _points(desc, 5, 31))
    assert [_outcome(r) for r in reports] == [
        _outcome(check(r.identity, r.params)) for r in reports]


@pytest.mark.parametrize("p", [5, 31, 199])
def test_one_context_read_at_any_exponent_reports_what_a_fresh_one_does(p):
    # sides are given the exponent they read at, so one context checked at
    # p^3, p, p^2 and the declared powers in turn, its rows grown and
    # reduced across them, reports every point as a fresh context does; it
    # keeps rows, not the modulus of the last check
    points = [(ident, dict(zip(desc.params, point)))
              for ident, desc in catalog().items() if "p" in desc.params
              for point in desc.points(p)]
    get_prime_context.cache_clear()
    ctx = get_prime_context(p)
    shared = {(ident, tuple(params.items()), override): check(
        ident, params, modulus_override=override)
        for override in (3, 1, 2, None) for ident, params in points}
    assert get_prime_context(p) is ctx
    for (ident, params, override), report in shared.items():
        get_prime_context.cache_clear()
        fresh = check(ident, dict(params), modulus_override=override)
        assert _outcome(report) == _outcome(fresh), (ident, params, override)
    assert not hasattr(get_prime_context(p), "exponent")


def _h_over_shift_point(n, s):
    """sum_{j<=n} H_j / (j + s) at one point, as one integer over L^2,
    L = lcm(1..n+s): the per-point lhs that the row replaced."""
    L, recips, hl, _ = idmod._harmonic_prefix(n + s)
    return Fraction(sum(map(mul, hl[1:n + 1], recips[1 + s:])), L * L)


def _prop1_rhs_point(n, s):
    """prop1's rhs at one point: the per-point form that the row replaced."""
    L, recips, hl, h2l2 = idmod._harmonic_prefix(n + s)
    main = hl[n + s] ** 2 - h2l2[n + s]
    base = hl[s] ** 2 - h2l2[s]
    corr = sum((hl[s - 1] - hl[i]) * recips[n + s - i] for i in range(s - 1))
    cross = hl[s - 1] * hl[s]
    tail = sum(hl[k] * recips[s - k] for k in range(1, s))
    return Fraction(main - base + 2 * (corr - cross + tail), 2 * L * L)


def test_shifted_harmonic_rows_match_the_per_point_oracles():
    points = [(n, s) for n in range(1, 51) for s in range(21)]
    want = [_h_over_shift_point(n, s) for n, s in points]
    assert idmod._h_over_shift_lhs(None, points) == want
    for s in range(21):
        assert idmod._h_over_shift_lhs(
            None, [(n,) for n in range(1, 51)], s=s) == [
                w for (_, t), w in zip(points, want) if t == s], s
    inside = [(n, s) for n, s in points if s >= 3]  # prop1's domain
    assert idmod._prop1_rhs(None, inside) == [
        _prop1_rhs_point(n, s) for n, s in inside]


@pytest.mark.parametrize("ident, side, params", [
    ("wilson", "lhs", (13,)),  # a one-entry row, at one prime
    ("alzer", "rhs", None),  # an index identity's row, at every point
])
def test_a_raising_one_entry_or_index_row_fails_only_its_points(
        monkeypatch, capsys, ident, side, params):
    ids = ["alzer", "wilson"]
    untimed = lambda rs: [_outcome(r) for r in rs]
    clean = untimed(sweep(ids, 5, 31))
    desc = idmod._CATALOG[ident]

    # wilson's side also takes the exponent; alzer's takes the points alone
    def raising(ctx, at, *exponent):
        if params is None or at == params[0]:
            raise ZeroDivisionError("deliberate")
        return getattr(desc, side)(ctx, at, *exponent)

    monkeypatch.setitem(idmod._CATALOG, ident,
                        desc._replace(**{side: raising}))
    broken = untimed(sweep(ids, 5, 31))
    changed = [a[1] for a, b in zip(clean, broken) if a != b]
    assert len(broken) == len(clean)
    want = [dict(zip(desc.params, point))
            for point in ([params] if params else desc.points(None))]
    assert changed == want
    assert all(b[2:] == ("error", None, None, None)
               for a, b in zip(clean, broken) if a != b)
    where = [";".join(f"{k}={v}" for k, v in point.items()) for point in want]
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ident} {w}: ZeroDivisionError: deliberate" for w in where]


def test_a_bernoulli_side_sweep_builds_no_row_at_p_cubed(monkeypatch):
    # lev3_div_p1's rhs reads B_{p-1} and B_{2p-2} at p^3, and the shifted
    # rhs sides a few entries at p^2: one-entry reads, so the only rows are
    # the ones the convolution sides sum over, at p
    rows = []
    residues = sequences.PrimeContext.bernoulli_residues
    monkeypatch.setattr(sequences.PrimeContext, "bernoulli_residues",
                        lambda ctx, e, top: rows.append((ctx.p, e))
                        or residues(ctx, e, top))
    get_prime_context.cache_clear()
    ids = ["conv_order_p1", "zhao_p3", "zhao_p5", "lev3_div_p1",
           "lev3_div_p3", "lev3_div_p5", "glaisher", "clausen_von_staudt"]
    assert {r.status for r in sweep(ids, 5, 61)} == {VERIFIED}
    assert {p for p, _ in rows} == set(primes_in(5, 61))
    assert {e for _, e in rows} == {1}


def test_catalog_sweep_grows_the_table_to_the_largest_index_read(
        monkeypatch):
    fresh = sequences.BernoulliTable()
    monkeypatch.setattr(sequences, "_TABLE", fresh)
    sweep("all", 5, 199)
    assert fresh.max_index == 398  # B_2p at p = 199


def test_sweep_is_deterministic_across_worker_counts():
    serial = sweep(["result2", "remark1a", "eisenstein", "alzer"], 5, 23)
    parallel = sweep(["result2", "remark1a", "eisenstein", "alzer"], 5, 23,
                     jobs=2)
    flatten = lambda rs: [(r.identity, tuple(r.params.items()), r.status,
                           str(r.lhs), str(r.rhs), r.modulus) for r in rs]
    assert flatten(serial) == flatten(parallel)


def test_sweep_all_small_range_has_no_failures():
    reports = sweep("all", 5, 13)
    assert reports
    bad = [r for r in reports if r.status in (FAILED, NOT_P_INTEGRAL)]
    assert bad == []


def test_sweep_respects_identity_minimums():
    reports = sweep("zhao_p5", 5, 12)
    assert reports == []  # first admissible prime is 13
    reports = sweep("zhao_p3", 5, 11)
    assert [r.params["p"] for r in reports] == [11]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=120))
def test_euler_identity_property(n):
    report = check("euler_identity", {"n": n})
    assert report.status == VERIFIED
    assert report.lhs == report.rhs


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       s=st.integers(min_value=3, max_value=30))
def test_prop1_property(n, s):
    report = check("prop1", {"n": n, "s": s})
    assert report.status == VERIFIED


def test_sharpness_at_p_squared_among_primes_to_101():
    # the primes where a mod-p congruence happens to hold mod p^2 as well
    def sharp(identity):
        return {p for p in primes_in(5, 101) if check(
            identity, {"p": p}, modulus_override=2).status == VERIFIED}

    assert sharp("theorem1") == {11, 31}
    assert sharp("zhao_p3") == {11, 17, 29, 67}


def test_lemma2_lehmer_ii_and_sun_lemma_hold_one_power_up_to_401():
    # declared mod p^2, all three hold mod p^3 at every point of 5..401,
    # sun_lemma's uncounted k = p - 1 and k = p included
    reports = sweep(["lemma2", "lehmer_ii", "sun_lemma"], 5, 401,
                    modulus_override=3)
    assert Counter(r.identity for r in reports) == {
        "lemma2": 7026, "lehmer_ii": 14283, "sun_lemma": 14206}
    assert {r.status for r in reports} == {VERIFIED}
    assert all(r.modulus == r.params["p"] ** 3 for r in reports)


def test_zhao_p3_holds_mod_p_squared_at_607():
    # the next prime past 101 where it does
    report = check("zhao_p3", {"p": 607}, modulus_override=2)
    assert report.status == VERIFIED
    assert report.modulus == 607 ** 2
    assert report.lhs == report.rhs != 0


def test_zhao_p3_holds_mod_p_squared_at_2351():
    # the largest prime below 3001 where it does; the point reads
    # B_0..B_{p-3} and the shared table grows that far and no further
    before = bernoulli_table().max_index
    report = check("zhao_p3", {"p": 2351}, modulus_override=2)
    assert report.status == VERIFIED
    assert bernoulli_table().max_index == max(before, 2348)


def test_elapsed_is_recorded():
    report = check("theorem1", {"p": 11})
    assert report.elapsed >= 0.0
