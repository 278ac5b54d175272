"""Bernoulli, harmonic, Eulerian and derived quantities against independent
oracles: sympy, direct summation, and hand-frozen values."""
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bernmod.modular import NotPIntegral, mod_reduce
from bernmod.sequences import (
    MINUS_HALF,
    PLUS_HALF,
    BernoulliTable,
    PrimeContext,
    agoh_giuga_quotient,
    bernoulli,
    divided_bernoulli,
    euler_number_sides,
    eulerian,
    eulerian_explicit,
    eulerian_mod,
    even_ascent_count,
    even_ascent_count_mod,
    fermat_quotient_2,
    gen_harmonic,
    get_prime_context,
    harmonic,
    odd_reciprocal_sum,
    sum_powers,
    sum_powers_bernoulli,
    von_staudt_denominator,
    weighted_convolution,
)

# fixed by the defining recurrence; checked against several published tables
FROZEN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


def test_bernoulli_frozen_values():
    for n, value in FROZEN_BERNOULLI.items():
        assert bernoulli(n) == value, n


def test_bernoulli_conventions_differ_only_at_one():
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(1, convention=PLUS_HALF) == Fraction(1, 2)
    for n in range(0, 30):
        if n != 1:
            assert bernoulli(n) == bernoulli(n, convention=PLUS_HALF)


def test_bernoulli_against_sympy():
    # sympy >= 1.12 uses the B_1 = +1/2 convention
    for n in range(0, 81):
        ours = bernoulli(n, convention=PLUS_HALF)
        theirs = sympy.Rational(sympy.bernoulli(n))
        assert ours == Fraction(theirs.p, theirs.q), n


def test_bernoulli_odd_indices_vanish():
    for n in range(3, 101, 2):
        assert bernoulli(n) == 0


def test_von_staudt_denominators():
    assert von_staudt_denominator(2) == 6
    assert von_staudt_denominator(12) == 2730
    for n in range(2, 121, 2):
        assert bernoulli(n).denominator == von_staudt_denominator(n)
    with pytest.raises(ValueError):
        von_staudt_denominator(0)


def test_clausen_von_staudt_corollary_p_times_b():
    # p * B_{p-1} = -1 (mod p) for every prime p >= 3
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        assert mod_reduce(p * bernoulli(p - 1), p, 1) == p - 1


def test_divided_bernoulli():
    assert divided_bernoulli(2) == Fraction(1, 12)
    assert divided_bernoulli(12) == Fraction(-691, 32760)
    with pytest.raises(ValueError):
        divided_bernoulli(0)


def test_bernoulli_table_rejects_gaps():
    with pytest.raises(ValueError):
        BernoulliTable(MINUS_HALF, entries={0: Fraction(1), 2: Fraction(1, 6)})
    with pytest.raises(ValueError):
        BernoulliTable("no_such_convention")


def test_bernoulli_table_merge_and_validate():
    a = BernoulliTable(MINUS_HALF)
    a.value(10)
    b = BernoulliTable(MINUS_HALF)
    b.value(20)
    a.merge(b)
    assert a.max_index == 20
    assert a.value(20) == Fraction(-174611, 330)
    a.validate()

    tampered = dict(b.items())
    tampered[4] = Fraction(1, 30)  # right denominator, wrong numerator
    broken = BernoulliTable(MINUS_HALF, entries=tampered)
    with pytest.raises(ValueError):
        broken.validate()

    plus = BernoulliTable(PLUS_HALF)
    plus.value(8)
    with pytest.raises(ValueError):
        a.merge(plus)


@cache
def recurrence_oracle(top: int) -> list[Fraction]:
    """B_0..B_top with B_1 = -1/2 from sum_{j=0}^{n} C(n+1, j) B_j = 0: the
    O(n^2) Fraction recurrence, kept here as the oracle for the table."""
    b = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, top + 1):
        if n % 2 == 1:
            b.append(Fraction(0))
        else:
            b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b


@pytest.mark.parametrize("convention", [MINUS_HALF, PLUS_HALF])
def test_bernoulli_table_matches_the_recurrence(convention):
    want = list(recurrence_oracle(400))
    if convention == PLUS_HALF:
        want[1] = Fraction(1, 2)
    table = BernoulliTable(convention)
    assert [table.value(n) for n in range(401)] == want
    assert bernoulli(400, convention) == want[400]


def test_bernoulli_table_does_not_depend_on_request_order():
    want = recurrence_oracle(400)

    def agrees(table):  # every entry held, up to where the oracle stops
        held = table.items()[:len(want)]
        return held == list(enumerate(want))[:len(held)]

    one_by_one = BernoulliTable()
    for n in range(201):
        assert one_by_one.value(n) == want[n], n
    assert agrees(one_by_one)

    jump = BernoulliTable()
    assert jump.value(397) == 0 and jump.value(396) == want[396]
    assert jump.max_index == 397 and agrees(jump)

    descending = BernoulliTable()
    assert [descending.value(n) for n in range(300, -1, -1)] == want[300::-1]
    assert agrees(descending)

    mixed = BernoulliTable()
    for n in (250, 7, 120, 3, 251, 0, 399, 2):
        assert mixed.value(n) == want[n], n
    assert agrees(mixed)

    loaded = BernoulliTable(MINUS_HALF, entries=dict(enumerate(want[:30])))
    merged = BernoulliTable()
    merged.merge(loaded)
    assert merged.max_index == 29
    assert merged.value(100) == want[100]
    assert agrees(merged)

    for convention, b1 in ((MINUS_HALF, Fraction(-1, 2)),
                           (PLUS_HALF, Fraction(1, 2))):
        only_b0 = BernoulliTable(convention, entries={0: Fraction(1)})
        assert [only_b0.value(n) for n in range(5)] == [1, b1, *want[2:5]]


def test_bernoulli_table_built_to_800_validates():
    table = BernoulliTable()
    table.value(800)
    table.validate()
    assert table.value(800).denominator == von_staudt_denominator(800)


def test_harmonic_frozen_and_recurrence():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert gen_harmonic(3, 2) == Fraction(49, 36)
    assert gen_harmonic(4, 1) == harmonic(4)
    with pytest.raises(ValueError):
        harmonic(-1)
    with pytest.raises(ValueError):
        gen_harmonic(3, 0)


@given(n=st.integers(min_value=1, max_value=400),
       r=st.integers(min_value=1, max_value=4))
def test_gen_harmonic_prefix_property(n, r):
    assert gen_harmonic(n, r) - gen_harmonic(n - 1, r) == Fraction(1, n ** r)


def test_odd_sums_frozen():
    assert odd_reciprocal_sum(5) == Fraction(4, 3)
    assert get_prime_context(5).odd_harmonic_sum() == Fraction(17, 6)
    assert get_prime_context(7).odd_harmonic_sum() == Fraction(307, 60)
    with pytest.raises(ValueError):
        odd_reciprocal_sum(9)


def test_sum_powers_frozen_and_dual_paths():
    assert sum_powers(10, 1) == 55
    assert sum_powers(10, 2) == 385
    assert sum_powers(0, 5) == 0
    for n in (0, 1, 2, 7, 19, 50):
        for k in (0, 1, 2, 3, 7, 12):
            assert sum_powers(n, k) == sum_powers_bernoulli(n, k), (n, k)


@settings(max_examples=60)
@given(n=st.integers(min_value=0, max_value=300),
       k=st.integers(min_value=0, max_value=40))
def test_sum_powers_dual_paths_property(n, k):
    assert sum_powers(n, k) == sum_powers_bernoulli(n, k)


FROZEN_EULERIAN_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (1, 4, 1),
    4: (1, 11, 11, 1),
    5: (1, 26, 66, 26, 1),
    6: (1, 57, 302, 302, 57, 1),
    7: (1, 120, 1191, 2416, 1191, 120, 1),
}


def test_eulerian_frozen_rows():
    for n, row in FROZEN_EULERIAN_ROWS.items():
        assert tuple(eulerian(n, m) for m in range(n)) == row


def test_eulerian_row_sums_and_symmetry():
    for n in range(1, 26):
        row = [eulerian(n, m) for m in range(n)]
        assert sum(row) == factorial(n)
        assert row == row[::-1]


def test_eulerian_out_of_range_is_zero():
    assert eulerian(5, -1) == 0
    assert eulerian(5, 5) == 0
    assert eulerian_explicit(5, 9) == 0
    with pytest.raises(ValueError):
        eulerian(0, 0)


def test_eulerian_recurrence_matches_explicit():
    for n in range(1, 26):
        for m in range(n):
            assert eulerian(n, m) == eulerian_explicit(n, m), (n, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
@pytest.mark.parametrize("k", [1, 2])
def test_eulerian_mod_matches_exact(p, k):
    pk = p ** k
    for n in range(1, 41, 3):
        for m in range(n):
            assert eulerian_mod(n, m, p, k) == eulerian(n, m) % pk
    # a small m costs O(m) binomial steps, however large n is
    n = 10 ** 5
    assert eulerian_mod(n, 3, p, k) == eulerian_explicit(n, 3) % pk


def test_eulerian_mod_rejects_bad_args():
    with pytest.raises(ValueError):
        eulerian_mod(5, 2, 6)
    with pytest.raises(ValueError):
        eulerian_mod(5, 2, 7, 0)


def test_even_ascent_count_frozen():
    assert [even_ascent_count(n) for n in range(1, 7)] == [
        1, 1, 2, 12, 68, 360]


@pytest.mark.parametrize("p", list(sympy.primerange(5, 200)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_even_ascent_count_mod_matches_exact(p, k):
    want = even_ascent_count(p - 2) % p ** k
    assert even_ascent_count_mod(p, k) == want


def test_euler_number_sides_frozen():
    assert euler_number_sides(1) == (Fraction(1), Fraction(1))
    assert euler_number_sides(3) == (Fraction(-2), Fraction(-2))
    assert euler_number_sides(5) == (Fraction(16), Fraction(16))
    for n in range(1, 22, 2):
        lhs, rhs = euler_number_sides(n)
        assert lhs == rhs, n
    with pytest.raises(ValueError):
        euler_number_sides(4)


def test_fermat_quotient_frozen():
    assert fermat_quotient_2(3) == 1
    assert fermat_quotient_2(5) == 3
    assert fermat_quotient_2(7) == 9
    # 1093 is a Wieferich prime: q_2 vanishes mod p
    assert fermat_quotient_2(1093) % 1093 == 0
    assert fermat_quotient_2(101) % 101 != 0
    with pytest.raises(ValueError):
        fermat_quotient_2(9)


def test_agoh_giuga_quotient():
    assert agoh_giuga_quotient(5) == Fraction(1, 6)
    assert agoh_giuga_quotient(7) == Fraction(1, 6)
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        q = agoh_giuga_quotient(p)
        assert q.denominator % p != 0  # p-integral
    with pytest.raises(ValueError):
        agoh_giuga_quotient(4)


def test_weighted_convolution_frozen():
    assert weighted_convolution(5, 2) == Fraction(1, 144)
    assert weighted_convolution(5, 1) == Fraction(1, 36)
    assert weighted_convolution(7, 2) == Fraction(-1, 576)
    with pytest.raises(ValueError):
        weighted_convolution(6, 2)
    with pytest.raises(ValueError):
        weighted_convolution(7, 0)


def test_weighted_convolution_unweighted_is_one_mod_p():
    for p in (5, 7, 11, 13, 17, 19, 23):
        assert mod_reduce(weighted_convolution(p, 1), p, 1) == 1


def test_prime_context_tables():
    ctx = get_prime_context(11)
    assert ctx is get_prime_context(11)  # shared per prime
    assert len(ctx.harmonics) == 11
    assert ctx.harmonics[4] == Fraction(25, 12)
    assert ctx.gen_harmonics2[3] == Fraction(49, 36)
    assert ctx.odd_harmonic_sum() == sum(
        (harmonic(m) for m in range(1, 10, 2)), Fraction(0))
    assert ctx.odd_power_sum_total() == sum(
        sum_powers(2 * m + 1, 9) for m in range(5))
    assert ctx.even_ascent_residue(1) == even_ascent_count(9) % 11
    with pytest.raises(ValueError):
        PrimeContext(9)
    with pytest.raises(ValueError):
        ctx.even_ascent_residue(0)


def test_odd_power_sum_total_matches_the_double_loop():
    # the sum over m of whole power sums is the oracle for the regrouped form
    for p in sympy.primerange(5, 200):
        want = sum(sum_powers(2 * m + 1, p - 2) for m in range((p - 1) // 2))
        assert get_prime_context(p).odd_power_sum_total() == want, p


def test_prime_context_shifted_tail():
    ctx = get_prime_context(7)
    # m = 1: K runs over {4, 5}, divisors K + 4
    want = harmonic(4) / 8 + harmonic(5) / 9
    assert ctx.shifted_harmonic_tail(1) == want
    assert ctx.shifted_harmonic_tail(0) == 0
    with pytest.raises(ValueError):
        ctx.shifted_harmonic_tail(4)


def test_shifted_harmonic_tail_matches_the_fraction_sum():
    # the term-by-term Fraction sum is the oracle for the integer kernel;
    # p = 5 is the edge where the divisors are only 6 and 7
    for p in sympy.primerange(5, 200):
        ctx = get_prime_context(p)
        for m in range((p - 1) // 2):
            want = sum((harmonic(K) / (K + 2 * m + 2)
                        for K in range(p - 2 * m - 1, p - 1)), Fraction(0))
            assert ctx.shifted_harmonic_tail(m) == want, (p, m)


def _odd_even_power_sum_oracle(p, k):
    """(p-2)^(2k) + (p-4)^(2k) + ... + 1^(2k), as Lehmer's sum is written."""
    return sum((p - 2 * a) ** (2 * k) for a in range(1, (p - 1) // 2 + 1))


def test_power_rows_match_direct_sums_at_catalog_exponents():
    # the exponents in the order a sweep asks for them; lehmer_i skips the
    # k with p - 1 | 2k - 2, so its row jumps once per prime
    for p in sympy.primerange(5, 200):
        ctx = get_prime_context(p)
        for k in range(2, p + 1):
            assert ctx.full_power_sum(k) == sum_powers(p - 1, k), (p, k)
        for k in range(2, p):
            if (2 * k - 2) % (p - 1):
                assert (ctx.odd_even_power_sum(k)
                        == _odd_even_power_sum_oracle(p, k)), (p, k)
        for k in range(1, p + 1):
            assert (ctx.half_even_power_sum(k)
                    == sum_powers((p - 1) // 2, 2 * k)), (p, k)


def test_power_rows_do_not_depend_on_request_order():
    p = 31
    half = (p - 1) // 2
    # descending, repeated, jumps, back to 0, then a run again
    ks = [7, 6, 5, 5, 5, 6, 20, 21, 22, 3, 0, 1, 2, 2, 40, 41]
    ctx = PrimeContext(p)
    for k in ks:
        assert ctx.full_power_sum(k) == sum_powers(p - 1, k), k
    # two rows of one context interleaved, each keeps its own exponent
    ctx = PrimeContext(p)
    for k in ks:
        assert ctx.half_even_power_sum(k) == sum_powers(half, 2 * k), k
        assert (ctx.odd_even_power_sum(k + 1)
                == _odd_even_power_sum_oracle(p, k + 1)), k
        assert ctx.half_even_power_sum(k + 1) == sum_powers(half, 2 * k + 2)
    with pytest.raises(ValueError):
        ctx.full_power_sum(-1)


def test_pole_detection_on_reduction():
    # B_{p-1} is not p-integral, a wrong-modulus request must say so
    with pytest.raises(NotPIntegral):
        mod_reduce(bernoulli(10), 11, 1)
