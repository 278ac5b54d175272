"""Bernoulli, harmonic, Eulerian and derived quantities against independent
oracles: sympy, direct summation, and hand-frozen values."""
import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bernmod import sequences
from bernmod.modular import NotPIntegral, is_prime, mod_reduce
from bernmod.sequences import (
    MINUS_HALF,
    PLUS_HALF,
    BernoulliTable,
    PrimeContext,
    bernoulli,
    alternating_eulerian_sum,
    divided_bernoulli,
    eulerian,
    eulerian_explicit,
    eulerian_mod,
    even_ascent_count,
    even_ascent_count_mod,
    fermat_quotient_2,
    fraction_sum,
    gen_harmonic,
    get_prime_context,
    harmonic,
    product_term,
    sum_powers,
    sum_powers_bernoulli,
    tangent_side,
    von_staudt_denominator,
    weighted_convolution,
)
from bernmod.sequences import _half_power_sums

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
        BernoulliTable(entries={0: Fraction(1), 2: Fraction(1, 6)})
    with pytest.raises(ValueError):
        bernoulli(2, "no_such_convention")


def test_bernoulli_table_merge_and_validate():
    a = BernoulliTable()
    a.value(10)
    b = BernoulliTable()
    b.value(20)
    a.merge(b.entries())
    assert a.max_index == 20
    assert a.value(20) == Fraction(-174611, 330)
    a.validate()
    # the entries held must agree, and what lies beyond this table's end is
    # appended
    c = BernoulliTable()
    c.value(30)
    a.merge(c.entries())
    assert a.items() == c.items()
    a.merge(c.entries()[:7])  # wholly inside: nothing changes
    assert a.items() == c.items()
    bad = c.entries() + [Fraction(0)]  # one past this table's end
    bad[12] = Fraction(1, 2730)
    with pytest.raises(ValueError, match="conflicting value for B_12"):
        a.merge(bad)
    assert a.items() == c.items()  # a rejected merge appends nothing

    tampered = dict(b.items())
    tampered[4] = Fraction(1, 30)  # right denominator, wrong numerator
    broken = BernoulliTable(entries=tampered)
    with pytest.raises(ValueError):
        broken.validate()


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
def test_bernoulli_table_matches_the_recurrence(convention, monkeypatch):
    want = recurrence_oracle(400)
    table = BernoulliTable()
    assert [table.value(n) for n in range(401)] == want
    # both conventions read one shared table, which a plus_half read
    # neither rebuilds nor extends
    shared = BernoulliTable()
    monkeypatch.setattr(sequences, "_TABLE", shared)
    assert bernoulli(400) == want[400]
    b1 = -want[1] if convention == PLUS_HALF else want[1]
    assert [bernoulli(n, convention) for n in range(401)] == [
        want[0], b1, *want[2:]]
    assert shared.max_index == 400


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

    loaded = BernoulliTable(entries=dict(enumerate(want[:30])))
    merged = BernoulliTable()
    merged.merge(loaded.entries())
    assert merged.max_index == 29
    assert merged.value(100) == want[100]
    assert agrees(merged)

    only_b0 = BernoulliTable(entries={0: Fraction(1)})
    assert [only_b0.value(n) for n in range(5)] == want[:5]


def test_bernoulli_table_ends_at_the_largest_index_read():
    ascending = BernoulliTable()
    for n in range(401):
        ascending.value(n)
    assert ascending.max_index == 400

    want = recurrence_oracle(100)
    loaded = BernoulliTable(entries=dict(enumerate(want[:30])))
    assert loaded.value(100) == want[100]
    assert loaded.max_index == 100
    assert [b for _, b in loaded.items()] == want


def test_bernoulli_table_extends_past_a_longer_merged_table():
    # the merge leaves this table's tangent column behind its entries, as a
    # loaded cache or a pool worker's adopted entries do
    table = BernoulliTable()
    table.value(500)
    longer = BernoulliTable()
    longer.value(802)
    table.merge(longer.entries())
    assert table.max_index == 802
    table.value(900)
    assert table.max_index == 900
    one_pass = BernoulliTable()
    one_pass.value(900)
    assert table.items() == one_pass.items()
    table.validate()


def test_von_staudt_denominator_is_2_at_odd_n():
    assert [von_staudt_denominator(n) for n in range(1, 40, 2)] == [2] * 20


def test_bernoulli_table_built_to_800_validates():
    table = BernoulliTable()
    table.value(800)
    table.validate()
    assert table.value(800).denominator == von_staudt_denominator(800)


def recurrence_sum(entries: list[Fraction]) -> Fraction:
    """sum_{j<=n} C(n+1, j) B_j at the largest even n held, as the running
    Fraction sum: the oracle for validate's integer sum."""
    n = len(entries) - 1 - (len(entries) - 1) % 2
    return sum((comb(n + 1, j) * entries[j] for j in range(n + 1)),
               Fraction(0))


@pytest.mark.parametrize("top", [2, 3, 120, 121])
def test_validate_agrees_with_the_fraction_oracle(top):
    # numerators altered with the denominators kept, so only the recurrence
    # can tell: validate refuses a table exactly when the Fraction sum is not
    # 0, also for two entries altered so that their changes cancel
    good = BernoulliTable()
    good.value(top)
    n = top - top % 2
    cases = [{}]
    cases += [{i: 1} for i in range(2, n + 1, 2)]
    cases += [{i: -3} for i in range(2, n + 1, 2)]
    if n >= 4:
        cases.append({2: comb(n + 1, 4), 4: -comb(n + 1, 2)})
    for delta in cases:
        entries = dict(good.items())
        for i, k in delta.items():
            entries[i] += k
        table = BernoulliTable(entries=entries)
        holds = recurrence_sum(table.entries()) == 0
        assert holds == (len(delta) != 1), delta
        if holds:
            table.validate()
        else:
            with pytest.raises(ValueError, match="recurrence"):
                table.validate()


def test_von_staudt_denominator_matches_the_sieve():
    sieve = sequences._von_staudt_denominators(2000)
    assert [von_staudt_denominator(n) for n in range(1, 2001)] == sieve[1:]


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


def odd_reciprocal_sum(p: int) -> Fraction:
    """Sum of 1/j over odd j in [1, p-2] for an odd prime p: an oracle, as
    remark1a and remark1b evaluate it as a residue."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return sum((Fraction(1, j) for j in range(1, p - 1, 2)), Fraction(0))


def test_odd_sums_frozen():
    assert odd_reciprocal_sum(5) == Fraction(4, 3)
    # H_1 + H_3 = 17/6 and H_1 + H_3 + H_5 = 307/60, from the residues
    for p, want in ((5, Fraction(17, 6)), (7, Fraction(307, 60))):
        h, _, _ = get_prime_context(p).harmonic_residues(2)
        assert sum(h[1:p - 1:2]) % p ** 2 == mod_reduce(want, p, 2)
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


def test_eulerian_keeps_one_row():
    # E(600, m) runs to about 4,700 bits: one row of the triangle is about
    # 0.4 MB, and every row up to 600 together about 56 MB
    tracemalloc.start()
    try:
        eulerian(600, 300)
        n600 = even_ascent_count(600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024
    # at even n the row is symmetric about an odd centre, so half of Sym(n)
    # has an even number of ascents
    assert n600 == factorial(600) // 2


def test_even_ascent_count_frozen():
    assert [even_ascent_count(n) for n in range(1, 7)] == [
        1, 1, 2, 12, 68, 360]


@pytest.mark.parametrize("p", list(sympy.primerange(5, 200)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_even_ascent_count_mod_matches_exact(p, k):
    want = even_ascent_count(p - 2) % p ** k
    assert even_ascent_count_mod(p, k) == want


def test_euler_number_sides_frozen():
    for n, want in ((1, Fraction(1)), (3, Fraction(-2)), (5, Fraction(16))):
        assert tangent_side(n) == want
        assert alternating_eulerian_sum(n) == want
    for n in range(1, 22, 2):
        assert tangent_side(n) == alternating_eulerian_sum(n), n
    with pytest.raises(ValueError):
        tangent_side(4)
    with pytest.raises(ValueError):
        alternating_eulerian_sum(4)


def test_fermat_quotient_frozen():
    assert fermat_quotient_2(3) == 1
    assert fermat_quotient_2(5) == 3
    assert fermat_quotient_2(7) == 9
    # 1093 is a Wieferich prime: q_2 vanishes mod p
    assert fermat_quotient_2(1093) % 1093 == 0
    assert fermat_quotient_2(101) % 101 != 0
    with pytest.raises(ValueError):
        fermat_quotient_2(9)


def agoh_giuga_quotient(p: int) -> Fraction:
    """(1 + p B_{p-1}) / p, a p-integral rational, for a prime p >= 5: an
    oracle, as the catalog evaluates it as a residue."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    return (1 + p * bernoulli(p - 1)) / p


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


def _weighted_convolution_oracle(p, a):
    """The convolution with one Fraction add per term."""
    acc = Fraction(0)
    for i in range(2, p - 2, 2):
        acc += bernoulli(i) / a ** i * bernoulli(p - 1 - i)
    return acc


def test_weighted_convolution_matches_the_running_fraction_sum():
    # a = 2 is theorem1's lhs and part of lemma1's rhs at every sweep prime
    for p in sympy.primerange(5, 200):
        for a in (1, 2, 3):
            assert weighted_convolution(p, a) == _weighted_convolution_oracle(
                p, a), (p, a)


_TERMS = st.lists(st.tuples(
    st.integers(min_value=-10**30, max_value=10**30),
    st.integers(min_value=-10**6, max_value=10**6).filter(bool)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(terms=_TERMS)
def test_fraction_sum_equals_the_running_fraction_sum(terms):
    want = sum((Fraction(n, d) for n, d in terms), Fraction(0))
    got = fraction_sum(terms)
    assert got == want
    assert isinstance(got, Fraction)
    # an iterator is read once, like a generator at the call sites
    assert fraction_sum(iter(terms)) == want


def test_fraction_sum_edge_cases():
    assert fraction_sum([]) == 0
    assert fraction_sum(iter(())) == Fraction(0)
    assert fraction_sum([(3, 6)]) == Fraction(1, 2)
    assert fraction_sum([(0, 7), (0, -5)]) == 0
    assert fraction_sum([(1, -3), (-1, 3)]) == Fraction(-2, 3)
    assert fraction_sum([(1, 4), (1, 4), (1, 4), (1, 4)]) == 1
    assert fraction_sum([(5, 2), (-5, 2)]) == 0
    # unreduced pairs, as product_term gives them
    assert fraction_sum([(2, 4), (6, 9)]) == Fraction(7, 6)
    with pytest.raises(ZeroDivisionError):
        fraction_sum([(1, 2), (1, 0)])


def test_product_term():
    assert product_term() == (1, 1)
    assert product_term(3) == (3, 1)
    assert product_term(Fraction(1, 6), Fraction(-1, 30), 4) == (-4, 180)
    assert Fraction(*product_term(Fraction(2, 3), Fraction(3, 4))) == Fraction(
        1, 2)


def test_prime_context_tables():
    ctx = get_prime_context(11)
    assert ctx is get_prime_context(11)  # shared per prime
    assert harmonic(4) == Fraction(25, 12)
    assert gen_harmonic(3, 2) == Fraction(49, 36)
    assert ctx.odd_power_residue(2) == sum(
        sum_powers(2 * m + 1, 9) for m in range(5)) % 121
    # B_0..B_4 = 1, -1/2, 1/6, 0, -1/30
    assert ctx.bernoulli_residues(1, 4)[:5] == [1, 5, 2, 0, 4]
    assert ctx.even_ascent_residue(1) == even_ascent_count(9) % 11
    with pytest.raises(ValueError):
        PrimeContext(9)
    with pytest.raises(ValueError):
        ctx.even_ascent_residue(0)


def test_odd_harmonic_sum_matches_the_memo_sum():
    # the sum of the memoized H_m is the oracle for the sum of the residues
    for p in sympy.primerange(5, 200):
        want = sum((harmonic(m) for m in range(1, p - 1, 2)), Fraction(0))
        h, _, _ = get_prime_context(p).harmonic_residues(3)
        assert sum(h[1:p - 1:2]) % p ** 3 == mod_reduce(want, p, 3), p


def test_odd_power_sum_total_matches_the_double_loop():
    # the sum over m of whole power sums is the oracle for the regrouped form
    for p in sympy.primerange(5, 200):
        want = sum(sum_powers(2 * m + 1, p - 2) for m in range((p - 1) // 2))
        ctx = get_prime_context(p)
        for e in (1, 2, 3):
            assert ctx.odd_power_residue(e) == want % p ** e, (p, e)
    with pytest.raises(ValueError):
        ctx.odd_power_residue(0)


def test_the_parity_row_matches_the_exact_sums():
    # P_t = sum of a^(p-2) over a <= t of t's parity, as exact integers, at
    # every t; each exponent from a fresh context, so each is a pow pass
    for p in [*sympy.primerange(5, 402), 1093]:
        exact = [0, 1]
        for a in range(2, p - 1):
            exact.append(exact[a - 2] + a ** (p - 2))
        for e in (1, 2, 3, 4):
            assert PrimeContext(p).parity_power_residues(e) == [
                x % p ** e for x in exact], (p, e)
    with pytest.raises(ValueError):
        PrimeContext(5).parity_power_residues(0)


def _grown(p, top):
    """The last index of a PrimeContext row whose largest read is top: a
    read past p but short of 2p grows the row to 2p."""
    return 2 * p if p < top < 2 * p else top


def test_bernoulli_residues_match_the_exact_table():
    # B_i mod p^N, and p B_i at the positive multiples of p-1, where p
    # divides the denominator; reads mixed over exponents and tops, since a
    # row is reduced from a finer one that reaches as far, and each row holds
    # exactly the entries up to the largest top read at its exponent, or to
    # 2p for a top between p and 2p
    for p in sympy.primerange(5, 200):
        ctx, rng, longest = PrimeContext(p), random.Random(p), {}
        for _ in range(6):
            e, top = rng.randint(1, 3), rng.randint(0, 2 * p)
            longest[e] = max(longest.get(e, -1), top)
            row = ctx.bernoulli_residues(e, top)
            assert len(row) == _grown(p, longest[e]) + 1, (p, e, top)
        for e, top in longest.items():
            row = ctx.bernoulli_residues(e, 0)
            assert len(row) == _grown(p, top) + 1, (p, e)
            for i, got in enumerate(row):
                b = bernoulli(i)
                if b.denominator % p == 0:
                    assert i and i % (p - 1) == 0, (p, i)
                    b *= p
                assert got == mod_reduce(b, p, e), (p, e, i)
            if top >= p - 1:
                assert (row[p - 1] + 1) % p == 0  # p B_{p-1} = -1 mod p
    with pytest.raises(ValueError):
        ctx.bernoulli_residues(0, 3)


def test_bernoulli_residues_read_one_slice_of_the_table(monkeypatch):
    # the row reads the shared table's entries in one slice, not through a
    # bernoulli(n) call per entry; a coarser row is reduced from a finer one
    calls = []
    monkeypatch.setattr(sequences, "bernoulli",
                        lambda *args: calls.append(args) or bernoulli(*args))
    ctx = PrimeContext(101)
    for e, top in ((3, 50), (1, 202), (2, 120), (3, 150)):
        assert len(ctx.bernoulli_residues(e, top)) == _grown(101, top) + 1
    assert calls == []


def test_bernoulli_residue_matches_the_exact_reduction(monkeypatch):
    # one entry in the rows' convention, at every n <= 2p (n = 1 and the
    # multiples of p - 1 included): from the exact B_n with no row held, and
    # from a p^2 row where one reaches n; a read grows no row
    def want(p, e, n):
        b = bernoulli(n)
        return mod_reduce(b * p if b.denominator % p == 0 else b, p, e)

    for p in sympy.primerange(5, 200):
        ctx = PrimeContext(p)
        for e in range(1, 5):
            for n in range(2 * p + 1):
                assert ctx.bernoulli_residue(e, n) == want(p, e, n), (p, e, n)
        assert ctx._bernoulli == {}
        reduced = []
        monkeypatch.setattr(ctx, "_bernoulli_mod", lambda x, q: reduced.append(
            x) or PrimeContext._bernoulli_mod(ctx, x, q))
        ctx.bernoulli_residues(2, p)
        # the row reduces B_0, B_1 and the even entries only
        assert len(reduced) == (p + 1) // 2 + 1, p
        reduced.clear()
        for e in range(1, 5):
            for n in range(2 * p + 1):
                assert ctx.bernoulli_residue(e, n) == want(p, e, n), (p, e, n)
        assert len(reduced) == 2 * (2 * p + 1) + 2 * p, p  # past the row
        assert {e: len(row) for e, row in ctx._bernoulli.items()} == {
            2: p + 1}
    with pytest.raises(ValueError):
        ctx.bernoulli_residue(0, 3)


def test_a_coarser_read_reduces_the_finest_table_held(monkeypatch):
    # after the p^3 tables are built, a read at p^2 or p reduces them: no
    # pow call, no row source run, the values of a fresh build
    p = 31
    ctx = PrimeContext(p)
    reads = {
        "parity": lambda ctx, e: ctx.parity_power_residues(e),
        "ascent": lambda ctx, e: ctx.even_ascent_residue(e),
        "odd power": lambda ctx, e: ctx.odd_power_residue(e),
        "harmonic": lambda ctx, e: ctx.harmonic_residues(e),
    }
    for read in reads.values():
        read(ctx, 3)
    want = {(name, e): read(PrimeContext(p), e)
            for name, read in reads.items() for e in (2, 1)}
    calls = []
    monkeypatch.setattr(sequences, "pow",
                        lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    grow = PrimeContext._grow
    monkeypatch.setattr(
        PrimeContext, "_grow", lambda self, rows, exponent, top, source: grow(
            self, rows, exponent, top,
            lambda *args: calls.append(args) or source(*args)))
    for (name, e), value in want.items():
        assert reads[name](ctx, e) == value, (name, e)
    assert calls == []
    assert [len(part) for part in ctx.harmonic_residues(1)] == [p, p, p - 3]


def _tail_residue(ctx, m, exponent):
    """The shifted tail mod p^exponent from the context's harmonic residues:
    K = p-2m-1+i meets the divisor p+1+i for i = 0..2m-1."""
    p = ctx.p
    h, _, inverses = ctx.harmonic_residues(exponent)
    return sum(h[p - 2 * m - 1 + i] * inverses[i]
               for i in range(2 * m)) % p ** exponent


def test_prime_context_shifted_tail():
    ctx = get_prime_context(7)
    # m = 1: K runs over {4, 5}, divisors K + 4
    want = harmonic(4) / 8 + harmonic(5) / 9
    for e in (1, 2, 3):
        assert _tail_residue(ctx, 1, e) == mod_reduce(want, 7, e), e
        assert _tail_residue(ctx, 0, e) == 0
    # exponent 0 is the modulus 1, which lemma 2 reads at --modulus 1
    assert ctx.harmonic_residues(0) == ([0] * 7, [0] * 7, [0] * 4)
    with pytest.raises(ValueError):
        ctx.harmonic_residues(-1)


def test_shifted_harmonic_tail_matches_the_fraction_sum():
    # the term-by-term Fraction sum is the oracle for the residue kernel;
    # p = 5 is the edge where the divisors are only 6 and 7
    for p in sympy.primerange(5, 200):
        ctx = get_prime_context(p)
        h, h2, inverses = ctx.harmonic_residues(2)
        assert h == [mod_reduce(harmonic(K), p, 2) for K in range(p)], p
        assert h2 == [mod_reduce(gen_harmonic(K, 2), p, 2)
                      for K in range(p)], p
        assert inverses == [pow(d, -1, p * p) for d in range(p + 1, 2 * p - 2)]
        for m in range((p - 1) // 2):
            want = sum((harmonic(K) / (K + 2 * m + 2)
                        for K in range(p - 2 * m - 1, p - 1)), Fraction(0))
            for e in (1, 2):
                assert _tail_residue(ctx, m, e) == mod_reduce(want, p, e), (
                    p, m, e)


def _odd_even_power_sum_oracle(p, k):
    """(p-2)^(2k) + (p-4)^(2k) + ... + 1^(2k), as Lehmer's sum is written."""
    return sum((p - 2 * a) ** (2 * k) for a in range(1, (p - 1) // 2 + 1))


def test_power_rows_match_direct_sums_at_catalog_exponents():
    # the exponents the catalog reads at: lehmer_i at p^3, lehmer_ii and
    # sun_lemma at p^2; lehmer_i's odd bases are the full range less the
    # even ones, 4^k S_{h,2k}
    for p in sympy.primerange(5, 200):
        ctx = get_prime_context(p)
        half = (p - 1) // 2
        p2, p3 = p ** 2, p ** 3
        for j, got in enumerate(ctx.half_power_residues(3, 2 * p)):
            assert got == sum_powers(half, j) % p3, (p, j)
        full2, full3 = (ctx.full_power_residues(e, 2 * p) for e in (2, 3))
        for k in range(2, p + 1):
            assert full2[k] == sum_powers(p - 1, k) % p2
        for k in range(2, p):
            if (2 * k - 2) % (p - 1):
                odd = (full3[2 * k]
                       - 4 ** k * ctx.half_power_residues(3, 2 * k)[2 * k])
                assert odd % p3 == _odd_even_power_sum_oracle(p, k) % p3, (
                    p, k)
        for k in range(1, p + 1):
            assert (ctx.half_power_residues(2, 2 * k)[2 * k]
                    == sum_powers(half, 2 * k) % p2), (p, k)


def test_full_power_rows_past_two_p_match_direct_sums():
    # the half-range row grows to any top, so a full row past k = 2p keeps
    # all top + 1 entries
    for p in (5, 13, 31):
        ctx = PrimeContext(p)
        for e in (1, 2, 3):
            assert ctx.full_power_residues(e, 3 * p) == [
                sum_powers(p - 1, k) % p ** e for k in range(3 * p + 1)], (
                p, e)


def test_half_power_rows_hold_exactly_the_largest_top_read():
    # reads mixed over exponents and tops, so a row grows from a finer one
    # as far as that reaches and from the kernel past it; a top between p
    # and 2p grows it to 2p
    for p in sympy.primerange(5, 100):
        ctx, rng, longest = PrimeContext(p), random.Random(p), {}
        sums = [sum_powers((p - 1) // 2, j) for j in range(3 * p + 1)]
        for _ in range(6):
            e, top = rng.randint(1, 3), rng.randint(0, 3 * p)
            longest[e] = max(longest.get(e, -1), top)
            assert ctx.half_power_residues(e, top) == [
                s % p ** e for s in sums[:_grown(p, longest[e]) + 1]], (
                    p, e, top)


def test_power_rows_do_not_depend_on_request_order():
    p = 31
    half = (p - 1) // 2
    # descending, repeated, jumps, back to 0, then a run again
    ks = [7, 6, 5, 5, 5, 6, 20, 21, 22, 3, 0, 1, 2, 2, 40, 41, 62]
    ctx = PrimeContext(p)
    for k in ks:
        assert (ctx.full_power_residues(2, k)
                == [sum_powers(p - 1, j) % p ** 2 for j in range(k + 1)])
    # tables at several exponents, each asked for before and after one at a
    # higher exponent exists, which it is then reduced from
    for exponents in ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)):
        ctx = PrimeContext(p)
        for e in exponents:
            q = p ** e
            assert ctx.half_power_residues(e, 2 * p) == [
                sum_powers(half, j) % q for j in range(2 * p + 1)], e
            for k in ks:
                assert (ctx.full_power_residues(e, 2 * p)[k]
                        == sum_powers(p - 1, k) % q), (e, k)
    with pytest.raises(ValueError):
        ctx.half_power_residues(0, 2)


def test_power_rows_do_not_depend_on_which_row_is_read_first():
    # each table is built on its first read, in whatever order they come
    reads = {
        "full": lambda ctx, p, e: (ctx.full_power_residues(e, 5)[5],
                                   sum_powers(p - 1, 5) % p ** e),
        "half": lambda ctx, p, e: (ctx.half_power_residues(e, 4)[4],
                                   sum_powers((p - 1) // 2, 4) % p ** e),
        "harmonic": lambda ctx, p, e: (ctx.harmonic_residues(e)[0][3],
                                       mod_reduce(harmonic(3), p, e)),
        "ascent": lambda ctx, p, e: (ctx.even_ascent_residue(e),
                                     even_ascent_count(p - 2) % p ** e),
    }
    for p in (5, 13, 31):
        for order in itertools.permutations(reads):
            ctx = PrimeContext(p)
            for e in (2, 1, 3, 3):
                for name in order:
                    got, want = reads[name](ctx, p, e)
                    assert got == want, (p, order, name, e)


def _stepped_half_power_sums(h, top, q):
    """S_{h,j} mod q for j = 0..top in one stepped pass, row j being row
    j-1 times the bases: the reference for the packed kernel."""
    bases = range(1, h + 1)
    powers = [1] * h
    sums = [h % q]
    for _ in range(top):
        powers = [x * a % q for x, a in zip(powers, bases)]
        sums.append(sum(powers) % q)
    return sums


def _half_power_args(p, exponent):
    return (p - 1) // 2, 2 * p, p ** exponent


def test_packed_half_power_sums_match_the_stepped_pass():
    # the catalog's table, p^3, over a wide range; every exponent a
    # --modulus probe can ask for over a short one; and one large prime;
    # each over j = 0..top, and to tops inside the range
    cases = [(p, 3) for p in sympy.primerange(5, 402)]
    cases += [(p, e) for p in sympy.primerange(5, 62) for e in range(1, 7)]
    cases.append((1009, 3))
    for p, e in cases:
        h, top, q = _half_power_args(p, e)
        want = _stepped_half_power_sums(h, top, q)
        for end in (0, 1, p - 1, 2 * p - 1, top):
            assert _half_power_sums(h, end, q) == want[:end + 1], (p, e, end)


def test_packed_half_power_sums_at_3001():
    p = 3001
    h, top, q = _half_power_args(p, 3)
    sums = _half_power_sums(h, top, q)
    assert len(sums) == top + 1
    for j in (0, 1, 2, p - 2, p - 1, p, 2 * p - 2, 2 * p - 1, 2 * p):
        assert sums[j] == sum(pow(a, j, q) for a in range(1, h + 1)) % q, j


@settings(max_examples=200, deadline=None)
@given(h=st.integers(min_value=0, max_value=40),
       top=st.integers(min_value=0, max_value=90),
       q=st.integers(min_value=1, max_value=2 ** 80))
def test_packed_half_power_sums_property(h, top, q):
    # moduli past 2^32 make slots wider than 64 bits
    assert _half_power_sums(h, top, q) == _stepped_half_power_sums(h, top, q)


def test_building_a_prime_context_builds_no_power_row():
    # at p = 16843 a half-range table holds 33687 residues and exact power
    # rows about 1.6 MB, so neither may be built before its first read
    tracemalloc.start()
    try:
        ctx = PrimeContext(16843)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # Wolstenholme: H_{p-1} vanishes mod p^2
    h, _, _ = ctx.harmonic_residues(2)
    assert len(h) == 16843 and h[-1] == 0


def test_pole_detection_on_reduction():
    # B_{p-1} is not p-integral, a wrong-modulus request must say so
    with pytest.raises(NotPIntegral):
        mod_reduce(bernoulli(10), 11, 1)
