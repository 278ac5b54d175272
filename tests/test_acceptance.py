"""Acceptance gate.

Each criterion below runs end to end at zero tolerance (exact residue or
exact rational equality) and prints a single PASS/FAIL line on the real
stdout so the verdicts survive pytest's capture.
"""
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bernmod.cache import CorruptCache, load, save
from bernmod.cli import main as cli_main
from bernmod.identities import (
    FAILED,
    INAPPLICABLE,
    NOT_P_INTEGRAL,
    VERIFIED,
    catalog,
    check,
    sweep,
    theorem1_rhs,
)
from bernmod.modular import mod_reduce
from bernmod.permutations import profile
from bernmod.sequences import (
    MINUS_HALF,
    BernoulliTable,
    bernoulli,
    eulerian,
    eulerian_explicit,
    even_ascent_count,
    euler_number_sides,
    fermat_quotient_2,
    get_prime_context,
    sum_powers,
    sum_powers_bernoulli,
    weighted_convolution,
)


_write_line = None


@pytest.fixture(autouse=True)
def _terminal_writer(request):
    """Route verdict lines through the terminal reporter so they show up
    even under captured output."""
    global _write_line
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        _write_line = reporter.write_line
    yield
    _write_line = None


def _emit(number: int, verdict: str, description: str, elapsed: float) -> None:
    line = f"ACCEPTANCE {number}: {verdict} - {description} ({elapsed:.1f}s)"
    if _write_line is not None:
        _write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def reported(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(number, "FAIL", description, time.perf_counter() - start)
        raise
    _emit(number, "PASS", description, time.perf_counter() - start)


def assert_all_verified(reports):
    bad = [(r.identity, r.params, r.status) for r in reports
           if r.status != VERIFIED]
    assert not bad, f"non-verified points: {bad[:8]}"


def test_criterion_1_main_congruence_to_199():
    desc = ("main congruence: weighted convolution equals the harmonic-sum "
            "side mod p for all primes 5..199")
    with reported(1, desc):
        start = time.perf_counter()
        reports = sweep("theorem1", 5, 199)
        elapsed = time.perf_counter() - start
        assert len(reports) == 44  # primes in [5, 199]
        assert_all_verified(reports)
        anchor = check("theorem1", {"p": 5})
        assert anchor.lhs == anchor.rhs == 4
        assert mod_reduce(weighted_convolution(5, 2), 5, 1) == 4
        assert mod_reduce(theorem1_rhs(5), 5, 1) == 4
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_supporting_lemmas_mod_p2():
    desc = ("both supporting lemmas hold mod p^2 for all primes 5..101, "
            "lemma 2 at every admissible m")
    with reported(2, desc):
        start = time.perf_counter()
        reports = sweep(["lemma1", "lemma2"], 5, 101)
        elapsed = time.perf_counter() - start
        assert_all_verified(reports)
        by_id = {}
        for r in reports:
            by_id.setdefault(r.identity, []).append(r)
        assert len(by_id["lemma1"]) == 24  # primes in [5, 101]
        # one lemma2 point per prime p and each m in 1..(p-3)/2
        assert len(by_id["lemma2"]) == sum(
            (r.params["p"] - 3) // 2 for r in by_id["lemma1"])
        for r in reports:
            assert r.modulus == r.params["p"] ** 2
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_3_even_ascent_results():
    desc = ("the four even-ascent count results hold at moduli p^2, p, "
            "p^2, p for all primes 5..101")
    with reported(3, desc):
        reports = sweep(["result1", "result2", "result3", "result4"], 5, 101)
        assert_all_verified(reports)
        exponents = {"result1": 2, "result2": 1, "result3": 2, "result4": 1}
        for r in reports:
            assert r.modulus == r.params["p"] ** exponents[r.identity]
        # spot anchor: q_2(5) = 3 = 2 N_3 - 1 with N_3 = 2 from enumeration
        assert profile(3).even_ascent_total == 2
        assert get_prime_context(5).even_ascent_residue(1) == 2
        assert fermat_quotient_2(5) == 3 == 2 * 2 - 1


def test_criterion_4_exact_identities():
    desc = ("exact identities (quadratic Bernoulli, divided-Bernoulli "
            "convolution, harmonic closed forms, shifted harmonic sums) "
            "hold as exact rationals")
    with reported(4, desc):
        ids = ["euler_identity", "miki_identity", "alzer",
               "choi_srivastava_s1", "choi_srivastava_s2",
               "choi_srivastava_s3", "prop1"]
        reports = sweep(ids, 5, 101)
        assert_all_verified(reports)
        counts = {}
        for r in reports:
            counts[r.identity] = counts.get(r.identity, 0) + 1
        assert counts["euler_identity"] == 60
        assert counts["miki_identity"] == 37
        assert counts["alzer"] == 100
        assert counts["choi_srivastava_s3"] == 100
        assert counts["prop1"] == 50 * 18
        # the general shifted form collapses to the s=3 closed form
        cat = catalog()
        for n in range(1, 101):
            assert (cat["prop1"].rhs(None, n=n, s=3)
                    == cat["choi_srivastava_s3"].rhs(None, n=n)), n
        anchor = check("prop1", {"n": 1, "s": 3})
        assert anchor.lhs == anchor.rhs == Fraction(1, 4)


def test_criterion_5_power_sum_congruences():
    desc = ("half-range power sum congruences mod p^3 and p^2 and the "
            "full-range power sum lemma mod p^2, primes 5..101, all "
            "admissible k")
    with reported(5, desc):
        reports = sweep(["lehmer_i", "lehmer_ii", "sun_lemma"], 5, 101)
        hard_bad = [r for r in reports
                    if r.status in (FAILED, NOT_P_INTEGRAL)]
        assert hard_bad == []
        for r in reports:
            p, k = r.params["p"], r.params["k"]
            if r.identity == "lehmer_i":
                admissible = (2 * k - 2) % (p - 1) != 0
                assert r.status == (VERIFIED if admissible
                                    else INAPPLICABLE), (p, k)
                if admissible:
                    assert r.modulus == p ** 3
            elif r.identity == "lehmer_ii":
                assert r.status == VERIFIED and r.modulus == p ** 2
            else:
                assert r.status in (VERIFIED, INAPPLICABLE)
                if k <= p - 2:
                    assert r.status == VERIFIED, (p, k)


def test_criterion_6_classical_facts():
    desc = ("classical congruences (factorial, harmonic vanishing, "
            "factorial-Bernoulli link, alternating sum, denominator "
            "predicate, tangent relation) hold in range")
    with reported(6, desc):
        ids = ["wilson", "wolstenholme", "glaisher", "eisenstein",
               "clausen_von_staudt", "euler_tangent_relation"]
        reports = sweep(ids, 5, 101)
        assert_all_verified(reports)
        tangent_pts = [r.params["n"] for r in reports
                       if r.identity == "euler_tangent_relation"]
        assert tangent_pts == list(range(1, 32, 2))
        # spot anchor at p = 5: 4! = 24 and 5 B_4 - 5 = -31/6 agree mod 25
        assert mod_reduce(Fraction(24), 5, 2) == 24
        assert 5 * bernoulli(4) - 5 == Fraction(-31, 6)
        assert mod_reduce(Fraction(-31, 6), 5, 2) == 24


def test_criterion_7_quoted_prior_congruences():
    desc = ("previously published congruences (lower-order convolutions, "
            "divided convolutions, power-of-two harmonic sums, reciprocal "
            "relations) hold at stated moduli up to 101")
    with reported(7, desc):
        ids = ["conv_order_p1", "zhao_p3", "zhao_p5", "lev3_div_p1",
               "lev3_div_p3", "lev3_div_p5", "sub_h_over_k2k",
               "sub_h2_over_k2k", "lev3_b_over_k2k", "remark1a", "remark1b"]
        reports = sweep(ids, 5, 101)
        assert_all_verified(reports)
        firsts = {}
        for r in reports:
            firsts.setdefault(r.identity, r.params["p"])
        assert firsts["zhao_p3"] == 11
        assert firsts["zhao_p5"] == 13
        assert firsts["conv_order_p1"] == 5


def zigzag_numbers(top: int) -> list[int]:
    """Alternating-permutation counts by the boustrophedon recurrence."""
    counts = [1]
    row = [1]
    for _ in range(top):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        counts.append(row[-1])
    return counts


def test_criterion_8_oracle_equivalence():
    desc = ("brute-force enumeration matches every formula path; the two "
            "Eulerian paths and the two power-sum paths agree on their "
            "full ranges")
    with reported(8, desc):
        start = time.perf_counter()
        zz = zigzag_numbers(8)
        for n in range(1, 9):
            prof = profile(n)
            assert prof.eulerian_row == tuple(
                eulerian(n, m) for m in range(n)), n
            assert prof.even_ascent_total == even_ascent_count(n), n
            assert prof.alternating_total == zz[n], n
            if n % 2 == 1:
                lhs, rhs = euler_number_sides(n)
                assert abs(rhs) == zz[n]
                assert lhs == rhs
        for n in range(1, 61):
            for m in range(n):
                assert eulerian(n, m) == eulerian_explicit(n, m), (n, m)
        for k in range(0, 51):
            acc = 0
            for n in range(1, 201):
                acc += n ** k
                assert acc == sum_powers_bernoulli(n, k), (n, k)
            assert acc == sum_powers(200, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


def test_criterion_9_infrastructure(tmp_path, capsys):
    desc = ("cache round-trips exactly and rejects corruption; a full "
            "catalog sweep over 5..101 exits 0 with reproducible "
            "timestamp-free output")
    with reported(9, desc):
        table = BernoulliTable(MINUS_HALF)
        table.value(24)
        path = tmp_path / "bern.cache"
        save(table, path)
        assert load(path).items() == table.items()
        path.write_text(path.read_text().replace("8 -1 30", "8 1 30"))
        with pytest.raises(CorruptCache):
            load(path)

        out_a = tmp_path / "run_a.jsonl"
        out_b = tmp_path / "run_b.jsonl"
        base = ["verify", "--identity", "all", "--primes", "5..101",
                "--no-timestamps"]
        assert cli_main(base + ["--out", str(out_a)]) == 0
        assert cli_main(base + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.stat().st_size > 0
