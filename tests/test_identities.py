"""Catalog checks: frozen residue anchors, status plumbing, sweep behavior."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernmod.identities as idmod
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
from bernmod.modular import mod_reduce, primes_in
from bernmod.sequences import (
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


def test_theorem1_rhs_matches_convolution():
    for p in (5, 7, 11, 13, 17, 19):
        lhs = mod_reduce(weighted_convolution(p, 2), p, 1)
        rhs = mod_reduce(theorem1_rhs(p), p, 1)
        assert lhs == rhs, p


def _harmonic_convolution_oracle(n):
    """H_1/(n-1) + H_2/(n-2) + ... + H_{n-1}/1, summed term by term."""
    return sum((harmonic(k) / (n - k) for k in range(1, n)), Fraction(0))


def test_harmonic_convolution_closed_form_matches_the_sum():
    for n in range(1, 200):
        closed = harmonic(n) ** 2 - gen_harmonic(n, 2)
        assert closed == _harmonic_convolution_oracle(n), n
    # the catalog's evaluator reads the same form off a prime's prefixes
    ctx = get_prime_context(199)
    assert idmod._hc(ctx, 1) == Fraction(1)
    assert idmod._hc(ctx, 2) == Fraction(35, 12)
    for m in range(1, 100):
        assert idmod._hc(ctx, m) == _harmonic_convolution_oracle(2 * m), m


def test_result1_rhs_matches_the_double_loop():
    # the sum of the shifted tails, one Fraction term at a time, is the
    # oracle for the regrouped single loop
    for p in primes_in(5, 199):
        ctx = get_prime_context(p)
        tails = sum((harmonic(K) / (K + 2 * m + 2)
                     for m in range((p - 1) // 2)
                     for K in range(p - 2 * m - 1, p - 1)), Fraction(0))
        want = ctx.odd_power_sum_total() - p * tails
        assert idmod._result1_rhs(ctx, p) == want, p


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
    for n in range(1, 61):
        assert prop1.rhs(None, n=n, s=3) == s3.rhs(None, n=n)


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


def test_out_of_domain_is_inapplicable():
    assert check("wilson", {"p": 9}).status == INAPPLICABLE
    assert check("theorem1", {"p": 4}).status == INAPPLICABLE
    assert check("miki_identity", {"n": 3}).status == INAPPLICABLE
    assert check("euler_tangent_relation", {"n": 4}).status == INAPPLICABLE
    assert check("lehmer_i", {"p": 5, "k": 3}).status == INAPPLICABLE


def test_modulus_override_can_refute_a_weaker_congruence():
    # the plain convolution is 1 mod p but not mod p^2
    base = check("conv_order_p1", {"p": 5})
    assert base.status == VERIFIED and base.modulus == 5
    pushed = check("conv_order_p1", {"p": 5}, modulus_override=2)
    assert pushed.status == FAILED
    assert pushed.modulus == 25
    assert pushed.lhs != pushed.rhs


def test_not_p_integral_status_via_pole_evaluator():
    """A side with a p in its denominator is reported, not crashed on."""
    desc = IdentityDescriptor(
        id="test_pole",
        title="deliberate pole",
        source="test fixture",
        params=("p",),
        exponent=1,
        lhs=lambda ctx, p: Fraction(1, p),
        rhs=lambda ctx, p: Fraction(0),
        domain=lambda p: p >= 5,
        points=lambda lo, hi: iter(()),
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


def test_sweep_range_validation():
    with pytest.raises(ValueError):
        sweep("wilson", 3, 11)
    with pytest.raises(ValueError):
        sweep("wilson", 11, 7)


def test_sweep_reports_are_sorted_and_complete():
    reports = sweep(["wilson", "lemma2"], 5, 13)
    keys = [r.sort_key() for r in reports]
    assert keys == sorted(keys)
    wilson_primes = [r.params["p"] for r in reports
                     if r.identity == "wilson"]
    assert wilson_primes == [5, 7, 11, 13]
    lemma2_pts = [(r.params["p"], r.params["m"]) for r in reports
                  if r.identity == "lemma2"]
    assert lemma2_pts == [(5, 1), (7, 1), (7, 2), (11, 1), (11, 2), (11, 3),
                          (11, 4), (13, 1), (13, 2), (13, 3), (13, 4), (13, 5)]


def test_sweep_runs_costliest_batches_first(monkeypatch):
    started = []
    check_batch = idmod._check_batch

    def record(tasks, modulus_override):
        started.append(tasks[0][1].get("p", tasks[0][0]))
        return check_batch(tasks, modulus_override)

    monkeypatch.setattr(idmod, "_check_batch", record)
    sweep(["wilson", "alzer", "lemma2"], 5, 13)
    assert started == ["alzer", 13, 11, 7, 5]


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


def test_elapsed_is_recorded():
    report = check("theorem1", {"p": 11})
    assert report.elapsed >= 0.0
