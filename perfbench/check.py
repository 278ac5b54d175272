"""Output checks for `bernmod verify` reports, independent of bernmod itself.

Nothing here imports bernmod.  The expected parameter points come from
`sympy.primerange` and the index ranges stated in the catalog's
documentation; the spot values come from sympy's Bernoulli numbers or from
plain-integer loops.  No check compares against a stored copy of earlier
output.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import prod

import sympy

# Per identity: (declared prime-power exponent or None for an exact
# comparison, point rule).  A point rule is ("p", min_p) for one point per
# prime, ("pk", min_p, name, first, last(p)) for a run of a second parameter
# per prime, or ("idx", points) for a fixed list of index points.
_PRIME = "p"
_PER_PRIME = "pk"
_INDEX = "idx"


def _n(values):
    return (_INDEX, tuple({"n": n} for n in values))


SPEC = {
    "euler_identity": (None, _n(range(1, 61))),
    "miki_identity": (None, _n(range(4, 41))),
    "conv_order_p1": (1, (_PRIME, 5)),
    "zhao_p3": (1, (_PRIME, 11)),
    "zhao_p5": (1, (_PRIME, 13)),
    "lev3_div_p1": (1, (_PRIME, 5)),
    "lev3_div_p3": (1, (_PRIME, 11)),
    "lev3_div_p5": (1, (_PRIME, 13)),
    "sub_h_over_k2k": (2, (_PRIME, 5)),
    "sub_h2_over_k2k": (1, (_PRIME, 5)),
    "lev3_b_over_k2k": (1, (_PRIME, 5)),
    "euler_tangent_relation": (None, _n(range(1, 32, 2))),
    "result1": (2, (_PRIME, 5)),
    "result2": (1, (_PRIME, 5)),
    "result3": (2, (_PRIME, 5)),
    "result4": (1, (_PRIME, 5)),
    "lehmer_i": (3, (_PER_PRIME, 5, "k", 2, lambda p: p - 1)),
    "lehmer_ii": (2, (_PER_PRIME, 5, "k", 1, lambda p: p)),
    "sun_lemma": (2, (_PER_PRIME, 5, "k", 2, lambda p: p)),
    "alzer": (None, _n(range(1, 101))),
    "choi_srivastava_s1": (None, _n(range(1, 101))),
    "choi_srivastava_s2": (None, _n(range(1, 101))),
    "choi_srivastava_s3": (None, _n(range(1, 101))),
    "prop1": (None, (_INDEX, tuple({"n": n, "s": s} for n in range(1, 51)
                                   for s in range(3, 21)))),
    "lemma1": (2, (_PRIME, 5)),
    "lemma2": (2, (_PER_PRIME, 5, "m", 1, lambda p: (p - 3) // 2)),
    "theorem1": (1, (_PRIME, 5)),
    "remark1a": (1, (_PRIME, 5)),
    "remark1b": (1, (_PRIME, 5)),
    "eisenstein": (1, (_PRIME, 5)),
    "wolstenholme": (2, (_PRIME, 5)),
    "glaisher": (2, (_PRIME, 5)),
    "wilson": (1, (_PRIME, 5)),
    "clausen_von_staudt": (None, _n(range(2, 201, 2))),
}


def _inapplicable_ok(identity: str, params: dict) -> bool:
    """Points the catalog reports as inapplicable instead of checking.

    lehmer_i excludes k = (p+1)/2, where 2k-2 is a multiple of p-1.  A
    sun_lemma point with k > p-2 or k = 0, 1 mod p-1 is exploratory: it is
    reported, but a mismatch there is not a failure.
    """
    if identity == "lehmer_i":
        return (2 * params["k"] - 2) % (params["p"] - 1) == 0
    if identity == "sun_lemma":
        p, k = params["p"], params["k"]
        return k > p - 2 or k % (p - 1) in (0, 1)
    return False


def expected_points(identities: list[str], lo: int, hi: int) -> set:
    """Every (identity, params) key a sweep over [lo, hi] must report."""
    keys = set()
    for ident in identities:
        rule = SPEC[ident][1]
        if rule[0] == _INDEX:
            params = rule[1]
        elif rule[0] == _PRIME:
            params = [{"p": p}
                      for p in sympy.primerange(max(lo, rule[1]), hi + 1)]
        else:
            _, min_p, name, first, last = rule
            params = [{"p": p, name: v}
                      for p in sympy.primerange(max(lo, min_p), hi + 1)
                      for v in range(first, last(p) + 1)]
        keys.update((ident, tuple(sorted(prm.items()))) for prm in params)
    return keys


def _bernoulli(n: int) -> Fraction:
    b = sympy.bernoulli(n)
    return Fraction(int(b.p), int(b.q))


def _residue(x: Fraction, m: int) -> int:
    return x.numerator * pow(x.denominator, -1, m) % m


def _theorem1_lhs(p: int) -> int:
    """sum_{i=2}^{p-3} B_i / 2^i * B_{p-1-i} mod p, from sympy's B_n."""
    total = sum((_bernoulli(i) / 2 ** i * _bernoulli(p - 1 - i)
                 for i in range(2, p - 2)), Fraction(0))
    return _residue(total, p)


def _factorial_mod(p: int, m: int) -> int:
    acc = 1
    for j in range(2, p):
        acc = acc * j % m
    return acc


def _fermat_quotient_mod_p(p: int) -> int:
    return (pow(2, p - 1, p * p) - 1) // p % p


def _odd_harmonic_sum_mod_p(p: int) -> int:
    """sum of H_m over odd m in [1, p-2], mod p.

    1/j appears in H_m for every odd m in [j, p-2]; there are
    (p-1)//2 - j//2 of them.
    """
    return sum(pow(j, -1, p) * ((p - 1) // 2 - j // 2)
               for j in range(1, p - 1)) % p


# identity -> function of the point's params giving the expected lhs
_SPOT_LHS = {
    "theorem1": _theorem1_lhs,
    "conv_order_p1": lambda p: 1,
    "wolstenholme": lambda p: 0,
    "wilson": lambda p: p - 1,
    "glaisher": lambda p: _factorial_mod(p, p * p),
    "result2": _fermat_quotient_mod_p,
    "remark1a": _fermat_quotient_mod_p,
    "eisenstein": _fermat_quotient_mod_p,
    "remark1b": _odd_harmonic_sum_mod_p,
    "result4": _odd_harmonic_sum_mod_p,
    "clausen_von_staudt": lambda n: str(sympy.bernoulli(n).q),
}


def _report_problem(row: dict) -> str | None:
    """Why one report is wrong, or None when it passes every check."""
    ident, params, status = row["identity"], row["params"], row["status"]
    exponent = SPEC[ident][0]
    if status == "inapplicable":
        if not _inapplicable_ok(ident, params):
            return "inapplicable at a point inside the stated domain"
        return None
    if status != "verified":
        return f"status {status}"
    lhs, rhs, modulus = row["lhs"], row["rhs"], row["modulus"]
    if exponent is None:
        if modulus is not None or Fraction(lhs) != Fraction(rhs):
            return "exact sides differ"
    else:
        if modulus != params["p"] ** exponent:
            return f"modulus {modulus} is not p^{exponent}"
        if not (isinstance(lhs, int) and isinstance(rhs, int)
                and 0 <= lhs < modulus and 0 <= rhs < modulus):
            return "residue outside [0, modulus)"
        if lhs != rhs:
            return "verified with lhs != rhs"
    spot = _SPOT_LHS.get(ident)
    if spot is not None and lhs != spot(*params.values()):
        return f"lhs {lhs} disagrees with the independent value"
    return None


def check_reports(path: str, identities: list[str], lo: int,
                  hi: int) -> tuple[int, int, list[str]]:
    """Check one run's JSON-lines output file.

    Returns (points attempted, points failed, problems).  A point fails when
    its report is missing, duplicated, malformed or wrong.
    """
    expected = expected_points(identities, lo, hi)
    seen = set()
    problems = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                row = json.loads(line)
                key = (row["identity"], tuple(sorted(row["params"].items())))
            except (ValueError, KeyError, TypeError, AttributeError):
                problems.append(f"line {lineno}: not a report")
                continue
            if key not in expected:
                problems.append(f"line {lineno}: unexpected point {key}")
                continue
            if key in seen:
                problems.append(f"line {lineno}: duplicate point {key}")
                continue
            try:
                why = _report_problem(row)
            except (ValueError, KeyError, TypeError):
                why = "malformed report"
            if why is not None:
                problems.append(f"line {lineno}: {key}: {why}")
                continue
            seen.add(key)
    missing = len(expected) - len(seen)
    if missing:
        problems.append(f"{missing} points missing or wrong")
    return len(expected), missing, problems


def von_staudt(n: int) -> int:
    """Product of the primes q with (q-1) | n."""
    return prod(q for q in sympy.primerange(2, n + 2) if n % (q - 1) == 0)


def check_cache(path: str, need: int) -> list[str]:
    """Check a Bernoulli cache file against sympy; returns the problems."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].split() != ["BERNCACHE", "1", "minus_half"]:
        return [f"{path}: bad header"]
    problems = []
    entries = {}
    for line in lines[1:]:
        n, num, den = (int(f) for f in line.split())
        entries[n] = Fraction(num, den)
    if sorted(entries) != list(range(len(entries))) or len(entries) <= need:
        problems.append(f"{path}: entries are not B_0..B_{need} or beyond")
    if entries.get(0) != 1 or entries.get(1) != Fraction(-1, 2):
        problems.append(f"{path}: B_0 or B_1 wrong for the -1/2 convention")
    for n, value in entries.items():
        # sympy 1.14 uses B_1 = +1/2, so it is compared from n = 2 on
        if n >= 2 and value != _bernoulli(n):
            problems.append(f"{path}: B_{n} differs from sympy")
        if n >= 2 and n % 2 == 0 and value.denominator != von_staudt(n):
            problems.append(f"{path}: B_{n} denominator is not von Staudt's")
    return problems
