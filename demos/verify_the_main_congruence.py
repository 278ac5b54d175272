"""The headline congruence, end to end.

The order-(p-1) convolution of Bernoulli numbers weighted by powers of two,

    CB(p) = sum_{i=2}^{p-3} (B_i / 2^i) B_{p-1-i},

reduces mod p to a closed expression in harmonic sums and two base-p digits.
This script evaluates both sides exactly and reduces them for a run of
primes, then shows the same check through the catalog API.
"""
from bernmod import check, mod_reduce, sweep, theorem1_rhs, weighted_convolution

print("p    CB(p) exact (truncated)        lhs  rhs  status")
for p in (5, 7, 11, 13, 17, 19, 23):
    cb = weighted_convolution(p, 2)
    lhs = mod_reduce(cb, p, 1)
    rhs = mod_reduce(theorem1_rhs(p), p, 1)
    shown = str(cb)
    if len(shown) > 28:
        shown = shown[:25] + "..."
    status = "equal" if lhs == rhs else "DIFFER"
    print(f"{p:<4} {shown:<30} {lhs:<4} {rhs:<4} {status}")

print()
print("The catalog wraps the same comparison with status bookkeeping:")
report = check("theorem1", {"p": 101})
print(f"  p=101: status={report.status}, lhs={report.lhs}, "
      f"rhs={report.rhs}, modulus={report.modulus}")

print()
print("And a sweep covers a whole range at once:")
reports = sweep("theorem1", 5, 199)
verified = sum(r.status == "verified" for r in reports)
print(f"  primes 5..199: {verified}/{len(reports)} verified")
assert verified == len(reports)
