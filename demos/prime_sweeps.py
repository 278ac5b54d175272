"""Sweeping the whole identity catalog over a prime range.

Every entry in the catalog carries its own domain, modulus and parameter
generator, so one call exercises classical facts, quoted congruences and
the new results side by side.  The same run is available from the shell:

    bernmod verify --identity all --primes 5..31 --format csv --no-timestamps
"""
from collections import Counter

from bernmod import identity_ids, sweep

ids = identity_ids()
print(f"catalog: {len(ids)} identities")
print(" ", ", ".join(ids[:8]) + ", ...")

reports = sweep("all", 5, 31)
print(f"\nswept primes 5..31: {len(reports)} parameter points")

by_status = Counter(r.status for r in reports)
for status, count in sorted(by_status.items()):
    print(f"  {status:<14} {count}")

print("\nthe inapplicable points are hypothesis failures, not errors:")
for r in reports:
    if r.status == "inapplicable":
        p, k = r.params["p"], r.params["k"]
        print(f"  {r.identity} p={p} k={k}: 2k-2 = {2 * k - 2} "
              f"is divisible by p-1 = {p - 1}")

print("\nper-identity residue pairs for one prime (p = 31):")
for r in reports:
    if r.params.get("p") == 31 and r.params.get("k") is None \
            and r.params.get("m") is None:
        print(f"  {r.identity:<18} modulus={r.modulus:<6} "
              f"lhs={r.lhs:<8} rhs={r.rhs:<8} {r.status}")
