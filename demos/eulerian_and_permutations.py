"""Eulerian numbers three ways: recurrence, explicit sum, and brute force.

Also shows the even-ascent counts N_n that drive the congruence results,
and the tangent-number relation tying alternating Eulerian row sums back
to Bernoulli numbers.
"""
from bernmod import (
    eulerian,
    eulerian_explicit,
    eulerian_mod,
    even_ascent_count,
    even_ascent_count_mod,
    euler_number_sides,
    profile,
)

print("The Eulerian triangle E(n, m) counts permutations by ascents:")
for n in range(1, 8):
    row = [eulerian(n, m) for m in range(n)]
    print(f"  n={n}: {row}")

print()
print("Three independent paths agree. For n = 6:")
n = 6
rec = [eulerian(n, m) for m in range(n)]
exp = [eulerian_explicit(n, m) for m in range(n)]
brute = list(profile(n).eulerian_row)
print(f"  recurrence : {rec}")
print(f"  explicit   : {exp}")
print(f"  enumeration: {brute}")
assert rec == exp == brute

print()
print("Even-ascent counts N_n (permutations with an even number of ascents):")
for n in range(1, 8):
    print(f"  N_{n} = {even_ascent_count(n)}")

print()
print("The congruence work needs N_{p-2} mod p^2 for primes far beyond")
print("enumeration range; a purely modular path delivers it:")
for p in (7, 31, 101):
    r = even_ascent_count_mod(p, 2)
    print(f"  N_{p - 2} mod {p}^2 = {r}")
small = even_ascent_count_mod(7, 2)
assert small == even_ascent_count(5) % 49

print()
print("E(n, m) itself reduces modularly too, without big integers:")
print(f"  E(40, 20) mod 11^2 = {eulerian_mod(40, 20, 11, 2)}")
assert eulerian_mod(40, 20, 11, 2) == eulerian(40, 20) % 121

print()
print("Alternating row sums recover scaled Bernoulli numbers (odd n):")
for n in (1, 3, 5, 7, 9):
    lhs, rhs = euler_number_sides(n)
    print(f"  n={n}: 2^{n + 1}(2^{n + 1}-1) B_{n + 1}/{n + 1} = {lhs}, "
          f"row sum = {rhs}")
    assert lhs == rhs
