"""Reducing exact rationals modulo prime powers, digit by digit."""
from fractions import Fraction

from bernmod import (
    NotPIntegral,
    bernoulli,
    hensel_digit,
    mod_reduce,
)

x = Fraction(7, 3)
print(f"x = {x}")
print(f"x mod 5   -> {mod_reduce(x, 5)}")
print(f"x mod 5^2 -> {mod_reduce(x, 5, 2)}")
print(f"x mod 5^3 -> {mod_reduce(x, 5, 3)}")

print()
print("Base-5 digits of x, least significant first:")
digits = [hensel_digit(x, 5, i) for i in range(4)]
print(f"  {digits}")
recon = sum(d * 5 ** i for i, d in enumerate(digits))
print(f"  reconstruction: {recon} = x mod 5^4 "
      f"({mod_reduce(x, 5, 4)})")

print()
print("Reduction is a ring homomorphism; residues are plain ints:")
a = mod_reduce(Fraction(1, 3), 7, 2)
b = mod_reduce(Fraction(1, 4), 7, 2)
print(f"  1/3 mod 49 = {a},  1/4 mod 49 = {b}")
print(f"  sum -> {(a + b) % 49},  check 7/12 mod 49 = "
      f"{mod_reduce(Fraction(7, 12), 7, 2)}")
print(f"  product -> {a * b % 49},  inverse of 1/12 -> "
      f"{pow(a * b, -1, 49)}")

print()
print("A denominator divisible by p has no residue; the library says so")
print("instead of inventing one:")
try:
    mod_reduce(bernoulli(10), 11)
except NotPIntegral as exc:
    print(f"  B_10 mod 11 -> NotPIntegral: {exc}")
print("(B_10 has denominator 66 = 2 * 3 * 11, as the denominator")
print("theorem demands, so this pole is expected.)")
