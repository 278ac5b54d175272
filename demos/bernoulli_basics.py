"""Tour of the exact Bernoulli machinery: values, conventions, denominators,
and the plain-text cache."""
from fractions import Fraction
import tempfile
import os

from bernmod import (
    MINUS_HALF,
    PLUS_HALF,
    bernoulli,
    bernoulli_table,
    divided_bernoulli,
    von_staudt_denominator,
)
from bernmod.cache import load, save

print("First Bernoulli numbers (B_1 = -1/2 convention):")
for n in range(0, 13):
    print(f"  B_{n:<2} = {bernoulli(n)}")

print()
print("The two conventions differ only at index 1:")
print(f"  minus_half: B_1 = {bernoulli(1, convention=MINUS_HALF)}")
print(f"  plus_half:  B_1 = {bernoulli(1, convention=PLUS_HALF)}")

print()
print("Denominators are fully predictable: the product of primes q")
print("with (q - 1) dividing n.")
for n in (2, 12, 30, 40):
    b = bernoulli(n)
    print(f"  B_{n}: denominator {b.denominator}, "
          f"predicted {von_staudt_denominator(n)}")

print()
print("Divided Bernoulli numbers B_n/n, the building block of the")
print("convolution congruences:")
for n in (2, 4, 12):
    print(f"  B_{n}/{n} = {divided_bernoulli(n)}")

print()
print("Tables persist as plain text and survive a round trip exactly:")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bern.cache")
    table = bernoulli_table()
    table.value(30)
    save(table, path)
    size = os.path.getsize(path)
    back = load(path)
    print(f"  wrote {size} bytes, reloaded B_0..B_{back.max_index}, "
          f"B_30 = {back.value(30)}")
    assert back.value(30) == Fraction(8615841276005, 14322)
