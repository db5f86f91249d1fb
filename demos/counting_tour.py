#!/usr/bin/env python3
"""Counting survivors exactly, five ways, at boundaries floats would fumble.

Every claim printed here is recomputed on the spot, and a false one makes
the run exit with status 1.
"""

from fractions import Fraction

from _claims import claim

from sievecycles import (
    count_by_sieve,
    count_generalized_meissel,
    count_legendre,
    count_meissel,
    count_periodic,
    cycle_table,
    euler_phi,
    format_exact,
    make_prime_basis,
    phi_identity_check,
    subdivision,
    total_intervals,
)

basis = make_prime_basis(4)
print("How many integers <= x are coprime to 2, 3, 5, and 7?")
print()
print(f"{'x':>8}  {'sieve':>6} {'legendre':>9} {'meissel':>8} "
      f"{'any-drop':>9} {'periodic':>9}")
for x in (35, Fraction(105, 2), 70, 105, Fraction(315, 2), 210):
    row = [
        count_by_sieve(basis, x).value,
        count_legendre(basis, x).value,
        count_meissel(basis, x).value,
        count_generalized_meissel(basis, 5, x).value,
        count_periodic(basis, x).value,
    ]
    claim(len(set(row)) == 1, f"the five routes agree at {x}")
    print(f"{format_exact(Fraction(x)):>8}  "
          + " ".join(f"{v:>{w}}" for v, w in zip(row, (6, 9, 8, 9, 9))))

print()
print("Periodic reduction makes astronomically large arguments free:")
huge = 10**40 * 210 + 35
claim(count_periodic(basis, huge).value == 10**40 * 48 + 8,
      "10^40 periods of 48 survivors, then the 8 up to 35")
print(f"  f(10^40 * 210 + 35) = {count_periodic(basis, huge).value}")

print()
print("One period of 210 splits evenly for every basis modulus:")
for chosen in basis:
    report = subdivision(basis, chosen)
    per = report.intervals[0].per_interval_count
    print(f"  modulus {chosen}: {len(report.intervals)} interval(s) of "
          f"{format_exact(report.interval_length)}, {per} survivors each")

print()
print("The same table for the first ten primes (period 6,469,693,230),")
print("computed without materializing anything:")
ten = make_prime_basis(10)
print(f"  {'modulus':>7} {'intervals':>9} {'interval size':>15} {'per interval':>13}")
for row in cycle_table(ten):
    print(f"  {row.modulus:>7} {row.interval_count:>9} "
          f"{format_exact(row.interval_size):>15} "
          f"{row.survivors_per_interval:>13}")
print(f"  predictable intervals in total: {total_intervals(ten)}")

print()
print("Euler's totient is the same count wearing different clothes:")
for x in (210, 55660, 6469693230):
    equal = claim(phi_identity_check(x), f"phi({x}) is the survivor count")
    print(f"  phi({x}) = {euler_phi(x)}; equals the survivor count for "
          f"x's own prime divisors: {equal}")
