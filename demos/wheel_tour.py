#!/usr/bin/env python3
"""A walk through wheels: periodicity, symmetry, and wave transitions.

Run me directly; every claim printed here is recomputed on the spot, and a
false one makes the run exit with status 1.
"""

from _claims import claim

from sievecycles import (
    build_wheel,
    extend_wheel,
    is_survivor,
    killer_index,
    make_basis,
    make_prime_basis,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("One period of survivors for the first three primes")
wheel3 = build_wheel(make_prime_basis(3))
print(f"moduli {wheel3.basis.moduli}, period {wheel3.period}, "
      f"{wheel3.count} survivors:")
print(" ", wheel3.residues)

show("The pattern repeats forever with that period")
for x in (7, 37, 67, 97, 30_000_000_007):
    survives = claim(is_survivor(wheel3.basis, x), f"{x} survives as 7 does")
    print(f"  {x:>12} survives: {survives}")

show("And sits symmetrically inside each period")
for r in wheel3.residues:
    mirror = (wheel3.period - r) % wheel3.period
    both = claim(wheel3.has_residue(r) and wheel3.has_residue(mirror),
                 f"{r} and its mirror {mirror} both survive")
    print(f"  {r:>2} <-> {mirror:>2}  both survive: {both}")

show("Extending by 7: each residue row loses exactly one entry")
print("rolling 7 copies of the 30-wheel covers 0..209; in the row of each")
print("residue a (entries a, a+30, ..., a+180) the new modulus 7 divides")
print("exactly one entry, at the row index below:")
for a in wheel3.residues:
    k = killer_index(wheel3, 7, a)
    claim((k * 30 + a) % 7 == 0, f"7 divides {k * 30 + a}")
    print(f"  row of {a:>2}: struck at K={k}  (kills {k * 30 + a})")

wheel4 = extend_wheel(wheel3, 7)
claim(wheel4.count == wheel3.count * (7 - 1), "each row keeps 7 - 1 entries")
print(f"survivors after the 7-wave: {wheel4.count} "
      f"(= {wheel3.count} rows x (7 - 1) kept each)")
claim(wheel4.residues == build_wheel(make_prime_basis(4)).residues,
      "the extended wheel is the wheel of the first four primes")

show("Order of application never matters")
a = extend_wheel(extend_wheel(build_wheel(make_basis([2, 3])), 5), 7)
b = extend_wheel(build_wheel(make_basis([2, 3, 7])), 5)
print("  {2,3}+5+7 == {2,3,7}+5:",
      claim(a.residues == b.residues, "{2,3}+5+7 == {2,3,7}+5"))

show("Composite coprime moduli behave identically")
basis = make_basis([20, 2783])
wheel = build_wheel(basis)
claim(wheel.count == 19 * 2782, "the composite wheel keeps 19 * 2782 residues")
print(f"  moduli {basis.moduli}: period {wheel.period}, "
      f"{wheel.count} survivors (= 19 * 2782)")
print("  symmetric:", claim(all(
    is_survivor(basis, a) == is_survivor(basis, wheel.period - a)
    for a in range(1, wheel.period)), "the composite wheel is symmetric"))
