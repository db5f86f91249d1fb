#!/usr/bin/env python3
"""Twin censuses, offset pairs, and the remainder-vector ring.

Every claim printed here is recomputed on the spot, and a false one makes
the run exit with status 1.
"""

from _claims import claim

from sievecycles import (
    PairSpec,
    decompose,
    enumerate_pair_centers,
    inverse,
    is_survivor_vector,
    is_unit_vector,
    make_basis,
    make_prime_basis,
    multiply,
    pair_count,
    reconstruct,
)

basis = make_prime_basis(4)

print("Twin survivors: centers x with both x-1 and x+1 coprime to 2,3,5,7")
census = pair_count(basis, PairSpec(1, 1))
for f in census.per_modulus_factors:
    print(f"  modulus {f.modulus}: {f.forbidden_count} forbidden residue(s) "
          f"-> factor {f.factor}")
centers = enumerate_pair_centers(basis, PairSpec(1, 1))
claim(len(centers) == census.predicted_count, "enumeration matches the census")
print(f"  predicted {census.predicted_count}, enumerated {len(centers)}:")
print(f"  {centers}")

print()
print("Wider gaps follow the same per-modulus count, with one twist:")
for a in (2, 3):
    spec = PairSpec(a, a)
    c = pair_count(basis, spec)
    found = enumerate_pair_centers(basis, spec)
    claim(len(found) == c.predicted_count, f"offset {a}: enumeration matches the census")
    pairs = ", ".join(f"({x - a},{x + a})" for x in found[:3])
    print(f"  offset {a}: {c.predicted_count} centers per period "
          f"(first pairs {pairs})")
claim(pair_count(basis, PairSpec(3, 3)).predicted_count
      == 2 * pair_count(basis, PairSpec(2, 2)).predicted_count,
      "offset 3 doubles the census")
print("  (offset 3 doubles the census: 3+3 vanishes mod 3, so that modulus")
print("   forbids one residue instead of two)")

print()
print("Remainder vectors: each x < 210 is its list of remainders mod 2,3,5,7")
for x in (7, 121, 209):
    v = decompose(basis, x)
    claim(reconstruct(v) == x, f"{x} comes back from its remainders")
    print(f"  {x:>3} -> {v.entries}  survivor={is_survivor_vector(v)} "
          f"unit={is_unit_vector(v)}  back to {reconstruct(v)}")

print()
print("Surviving vectors form a group under componentwise multiplication:")
b3 = make_prime_basis(3)
u = decompose(b3, 7)
w = decompose(b3, 11)
claim(reconstruct(multiply(u, w)) == 17, "7 * 11 = 17 mod 30")
claim(reconstruct(inverse(u)) == 13, "7 * 13 = 1 mod 30")
print(f"  7 * 11 mod 30 = {reconstruct(multiply(u, w))}")
print(f"  inverse of 7 mod 30 is {reconstruct(inverse(u))} "
      f"(since 7 * 13 = 91 = 3 * 30 + 1)")
own = claim(reconstruct(inverse(decompose(b3, 29))) == 29, "29 is its own inverse mod 30")
print(f"  29 = -1 mod 30 is its own inverse: {own}")

print()
print("With composite coprime moduli the two notions split:")
comp = make_basis([4, 9, 25])
v = decompose(comp, 2)
claim(is_survivor_vector(v) and not is_unit_vector(v), "2 survives but is no unit")
print(f"  x=2 over moduli {comp.moduli}: entries {v.entries}")
print(f"  survivor (no zero entries): {is_survivor_vector(v)}")
print(f"  unit (entries coprime to moduli): {is_unit_vector(v)} "
      f"- 2 shares a factor with 4, so no inverse exists")
