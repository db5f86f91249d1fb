"""Residue-vector view of one period and its multiplicative unit group.

Reducing x modulo each basis modulus gives a vector (x mod m1, ..., x mod
mk); by the Chinese remainder theorem this is a bijection between
[0, period) and the full product of residue ranges.  Under componentwise
multiplication the invertible vectors form an Abelian group, and for a
prime basis "invertible" is the same as "no zero entry", i.e. the same as
being a survivor.  For composite coprime moduli the two notions split:
a survivor merely avoids zero entries, a unit needs every entry coprime
to its modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .basis import CoprimeBasis


@dataclass(frozen=True)
class ResidueVector:
    basis: CoprimeBasis
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.entries) is not tuple:  # a list: unhashable, unequal to a tuple
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != len(self.basis):
            raise ValueError("one entry per basis modulus required")
        for e, m in zip(self.entries, self.basis):
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"entry {e!r} is not an integer")
            if not 0 <= e < m:
                raise ValueError(f"entry {e} out of range for modulus {m}")


def decompose(basis: CoprimeBasis, x: int) -> ResidueVector:
    """Vector of remainders of x modulo each basis modulus."""
    if x < 0:
        raise ValueError("x must be non-negative")
    return ResidueVector(basis, tuple(x % m for m in basis))


def reconstruct(v: ResidueVector) -> int:
    """The unique x in [0, period) with the given remainders."""
    period = v.basis.period
    x = 0
    for e, m in zip(v.entries, v.basis):
        q = period // m
        x += e * q * pow(q, -1, m)
    return x % period


def identity(basis: CoprimeBasis) -> ResidueVector:
    """The all-ones vector, neutral under componentwise multiplication."""
    return ResidueVector(basis, tuple(1 % m for m in basis))


def multiply(u: ResidueVector, v: ResidueVector) -> ResidueVector:
    """Componentwise product, each entry reduced by its own modulus."""
    if u.basis != v.basis:
        raise ValueError("vectors belong to different bases")
    return ResidueVector(
        u.basis,
        tuple(a * b % m for a, b, m in zip(u.entries, v.entries, u.basis)),
    )


def inverse(v: ResidueVector) -> ResidueVector:
    """Componentwise modular inverse; defined exactly for unit vectors."""
    entries = []
    for e, m in zip(v.entries, v.basis):
        try:
            entries.append(pow(e, -1, m))
        except ValueError:
            raise ValueError(
                f"entry {e} is not invertible modulo {m}"
            ) from None
    return ResidueVector(v.basis, tuple(entries))


def is_survivor_vector(v: ResidueVector) -> bool:
    """No zero entries: the represented integer survives the sieve."""
    return all(e != 0 for e in v.entries)


def is_unit_vector(v: ResidueVector) -> bool:
    """Every entry coprime to its modulus: componentwise inverses exist.

    Coincides with ``is_survivor_vector`` when every modulus is prime.
    """
    return all(gcd(e, m) == 1 for e, m in zip(v.entries, v.basis))
