"""Censuses of survivor pairs at fixed offsets around a center.

A center for offsets (a, b) is an integer x whose neighbors x - a and
x + b (taken modulo the period) both survive.  Per modulus m the center
must avoid the residues a mod m and -b mod m; those coincide when
a + b = 0 (mod m), so each modulus contributes a factor of m - 1 or
m - 2, and the number of centers per period is the product.  Twin
survivors are the (1, 1) case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import DEFAULT_WHEEL_CAP, CoprimeBasis, build_wheel, survivor_flags


@dataclass(frozen=True)
class PairSpec:
    """Offsets below and above the center; (1, 1) means twins."""

    left_offset: int
    right_offset: int

    def __post_init__(self) -> None:
        if self.left_offset < 0 or self.right_offset < 0:
            raise ValueError("offsets must be non-negative")


@dataclass(frozen=True)
class PairFactor:
    modulus: int
    forbidden_count: int   # distinct forbidden residues mod this modulus: 1 or 2
    factor: int            # modulus - forbidden_count


@dataclass(frozen=True)
class PairCensus:
    basis: CoprimeBasis
    spec: PairSpec
    predicted_count: int
    per_modulus_factors: tuple[PairFactor, ...]


def pair_count(basis: CoprimeBasis, spec: PairSpec) -> PairCensus:
    """Predicted centers per period from per-modulus forbidden residues.

    Offsets larger than a modulus, or divisible by one, need no special
    casing: only the residue classes a mod m and -b mod m matter.
    """
    factors = []
    predicted = 1
    for m in basis:
        forbidden = {spec.left_offset % m, (-spec.right_offset) % m}
        factor = m - len(forbidden)
        factors.append(PairFactor(modulus=m, forbidden_count=len(forbidden),
                                  factor=factor))
        predicted *= factor
    return PairCensus(basis=basis, spec=spec, predicted_count=predicted,
                      per_modulus_factors=tuple(factors))


def enumerate_pair_centers(
    basis: CoprimeBasis,
    spec: PairSpec,
    *,
    cap: int = DEFAULT_WHEEL_CAP,
) -> tuple[int, ...]:
    """All centers x in (0, period], by a walk over one wheel's residues.

    Each surviving left neighbor r gives the one candidate center
    x = r + a (mod period), which is a center iff x + b = r + a + b
    survives too.  Neighbors wrap modulo the period, so a center near
    either end pairs with a survivor from the adjacent copy of the
    pattern.  The result length always equals the census prediction.
    """
    wheel = build_wheel(basis, cap=cap)
    period = wheel.period
    alive = survivor_flags(basis.moduli, period - 1)
    a, b = spec.left_offset, spec.right_offset
    return tuple(sorted(
        (r + a - 1) % period + 1 for r in wheel.residues
        if alive[(r + a + b) % period]
    ))
