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
from itertools import chain, islice
from math import prod

from .basis import DEFAULT_WHEEL_CAP, CoprimeBasis, _check_wheel_cap, _kept, _rolled


@dataclass(frozen=True)
class PairSpec:
    """Offsets below and above the center; (1, 1) means twins."""

    left_offset: int
    right_offset: int

    def __post_init__(self) -> None:
        for offset in (self.left_offset, self.right_offset):
            if not isinstance(offset, int) or isinstance(offset, bool):
                raise TypeError(f"offset {offset!r} is not an integer")
            if offset < 0:
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


def _forbidden(m: int, spec: PairSpec) -> set[int]:
    """The residues mod m a center must avoid: a mod m and -b mod m."""
    return {spec.left_offset % m, -spec.right_offset % m}


def pair_count(basis: CoprimeBasis, spec: PairSpec) -> PairCensus:
    """Predicted centers per period from per-modulus forbidden residues.

    Offsets larger than a modulus, or divisible by one, need no special
    casing: only the residue classes a mod m and -b mod m matter.
    """
    factors = []
    predicted = 1
    for m in basis:
        forbidden = _forbidden(m, spec)
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
    """All centers x in (0, period], in increasing order.

    Every modulus m forbids the two classes a center must avoid, a and -b
    (mod m), the ones ``pair_count`` counts; the centers are what is left,
    rolled from the largest modulus's classes by each other modulus in
    turn, as ``build_wheel`` rolls its wheel.  Neighbors wrap modulo the
    period, so a center near either end pairs with a survivor from the
    adjacent copy of the pattern, and the center 0 is reported as the
    period.  The result's length is checked against the census
    prediction: any other length raises AssertionError.
    """
    period = basis.period
    _check_wheel_cap(period, cap)
    struck = [_forbidden(m, spec) for m in basis]
    rows = _rolled(basis.moduli, struck)
    if all(0 not in s for s in struck):  # 0 leads: report it as the period
        rows = chain((islice(row, 1, None) for row in islice(rows, 1)), rows,
                     [(period,)])
    return _kept(rows, prod(m - len(s) for m, s in zip(basis, struck)))
