"""Uniform subdivisions of one period into equal survivor-count intervals.

Pick any basis modulus m.  Cutting the period into m - 1 equal pieces (of
generally non-integer length period / (m - 1)) lands the same number of
survivors in every piece: the count at boundary K * period / (m - 1) is
exactly K times the survivor count of the basis with m removed.  Summing
over all moduli, one period carries sum(m - 1) such predictable interval
families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basis import CoprimeBasis
from .counting import _floor_counts


@dataclass(frozen=True)
class SubdivisionInterval:
    index: int                 # K, counted from 1
    boundary: Fraction         # K * period / (chosen - 1)
    cumulative_count: int      # survivors <= boundary
    per_interval_count: int    # survivors inside this piece


@dataclass(frozen=True)
class SubdivisionReport:
    basis: CoprimeBasis
    chosen_modulus: int
    interval_length: Fraction
    intervals: tuple[SubdivisionInterval, ...]


@dataclass(frozen=True)
class CycleTableRow:
    modulus: int
    interval_count: int                # modulus - 1
    interval_size: Fraction            # period / (modulus - 1)
    survivors_per_interval: int        # survivor_count / (modulus - 1)


def subdivision(basis: CoprimeBasis, chosen: int) -> SubdivisionReport:
    """Cut one period along multiples of period / (chosen - 1) and count.

    Boundaries are evaluated exactly (no materialized wheel), all through
    one call of the counting kernel.  Its survivor table and its memo of
    residues serve every boundary, and each level of its peel holds only
    about chosen - 1 residues, so the cost grows with the number of
    moduli times the boundaries, not exponentially: 100 primes at
    chosen = 97 take tens of milliseconds.  The equal-count structure is
    checked rather than assumed.
    chosen = 2 is the degenerate single interval holding the whole period.
    """
    if chosen not in basis:
        raise ValueError(f"{chosen} is not a basis modulus")
    pieces = chosen - 1
    length = Fraction(basis.period, pieces)
    # survivor_count is prod(m - 1), so this is the count without ``chosen``
    expected_step = basis.survivor_count // pieces
    counts = _floor_counts(
        basis.moduli, [k * basis.period // pieces for k in range(1, pieces + 1)])
    intervals = []
    previous = 0
    for k, cumulative in enumerate(counts, start=1):
        step = cumulative - previous
        if step != expected_step:
            raise AssertionError(
                f"interval {k} of modulus {chosen} holds {step} survivors, "
                f"not {expected_step}"
            )
        intervals.append(SubdivisionInterval(
            index=k,
            boundary=length * k,
            cumulative_count=cumulative,
            per_interval_count=step,
        ))
        previous = cumulative
    if previous != basis.survivor_count:
        raise AssertionError(
            f"subdivision totals {previous}, not {basis.survivor_count}"
        )
    return SubdivisionReport(
        basis=basis,
        chosen_modulus=chosen,
        interval_length=length,
        intervals=tuple(intervals),
    )


def subdivision_boundary_check(basis: CoprimeBasis) -> bool:
    """Does the first subdivision boundary carry a full reduced period?

    With m the largest modulus: the survivor count up to
    period / (m - 1) must equal the reduced basis's count over its own
    whole period (period / m).  The left side is counted; the right side
    is the reduced basis's product formula, prod(m' - 1).
    """
    m = basis.largest()
    [count] = _floor_counts(basis.moduli, [basis.period // (m - 1)])
    return count == basis.survivor_count // (m - 1)


def cycle_table(basis: CoprimeBasis) -> tuple[CycleTableRow, ...]:
    """One row per modulus: how many equal intervals, how long, how full."""
    rows = []
    for m in basis:
        pieces = m - 1
        # survivor_count is divisible by m - 1: it contains that very factor.
        rows.append(CycleTableRow(
            modulus=m,
            interval_count=pieces,
            interval_size=Fraction(basis.period, pieces),
            survivors_per_interval=basis.survivor_count // pieces,
        ))
    return tuple(rows)


def total_intervals(basis: CoprimeBasis) -> int:
    """Total number of predictable intervals across all moduli: sum(m - 1)."""
    return sum(m - 1 for m in basis)
