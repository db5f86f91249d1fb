"""Uniform subdivisions of one period into equal survivor-count intervals.

Pick any basis modulus m.  Cutting the period into m - 1 equal pieces (of
generally non-integer length period / (m - 1)) lands the same number of
survivors in every piece: the count at boundary K * period / (m - 1) is
exactly K times the survivor count of the basis with m removed.  Summing
over all moduli, one period carries sum(m - 1) such predictable interval
families.

That law is written once, as one row per modulus (``_row``): the cycle
table lists the rows, the subdivision counts along its modulus's row and
checks every interval against it, and the boundary check compares the
largest modulus's first boundary with its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

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


def _row(basis: CoprimeBasis, m: int) -> CycleTableRow:
    """What the law predicts for modulus m, uncounted."""
    pieces = m - 1
    # survivor_count is prod(m' - 1), so m - 1 divides it, and the quotient
    # is the survivor count of the basis without m
    return CycleTableRow(
        modulus=m,
        interval_count=pieces,
        interval_size=Fraction(basis.period, pieces),
        survivors_per_interval=basis.survivor_count // pieces,
    )


def subdivision(basis: CoprimeBasis, chosen: int) -> SubdivisionReport:
    """Cut one period along the boundaries of ``chosen``'s row and count.

    Boundaries are evaluated exactly (no materialized wheel), all through
    one call of the counting kernel.  Its survivor table and its memo of
    residues serve every boundary, and each level of its peel holds only
    about chosen - 1 residues, so the cost grows with the number of
    moduli times the boundaries, not exponentially: 100 primes at
    chosen = 97 take tens of milliseconds.  The equal-count structure is
    checked rather than assumed: each interval must hold the row's
    survivors per interval, and so, in chosen - 1 steps, the whole period's.
    chosen = 2 is the degenerate single interval holding the whole period.
    """
    if chosen not in basis:
        raise ValueError(f"{chosen} is not a basis modulus")
    row = _row(basis, chosen)
    size, step = row.interval_size, row.survivors_per_interval
    counts = _floor_counts(basis.moduli, [
        k * size.numerator // size.denominator
        for k in range(1, row.interval_count + 1)])
    intervals = []
    for k, cumulative in enumerate(counts, start=1):
        # every earlier interval held ``step``
        held = cumulative - (k - 1) * step
        if held != step:
            raise AssertionError(
                f"interval {k} of modulus {chosen} holds {held} survivors, "
                f"not {step}"
            )
        intervals.append(SubdivisionInterval(k, size * k, cumulative, held))
    return SubdivisionReport(basis, chosen, size, tuple(intervals))


def subdivision_boundary_check(basis: CoprimeBasis) -> bool:
    """Does the first subdivision boundary carry a full reduced period?

    With m the largest modulus: the survivor count up to
    period / (m - 1), its row's interval size, must equal the reduced
    basis's count over its own whole period (period / m), its row's
    survivors per interval.  The left side is counted; the right side is
    the reduced basis's product formula, prod(m' - 1).
    """
    row = _row(basis, basis.largest())
    [count] = _floor_counts(basis.moduli, [floor(row.interval_size)])
    return count == row.survivors_per_interval


def cycle_table(basis: CoprimeBasis) -> tuple[CycleTableRow, ...]:
    """One row per modulus: how many equal intervals, how long, how full."""
    return tuple(_row(basis, m) for m in basis)


def total_intervals(basis: CoprimeBasis) -> int:
    """Total number of predictable intervals across all moduli: sum(m - 1)."""
    return sum(m - 1 for m in basis)
