"""Coprime modulus sets and the survivor wheels they generate.

A basis is a finite set of pairwise-coprime moduli.  Striking every multiple
of every modulus from the integers leaves the *survivors*; their pattern
repeats with period equal to the product of the moduli, so one period (a
"wheel") describes the whole number line.  The classical case is the first
n primes, but any pairwise-coprime moduli (including composites such as
20 and 2783) behave identically.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from math import gcd, isqrt, log10, prod
from operator import add, lt, mod
from typing import Iterator

from .errors import CapacityError

# A wheel makes an int per survivor of its period, and a wheel read back is
# checked with a byte per candidate: keep periods below this unless the
# caller raises the cap.  ``list`` refuses a longer period too, though a
# window shorter than the period is struck without a wheel.
DEFAULT_WHEEL_CAP = 10**8


@dataclass(frozen=True)
class CoprimeBasis:
    """Strictly increasing, pairwise-coprime moduli, each >= 2; may be empty.

    ``period`` is their product, 1 for the empty basis: the coprimality
    check computes it, so it is never multiplied out twice.
    """

    moduli: tuple[int, ...]
    period: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.moduli) is not tuple:  # a list: unhashable, unequal to a tuple
            object.__setattr__(self, "moduli", tuple(self.moduli))
        for m in self.moduli:
            if not isinstance(m, int) or isinstance(m, bool):
                raise TypeError(f"modulus {m!r} is not an integer")
            if m < 2:
                raise ValueError(f"modulus {m} is smaller than 2")
        _require_ascending(self.moduli)
        object.__setattr__(self, "period",
                           _coprime_product(self.moduli, 0, len(self.moduli)))

    @cached_property
    def survivor_count(self) -> int:
        """Number of survivors in one period: the product of (m - 1)."""
        return prod(m - 1 for m in self.moduli)

    def without(self, m: int) -> CoprimeBasis:
        """The basis with modulus ``m`` removed."""
        if m not in self.moduli:
            raise ValueError(f"{m} is not a basis modulus")
        return CoprimeBasis(tuple(v for v in self.moduli if v != m))

    def largest(self) -> int:
        if not self.moduli:
            raise ValueError("empty basis has no largest modulus")
        return self.moduli[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.moduli)

    def __len__(self) -> int:
        return len(self.moduli)

    def __contains__(self, m: object) -> bool:
        return m in self.moduli


def _require_ascending(moduli: tuple[int, ...]) -> None:
    """A basis keeps its moduli strictly increasing, and both exact counters
    prune on that order: past the first modulus above n they stop, so a
    smaller one further on would be miscounted."""
    if not all(map(lt, moduli, moduli[1:])):
        raise ValueError("moduli must be strictly increasing")


def _coprime_product(moduli: tuple[int, ...], lo: int, hi: int) -> int:
    """The product of moduli[lo:hi], which must be pairwise coprime.

    A long run is split in halves, and one gcd of the two halves' products
    checks every pair across them.  The gcds cost more than the product and
    grow about quadratically: on a 2-core x86-64 host under CPython 3.11
    this took 0.05, 0.38 and 2.6 s for 15k, 40k and 100k primes, 5.4x, 6.8x
    and 9.0x a plain product tree.  A clash raises ValueError naming the
    later modulus b where the check meets it and the first modulus a that
    shares a factor with b.
    """
    # Below about 32 moduli one gcd per modulus against the running product
    # is cheaper: splitting 12 moduli down to single ones took 2.3x as long.
    if hi - lo > 32:
        mid = (lo + hi) // 2
        left = _coprime_product(moduli, lo, mid)
        right = _coprime_product(moduli, mid, hi)
        shared = gcd(left, right)
        if shared == 1:
            return left * right
        b = next(m for m in moduli[mid:hi] if gcd(m, shared) > 1)
    else:
        product = 1
        for b in moduli[lo:hi]:
            if gcd(product, b) > 1:
                break
            product *= b
        else:
            return product
    a = next(m for m in moduli if gcd(m, b) > 1)
    raise ValueError(f"moduli {a} and {b} are not coprime (gcd = {gcd(a, b)})")


@dataclass(frozen=True)
class Wheel:
    """One full period of the survivor pattern, fully materialized.

    ``residues`` lists, in increasing order, every r in [0, period) that no
    basis modulus divides.  The empty basis gives the trivial wheel with
    period 1 and the single residue 0 (nothing is ever struck).  Wave n's
    wheel is m_n copies of wave n - 1's, less one residue per copy, so
    ``extend_wheel`` and ``build_wheel`` both roll it from the wave before.
    An extended wheel's first copy holds the smaller wheel's own int
    objects: both are immutable, so they share them.
    """

    basis: CoprimeBasis
    period: int
    residues: tuple[int, ...]
    count: int

    def has_residue(self, r: int) -> bool:
        i = bisect_left(self.residues, r)
        return i < len(self.residues) and self.residues[i] == r


def _first_primes(n: int) -> tuple[int, ...]:
    """The first n primes, by sieving with the primes already found.

    Once every prime <= L is known, the survivors of those primes in
    (L, 4L] are exactly the primes there: for L >= 4 a composite <= 4L
    has a prime factor <= 2 * sqrt(L) <= L, and only the primes up to
    that bound need strike.  So each round takes L four times further, and
    strikes (L, 4L] alone, one block at a time.
    """
    primes, limit = [2, 3], 4
    while len(primes) < n:
        top = 4 * limit
        blocks = survivor_blocks(primes[:bisect_right(primes, isqrt(top))],
                                 limit + 1, top)
        primes += compress(range(limit + 1, top + 1), chain.from_iterable(blocks))
        limit = top
    return tuple(primes[:n])


def make_prime_basis(n: int) -> CoprimeBasis:
    """Basis of the first ``n`` primes (n = 0 gives the empty basis).

    Practical cap: n in the thousands is instant.  The primes are cheap
    (10**6 of them in 0.50-0.66 s on a 2-core x86-64 host under CPython
    3.11, holding one block of flags); the basis's coprimality check is not,
    growing about quadratically to 2.6 s at 10**5 primes; at 10**6 it
    gave no answer in 90 s.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return CoprimeBasis(_first_primes(n))


def make_basis(moduli) -> CoprimeBasis:
    """Validated basis from arbitrary moduli: sorted, deduplicated.

    Rejects any modulus below 2 and any pair sharing a factor, naming the
    offending pair.
    """
    return CoprimeBasis(tuple(sorted(set(moduli))))


def is_survivor(basis: CoprimeBasis, x: int) -> bool:
    """True iff no basis modulus divides ``x`` (x >= 0)."""
    if x < 0:
        raise ValueError("x must be non-negative")
    return all(x % m != 0 for m in basis.moduli)


def survivor_flags(moduli, lo: int, hi: int) -> bytearray:
    """One flag per integer of [lo, hi]: 1 where no modulus divides it.

    Each modulus strikes from its first multiple at or above ``lo``.  The
    flags take hi - lo + 1 bytes at once; ``survivor_blocks`` walks a long
    window in blocks instead.
    """
    alive = bytearray([1]) * (hi + 1 - lo)
    for m in moduli:
        first = -lo % m
        alive[first::m] = bytes(len(range(first, len(alive), m)))
    return alive


# Integers per block of ``survivor_blocks``, and so the bytes of flags it
# holds.  Each block pays one strike per modulus, and a block that fits a
# core's cache strikes faster: counting to 10**7 (CPython 3.11, 2-core
# x86-64) took 26 ms for 8 primes and 60 ms for 1000 at 2**18, against 28-35
# and 111-163 ms at 2**16, and 43-48 and 58-67 ms at 2**20.
_BLOCK = 1 << 18


def survivor_blocks(moduli, lo: int, hi: int) -> Iterator[bytearray]:
    """The ``survivor_flags`` of [lo, hi], one block of at most _BLOCK
    integers at a time, in order: chained, one flag per integer of the
    window.  Only the block in hand is held."""
    for start in range(lo, hi + 1, _BLOCK):
        yield survivor_flags(moduli, start, min(start + _BLOCK - 1, hi))


# Past this many digits an error message gives a period's length, not its
# digits: the first 50000 primes make a period of 265,460 digits.
_SHOWN_DIGITS = 40


def _shown(period: int) -> str:
    """``period`` for an error message: in full, or its digit count."""
    # floor(bits * log10(2)) is the digit count or one less; the
    # comparison settles which, without converting the whole period.
    digits = int(period.bit_length() * log10(2))
    digits += period >= 10**digits
    if digits <= _SHOWN_DIGITS:
        return f"period {period}"
    return f"a period of {digits} digits"


def _check_wheel_cap(period: int, cap: int) -> None:
    """Refuse to materialize a period of more than ``cap`` candidates, or
    of more than an index can reach.  A wheel, an extension or a pair-centre
    set allocates one tuple at its count before the first residue is made,
    and a wheel read back is checked against one flag per candidate; past
    ``sys.maxsize`` either allocation would raise OverflowError, not refuse.
    """
    if period > cap:
        raise CapacityError(f"{_shown(period)} exceeds the wheel cap of {cap} "
                            "residue candidates")
    if period >= sys.maxsize:
        raise CapacityError(f"{_shown(period)} exceeds {sys.maxsize - 1}, the "
                            "most residue candidates an index can reach")


def build_wheel(basis: CoprimeBasis, *, cap: int = DEFAULT_WHEEL_CAP) -> Wheel:
    """Materialize one period: every residue that no basis modulus divides.

    Rolls the wheel of the largest modulus by each other modulus in turn,
    striking from each copy the residues that modulus divides.  Refuses
    when the period exceeds ``cap`` candidates; the counting module
    evaluates arbitrarily large bases without materializing anything.
    """
    _check_wheel_cap(basis.period, cap)
    rows = _rolled(basis.moduli, [(0,)] * len(basis))
    residues = _kept(rows, basis.survivor_count)
    return Wheel(basis=basis, period=basis.period, residues=residues,
                 count=len(residues))


def killer_index(wheel: Wheel, m: int, a: int) -> int:
    """Row index K in [0, m) at which ``m`` strikes the residue-``a`` row.

    Rolling the wheel m times covers [0, m * period); of the m survivors
    K * period + a in that range, exactly one is divisible by m, namely the
    one with K = -a / period (mod m).  Requires gcd(m, period) = 1 and that
    ``a`` is a residue of the wheel.
    """
    if gcd(m, wheel.period) != 1:
        raise ValueError(f"{m} shares a factor with the period {wheel.period}")
    if not wheel.has_residue(a):
        raise ValueError(f"{a} is not a survivor residue of this wheel")
    return (-a * pow(wheel.period, -1, m)) % m


def extend_wheel(wheel: Wheel, m: int, *, cap: int = DEFAULT_WHEEL_CAP) -> Wheel:
    """Wheel for the basis extended by ``m`` (coprime to the period).

    One ``_roll`` of the wheel by m: m copies of its residues in order,
    K * period + a, less the one copy of each residue that m divides, the
    one at ``killer_index(wheel, m, a)``.  Row 0 keeps the wheel's own int
    objects.  The rows come out increasing, so nothing is sorted, and
    ``_kept`` holds them to the wheel's count times m - 1.
    """
    basis = make_basis(wheel.basis.moduli + (m,))  # rejects m < 2
    if gcd(m, wheel.period) != 1:
        raise ValueError(f"{m} shares a factor with the period {wheel.period}")
    _check_wheel_cap(basis.period, cap)
    rows = _roll(wheel.residues, wheel.period, m, (0,))
    residues = _kept(rows, len(wheel.residues) * (m - 1))
    return Wheel(basis=basis, period=basis.period, residues=residues,
                 count=len(residues))


def _roll(residues, period: int, m: int, struck) -> Iterator[Iterator[int]]:
    """m copies of one period, in order, as runs to be chained: every
    K * period + a, for K in [0, m) and each of the ``residues`` a, that
    lies in no class of ``struck`` mod m.  The first run is row 0, the kept
    residues themselves.

    Row K strikes the a with (a + K * period) mod m struck.  For m <= 256 a
    residue's class fits in a byte: each is taken once, and a row's mask is
    one ``translate`` of those bytes by the struck pattern turned
    K * period places, so each row is one run.  For a larger m a row may
    hold few residues, so nothing is done per row: each residue's one entry
    per struck class is struck in flags over the whole roll, and rows 1 to
    m - 1 are read as one run across one ``range`` per residue.  Either way
    ``compress`` takes the kept entries.  Row 0 makes no new int; the other
    rows make one per kept entry, or for m > 256 one per entry, of which
    one in m per struck class is dropped.
    """
    if m > 256:
        width = len(residues)
        keep = bytearray(b"\1") * (m * width)
        inverse = pow(period, -1, m)
        for j, a in enumerate(residues):
            for s in struck:
                keep[(s - a) * inverse % m * width + j] = 0
        yield compress(residues, keep[:width])
        columns = (range(a + period, m * period, period) for a in residues)
        yield compress(chain.from_iterable(zip(*columns)), keep[width:])
        return
    classes = bytes(map(mod, residues, repeat(m)))
    keep = bytearray(b"\1") * m
    for s in struck:
        keep[s] = 0
    pattern = bytes(keep) * (256 // m + 2)  # m + 256 flags or more
    turn, step = 0, period % m
    for k in range(m):
        row = compress(residues, classes.translate(pattern[turn:turn + 256]))
        yield map(add, row, repeat(k * period)) if k else row
        turn = (turn + step) % m


def _rolled(moduli: tuple[int, ...], struck) -> Iterator[Iterator[int]]:
    """The rows, in order, of every x in [0, prod(moduli)) that lies in no
    class of struck[i] mod moduli[i], for ascending, pairwise-coprime
    ``moduli``; each struck[i] holds distinct classes in [0, moduli[i]).

    Takes the largest modulus's residues from ``range``, then rolls them by
    each other modulus, ascending: a big modulus rolled late would make many
    short rows, each paying its set-up.  Nothing runs before the first row
    is asked for, so ``_kept`` allocates its result first.
    """
    if not moduli:
        yield iter((0,))
        return
    top = moduli[-1]
    keep = bytearray(b"\1") * top
    for s in struck[-1]:
        keep[s] = 0
    rows = [compress(range(top), keep)]
    period = top
    for m, s in zip(moduli[:-1], struck[:-1]):
        rows = _roll(tuple(chain.from_iterable(rows)), period, m, s)
        period *= m
    yield from rows


def _kept(rows: Iterator[Iterator[int]], count: int) -> tuple[int, ...]:
    """The rows of a roll chained into one tuple, allocated once at
    ``count``, the number the product formula gives.  A roll that makes
    any other number raises AssertionError naming both, under ``-O`` too."""
    items = tuple(_Counted(chain.from_iterable(rows), count))
    if len(items) != count:
        raise AssertionError(f"a roll made {len(items)} residues, not the "
                             f"{count} the product formula requires")
    return items


class _Counted:
    """``items`` whose number is known.  ``tuple`` reads the count before
    the first item and allocates the whole result at once: it is never
    regrown, and a size no allocator grants is refused before any work."""

    __slots__ = ("items", "count")

    def __init__(self, items: Iterator[int], count: int) -> None:
        self.items, self.count = items, count

    def __iter__(self) -> Iterator[int]:
        return self.items

    def __length_hint__(self) -> int:
        return self.count


def iter_survivors(wheel: Wheel, lo: int, hi: int) -> Iterator[int]:
    """Yield every survivor in [lo, hi] in increasing order, lazily.

    Translates the wheel period by period, so the range may span many
    waves without materializing anything beyond the wheel itself.  Each
    period is read between two bisections, for lo and for hi, so a short
    window copies and scans only the residues inside it.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    period, residues = wheel.period, wheel.residues
    for k in range(lo // period, hi // period + 1):
        base = k * period
        start = bisect_left(residues, lo - base)
        stop = bisect_right(residues, hi - base)
        yield from map(add, residues[start:stop], repeat(base))
