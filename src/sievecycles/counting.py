"""Exact survivor counts at exact rational boundaries.

The central quantity is f(x): how many survivors a satisfy 1 <= a <= x.
With this convention f(period) equals the per-period survivor count, and
f(x) = 0 for x < 1.  Boundaries are exact rationals (`fractions.Fraction`),
never floats: the interesting boundaries are points like 52.5 or
231060472.5 where a float's rounding could move the floor.

Survivors are integers, so f(x) = f(floor(x)), and floor(floor(x) / d)
equals floor(x / d).  Each route floors its boundary once, right after
parsing it, and counts on plain ``int`` from there on.

Five interchangeable functions return the same exact integer by three
evaluation routes: the sieve oracle, inclusion-exclusion, and the phi
kernel, which ``count_meissel``, ``count_generalized_meissel`` and
``count_periodic`` all call (the first and the last make the very same
call and differ only in the method they report):

* ``count_by_sieve``       -- mark multiples up to floor(x); the oracle.
* ``count_legendre``       -- signed sum of floor(x / d) over squarefree
                              divisor products d (inclusion-exclusion):
                              a flat table of the smallest moduli's
                              products, summed at C speed, under a pruned
                              walk over the largest, each node reduced by
                              the table's period Q and counted as whole
                              cycles of the table's own sum at Q plus one
                              remainder summed term by term; exponential,
                              kept apart from the kernel as a cross-check.
* ``count_meissel``        -- peel off the largest modulus m via
                              f(x) = f'(x) - f'(x / m), evaluated by the
                              phi(n, a) kernel: a survivor table for the
                              smallest moduli, of at most 2^16 entries, a
                              shortcut past moduli above n, and, at each
                              level where the input makes residues repeat,
                              a reduction by that level's own period and a
                              memo of its residues.  One bound D_a on each
                              level's distinct residues sizes the table to
                              the work it saves and picks the memo levels.
                              At the paper's rational boundaries
                              u * P / v + delta it is polynomial in the
                              number of moduli; at a random n near P still
                              2^(k - c) leaves.
* ``count_generalized_meissel`` -- same peel for *any* chosen modulus,
                              over the kernel of the remaining basis.
* ``count_periodic``       -- ``count_meissel``'s kernel call under its
                              own name: the kernel reduces x modulo the
                              period before it peels, which makes it
                              cheap for astronomically large x.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import ceil, floor, isqrt, lcm, prod
from operator import floordiv, mul

from .basis import CoprimeBasis, _require_ascending, survivor_blocks, survivor_flags
from .errors import CapacityError

DEFAULT_ORACLE_CAP = 10**7
DEFAULT_FACTOR_CAP = 10**12

METHOD_ORACLE = "oracle"
METHOD_LEGENDRE = "legendre"
METHOD_MEISSEL = "meissel"
METHOD_GENERALIZED_MEISSEL = "generalized_meissel"
METHOD_PERIODIC = "periodic_reduction"
METHODS = (
    METHOD_ORACLE,
    METHOD_LEGENDRE,
    METHOD_MEISSEL,
    METHOD_GENERALIZED_MEISSEL,
    METHOD_PERIODIC,
)

# Accepted spellings of an exact non-negative rational: "35", "52.5", "105/2".
_BOUNDARY_RE = re.compile(r"^(\d+)(?:\.(\d+)|/(\d+))?$")


def exact_boundary(x) -> Fraction:
    """Normalize a boundary to an exact non-negative Fraction.

    Accepts int, Fraction, or a string of the form ``<int>``,
    ``<int>.<digits>``, or ``<int>/<int>``.  Floats are rejected: 52.5
    would survive the round trip but most decimals would not, and a
    silently shifted floor is exactly the failure this type exists to
    prevent.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        value = Fraction(x)
    elif isinstance(x, Fraction):
        value = x
    elif isinstance(x, float):
        raise TypeError(
            "float boundaries are not accepted; pass an int, Fraction, or "
            "a string like '52.5' or '105/2'"
        )
    elif isinstance(x, str):
        m = _BOUNDARY_RE.match(x.strip())
        if m is None:
            raise ValueError(
                f"cannot parse {x!r} as an exact rational "
                "(<int>, <int>.<digits>, or <int>/<int>)"
            )
        if m[3] is not None and int(m[3]) == 0:
            raise ValueError("denominator must be positive")
        value = Fraction(x)
    else:
        raise TypeError("boundary must be int, Fraction, or str")
    if value < 0:
        raise ValueError("boundary must be non-negative")
    return value


@dataclass(frozen=True)
class CountResult:
    value: int
    method: str


def _floor_boundary(x) -> int:
    """floor(x) of a parsed boundary: the integer every route counts up to."""
    return floor(exact_boundary(x))


def count_by_sieve(basis: CoprimeBasis, x, *, cap: int = DEFAULT_ORACLE_CAP) -> CountResult:
    """Oracle count: strike multiples of every modulus in [1, floor(x)].

    The window is struck and counted one block at a time, so memory holds
    one block of flags however large floor(x) is.
    """
    n = _floor_boundary(x)
    if n > cap:
        raise CapacityError(f"floor(x) = {n} exceeds the oracle cap of {cap}")
    if n >= sys.maxsize:  # at a nanosecond a flag, about 300 years of striking
        raise CapacityError(f"floor(x) = {n} exceeds {sys.maxsize - 1}, the "
                            "most integers the oracle scans under any cap")
    blocks = survivor_blocks(basis.moduli, 1, n)
    return CountResult(sum(flags.count(1) for flags in blocks), METHOD_ORACLE)


# Both exact counters resolve their smallest moduli from a table of at
# most this many entries: Legendre's sum from the signed products of those
# moduli, the phi kernel from a cumulative survivor table over their product.
_TABLE_LIMIT = 1 << 16


def _signed_products(moduli: tuple[int, ...], n: int) -> tuple[int, list[int], list[int]]:
    """The squarefree products <= n of a prefix of ``moduli``, split by sign.

    Returns (t, pos, neg): the products of an even and of an odd number of
    moduli from ``moduli[:t]``, each list sorted.  Moduli are taken in
    order while pos and neg together stay within _TABLE_LIMIT entries.
    """
    pos, neg = [1], []
    for t, m in enumerate(moduli):
        y = n // m  # d * m <= n exactly when d <= y
        i, j = bisect_right(pos, y), bisect_right(neg, y)
        if len(pos) + len(neg) + i + j > _TABLE_LIMIT:
            return t, pos, neg
        more_pos = [d * m for d in neg[:j]]
        neg += [d * m for d in pos[:i]]
        pos += more_pos
        pos.sort()  # two sorted runs: one merge
        neg.sort()
    return len(moduli), pos, neg


def _legendre_walk(n: int, rest: tuple[int, ...], start: int, period: int,
                   phi: int, pos: list[int], neg: list[int]) -> int:
    """The signed sum of n // d over the table products d <= n, less the
    same sum at n // m for each ``rest[start:]`` modulus m <= n in turn.

    ``period`` is the product of the table's moduli and ``phi`` the table's
    sum at it, one period's survivors.  Those survivors repeat with that
    period (Lehmer), so the table's sum at n is (n // period) * phi plus
    its sum at r = n mod period, where every quotient is r // d with r and
    d below the period.  The children still start from n, not from r.

    A plain function rather than a closure over the table: such a closure
    is a reference cycle, and the table would wait for the cyclic garbage
    collector instead of being freed when its call returns.
    """
    q, r = divmod(n, period)
    each = repeat(r)
    total = (q * phi + sum(map(floordiv, each, pos[:bisect_right(pos, r)]))
             - sum(map(floordiv, each, neg[:bisect_right(neg, r)])))
    for i in range(start, len(rest)):
        m = rest[i]
        if m > n:
            break  # rest ascends, so every later product exceeds n too
        total -= _legendre_walk(n // m, rest, i + 1, period, phi, pos, neg)
    return total


# One digit of a CPython int.  In CPython 3.11 on x86-64, one quotient of
# a 2048-term ``sum(map(floordiv, repeat(r), ...))`` costs 39 ns where r
# and d each fit in one digit, 61 ns for a two-digit r over a one-digit d,
# and 109 ns where both take two digits.
_ONE_DIGIT = 1 << sys.int_info.bits_per_digit


def _legendre(moduli: tuple[int, ...], n: int) -> int:
    """Signed sum of n // d over the squarefree products d <= n of the
    ascending ``moduli``.

    The products of the smallest moduli form one flat table, summed at C
    speed; a walk over the larger moduli, pruned once products exceed n,
    visits each of their products D and sums the table at n // D, reduced
    by the table's own period (see ``_legendre_walk``).
    """
    _require_ascending(moduli)
    if n < 1:
        return 0
    k = bisect_right(moduli, n)  # only these moduli divide anything in 1..n
    # Near the period, where every product is <= n, the sums take one
    # quotient per product, 2^k in all, however the moduli are split; the
    # split trades 2^t table entries built against 2^(k - t) walk calls.
    # In CPython 3.11 on x86-64 an entry costs 105-120 ns to build and a
    # call 2.2-2.6 us, about 20 entries, so the table takes the smallest
    # k/2 + 2 moduli: 16 entries per call.  From one digit on, where that
    # table would hold every product of its moduli, it stops before their
    # period reaches one digit, so that every remainder and every entry is
    # one digit (see _ONE_DIGIT).  Where the table is cut at n instead, the
    # walk is pruned and a smaller table only adds calls: capping there too
    # took 100 primes at 10^10 from 6.0-7.1 to 8.6-9.8 s and 40 primes at
    # 10^10 from 0.22-0.31 to 0.40-0.42 s.  Without the cap, the reduction
    # alone takes 22 primes at a random x below P from 0.47-0.73 to
    # 0.30-0.43 s and 20 primes at P // 3 from 0.12-0.14 s to 74-91 ms;
    # with it, 0.17-0.24 s and 41-49 ms.
    t = min(k, k // 2 + 2)
    if n >= _ONE_DIGIT and prod(moduli[:t]) <= n:
        t = bisect_left(list(accumulate(moduli[:t], mul)), _ONE_DIGIT)
    t, pos, neg = _signed_products(moduli[:t], n)
    period = prod(moduli[:t])
    # phi is the table's own sum at its period, never prod(m - 1), so the
    # route shares nothing with the kernel or the product formula.  No node
    # exceeds n, so a period above n reduces none, and there the table,
    # cut at n, need not hold every product of the period.
    phi = 0
    if period <= n:
        each = repeat(period)
        phi = sum(map(floordiv, each, pos)) - sum(map(floordiv, each, neg))
    return _legendre_walk(n, moduli[t:k], 0, period, phi, pos, neg)


def count_legendre(basis: CoprimeBasis, x) -> CountResult:
    """Inclusion-exclusion count; exact for any basis, 2^k terms at worst.

    Deliberately kept apart from the phi kernel so that the two can check
    each other.  Pruning keeps the effective term count far below 2^k for
    small x, and the terms are summed from a flat table of products at C
    speed.  Each node of the walk over the larger moduli is reduced by the
    table's period Q (Lehmer): whole cycles count the table's own sum at Q
    each, and only the remainder is summed term by term.  From one digit of
    a CPython int on, a table that would hold every product of its moduli
    stops before Q reaches one digit, so each such quotient is one digit by
    one; a table cut at x keeps its size.  The sum at Q is computed from
    the table, never from prod(m - 1) nor by the kernel, so the route
    still shares nothing with the routes it checks.
    Near the period every one of the 2^k terms is still summed: in CPython
    3.11 on a 2-core x86-64 host, 20 primes at P // 3 take 52-62 ms, 22
    primes at a random x below P 0.18-0.22 s, and each further prime
    doubles that.
    """
    return CountResult(_legendre(basis.moduli, _floor_boundary(x)), METHOD_LEGENDRE)


# Below _TABLE_LIMIT the phi kernel's table is sized to the work it
# saves.  Taking one more modulus into the table multiplies its entries
# by that modulus and removes a level of the peel: the leaves under it
# without a memo, or its distinct residues with one, whichever are fewer
# (see ``_plan``).  In CPython 3.11 on x86-64 one table entry (marked by
# ``survivor_flags``, summed by ``array("I", accumulate(...))``) costs
# 43-51 ns, and one leaf of the peel (a quotient, a table lookup and the
# loop step around them) 700-830 ns: a leaf is worth about 16 entries, so
# a modulus pays for itself while its table has at most 16 entries per
# node it removes.
_ENTRIES_PER_LEAF = 16


# The phi kernel's memo (see ``_phi``) pays only where residues repeat.
# With it on, a node costs about 1.8 times as much as with it off
# (CPython 3.11 on x86-64, 22 primes at random n below the period, where
# nothing repeats), so ``_plan`` turns it on level by level, before the
# walk, only where the input says residues will repeat.  It never stores
# more than _MEMO_LIMIT nodes in one call: near the period of 1000 primes
# a node holds ints of thousands of digits, and the 94,000 nodes of one
# subdivision take about 140 MiB.
_MEMO_LIMIT = 1 << 17


def _plan(ns: list[int], moduli: tuple[int, ...],
          periods: list[int], whole: int) -> tuple[int, list[dict | None]]:
    """The plan of the walk over ``ns``: c, how many moduli the table
    resolves, and the memo of each level a, an empty dict where phi(r, a)
    repeats residues r often enough to pay, else None.

    ``moduli`` are the k moduli <= max(ns), whose product ``whole``
    exceeds every n (see ``_floor_counts``), and periods[a] bounds the
    residues of level a.  The memo-blind peel visits N = len(ns) * 2^(k - a)
    nodes at level a, each floor(n / d) for a product d of moduli[a:].
    Both choices rest on D_a, the least of three bounds on how many of
    those nodes differ:

    * periods[a], the residues modulo P_a;
    * about (len(ns) + 1) * sqrt(max(ns)), the distinct quotients floor(n / d);
    * common * (width // moduli[a] + 1) + len(ns) near a rational point:
      each n is u * P / v + delta for the convergent u / v of n / P whose
      points, about v * (|delta| + 1), are fewest among those whose v is
      within _MEMO_LIMIT and the most visits of any level; common is the
      lcm of those v and width the largest floor(|delta|) + 1.  Every d
      other than 1 is at least moduli[a], so floor(n / d) modulo P_a lies
      within |delta| / moduli[a] of one of common points.

    The table first takes moduli[c] while P_{c+1} stays within
    _TABLE_LIMIT and its min(P_{c+1}, max(ns) + 1) entries within
    _ENTRIES_PER_LEAF per leaf the modulus removes, N at level c + 1.  It
    then gives its last modulus back while the entries exceed
    _ENTRIES_PER_LEAF per residue D_c: with a memo, a level costs the walk
    about one node per residue, however many leaves it has.  Above the
    table, about N^2 / 2D of a level's N visits repeat (all but D once
    N > D), and each repeat saves the a - c steps of a spine, while each
    visit costs one lookup: level a keeps a memo where D_a < N * (a - c).
    """
    size, top, k = len(ns), max(ns, default=0), len(moduli)
    # Counting leaves alone bounds the table from above; D can only
    # shrink it.
    c = 0
    while (c < k and periods[c + 1] <= _TABLE_LIMIT
           and min(periods[c + 1], top + 1)
           <= _ENTRIES_PER_LEAF * (size << (k - c - 1))):
        c += 1
    memo = [None] * len(periods)
    if c == k:
        return c, memo  # the table resolves every modulus that strikes
    # No level above that table visits more than size << (k - c - 1) nodes,
    # nor can the memo hold more than _MEMO_LIMIT: a grid of more points
    # turns nothing on there, and shrinks no table.
    most = min(size << (k - c - 1), _MEMO_LIMIT)
    common, width = 1, 0
    for n in ns:
        if width:  # n may lie within the width of the grid found so far
            error = n * common % whole
            if min(error, whole - error) < common * width:
                continue
        # The convergents p / q of n / whole: Euclid's remainder at each step
        # is |n * q - p * whole|, so delta = n - p * whole / q is that over q.
        # Keep the one with the fewest points, about q + |n * q - p * whole|.
        # The first, 0 / 1 (n < whole), has n itself for its remainder.
        best, error = 1, n
        num, den, before, q = whole, n, 0, 1
        while den:
            t, rest = divmod(num, den)
            before, q = q, t * q + before
            if q > most:
                break
            if q + rest < best + error:
                best, error = q, rest
            if rest < q:
                break  # |delta| < 1: every later convergent has more points
            num, den = den, rest
        common = lcm(common, best)
        width = max(width, error // best + 1)
        if common > most:
            break
    quotients = (size + 1) * (isqrt(top) + 1)

    def residues(a):  # D_a
        return min(periods[a], quotients, common * (width // moduli[a] + 1) + size)

    while c and min(periods[c], top + 1) > _ENTRIES_PER_LEAF * residues(c):
        c -= 1
    for a in range(c + 1, k):
        if residues(a) < (size << (k - a)) * (a - c):
            memo[a] = {}
    return c, memo


def _phi(ns: list[int], moduli: tuple[int, ...], c: int, periods: list[int],
         survivors: list[int], cum: array, memo: list[dict | None]) -> list[int]:
    """phi(n, a): how many of 1..n no modulus among ``moduli[:a]`` divides,
    for every n in ``ns`` and a = len(moduli).

    ``moduli`` ascend and are pairwise coprime; the first c of them are
    resolved by the table ``cum``, where cum[r] counts the survivors in
    1..r for r < P_c; periods[a] = P_a is the product of moduli[:a], and
    survivors[a] = S_a the survivors in one P_a; memo[a] keeps phi(r, a),
    or is None where level a keeps nothing.  ``_plan`` chooses c and the
    levels that keep a memo.

    The peel phi(n, a) = phi(n, a - 1) - phi(n // m_a, a - 1) is walked
    down its spine (n, a), (n, a - 1), ... to the table, one child
    phi(n // m_i, i) off each step; four devices cut the tree down:

    * table: phi(n, c) = (n // P_c) * S_c + cum[n mod P_c] in O(1);
    * shortcut: moduli above n strike nothing in 1..n, so phi(n, a) drops
      at once to the prefix of moduli <= n, found by bisection;
    * period: the survivors of moduli[:a] repeat with period P_a (Lehmer),
      so phi(n, a) = (n // P_a) * S_a + phi(n mod P_a, a);
    * memo: phi(r, a), once evaluated, is kept for every n of the call.
      At a rational point u * P / v + delta of the period each level then
      holds about v * (|delta| + 1) residues, and the tree collapses to
      polynomial size.

    The last two pay only where residues repeat.  At a level where they
    would not, as at a random n below the period, memo[a] is None and the
    walk goes on there with neither: no lookup, no reduction, nothing
    kept.  Open nodes wait on an explicit stack, so the depth of the tree
    (up to one level per modulus) never meets Python's recursion limit.
    """
    period, per_period = periods[c], survivors[c]
    lowest = moduli[c] if c < len(moduli) else 0  # any child below it is a leaf
    left = _MEMO_LIMIT
    frames = []   # the open nodes below the one in hand
    pending = []  # (a, r, value so far) of each node (r, a) to store on close
    counts = []
    for n in ns:
        i = len(moduli)
        if i > c and n < moduli[i - 1]:
            i = bisect_right(moduli, n, c, i)
        # The node in hand: spine residue n at level i, its value so far,
        # and where its spine nodes start in ``pending``.
        value, start = 0, 0
        while True:
            while i > c:
                if (level := memo[i]) is not None and n >= periods[i]:
                    q, n = divmod(n, periods[i])
                    value += q * survivors[i]
                    if n < moduli[i - 1]:
                        i = bisect_right(moduli, n, c, i)
                        continue
                    known = level.get(n)
                    if known is not None:
                        value += known
                        n = 0  # the rest of the spine is known: phi(0, c) = 0
                        break
                    pending.append((i, n, value))
                d = n // moduli[i - 1]
                i -= 1
                if i == c or d < lowest:
                    q, r = divmod(d, period)
                    value -= q * per_period + cum[r]
                    continue
                j = i if d >= moduli[i - 1] else bisect_right(moduli, d, c, i)
                level = memo[j]
                if level is not None:
                    known = level.get(d)
                    if known is not None:
                        value -= known
                        continue
                frames.append((n, i, value, start))
                start = len(pending)
                if level is not None:
                    pending.append((j, d, 0))
                n, i, value = d, j, 0
            q, r = divmod(n, period)
            value += q * per_period + cum[r]
            if len(pending) > start:
                for a, r, before in pending[start:]:
                    if not left:
                        break
                    memo[a][r] = value - before
                    left -= 1
                del pending[start:]
            if not frames:
                break
            done = value
            n, i, value, start = frames.pop()
            value -= done
        counts.append(value)
    return counts


def _floor_counts(moduli: tuple[int, ...], ns: list[int]) -> list[int]:
    """Survivors in 1..n for each integer n >= 0 in ``ns``, over ascending,
    pairwise-coprime ``moduli``, all through one kernel (see ``_phi``).

    Only the k moduli <= max(ns) can strike anything, and their survivors
    repeat with period P_k, so each n >= P_k is first reduced modulo P_k
    (until max(ns) < P_k for the k of the residues): the plan and the walk
    below see only residues.  ``_plan`` then sizes the survivor table and
    picks the levels that keep a memo, both from D_a, one bound on the
    distinct residues of each level a.  Every table size from 0 (an empty
    table) up to the ceiling, P_c <= _TABLE_LIMIT, and every choice of
    memo levels give the same counts; only the work differs.  One memo serves
    every n, so boundaries that share residues, such as those of one
    subdivision, share the nodes below them.
    """
    _require_ascending(moduli)
    top = max(ns, default=0)
    k = bisect_right(moduli, top)
    # Past a period above both top and the ceiling, no node is ever reduced
    # and no modulus joins the table: any period above top will do there.
    periods, survivors = [1], [1]
    bound = max(top, _TABLE_LIMIT)
    for m in moduli[:k]:
        if periods[-1] > bound:
            break
        periods.append(periods[-1] * m)
        survivors.append(survivors[-1] * (m - 1))
    whole = periods[k] if k < len(periods) else prod(moduli[:k])
    waves = [0] * len(ns)
    while whole <= top:
        # f(q * P_k + r) = q * S_k + f(r) (Lehmer)
        waves = [w + n // whole * survivors[k] for w, n in zip(waves, ns)]
        ns = [n % whole for n in ns]
        top = max(ns)
        k = bisect_right(moduli, top, 0, k)
        whole = periods[k]
    moduli = moduli[:k]  # the rest strike nothing
    periods += [top + 1] * (k + 1 - len(periods))
    c, memo = _plan(ns, moduli, periods, whole)
    flags = survivor_flags(moduli[:c], 0, min(periods[c] - 1, top))
    flags[0] = 0  # cum[r] counts survivors in 1..r, for r <= top
    counts = _phi(ns, moduli, c, periods, survivors, array("I", accumulate(flags)), memo)
    return [w + v for w, v in zip(waves, counts)]


def _kernel_count(basis: CoprimeBasis, x, method: str) -> CountResult:
    """floor(x)'s count by the phi kernel, tagged with ``method``."""
    [value] = _floor_counts(basis.moduli, [_floor_boundary(x)])
    return CountResult(value, method)


def count_meissel(basis: CoprimeBasis, x) -> CountResult:
    """Recursive count peeling off the largest modulus at each level.

    Striking multiples of m removes exactly the previous-level survivors
    that are <= x/m, so f(x) = f'(x) - f'(x / m).  Evaluated on floor(x)
    by the integer kernel (see ``_phi``): a survivor table resolves the
    smallest moduli, each peel skips straight past the moduli above its
    argument, and each level where residues repeat reduces by its own
    period and remembers the residues; one bound D_a on each level's
    distinct residues plans both (see ``_plan``).  Near a rational point
    u * P / v + delta of the period the cost is polynomial, about
    k * v * (|delta| + 1) nodes for k moduli (on a 2-core x86-64 host,
    CPython 3.11: 25 primes at P // 3 about 0.2 ms, 1000 primes 15 ms); at
    a random x near the period no residue repeats, no level keeps a memo,
    and the walk has the peel's 2^(k - c) leaves, c being the moduli in the
    table (22 primes about 30 ms, and each further prime doubles that).
    """
    return _kernel_count(basis, x, METHOD_MEISSEL)


def count_generalized_meissel(basis: CoprimeBasis, drop: int, x) -> CountResult:
    """Peel off an arbitrary chosen modulus instead of the largest.

    The survivor set does not depend on the order the moduli were applied,
    so f(x) = f_without_drop(x) - f_without_drop(x / drop) for any member;
    both sides go through one kernel over the reduced basis.
    """
    n = _floor_boundary(x)
    reduced = basis.without(drop).moduli  # raises if drop is absent
    whole, struck = _floor_counts(reduced, [n, n // drop])
    return CountResult(whole - struck, METHOD_GENERALIZED_MEISSEL)


def count_periodic(basis: CoprimeBasis, x) -> CountResult:
    """Count floor(x) by periodic reduction: ``count_meissel``'s kernel call.

    f(K * period + r) = K * survivor_count + f(r), so only r in [0, period)
    ever needs direct evaluation.  The kernel does that reduction on every
    call: by the period of the moduli <= x before it walks (see
    ``_floor_counts``), and again at each level of its peel where residues
    repeat (see ``_phi``).  So this is the same call as ``count_meissel``,
    not a separate route, and differs only in the method it reports.
    Cheap for astronomically large x.
    """
    return _kernel_count(basis, x, METHOD_PERIODIC)


def count_strictly_below(basis: CoprimeBasis, x) -> int:
    """Survivors a with 1 <= a < x (the half-open variant).

    Differs from f(x) only when x is itself a survivor integer.  This is
    the form that makes the reflection law exact for every nonempty basis:
    f(period - x) = survivor_count - count_strictly_below(x) for
    0 < x <= period, with no off-by-one at survivor boundaries.  (The
    empty basis alone escapes: there 0 itself survives, so the reflection
    would have to count it.)  Counted by plain inclusion-exclusion.
    """
    return _legendre(basis.moduli, ceil(exact_boundary(x)) - 1)


def distinct_prime_factors(x: int, *, cap: int = DEFAULT_FACTOR_CAP) -> tuple[int, ...]:
    """Distinct prime divisors of x >= 1 by trial division."""
    if x < 1:
        raise ValueError("x must be positive")
    if x > cap:
        raise CapacityError(f"{x} exceeds the factorization cap of {cap}")
    primes = []
    n = x
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return tuple(primes)


def _totient(x: int, basis: CoprimeBasis) -> int:
    """phi(x) = x / P * prod(p - 1) for the basis of x's distinct primes."""
    return x // basis.period * basis.survivor_count


def euler_phi(x: int, *, cap: int = DEFAULT_FACTOR_CAP) -> int:
    """Euler's totient via the distinct-prime-divisor product formula."""
    return _totient(x, CoprimeBasis(distinct_prime_factors(x, cap=cap)))


def phi_identity_check(x: int, *, cap: int = DEFAULT_FACTOR_CAP) -> bool:
    """Totient bridge: phi(x) equals the survivor count <= x for the basis
    of x's own prime divisors."""
    basis = CoprimeBasis(distinct_prime_factors(x, cap=cap))
    return _totient(x, basis) == count_legendre(basis, x).value
