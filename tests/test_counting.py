import random
import signal
import sys
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, prod
from unittest.mock import patch

import pytest
from conftest import count_near_subdivision, oracle_count, oracle_legendre
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievecycles import (
    CapacityError,
    count_by_sieve,
    count_generalized_meissel,
    count_legendre,
    count_meissel,
    count_periodic,
    count_strictly_below,
    distinct_prime_factors,
    euler_phi,
    exact_boundary,
    make_basis,
    make_prime_basis,
    phi_identity_check,
    subdivision,
)
from sievecycles import counting
from sievecycles.counting import (
    _ENTRIES_PER_LEAF,
    _TABLE_LIMIT,
    _floor_counts,
    _legendre,
    _signed_products,
)


def every_level(on):
    """A stand-in for ``_plan`` that keeps its table but a memo at every
    level, or at none."""
    plan = counting._plan

    def forced(*args):
        c, memo = plan(*args)
        return c, [{} if on else None for _ in memo]
    return forced


# ``_plan`` decides, level by level, where the kernel keeps a memo (with
# the period reduction), and the memo stores at most _MEMO_LIMIT nodes;
# past that the walk goes on looking up but storing nothing.  Each setting
# forces one side of those rules; no count may depend on which side ran.
MEMO_SETTINGS = {
    "default": {"_MEMO_LIMIT": counting._MEMO_LIMIT},
    "every level off": {"_plan": every_level(False)},
    "every level on": {"_plan": every_level(True)},
    "full after 5 nodes": {"_MEMO_LIMIT": 5},
}

B3 = make_prime_basis(3)
B4 = make_prime_basis(4)


class TestExactBoundary:
    def test_decimal_and_fraction_spellings_agree(self):
        assert exact_boundary("52.5") == exact_boundary("105/2") == Fraction(105, 2)

    def test_plain_integers(self):
        assert exact_boundary("35") == exact_boundary(35) == 35

    def test_fraction_passthrough(self):
        assert exact_boundary(Fraction(7, 3)) == Fraction(7, 3)

    def test_reduces(self):
        b = exact_boundary("50/20")
        assert (b.numerator, b.denominator) == (5, 2)

    @pytest.mark.parametrize("bad", ["", "abc", "-3", "1.2.3", "3/", "/4", "1/-2", "1e3"])
    def test_malformed_strings(self, bad):
        with pytest.raises(ValueError):
            exact_boundary(bad)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            exact_boundary("3/0")

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            exact_boundary(52.5)

    def test_bool_refused(self):
        with pytest.raises(TypeError):
            exact_boundary(True)

    def test_negative_refused(self):
        with pytest.raises(ValueError):
            exact_boundary(Fraction(-1, 2))


class TestSieveOracle:
    def test_first_interval_of_four_primes(self):
        assert count_by_sieve(B4, 35).value == 8

    def test_empty_range(self):
        assert count_by_sieve(B4, 0).value == 0
        assert count_by_sieve(B4, "0.9").value == 0

    def test_half_integer_boundary(self):
        assert count_by_sieve(B4, "52.5").value == 12

    def test_cap(self):
        with pytest.raises(CapacityError):
            count_by_sieve(B4, 10**9, cap=10**6)

    def test_a_cap_past_the_index_range_still_refuses(self):
        with pytest.raises(CapacityError,
                           match="the most integers the oracle scans under any cap"):
            count_by_sieve(B4, sys.maxsize, cap=10**30)

    def test_method_tag(self):
        assert count_by_sieve(B4, 10).method == "oracle"


class TestLegendre:
    def test_full_wave(self):
        assert count_legendre(B4, 210).value == 48

    def test_empty_basis_floor(self):
        assert count_legendre(make_prime_basis(0), "17.3").value == 17

    def test_ten_prime_wave(self):
        basis = make_prime_basis(10)
        assert count_legendre(basis, 6469693230).value == 1021870080

    def test_matches_oracle_at_awkward_boundaries(self):
        for x in ("0", "1", "6/7", "29", "30", "209", "210", "1050.5"):
            assert count_legendre(B3, x).value == oracle_count((2, 3, 5), Fraction(exact_boundary(x)))


class TestMeissel:
    def test_two_waves_of_six(self):
        assert count_meissel(B4, 70).value == 16

    def test_single_modulus(self):
        assert count_meissel(make_basis([2]), 9).value == 5  # 1,3,5,7,9

    def test_three_intervals(self):
        assert count_meissel(B4, 105).value == 24

    @pytest.mark.parametrize("setting", sorted(MEMO_SETTINGS))
    def test_more_moduli_than_the_recursion_limit(self, setting):
        # Moduli above x strike nothing, so the peel never descends through
        # them one frame each, with the memo on or off.
        basis = make_prime_basis(1200)
        want = count_by_sieve(basis, 10**5).value
        with patch.multiple(counting, **MEMO_SETTINGS[setting]):
            assert count_meissel(basis, 10**5).value == want
            assert count_generalized_meissel(basis, 2, 10**5).value == want

    def test_recursion_identity(self):
        x = Fraction(421, 3)
        rest = B4.without(7)
        assert count_meissel(B4, x).value == (
            count_meissel(rest, x).value - count_meissel(rest, x / 7).value)


class TestGeneralizedMeissel:
    def test_drop_middle_modulus(self):
        assert count_generalized_meissel(B4, 5, "52.5").value == 12
        # the two sides of the peel, frozen from the trial-division oracle
        rest = B4.without(5)
        assert count_meissel(rest, "52.5").value == 14
        assert count_meissel(rest, "10.5").value == 2

    def test_drop_largest_agrees(self):
        assert count_generalized_meissel(B4, 7, 210).value == 48

    def test_drop_smallest(self):
        assert count_generalized_meissel(B3, 2, 30).value == 8

    def test_every_drop_choice(self):
        for drop in B4:
            assert count_generalized_meissel(B4, drop, "1234/7").value == \
                count_meissel(B4, "1234/7").value

    def test_absent_drop_rejected(self):
        with pytest.raises(ValueError):
            count_generalized_meissel(B4, 11, 100)


class TestPeriodicReduction:
    def test_two_full_waves(self):
        assert count_periodic(B4, 420).value == 96

    def test_wave_plus_fragment(self):
        assert count_periodic(B4, 245).value == oracle_count((2, 3, 5, 7), 245) == 56

    def test_near_wave_end(self):
        # 209 = 7 * 30 - 1 lands one short of a wave boundary; 209 itself
        # survives, so the count is a full 7 * 8 with nothing removed.
        assert count_periodic(B3, 209).value == oracle_count((2, 3, 5), 209) == 56

    def test_huge_argument(self):
        k = 10**30
        assert count_periodic(B4, k * 210 + 35).value == k * 48 + 8


@st.composite
def basis_and_boundary(draw):
    moduli = draw(st.sampled_from([
        (), (2,), (2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 5, 7), (5, 11),
        (2, 3, 5, 7, 11, 13), (20, 2783), (4, 9, 25), (6, 35),
    ]))
    den = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 10]))
    num = draw(st.integers(0, 2000 * den))
    return moduli, Fraction(num, den)


@settings(max_examples=60, deadline=None)
@given(basis_and_boundary())
def test_all_methods_agree_with_oracle(case):
    moduli, x = case
    basis = make_basis(moduli) if moduli else make_prime_basis(0)
    expected = oracle_count(moduli, x)
    assert count_by_sieve(basis, x).value == expected
    assert count_legendre(basis, x).value == expected
    assert count_meissel(basis, x).value == expected
    assert count_periodic(basis, x).value == expected
    for drop in moduli:
        assert count_generalized_meissel(basis, drop, x).value == expected


# Bases for the integer phi kernel behind meissel, generalized_meissel,
# periodic_reduction and subdivision.  Its survivor table may take the
# smallest moduli while their product stays within 2^16: all of the first
# line's bases, a prefix of the second's, and nothing of (65537, 65539).
KERNEL_BASES = [
    (2,), (2, 3, 5, 7), (2, 3, 5, 7, 11, 13), (4, 9, 25, 7), (20, 2783),
    (2, 3, 5, 7, 11, 13, 17, 19), (3, 7, 11, 13, 23), (5, 11, 17, 29, 31, 37),
    (4, 9, 25, 7, 11, 13, 17), (2, 3, 65537),
    (65537, 65539),
]
ORACLE_REACH = 2 * 10**4


@st.composite
def kernel_case(draw):
    """(moduli, m, k, y, waves): x = waves * period + y, y within a few
    units of k * period / (m - 1); k = 0 gives 0 <= y <= 3."""
    moduli = draw(st.sampled_from(KERNEL_BASES))
    m = draw(st.sampled_from(moduli))
    k = draw(st.integers(0, m - 1))
    den = draw(st.sampled_from([1, 1, 2, 3, 7, 10]))
    delta = Fraction(draw(st.integers(-3 * den, 3 * den)), den)
    y = max(Fraction(0), Fraction(k * prod(moduli), m - 1) + delta)
    waves = draw(st.sampled_from([0, 0, 0, 1, 10**6, 10**30]))
    return moduli, m, k, y, waves


@settings(max_examples=150, deadline=None)
@given(kernel_case())
# An equal-count boundary of six primes, which cycles.uniform_counts never
# draws at depth small
@example(((2, 3, 5, 7, 11, 13), 13, 5, Fraction(5 * 30030, 12), 0))
# Each modulus is one more than the product of those below it, so a residue
# modulo one period can reach the period below: 3 * P + 1806 reduces to
# 1806, and 1806 = 2 * 3 * 7 * 43, the period of the moduli <= 1806, to 0.
@example(((2, 3, 7, 43, 1807), 1807, 1, Fraction(1806), 3))
def test_kernel_routes_match_oracle_and_legendre(case):
    moduli, m, k, y, waves = case
    basis = make_basis(moduli)
    x = waves * basis.period + y
    expected = waves * basis.survivor_count + count_near_subdivision(moduli, m, k, y)
    if x <= ORACLE_REACH:
        assert oracle_count(moduli, x) == expected
        assert count_by_sieve(basis, x).value == expected
    assert count_legendre(basis, x).value == expected
    assert count_meissel(basis, x).value == expected
    assert count_periodic(basis, x).value == expected
    for drop in moduli:
        assert count_generalized_meissel(basis, drop, x).value == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([
    ((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37), 13),
    ((4, 9, 25, 7, 11, 13, 17, 19, 23, 29, 31, 37), 13),
    ((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43), 13),
    (make_prime_basis(60).moduli, 6),
]), st.integers(0, 10**6), st.integers(3, 13), st.sampled_from([1, 2, 7]))
def test_kernel_matches_legendre_anywhere(case, num, digits, den):
    # x anywhere up to 10^13 on a log scale, for twelve or more moduli:
    # where x is far below the period most peels take the shortcut past
    # moduli above their argument.
    moduli, max_digits = case
    basis = make_basis(moduli)
    x = Fraction(num * 10**min(digits, max_digits) // 10**6, den)
    expected = count_legendre(basis, x).value
    if x <= 10**6:
        assert count_by_sieve(basis, x).value == expected
    assert count_meissel(basis, x).value == expected
    assert count_periodic(basis, x).value == expected
    drop = moduli[num % len(moduli)]
    assert count_generalized_meissel(basis, drop, x).value == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_subdivision_matches_oracle_and_legendre(data):
    # Moduli above 2^16 would mean 65536 intervals per example.
    moduli = data.draw(st.sampled_from([b for b in KERNEL_BASES if max(b) < 2**16]))
    m = data.draw(st.sampled_from(moduli))
    basis = make_basis(moduli)
    report = subdivision(basis, m)
    assert len(report.intervals) == m - 1
    if m <= 64:
        checked = report.intervals
    else:
        ks = data.draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=8))
        checked = [report.intervals[k - 1] for k in ks]
    for iv in checked:
        assert iv.boundary == Fraction(iv.index * basis.period, m - 1)
        assert iv.cumulative_count == count_legendre(basis, iv.boundary).value
        if iv.boundary <= ORACLE_REACH:
            assert iv.cumulative_count == oracle_count(moduli, iv.boundary)


def table_sizes(moduli):
    """Every table prefix c the ceiling allows: 0 up to the longest prefix
    of ``moduli`` whose product is at most _TABLE_LIMIT."""
    c = 0
    while c < len(moduli) and prod(moduli[:c + 1]) <= _TABLE_LIMIT:
        c += 1
    return range(c + 1)


@settings(max_examples=100, deadline=None)
@given(kernel_case(), st.integers(1, 10**6))
def test_every_table_size_matches_oracle_and_legendre(case, drop_seed):
    # The counts of one kernel may not depend on how many moduli its table
    # resolves; a second, smaller n in the same call reads the same table.
    moduli, m, k, y, waves = case
    basis = make_basis(moduli)
    x = waves * basis.period + y
    expected = waves * basis.survivor_count + count_near_subdivision(moduli, m, k, y)
    if x <= ORACLE_REACH:
        assert oracle_count(moduli, x) == expected
    assert count_legendre(basis, x).value == expected
    n = floor(x)
    d = moduli[drop_seed % len(moduli)]
    ns = [n, n // d]
    expected_struck = count_legendre(basis, n // d).value
    # A ceiling of P_c and no price on entries force a table of c moduli,
    # or of all k that strike anything in the residues the kernel walks.
    walked = kernel_args(basis.moduli, ns)[0]
    strikes = bisect_right(basis.moduli, max(walked))
    for c in table_sizes(basis.moduli):
        with patch.multiple(counting, _TABLE_LIMIT=prod(basis.moduli[:c]),
                            _ENTRIES_PER_LEAF=1 << 64):
            assert kernel_table(basis.moduli, ns)[0] == min(c, strikes)
            # The kernel takes ascending moduli, as every public route passes them.
            assert _floor_counts(basis.moduli, ns) == [expected, expected_struck]


def kernel_args(moduli, ns):
    """The arguments ``_floor_counts`` hands to ``_phi`` when it counts
    ``ns``; the walk itself is skipped."""
    with patch.object(counting, "_phi", return_value=[]) as phi:
        _floor_counts(moduli, ns)
    return phi.call_args.args


def kernel_table(moduli, ns):
    """(c, entries): how many moduli the kernel's table covers when it
    counts ``ns``, and how many entries it has."""
    _, _, c, _, _, cum, _ = kernel_args(moduli, ns)
    return c, len(cum)


def table_period(moduli, ns):
    return prod(moduli[:kernel_table(moduli, ns)[0]])


class TestTableRule:
    """The table takes each modulus whose entries stay within
    _ENTRIES_PER_LEAF per node it removes, the fewer of the leaves below
    its level and the residues estimated there, up to _TABLE_LIMIT."""

    def test_shallow_query_builds_a_smaller_table(self):
        # 12 primes near P/2 walk a peel of a few hundred leaves: the
        # 30030-entry table the ceiling allows would cost more than it saves.
        moduli = make_prime_basis(12).moduli
        assert 1 < table_period(moduli, [prod(moduli) // 2]) < 30030

    @pytest.mark.parametrize("moduli, n", [
        # Random points below the period, where no level keeps a memo and
        # the table does the most.  One entry per leaf would stop 20
        # primes at 2310 and walk twice the leaves.
        (make_prime_basis(22).moduli, 1199543583607360214466015606207),
        (make_prime_basis(20).moduli, 491355798804200279293287319),
    ])
    def test_deep_query_keeps_the_full_table(self, moduli, n):
        assert table_period(moduli, [n]) == 30030

    @pytest.mark.parametrize("m, K", [(97, 5), (97, 32), (13, 5)])
    def test_rational_point_builds_a_smaller_table(self, m, K):
        # At K * P / (m - 1) over 25 primes the memo leaves about m
        # residues per level: the 30030 entries the leaves alone would buy
        # cost more than the walk they save.
        basis = make_prime_basis(25)
        assert 1 < table_period(basis.moduli, [K * basis.period // (m - 1)]) < 30030

    def test_far_below_the_period_keeps_the_full_table(self):
        assert table_period(make_prime_basis(100).moduli, [10**9]) == 30030

    def test_more_boundaries_justify_a_larger_table(self):
        moduli = (4, 7, 9, 11, 13, 17, 19, 23, 29, 31)
        boundaries = [k * prod(moduli) // 30 for k in range(1, 31)]
        assert table_period(moduli, boundaries) > table_period(moduli, boundaries[-1:])

    @pytest.mark.parametrize("moduli, ns", [
        (make_prime_basis(40).moduli, [10**60]),
        ((65537, 65539), [10**12]),
        ((2, 3, 65537), [10**12]),
        (make_prime_basis(12).moduli, [0]),
        (make_prime_basis(12).moduli, []),
        (make_prime_basis(12).moduli, [30]),
    ])
    def test_stays_within_the_ceiling_and_below_max_n(self, moduli, ns):
        c, _ = kernel_table(moduli, ns)
        assert prod(moduli[:c]) <= _TABLE_LIMIT
        assert all(m <= max(ns, default=0) for m in moduli[:c])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30),
           st.lists(st.one_of(st.integers(0, 300), st.integers(0, 10**7),
                              st.integers(0, 10**40)), min_size=1, max_size=40))
    # the entries of the last modulus taken are exactly the bound
    @example(3, [15])
    @example(7, [127])
    def test_entries_stay_within_the_bound_per_leaf_removed(self, size, ns):
        moduli = make_prime_basis(size).moduli
        # The rule sees the residues the walk is given: each n reduced by
        # the period of the moduli <= n, until it falls below that period.
        walked, _, c, _, _, cum, _ = kernel_args(moduli, ns)
        entries = len(cum)
        top = max(walked)
        k = bisect_right(moduli, top)
        assert len(walked) == len(ns) and top < prod(moduli[:k])
        assert c <= k
        assert entries == min(prod(moduli[:c]), top + 1)
        if c > 0:  # the last modulus taken, moduli[c - 1], removes these
            assert entries <= _ENTRIES_PER_LEAF * (len(ns) << (k - c))
        if c < k:  # and the next one would break the ceiling or the rule
            period = prod(moduli[:c + 1])
            # Each bound on the residues of a level is at least the fewer of
            # P_a and len(ns) + 1, so a table that stops short of the leaves'
            # rule had more entries than that to pay for.
            assert (period > _TABLE_LIMIT
                    or min(period, top + 1)
                    > _ENTRIES_PER_LEAF * min(len(ns) << (k - c - 1), len(ns) + 1))


@pytest.mark.parametrize("m, k", [(97, 32), (13, 5)])
def test_meissel_closed_form_at_25_primes(m, k):
    # Out of reach of plain inclusion-exclusion (about 2^25 terms).
    basis = make_prime_basis(25)
    expected = k * prod(v - 1 for v in basis if v != m)
    assert count_meissel(basis, Fraction(k * basis.period, m - 1)).value == expected


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


DIFFERENTIAL_BASES = [PRIMES[:k] for k in (1, 2, 3, 5, 8, 11, 14, 16, 18)] + [
    (4, 9, 25), (20, 2783), (4, 7, 9, 11, 13, 17, 25), (6, 35, 143, 323),
    (4, 7, 9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43),
]


@st.composite
def rational_point(draw, bases):
    """(moduli, n): n = u * P / v + d for v < 40 and |d| < 50, where the
    peel repeats residues, or anywhere in [0, 3P), where it does not."""
    moduli = draw(st.sampled_from(bases))
    period = prod(moduli)
    if draw(st.booleans()):
        v = draw(st.integers(1, 39))
        n = draw(st.integers(0, 3 * v)) * period // v + draw(st.integers(-49, 49))
    else:
        n = draw(st.integers(0, 3 * period - 1))
    return moduli, max(n, 0)


def kernel_against_legendre(moduli, ns, setting):
    expected = [_legendre(moduli, y) for y in ns]
    for y, want in zip(ns, expected):
        if y <= ORACLE_REACH:
            assert oracle_count(moduli, y) == want
    with patch.multiple(counting, **MEMO_SETTINGS[setting]):
        assert _floor_counts(moduli, ns) == expected


@settings(max_examples=150, deadline=None)
@given(rational_point(DIFFERENTIAL_BASES), st.sampled_from(sorted(MEMO_SETTINGS)))
def test_kernel_matches_legendre_at_rational_and_random_points(case, setting):
    moduli, n = case
    # Two ns in one call share one memo.
    kernel_against_legendre(moduli, [n, n // moduli[-1]], setting)


@settings(max_examples=5, deadline=None)
@given(rational_point([PRIMES[:16] + (59, 61, 67, 71), make_prime_basis(22).moduli]),
       st.sampled_from(sorted(MEMO_SETTINGS)))
def test_kernel_matches_legendre_at_20_and_22_primes(case, setting):
    moduli, n = case
    kernel_against_legendre(moduli, [n], setting)


def test_memo_is_not_shared_between_calls():
    # Same table, same n, a different modulus at level 7: any node kept
    # from the first basis would miscount the second.
    first = PRIMES[:12]
    second = PRIMES[:6] + PRIMES[7:13]
    for moduli in (first, second, first):
        assert _floor_counts(moduli, [10**6]) == [_legendre(moduli, 10**6)]


@pytest.mark.parametrize("k, m, K, delta", [
    (100, 3, 1, 0), (100, 97, 32, -7), (100, 541, 300, 11), (100, 2, 1, -1),
    (1000, 3, 1, 2), (1000, 13, 5, 4), (1000, 97, 48, -3), (1000, 7919, 3959, 0),
])
def test_closed_form_at_100_and_1000_primes(k, m, K, delta):
    # Far out of reach of inclusion-exclusion; the independent route is the
    # equal-count law plus trial division of the gap.  The peel nests up to
    # k levels deep, past Python's default recursion limit of 1000 frames.
    basis = make_prime_basis(k)
    x = Fraction(K * basis.period, m - 1) + delta
    expected = count_near_subdivision(basis.moduli, m, K, x)
    assert count_meissel(basis, x).value == expected
    assert count_periodic(basis, 5 * basis.period + x).value == \
        5 * basis.survivor_count + expected
    assert count_generalized_meissel(basis, m, x).value == expected


def test_subdivision_of_100_primes():
    # subdivision checks its own equal-count law at all 96 boundaries.
    report = subdivision(make_prime_basis(100), 97)
    assert len(report.intervals) == 96


@contextmanager
def finishes_within(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k, m", [(35, 149), (120, 659)])
def test_subdivision_by_the_largest_prime_finishes(k, m):
    # Residues repeat here only after thousands of stores: a memo judged by
    # its first hits gives up, and the walk falls back to the 2^k peel.
    # Theorem 3 gives every count.
    basis = make_prime_basis(k)
    with finishes_within(5):
        report = subdivision(basis, m)
    step = basis.without(m).survivor_count
    assert [iv.cumulative_count for iv in report.intervals] == [K * step for K in range(1, m)]


def test_whole_periods_above_a_far_residue_finish():
    # K * P + 10^12 over 30 primes: the residue lies far below P and near
    # no point u * P / v of small v, so only the reduction by P itself
    # shrinks the walk; without it no level pays for a memo there.
    basis = make_prime_basis(30)
    r = 10**12
    below = count_legendre(basis, r).value
    with finishes_within(5):
        for K in (1, 7):
            assert count_periodic(basis, K * basis.period + r).value == \
                K * basis.survivor_count + below


def memo_plan(moduli, ns):
    """(c, on): the moduli in the kernel's table, and the levels above it
    that ``_plan`` gives a memo when the kernel counts ``ns``."""
    _, _, c, _, _, _, memo = kernel_args(moduli, ns)
    return c, [a for a, level in enumerate(memo) if level is not None]


class TestMemoRule:
    @pytest.mark.parametrize("k, m, K", [(25, 13, 5), (25, 97, 32), (100, 97, 32)])
    def test_every_level_above_the_table_at_a_subdivision_point(self, k, m, K):
        basis = make_prime_basis(k)
        c, on = memo_plan(basis.moduli, [K * basis.period // (m - 1)])
        assert on == list(range(c + 1, k))

    @pytest.mark.parametrize("seed", range(5))
    def test_no_level_at_a_random_point_of_22_primes(self, seed):
        # Near P no residue repeats: 2^(22 - a) visits to level a against
        # P_a residues, and no rational point with a small denominator.
        basis = make_prime_basis(22)
        n = random.Random(seed).randrange(basis.period // 2, basis.period)
        assert memo_plan(basis.moduli, [n])[1] == []

    def test_low_levels_far_below_the_period(self):
        # floor(10^10 / d) takes at most 2 * 10^5 values, far fewer than the
        # visits to the low levels of 100 primes; the top few get too few.
        moduli = make_prime_basis(100).moduli
        c, on = memo_plan(moduli, [10**10])
        assert set(range(c + 1, 80)) <= set(on)
        assert 99 not in on


# Legendre's flat table of signed products and its walk over the larger
# moduli, against the conftest oracles and an unpruned subset sum.
LEGENDRE_BASES = [PRIMES[:k] for k in range(len(PRIMES) + 1)] + [
    (4, 9, 25), (20, 2783), (4, 7, 9, 11, 13, 17, 25),
    (4, 7, 9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 53),
]


def unpruned_legendre(moduli, n: int) -> int:
    """Signed sum of n // prod(s) over every subset s of ``moduli``."""
    return sum((-1) ** r * (n // prod(s))
               for r in range(len(moduli) + 1) for s in combinations(moduli, r))


@st.composite
def legendre_case(draw):
    """(moduli, n): n small, anywhere up to 3 * period, or within one of a
    product of some of the moduli, where a table entry or a walk quotient
    equals its bound exactly."""
    moduli = draw(st.sampled_from(LEGENDRE_BASES))
    period = prod(moduli)
    product = prod(draw(st.sets(st.sampled_from(moduli))) if moduli else ())
    n = draw(st.one_of(
        st.integers(0, 64),
        st.integers(0, 3 * period),
        st.integers(0, 3000).map(lambda q: q * period // 1000),
        st.integers(max(0, product - 1), product + 1),
    ))
    return moduli, n


@settings(max_examples=120, deadline=None)
@given(legendre_case())
def test_legendre_matches_the_oracles(case):
    moduli, n = case
    got = _legendre(moduli, n)
    assert got == oracle_legendre(moduli, n)
    if n <= ORACLE_REACH:
        assert got == oracle_count(moduli, n)
    if len(moduli) <= 12:
        assert got == unpruned_legendre(moduli, n)


@pytest.mark.parametrize("moduli", [PRIMES[:12], LEGENDRE_BASES[-1]])
def test_legendre_at_every_product_of_one_or_two_moduli(moduli):
    # At such an n a table entry or a walk quotient equals its bound.
    for r in (1, 2):
        for s in combinations(moduli, r):
            assert _legendre(moduli, prod(s)) == oracle_count(moduli, prod(s))


@pytest.mark.parametrize("moduli, n", [
    (PRIMES[:8], 10**6), (PRIMES[:8], 30), ((4, 7, 9, 11, 13, 17, 25), 10**5),
])
def test_signed_products_table(moduli, n):
    t, pos, neg = _signed_products(moduli, n)
    assert t == len(moduli)
    subsets = [s for r in range(t + 1) for s in combinations(moduli, r)]
    assert pos == sorted(prod(s) for s in subsets if len(s) % 2 == 0 and prod(s) <= n)
    assert neg == sorted(prod(s) for s in subsets if len(s) % 2 == 1 and prod(s) <= n)


@pytest.mark.parametrize("k, m, K", [(18, 61, 20), (18, 7, 5), (20, 71, 23), (20, 3, 1)])
def test_legendre_closed_form_at_18_and_20_primes(k, m, K):
    # f(K * P / (m - 1)) is K whole intervals of prod(m' - 1, m' != m).
    moduli = PRIMES[:16] + (59, 61, 67, 71)[:k - 16]
    expected = K * prod(v - 1 for v in moduli if v != m)
    assert _legendre(moduli, K * prod(moduli) // (m - 1)) == expected


def test_legendre_table_stops_at_the_ceiling_and_walks_the_rest():
    # 1000 primes at 10^6: the split asks for 502 table moduli, but the
    # ceiling stops the table after 61, and the other 939 are walked.
    # The 1000th prime is 7919 and 7927^2 > 10^6, so the survivors are 1
    # and the primes in (7919, 10^6]: 1 + pi(10^6) - 1000.
    moduli = make_prime_basis(1000).moduli
    t, pos, neg = _signed_products(moduli[:502], 10**6)
    assert (t, len(pos) + len(neg)) == (61, 64497)
    assert _legendre(moduli, 10**6) == 1 + 78498 - 1000


# Each walk node of Legendre's sum is reduced modulo its table's period Q.
# From one digit of a CPython int on, where the table would hold every
# product of its moduli, it stops before Q reaches one digit.  The prefix
# products of the first two bases are 2^30 - 1 and 2^30 + 1, and the third
# starts with 2^30: the edges of that rule on 30-bit digits.  For the first
# 16 primes the rule switches at the product of the first ten.
ONE_DIGIT = 1 << sys.int_info.bits_per_digit
TEN_PRIMES = prod(PRIMES[:10])
CYCLE_BASES = LEGENDRE_BASES + [
    (7, 9, 11, 31, 151, 331, 337, 347),
    (13, 25, 41, 61, 1321, 1327),
    (1 << 30, (1 << 30) + 3),
]


def legendre_table(moduli, n):
    """(t, Q, phi): the moduli in the table ``_legendre`` builds at n, their
    product and the table's sum at it, as handed to the walk."""
    calls = []
    with patch.object(counting, "_legendre_walk", lambda *args: calls.append(args) or 0):
        _legendre(moduli, n)
    [(_, rest, _, period, phi, _, _)] = calls
    return bisect_right(moduli, n) - len(rest), period, phi


@st.composite
def cycle_edge_case(draw):
    """(moduli, n): n at j * Q + e or D * j * Q + e for e in {-1, 0, 1}, Q
    a product of the smallest moduli and D one of the others, or at one
    digit + e."""
    moduli = draw(st.sampled_from(CYCLE_BASES))
    t = draw(st.integers(0, len(moduli)))
    walked = draw(st.sets(st.sampled_from(moduli[t:]))) if t < len(moduli) else ()
    j = draw(st.integers(1, 3))
    e = draw(st.integers(-1, 1))
    n = draw(st.sampled_from([j * prod(moduli[:t]), prod(walked) * j * prod(moduli[:t]),
                              ONE_DIGIT]))
    return moduli, max(0, n + e)


@settings(max_examples=150, deadline=None)
@given(cycle_edge_case())
@example((CYCLE_BASES[-3], ONE_DIGIT - 1))
@example((CYCLE_BASES[-3], 2 * ONE_DIGIT - 1))
@example((CYCLE_BASES[-2], ONE_DIGIT + 1))
@example((CYCLE_BASES[-2], 3 * 1327 * (ONE_DIGIT + 1) - 1))
@example((CYCLE_BASES[-1], ONE_DIGIT + 1))
@example((PRIMES[:16], TEN_PRIMES - 1))
@example((PRIMES[:16], TEN_PRIMES))
@example((PRIMES[:16], TEN_PRIMES + 1))
def test_legendre_at_the_edges_of_its_cycle(case):
    moduli, n = case
    got = _legendre(moduli, n)
    assert got == oracle_legendre(moduli, n)
    if n <= ORACLE_REACH:
        assert got == oracle_count(moduli, n)
    if len(moduli) <= 12:
        assert got == unpruned_legendre(moduli, n)


@pytest.mark.parametrize("moduli", [PRIMES[:16], CYCLE_BASES[-3], CYCLE_BASES[-2],
                                    LEGENDRE_BASES[-1]])
@pytest.mark.parametrize("n", [1, 30, 10**6, 30030 * 7, ONE_DIGIT - 1])
def test_legendre_table_below_one_digit(moduli, n):
    # below one digit the table takes the smallest k/2 + 2 moduli, cut at
    # n and at the ceiling, as it always has
    k = bisect_right(moduli, n)
    t, period, phi = legendre_table(moduli, n)
    assert t == _signed_products(moduli[:min(k, k // 2 + 2)], n)[0]
    assert period == prod(moduli[:t])
    if period <= n:
        assert phi == prod(m - 1 for m in moduli[:t])


@pytest.mark.parametrize("moduli, n", [
    (PRIMES[:16], ONE_DIGIT),
    (PRIMES[:16], TEN_PRIMES - 1),
    (CYCLE_BASES[-2], ONE_DIGIT),  # 2^30 + 1 > n
    (CYCLE_BASES[-1], 3 * ONE_DIGIT + 7),
    (LEGENDRE_BASES[-1], 10**11),
])
def test_legendre_table_cut_at_n_keeps_its_rule(moduli, n):
    # from one digit on too, a table cut at n keeps the k/2 + 2 rule: a
    # smaller one would only add walk calls
    k = bisect_right(moduli, n)
    t, period, phi = legendre_table(moduli, n)
    assert t == _signed_products(moduli[:min(k, k // 2 + 2)], n)[0]
    assert period == prod(moduli[:t]) > n
    assert phi == 0


@pytest.mark.skipif(ONE_DIGIT != 1 << 30, reason="the expected tables assume 30-bit digits")
@pytest.mark.parametrize("moduli, n, expected", [
    (PRIMES[:16], TEN_PRIMES, 9),  # ten would hold every product
    (PRIMES[:16], 10**40, 9),
    (PRIMES[:12], 10**12, 8),  # k/2 + 2 stops it first
    (CYCLE_BASES[-3], ONE_DIGIT, 6),  # 2^30 - 1
    (CYCLE_BASES[-2], ONE_DIGIT + 1, 4),  # the fifth brings 2^30 + 1
    (LEGENDRE_BASES[-1], 10**20, 8),
])
def test_legendre_table_from_one_digit_on(moduli, n, expected):
    t, period, phi = legendre_table(moduli, n)
    assert t == expected
    assert period == prod(moduli[:t]) < ONE_DIGIT
    assert phi == prod(m - 1 for m in moduli[:t])


class TestAscendingModuli:
    """Both exact counters prune on ascending moduli and reject any other
    order rather than miscount."""

    def test_legendre(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _legendre((7, 2, 3), 5)
        assert _legendre((2, 3, 7), 5) == oracle_count((7, 2, 3), 5) == 2

    def test_kernel(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _floor_counts((4, 9, 25, 7, 11, 13, 17), [25525])
        assert _floor_counts((4, 7, 9, 11, 13, 17, 25), [25525]) == \
            [oracle_count((4, 9, 25, 7, 11, 13, 17), 25525)] == [11055]


class TestReflection:
    def test_strict_count_drops_survivor_boundary(self):
        assert count_strictly_below(B3, 7) == 1   # only 1 below 7
        assert count_legendre(B3, 7).value == 2   # 1 and 7
        assert count_strictly_below(B3, Fraction(15, 2)) == 2  # non-integer: same as f

    def test_corrected_law_where_literal_form_fails(self):
        # basis {2}, x = 1: the survivor boundary that breaks the naive
        # minus rule (1 - f(1) = 0, yet f(2 - 1) = 1).
        basis = make_basis([2])
        assert count_legendre(basis, 1).value == 1
        assert count_strictly_below(basis, 1) == 0
        assert count_legendre(basis, 2 - 1).value == \
            basis.survivor_count - count_strictly_below(basis, 1)

    @pytest.mark.parametrize("x", [1, 13, 17, Fraction(1001, 10), 30029, 30030])
    def test_corrected_law_at_six_primes(self, x):
        # count.reflection draws at most five primes at depth small
        basis = make_prime_basis(6)
        assert count_legendre(basis, basis.period - x).value == \
            basis.survivor_count - count_strictly_below(basis, x)

    def test_non_survivor_boundaries_match_naive_form(self):
        # where x is not a survivor the literal minus rule already works
        for x in (4, 6, 10, Fraction(15, 2)):
            assert count_legendre(B3, 30 - x).value == \
                8 - count_legendre(B3, x).value


class TestEulerPhi:
    def test_primorial(self):
        assert euler_phi(210) == 48

    def test_one(self):
        assert euler_phi(1) == 1

    def test_composite_with_square_factors(self):
        # 55660 = 2^2 * 5 * 11^2 * 23
        brute = sum(1 for k in range(1, 55661) if gcd(k, 55660) == 1)
        assert euler_phi(55660) == brute == 19360

    def test_cap(self):
        with pytest.raises(CapacityError):
            euler_phi(10**13)

    def test_non_positive(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_distinct_prime_factors(self):
        assert distinct_prime_factors(55660) == (2, 5, 11, 23)
        assert distinct_prime_factors(1) == ()
        assert distinct_prime_factors(97) == (97,)


class TestPhiIdentity:
    def test_primorial_bridge(self):
        assert phi_identity_check(210)

    def test_one(self):
        assert phi_identity_check(1)

    def test_first_five_hundred(self):
        assert all(phi_identity_check(x) for x in range(1, 501))
