import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import child_env, oracle_count

from sievecycles import (
    count_legendre,
    cycle_table,
    format_exact,
    make_basis,
    make_prime_basis,
    subdivision,
    subdivision_boundary_check,
    total_intervals,
)

B3 = make_prime_basis(3)
B4 = make_prime_basis(4)


class TestSubdivision:
    def test_six_intervals_of_35(self):
        report = subdivision(B4, 7)
        assert report.interval_length == 35
        assert len(report.intervals) == 6
        assert [iv.cumulative_count for iv in report.intervals] == \
            [8, 16, 24, 32, 40, 48]
        assert all(iv.per_interval_count == 8 for iv in report.intervals)

    def test_four_intervals_of_52_5(self):
        report = subdivision(B4, 5)
        assert report.interval_length == Fraction(105, 2)
        assert [iv.cumulative_count for iv in report.intervals] == [12, 24, 36, 48]
        assert all(iv.per_interval_count == 12 for iv in report.intervals)

    def test_three_prime_basis_chosen_five(self):
        report = subdivision(B3, 5)
        assert report.interval_length == Fraction(15, 2)
        assert [str(iv.boundary) for iv in report.intervals] == \
            ["15/2", "15", "45/2", "30"]
        # oracle counts at 7.5, 15, 22.5, 30
        assert [iv.cumulative_count for iv in report.intervals] == \
            [oracle_count((2, 3, 5), Fraction(15 * k, 2)) for k in (1, 2, 3, 4)] == \
            [2, 4, 6, 8]

    def test_degenerate_two(self):
        report = subdivision(B4, 2)
        assert len(report.intervals) == 1
        assert report.intervals[0].boundary == 210
        assert report.intervals[0].per_interval_count == 48

    def test_absent_modulus_rejected(self):
        with pytest.raises(ValueError):
            subdivision(B4, 11)

    def test_composite_basis(self):
        basis = make_basis([4, 9, 25])
        report = subdivision(basis, 9)
        assert len(report.intervals) == 8
        step = basis.without(9).survivor_count
        assert all(iv.per_interval_count == step for iv in report.intervals)


# The third boundary counted one too high: its interval holds one survivor
# too many and the next one too few, so the total is still right and only
# the per-interval check can tell.
_THIRD_BOUNDARY_HIGH = """
from unittest.mock import patch
from sievecycles import counting, cycles, make_prime_basis

def third_high(moduli, ns):
    counts = counting._floor_counts(moduli, ns)
    counts[2] += 1
    return counts

with patch.object(cycles, "_floor_counts", third_high):
    try:
        cycles.subdivision(make_prime_basis(4), 7)
    except AssertionError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_subdivision_catches_one_wrong_interval(flags):
    done = subprocess.run([sys.executable, *flags, "-c", _THIRD_BOUNDARY_HIGH],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "interval 3 of modulus 7 holds 9 survivors, not 8\n"


@pytest.mark.parametrize("moduli", [(2, 3, 5, 7), (4, 9, 25), (6, 35), (20, 2783)])
def test_table_rows_are_what_subdivision_counts(moduli):
    basis = make_basis(moduli)
    for row in cycle_table(basis):
        report = subdivision(basis, row.modulus)
        assert row.interval_count == len(report.intervals)
        assert row.interval_size == report.interval_length
        assert {row.survivors_per_interval} == \
            {iv.per_interval_count for iv in report.intervals}


class TestBoundaryCheck:
    def test_single_modulus(self):
        assert subdivision_boundary_check(make_basis([2]))

    def test_three_primes_with_oracle_values(self):
        assert subdivision_boundary_check(B3)
        # the instance behind it: f(30/4) = 2 = count of {2,3} up to 30/5
        assert count_legendre(B3, Fraction(15, 2)).value == 2
        assert count_legendre(make_basis([2, 3]), 6).value == 2

    def test_four_primes(self):
        assert subdivision_boundary_check(B4)
        assert count_legendre(B4, 35).value == 8 == count_legendre(B3, 30).value

    def test_various_bases(self):
        for moduli in [(2, 3), (3, 5, 7), (2, 3, 5, 7, 11), (20, 2783), (4, 9, 25)]:
            assert subdivision_boundary_check(make_basis(moduli))


class TestCycleTable:
    def test_ten_prime_distribution(self):
        rows = cycle_table(make_prime_basis(10))
        period = 6469693230
        want = {
            2: (1, Fraction(period, 1), 1021870080),
            3: (2, Fraction(period, 2), 510935040),
            5: (4, Fraction(period, 4), 255467520),
            7: (6, Fraction(period, 6), 170311680),
            11: (10, Fraction(period, 10), 102187008),
            13: (12, Fraction(period, 12), 85155840),
            17: (16, Fraction(period, 16), 63866880),
            19: (18, Fraction(period, 18), 56770560),
            23: (22, Fraction(period, 22), 46448640),
            29: (28, Fraction(period, 28), 36495360),
        }
        assert len(rows) == 10
        for row in rows:
            count, size, per = want[row.modulus]
            assert row.interval_count == count
            assert row.interval_size == size
            assert row.survivors_per_interval == per
        # spot values as plain numbers
        by_mod = {r.modulus: r for r in rows}
        assert by_mod[11].interval_size == 646969323
        assert by_mod[29].interval_size == Fraction(462120945, 2)  # 231060472.5
        assert by_mod[5].interval_size == Fraction(3234846615, 2)  # 1617423307.5

    def test_total_intervals(self):
        assert total_intervals(make_prime_basis(10)) == 119
        assert total_intervals(B4) == 1 + 2 + 4 + 6

    def test_empty_basis(self):
        assert cycle_table(make_prime_basis(0)) == ()
        assert total_intervals(make_prime_basis(0)) == 0


class TestFormatExact:
    @pytest.mark.parametrize("value,text", [
        (Fraction(6469693230), "6469693230"),
        (Fraction(6469693230, 2), "3234846615"),
        (Fraction(6469693230, 4), "1617423307.5"),
        (Fraction(6469693230, 16), "404355826.875"),
        (Fraction(6469693230, 18), "1078282205/3"),
        (Fraction(6469693230, 28), "231060472.5"),
        (Fraction(1, 20), "0.05"),
        (Fraction(1, 3), "1/3"),
        (Fraction(0), "0"),
        (7, "7"),
    ])
    def test_rendering(self, value, text):
        assert format_exact(value) == text
