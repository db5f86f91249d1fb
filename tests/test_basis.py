import time
from math import prod

import pytest
from conftest import oracle_survives

from sievecycles import (
    CapacityError,
    CoprimeBasis,
    build_wheel,
    extend_wheel,
    is_survivor,
    iter_survivors,
    killer_index,
    make_basis,
    make_prime_basis,
)
from sievecycles.basis import _SHOWN_DIGITS, _first_primes, _shown

# One full period of survivors for {2,3,5,7}; includes 109 and 137.
WHEEL4 = (
    1, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103,
    107, 109, 113, 121, 127, 131, 137, 139, 143, 149, 151, 157,
    163, 167, 169, 173, 179, 181, 187, 191, 193, 197, 199, 209,
)


class TestMakePrimeBasis:
    def test_first_four(self):
        assert make_prime_basis(4).moduli == (2, 3, 5, 7)

    def test_zero_is_empty(self):
        basis = make_prime_basis(0)
        assert basis.moduli == ()
        assert basis.period == 1
        assert basis.survivor_count == 1

    def test_first_ten(self):
        assert make_prime_basis(10).moduli == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_bootstrap_growth(self):
        primes = make_prime_basis(100).moduli
        assert len(primes) == 100
        assert primes[-1] == 541
        assert all(oracle_survives(primes[:i], primes[i]) for i in range(100))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_prime_basis(-1)

    def test_first_primes_against_trial_division(self):
        # Rounds end at 4^k; the 1900 primes below 4^7 = 16384 put the
        # edge of every round up to that one inside n = 0..2000.
        primes = [p for p in range(2, 17390)
                  if all(p % d for d in range(2, int(p**0.5) + 1))]
        assert len(primes) == 2000
        for n in range(2001):
            assert _first_primes(n) == tuple(primes[:n])


class TestMakeBasis:
    def test_composite_coprime(self):
        basis = make_basis([20, 2783])
        assert basis.moduli == (20, 2783)
        assert basis.period == 55660

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError, match=r"4 and 6.*gcd = 2"):
            make_basis([4, 6])

    @pytest.mark.parametrize("extra, pair", [
        (2 * 1987, "2 and 3974"), (1993 * 1997, "1993 and 3980021"), (4, "2 and 4"),
        (2 * 2003, "2 and 4006"),
    ])
    def test_shared_factor_named_in_a_large_basis(self, extra, pair):
        # The check meets the clash at the larger modulus; the error names
        # the first modulus sharing a factor with it, then it, and the gcd.
        # 4006 = 2 * 2003 clashes only with 2, in the other half of the basis.
        primes = make_prime_basis(302).moduli  # 2 .. 1997
        with pytest.raises(ValueError, match=rf"^moduli {pair} are not coprime \(gcd = \d+\)$"):
            make_basis(primes + (extra,))

    def test_several_clashes_name_the_first_one_met(self):
        # 9 is met before 10: 3 shares a factor with it, and 2 is coprime to it.
        with pytest.raises(ValueError, match=r"^moduli 3 and 9 are not coprime \(gcd = 3\)$"):
            make_basis([2, 3, 9, 10])

    def test_a_clash_after_10000_primes_is_named_at_once(self):
        # The 10,000th prime, 104729, and its square: the pairwise search
        # that once named them took 6.7-7.8 s on a 2-core x86-64 host.
        primes = _first_primes(10000)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^moduli 104729 and 10968163441 "
                                             r"are not coprime \(gcd = 104729\)$"):
            make_basis(primes + (104729**2,))
        assert time.perf_counter() - start < 1

    def test_40000_primes_are_checked_at_once(self):
        # Halves checked by one gcd of their products: 0.4-0.5 s on a
        # 2-core x86-64 host, against 4.0-4.6 s for a gcd per prime.
        start = time.perf_counter()
        basis = make_prime_basis(40000)
        assert basis.period % 479909 == 0  # the 40,000th prime
        assert time.perf_counter() - start < 2

    def test_small_primes(self):
        assert make_basis([5, 2, 3]).period == 30

    def test_deduplicates(self):
        assert make_basis([3, 2, 3]).moduli == (2, 3)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_basis([1, 3])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            make_basis([2.0, 3])

    def test_direct_construction_from_a_list_stores_a_tuple(self):
        basis = CoprimeBasis([2, 3, 5])
        assert type(basis.moduli) is tuple
        assert basis == make_prime_basis(3)
        assert hash(basis) == hash(make_prime_basis(3))

    def test_direct_construction_validates_order(self):
        with pytest.raises(ValueError):
            CoprimeBasis((3, 2))

    def test_without(self):
        assert make_basis([2, 3, 5]).without(3).moduli == (2, 5)
        with pytest.raises(ValueError):
            make_basis([2, 3]).without(7)

    def test_empty_basis_has_no_largest(self):
        assert make_basis([2, 3]).largest() == 3
        with pytest.raises(ValueError, match="empty basis has no largest modulus"):
            CoprimeBasis(()).largest()


class TestBuildWheel:
    def test_three_primes(self):
        wheel = build_wheel(make_prime_basis(3))
        assert wheel.period == 30
        assert wheel.residues == (1, 7, 11, 13, 17, 19, 23, 29)
        assert wheel.count == 8

    def test_four_primes_full_cycle(self):
        wheel = build_wheel(make_prime_basis(4))
        assert wheel.period == 210
        assert wheel.count == 48
        assert wheel.residues == WHEEL4

    def test_empty_basis(self):
        wheel = build_wheel(make_prime_basis(0))
        assert wheel.period == 1
        assert wheel.residues == (0,)
        assert wheel.count == 1

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            build_wheel(make_prime_basis(4), cap=100)

    def test_a_cap_past_the_index_range_still_refuses(self):
        # 17 primes: a period of 22 digits, past any residue tuple's index
        with pytest.raises(CapacityError, match="index"):
            build_wheel(make_prime_basis(17), cap=10**30)

    def test_count_formula_various(self):
        for moduli in [(2,), (2, 3), (2, 3, 5, 7, 11), (20, 2783), (4, 9, 25)]:
            wheel = build_wheel(make_basis(moduli))
            assert wheel.count == prod(m - 1 for m in moduli)


class TestIsSurvivor:
    def test_121_survives_four_primes(self):
        assert is_survivor(make_prime_basis(4), 121)

    def test_91_killed_by_seven(self):
        assert not is_survivor(make_prime_basis(4), 91)

    def test_empty_basis_keeps_zero(self):
        assert is_survivor(make_prime_basis(0), 0)

    def test_zero_dies_under_any_modulus(self):
        assert not is_survivor(make_basis([2]), 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_survivor(make_prime_basis(2), -3)


class TestExtendWheel:
    @pytest.mark.parametrize("moduli, m", [
        ((), 2), ((2,), 3), ((3,), 2), ((2, 3, 5), 7), ((2, 3, 5, 7), 11),
        ((3, 5, 7), 4), ((4, 9), 25), ((20,), 2783), ((8, 15), 7),
        # a class fits in a byte up to m = 256; a larger m strikes each row at
        # the indices of its class
        ((7, 13), 253), ((7, 11), 255), ((3, 5, 7), 256), ((9, 25), 256),
        ((3, 5), 257), ((4, 9), 259), ((3, 7), 263), ((3, 5), 1009),
        ((), 7), ((), 256), ((), 257),
    ])
    def test_matches_oracle_over_the_new_period(self, moduli, m):
        wheel = build_wheel(make_basis(moduli))
        grown = extend_wheel(wheel, m)
        want = tuple(x for x in range(wheel.period * m)
                     if oracle_survives(moduli + (m,), x))
        assert type(grown.residues) is tuple
        assert grown.residues == want
        assert grown.count == len(want)
        assert grown.period == wheel.period * m
        assert grown.basis == make_basis(moduli + (m,))

    def test_order_independent(self):
        a = extend_wheel(extend_wheel(build_wheel(make_basis([2, 3])), 5), 7)
        b = extend_wheel(build_wheel(make_basis([2, 3, 7])), 5)
        assert a.residues == b.residues
        assert a.basis == b.basis

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            extend_wheel(build_wheel(make_prime_basis(3)), 15)

    def test_a_modulus_already_in_the_basis_rejected(self):
        # make_basis drops the repeat; the period check refuses it.
        with pytest.raises(ValueError, match="3 shares a factor with the period 30"):
            extend_wheel(build_wheel(make_prime_basis(3)), 3)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            extend_wheel(build_wheel(make_prime_basis(3)), 7, cap=200)


class TestKillerIndex:
    def test_row_of_one(self):
        # 3 * 30 + 1 = 91 = 7 * 13
        assert killer_index(build_wheel(make_prime_basis(3)), 7, 1) == 3

    def test_row_of_seven(self):
        assert killer_index(build_wheel(make_prime_basis(3)), 7, 7) == 0

    @pytest.mark.parametrize("m", [7, 11, 13])
    def test_unique_kill_by_exhaustive_scan(self, m):
        wheel = build_wheel(make_prime_basis(3))
        for a in wheel.residues:
            hits = [k for k in range(m) if (k * 30 + a) % m == 0]
            assert hits == [killer_index(wheel, m, a)]

    def test_non_survivor_rejected(self):
        with pytest.raises(ValueError, match="not a survivor"):
            killer_index(build_wheel(make_prime_basis(3)), 7, 6)

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            killer_index(build_wheel(make_prime_basis(3)), 10, 1)


class TestIterSurvivors:
    def test_spans_waves(self):
        wheel = build_wheel(make_prime_basis(3))
        got = list(iter_survivors(wheel, 25, 95))
        want = [x for x in range(25, 96) if oracle_survives((2, 3, 5), x)]
        assert got == want

    def test_includes_zero_when_asked(self):
        wheel = build_wheel(make_prime_basis(0))
        assert list(iter_survivors(wheel, 0, 4)) == [0, 1, 2, 3, 4]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            list(iter_survivors(build_wheel(make_prime_basis(2)), 5, 4))


# --- structural properties ----------------------------------------------------

def test_symmetry_exhaustive_small():
    for moduli in [(2, 3, 5), (2, 3, 5, 7), (4, 9, 25)]:
        basis = make_basis(moduli)
        for a in range(1, basis.period):
            assert is_survivor(basis, a) == is_survivor(basis, basis.period - a)


def test_wheel_residues_match_oracle():
    for moduli in [(2,), (2, 3), (2, 3, 5), (3, 7), (4, 9, 25), (6, 35)]:
        wheel = build_wheel(make_basis(moduli))
        assert wheel.residues == tuple(
            r for r in range(wheel.period) if oracle_survives(moduli, r))


@pytest.mark.parametrize("digits", [1, 2, 17, _SHOWN_DIGITS, _SHOWN_DIGITS + 1, 400, 4000])
def test_a_long_period_is_shown_by_its_digit_count(digits):
    for period in (10**(digits - 1), 10**digits - 1, 3 * 10**(digits - 1) + 7):
        shown = _shown(period)
        if digits <= _SHOWN_DIGITS:
            assert shown == f"period {period}"
        else:
            assert shown == f"a period of {digits} digits"
