from math import prod

import pytest
from conftest import oracle_centers
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievecycles import (
    CapacityError,
    PairSpec,
    enumerate_pair_centers,
    is_survivor,
    make_basis,
    make_prime_basis,
    pair_count,
)

B3 = make_prime_basis(3)
B4 = make_prime_basis(4)

TWIN4_CENTERS = (12, 18, 30, 42, 60, 72, 102, 108, 138, 150, 168, 180, 192, 198, 210)


@st.composite
def oracle_cases(draw):
    """A basis small enough for the oracle, and offsets in [0, 3 * period]:
    any value, or a multiple of the period or of one modulus."""
    moduli = draw(st.sampled_from(
        [make_prime_basis(n).moduli for n in range(6)] + [(4, 9, 25), (6, 35)]))
    period = prod(moduli)

    def offset():
        step = draw(st.sampled_from((1, period) + moduli))
        return step * draw(st.integers(0, 3 * period // step))

    return moduli, offset(), offset()


class TestPairCount:
    def test_twins_four_primes(self):
        census = pair_count(B4, PairSpec(1, 1))
        assert census.predicted_count == 15  # (5-2)(7-2)
        assert [(f.modulus, f.forbidden_count, f.factor)
                for f in census.per_modulus_factors] == \
            [(2, 1, 1), (3, 2, 1), (5, 2, 3), (7, 2, 5)]

    @pytest.mark.parametrize("n, twins", [(3, 3), (6, 1485), (7, 22275)])
    def test_twins_of_the_first_n_primes(self, n, twins):
        # (3 - 2)(5 - 2)...; pairs.twin_product draws n <= 5 at depth small
        assert pair_count(make_prime_basis(n), PairSpec(1, 1)).predicted_count == twins

    def test_offset_two(self):
        assert pair_count(B4, PairSpec(2, 2)).predicted_count == 15

    def test_offset_three_merges_at_three(self):
        # 3 + 3 = 0 (mod 3), so that modulus contributes 3 - 1 instead of 3 - 2
        census = pair_count(B4, PairSpec(3, 3))
        assert census.predicted_count == 30
        factors = {f.modulus: f.factor for f in census.per_modulus_factors}
        assert factors[3] == 2

    def test_zero_offsets_give_plain_survivors(self):
        assert pair_count(B4, PairSpec(0, 0)).predicted_count == 48

    def test_empty_basis(self):
        assert pair_count(make_prime_basis(0), PairSpec(1, 1)).predicted_count == 1

    @pytest.mark.parametrize("left, right, error", [
        (-1, 2, ValueError),
        (2, -1, ValueError),
        (1.5, 1, TypeError),
        (1, 1.0, TypeError),
        (True, 1, TypeError),
        (1, "1", TypeError),
    ])
    def test_negative_offsets_rejected(self, left, right, error):
        # A float offset would count 0 centers, and bools are not offsets.
        with pytest.raises(error):
            PairSpec(left, right)


class TestEnumerateCenters:
    def test_three_prime_twins(self):
        assert enumerate_pair_centers(B3, PairSpec(1, 1)) == (12, 18, 30)

    def test_four_prime_twins_verbatim(self):
        assert enumerate_pair_centers(B4, PairSpec(1, 1)) == TWIN4_CENTERS

    def test_offset_two_examples(self):
        centers = enumerate_pair_centers(B4, PairSpec(2, 2))
        # the pairs (19,23), (67,71), (139,143) sit around these centers
        assert {21, 69, 141} <= set(centers)
        assert len(centers) == 15

    def test_offset_three_examples(self):
        centers = enumerate_pair_centers(B4, PairSpec(3, 3))
        # (31,37), (47,53), (61,67)
        assert {34, 50, 64} <= set(centers)
        assert len(centers) == 30

    def test_wraparound_membership(self):
        # 210 is a center: 209 survives and 211 = 210 + 1 survives
        assert 210 in enumerate_pair_centers(B4, PairSpec(1, 1))
        assert is_survivor(B4, 209) and is_survivor(B4, 211)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            enumerate_pair_centers(make_prime_basis(12), PairSpec(1, 1))

    @settings(max_examples=150, deadline=None)
    @given(oracle_cases())
    @example(((2, 3, 5), 1, 1))
    @example(((2, 3, 5, 7), 4, 10))
    @example(((4, 9, 25), 3, 7))
    @example(((20, 2783), 1, 1))
    @example(((2, 3, 5, 7, 11), 0, 0))
    @example(((2, 3, 5, 7, 11), 2310, 6930))
    @example(((), 0, 0))
    def test_matches_independent_oracle(self, case):
        """Every center, in order, at a period cap of exactly the period."""
        moduli, a, b = case
        basis, spec = make_basis(moduli), PairSpec(a, b)
        got = enumerate_pair_centers(basis, spec, cap=basis.period)
        assert list(got) == oracle_centers(moduli, a, b)
        with pytest.raises(CapacityError):
            enumerate_pair_centers(basis, spec, cap=basis.period - 1)
