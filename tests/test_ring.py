import pytest

from sievecycles import (
    CoprimeBasis,
    ResidueVector,
    decompose,
    identity,
    inverse,
    is_survivor,
    is_survivor_vector,
    is_unit_vector,
    make_basis,
    make_prime_basis,
    multiply,
    reconstruct,
)

B3 = make_prime_basis(3)
B4 = make_prime_basis(4)


class TestDecompose:
    def test_seven(self):
        assert decompose(B3, 7).entries == (1, 1, 2)

    def test_zero(self):
        assert decompose(B3, 0).entries == (0, 0, 0)

    def test_121_is_a_unit(self):
        v = decompose(B4, 121)
        assert v.entries == (1, 1, 1, 2)
        assert is_unit_vector(v)
        assert is_survivor_vector(v) == is_survivor(B4, 121)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose(B3, -1)


class TestReconstruct:
    def test_inverse_of_decompose(self):
        assert reconstruct(ResidueVector(B3, (1, 1, 2))) == 7

    def test_frozen_scan_value(self):
        assert reconstruct(ResidueVector(B3, (1, 2, 4))) == 29

    def test_all_zeros(self):
        assert reconstruct(ResidueVector(make_basis([2, 3]), (0, 0))) == 0

    def test_round_trip_exhaustive(self):
        for basis in (B3, B4, make_basis([4, 9, 25])):
            for x in range(basis.period):
                assert reconstruct(decompose(basis, x)) == x

    def test_empty_basis(self):
        basis = make_prime_basis(0)
        assert reconstruct(decompose(basis, 0)) == 0


class TestVectorValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            ResidueVector(B3, (1, 1))

    @pytest.mark.parametrize("entries, error", [
        ((1, 1, 5), ValueError),
        ((1, 1, -1), ValueError),
        ((1.0, 1, 1), TypeError),
        ((1, True, 1), TypeError),
        ((1.5, 1.5, 2.5), TypeError),  # what decompose(B3, 7.5) builds
    ])
    def test_entry_out_of_range(self, entries, error):
        with pytest.raises(error):
            ResidueVector(B3, entries)

    def test_entries_from_a_list_are_stored_as_a_tuple(self):
        v = ResidueVector(B3, [1, 1, 2])
        assert type(v.entries) is tuple
        assert v == decompose(B3, 7)
        assert hash(v) == hash(decompose(B3, 7))
        assert multiply(v, identity(B3)) == v


class TestMultiply:
    def test_seven_times_eleven(self):
        got = multiply(decompose(B3, 7), decompose(B3, 11))
        assert got == decompose(B3, 7 * 11 % 30) == decompose(B3, 17)

    def test_identity_is_neutral(self):
        one = identity(B3)
        for x in (1, 7, 13, 29):
            assert multiply(decompose(B3, x), one) == decompose(B3, x)

    def test_seven_times_thirteen_is_identity(self):
        assert multiply(decompose(B3, 7), decompose(B3, 13)) == identity(B3)

    def test_a_basis_built_from_a_list_is_the_same_basis(self):
        listed = CoprimeBasis([2, 3, 5])
        got = multiply(ResidueVector(listed, (1, 1, 2)), decompose(B3, 11))
        assert got == decompose(B3, 17)

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            multiply(decompose(B3, 1), decompose(B4, 1))


class TestInverse:
    def test_seven_inverts_to_thirteen(self):
        assert inverse(decompose(B3, 7)) == decompose(B3, 13)
        assert reconstruct(inverse(decompose(B3, 7))) == 13

    def test_identity_self_inverse(self):
        assert inverse(identity(B3)) == identity(B3)

    def test_minus_one_self_inverse(self):
        assert inverse(decompose(B3, 29)) == decompose(B3, 29)  # 29^2 = 841 = 28*30 + 1

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="not invertible"):
            inverse(decompose(B3, 10))

    def test_composite_modulus_survivor_not_unit(self):
        basis = make_basis([4, 9, 25])
        v = decompose(basis, 2)
        assert is_survivor_vector(v)
        assert not is_unit_vector(v)
        with pytest.raises(ValueError, match="not invertible"):
            inverse(v)


class TestUnitGroup:
    def test_unit_set_has_full_order(self):
        units = [x for x in range(B4.period) if is_unit_vector(decompose(B4, x))]
        assert len(units) == B4.survivor_count == 48


# At depth small ring.bijection round-trips the first three, four and five
# primes and (4, 9, 25), ring.product_map draws subsets of the first five
# primes and composite pairs, and ring.group_axioms inverts over the first
# three and five primes only.  Each basis here escapes at least one of them;
# the three laws hold on up to 500 residues spread over its period.
@pytest.mark.parametrize("moduli", [
    (2,), (2, 3), (3, 5, 7), (2, 3, 5, 7), (4, 9, 25), (2, 3, 5, 7, 11, 13), (20, 2783),
])
def test_ring_laws_on_bases_the_checks_skip(moduli):
    basis = make_basis(moduli)
    period = basis.period
    xs = [i * 7919 % period for i in range(min(period, 500))]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        v = decompose(basis, x)
        assert reconstruct(v) == x
        assert multiply(v, decompose(basis, y)) == decompose(basis, x * y % period)
        if is_unit_vector(v):
            assert multiply(v, inverse(v)) == identity(basis)
