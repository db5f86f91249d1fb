"""The roll against the trial-division oracles.

``build_wheel``, ``extend_wheel`` and ``enumerate_pair_centers`` each roll
one period from the wave before; every case is checked against a test of
each candidate on its own.
"""

from itertools import islice
from math import gcd, prod

import pytest
from conftest import oracle_centers, oracle_survives
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievecycles import basis as basis_module
from sievecycles.basis import build_wheel, extend_wheel, make_basis, make_prime_basis
from sievecycles.pairs import PairSpec, enumerate_pair_centers

# 255, 256 and 257 sit either side of the largest class that fits in a
# byte, 255; 256 takes only odd partners.
POOL = (2, 3, 4, 5, 7, 9, 11, 13, 25, 29, 255, 256, 257)
PERIOD_LIMIT = 12000


@st.composite
def roll_cases(draw):
    """Pairwise-coprime moduli (maybe none), a modulus to extend by, and
    offsets: some of 0, some past every modulus, some with a + b = 0 mod
    one modulus."""
    moduli = []
    for m in draw(st.lists(st.sampled_from(POOL), max_size=5, unique=True)):
        if all(gcd(m, v) == 1 for v in moduli) and prod(moduli) * m <= PERIOD_LIMIT:
            moduli.append(m)
    moduli.sort()
    a = draw(st.sampled_from([0, 1]) | st.integers(0, 600))
    if moduli and draw(st.booleans()):
        m = draw(st.sampled_from(moduli))
        b = -a % m + m * draw(st.integers(0, 2))
    else:
        b = draw(st.sampled_from([0, 1]) | st.integers(0, 600))
    extension = draw(st.sampled_from(moduli)) if moduli else None
    return tuple(moduli), extension, a, b


@settings(max_examples=120, deadline=None)
@given(roll_cases())
@example(((), None, 1, 1))
@example(((7,), 7, 1, 1))
@example(((3, 256), 3, 1, 1))
@example(((7, 255), 255, 7, 248))
# a roll by 255 and by 256 in a byte of classes each, and by 257 past it
@example(((255, 256), 255, 1, 1))
@example(((256, 257), 257, 3, 253))
@example(((257, 263), 257, 1, 1))
# twins have the center 0 in every basis: it is reported as the period
@example(((2, 3, 5, 7, 11), 11, 1, 1))
@example(((2, 3, 5, 7, 11), 2, 2310, 4620))
# small periods of few rows; offsets 3 and 3 that merge mod 2 and 3;
# composite moduli; and a largest modulus past a byte of classes
@example(((3, 5, 7), 5, 1, 1))
@example(((2, 3, 5, 7), 7, 3, 3))
@example(((4, 9, 25), 4, 1, 1))
@example(((6, 35), 35, 1, 1))
@example(((2, 3, 1009), 1009, 1, 1))
def test_wheels_and_centers_match_the_oracles(case):
    moduli, extension, a, b = case
    basis = make_basis(moduli)
    period = prod(moduli)
    survivors = tuple(x for x in range(period) if oracle_survives(moduli, x))
    centers = oracle_centers(moduli, a, b)
    wheel = build_wheel(basis)
    got_centers = enumerate_pair_centers(basis, PairSpec(a, b))
    if extension is not None:
        grown = extend_wheel(build_wheel(basis.without(extension)), extension)
    assert wheel.residues == survivors
    assert (wheel.period, wheel.count) == (period, len(survivors))
    assert type(got_centers) is tuple
    assert list(got_centers) == centers
    if all(oracle_survives(moduli, x) for x in (-a % period, b % period)):
        assert got_centers[-1] == period
    if extension is not None:
        assert grown.residues == survivors
        assert grown.basis == basis


def _one_too_few(roll):
    """``roll`` with the first residue of row 0 dropped."""
    def rolled(*args):
        rows = roll(*args)
        yield islice(next(rows), 1, None)
        yield from rows
    return rolled


def _one_too_many(roll):
    """``roll`` with one more row, of one residue past the roll."""
    def rolled(residues, period, m, struck):
        yield from roll(residues, period, m, struck)
        yield iter((m * period,))
    return rolled


@pytest.mark.parametrize("fault", [_one_too_few, _one_too_many])
def test_a_roll_of_the_wrong_count_raises(fault, monkeypatch):
    """Every rolled period is held to its product-formula count: 48
    residues for (2, 3, 5, 7) and 15 twin centres, built or extended."""
    smaller = build_wheel(make_prime_basis(3))
    monkeypatch.setattr(basis_module, "_roll", fault(basis_module._roll))
    with pytest.raises(AssertionError, match="not the 48 the product formula"):
        build_wheel(make_prime_basis(4))
    with pytest.raises(AssertionError, match="not the 48 the product formula"):
        extend_wheel(smaller, 7)
    with pytest.raises(AssertionError, match="not the 15 the product formula"):
        enumerate_pair_centers(make_prime_basis(4), PairSpec(1, 1))
