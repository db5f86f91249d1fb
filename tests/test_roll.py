"""The roll and the strike against the trial-division oracles.

``build_wheel`` and ``enumerate_pair_centers`` roll a period or strike it,
whichever ``basis._rolls`` prices cheaper; ``extend_wheel`` always rolls.
Each case runs with the choice forced each way and as priced.
"""

from contextlib import ExitStack
from math import gcd, prod
from unittest.mock import patch

from conftest import oracle_centers, oracle_survives
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievecycles import basis as basis_module
from sievecycles import pairs as pairs_module
from sievecycles.basis import build_wheel, extend_wheel, make_basis
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


def _forced(side):
    """Force the roll or the strike in both callers; "priced" forces none."""
    stack = ExitStack()
    if side != "priced":
        for module in (basis_module, pairs_module):
            forced = patch.object(module, "_rolls", lambda basis: side == "roll")
            stack.enter_context(forced)
    return stack


@settings(max_examples=120, deadline=None)
@given(roll_cases(), st.sampled_from(["roll", "strike", "priced"]))
@example(((), None, 1, 1), "roll")
@example(((7,), 7, 1, 1), "roll")
@example(((3, 256), 3, 1, 1), "roll")
@example(((7, 255), 255, 7, 248), "roll")
# a roll by 255 and by 256 in a byte of classes each, and by 257 past it
@example(((255, 256), 255, 1, 1), "roll")
@example(((256, 257), 257, 3, 253), "roll")
@example(((257, 263), 257, 1, 1), "roll")
# twins have the center 0 in every basis: it is reported as the period
@example(((2, 3, 5, 7, 11), 11, 1, 1), "roll")
@example(((2, 3, 5, 7, 11), 2, 2310, 4620), "strike")
def test_wheels_and_centers_match_the_oracles(case, side):
    moduli, extension, a, b = case
    basis = make_basis(moduli)
    period = prod(moduli)
    survivors = tuple(x for x in range(period) if oracle_survives(moduli, x))
    centers = oracle_centers(moduli, a, b)
    with _forced(side):
        wheel = build_wheel(basis)
        got_centers = enumerate_pair_centers(basis, PairSpec(a, b))
        if extension is not None:
            smaller = build_wheel(basis.without(extension))
            grown = extend_wheel(smaller, extension)
    assert wheel.residues == survivors
    assert (wheel.period, wheel.count) == (period, len(survivors))
    assert type(got_centers) is tuple
    assert list(got_centers) == centers
    if all(oracle_survives(moduli, x) for x in (-a % period, b % period)):
        assert got_centers[-1] == period
    if extension is not None:
        assert grown.residues == survivors
        assert grown.basis == basis
