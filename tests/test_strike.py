"""The windowed strike against trial division.

``survivor_flags`` strikes one window of integers and ``survivor_blocks``
walks a window one block at a time; both are held to a test of each
integer on its own.  The oracle count and the prime bootstrap are held to
the windows they strike.
"""

from itertools import chain
from operator import mul
from unittest import mock

from conftest import oracle_survives
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievecycles import basis, make_prime_basis
from sievecycles.basis import _BLOCK, _first_primes, survivor_blocks, survivor_flags
from sievecycles.counting import count_by_sieve, count_legendre

# prime, composite and empty bases
BASES = ((), (2,), (2, 3, 5, 7), (3, 5, 7, 11, 13), (4, 9, 25), (6, 35),
         (20, 2783), (7, 8, 15))


@st.composite
def windows(draw):
    """Moduli and a window [lo, hi]: lo at 0, at a multiple of a modulus,
    anywhere, or past 2**63; some windows shorter than the smallest
    modulus."""
    moduli = draw(st.sampled_from(BASES))
    lo = draw(st.one_of(
        st.just(0),
        st.builds(mul, st.sampled_from(moduli or (1,)), st.integers(0, 10**6)),
        st.integers(0, 10**12),
        st.integers(2**63, 2**63 + 10**6)))
    shorter = min(moduli, default=2) - 1
    width = draw(st.one_of(st.integers(1, shorter), st.integers(1, 300)))
    return moduli, lo, lo + width - 1


@settings(max_examples=400, deadline=None)
@given(windows(), st.integers(1, 12))
@example(((2, 3, 5, 7), 0, 0), 1)
@example(((4, 9, 25), 900, 930), 7)  # lo a multiple of every modulus
@example(((20, 2783), 2**63 + 1, 2**63 + 19), 5)
@example(((), 5, 9), 2)
def test_a_window_is_struck_as_trial_division_strikes_it(case, block):
    moduli, lo, hi = case
    want = [int(oracle_survives(moduli, x)) for x in range(lo, hi + 1)]
    assert list(survivor_flags(moduli, lo, hi)) == want
    # blocks of 1 to 12 integers put block edges inside most windows
    with mock.patch.object(basis, "_BLOCK", block):
        blocks = list(survivor_blocks(moduli, lo, hi))
    assert all(len(flags) == block for flags in blocks[:-1])
    assert list(chain.from_iterable(blocks)) == want


def test_a_window_across_a_full_block_edge():
    moduli, lo = (3, 5, 7, 11, 13), 2**63 - 17
    hi = lo + _BLOCK + 40
    blocks = list(survivor_blocks(moduli, lo, hi))
    assert [len(flags) for flags in blocks] == [_BLOCK, 41]
    assert bytes(chain.from_iterable(blocks)) == bytes(
        oracle_survives(moduli, x) for x in range(lo, hi + 1))


def _recorded(monkeypatch) -> list[tuple[int, int]]:
    """The windows every later ``survivor_flags`` call strikes."""
    windows = []

    def strike(moduli, lo, hi):
        windows.append((lo, hi))
        return survivor_flags(moduli, lo, hi)

    monkeypatch.setattr(basis, "survivor_flags", strike)
    return windows


def test_the_oracle_holds_one_block_at_a_time(monkeypatch):
    four, n = make_prime_basis(4), 3 * _BLOCK + 5
    windows = _recorded(monkeypatch)
    assert count_by_sieve(four, n).value == count_legendre(four, n).value
    assert windows == [(1 + k * _BLOCK, (k + 1) * _BLOCK) for k in range(3)] + [
        (3 * _BLOCK + 1, n)]


def test_each_prime_round_strikes_only_past_the_primes_it_knows(monkeypatch):
    # 2000 primes end at 17389, in the round (4**7, 4**8]: every integer
    # from 5 to 4**8 is struck once, each round past the last
    windows = _recorded(monkeypatch)
    assert _first_primes(2000)[-1] == 17389
    assert windows[0][0] == 5 and windows[-1][1] == 4**8
    assert all(b[0] == a[1] + 1 for a, b in zip(windows, windows[1:]))
