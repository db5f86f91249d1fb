import subprocess
import sys

import pytest
from conftest import child_env

from sievecycles import run_checks
from sievecycles.verify import CHECKS


# verify is the one home of the randomized structural laws: every check,
# at ten fixed seeds.  A failure names the check and the seed to replay.
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", [name for name, _ in CHECKS])
def test_check_passes_at_small_depth(name, seed):
    [result] = run_checks(depth="small", seed=seed, names=[name])
    assert result.passed, result.detail
    assert result.detail


@pytest.mark.parametrize("seed", range(3))
def test_deep_depth_subdivides_30_to_150_primes(seed):
    [result] = run_checks(depth="deep", seed=seed, names=["cycles.uniform_counts"])
    assert result.passed, result.detail
    primes = int(result.detail.split("the first ")[1].split()[0])
    assert 30 <= primes <= 150


def test_subset_selection():
    names = ["wheel.symmetry", "ring.bijection"]
    results = run_checks(depth="small", names=names)
    assert [r.name for r in results] == names


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(depth="small", names=["wheel.symmetry", "nope.nothing"])


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="no checks selected"):
        run_checks(depth="small", names=[])


def test_bad_depth_rejected():
    with pytest.raises(ValueError):
        run_checks(depth="extreme")


def test_deterministic_for_seed():
    a = run_checks(depth="small", seed=3)
    b = run_checks(depth="small", seed=3)
    assert [r.name for r in a] == [name for name, _ in CHECKS]
    assert a == b


# Faults of each check family, each undone before the next.  Prints the
# optimize level, then per fault its family and the checks that report it
# at seed 0.  Each pairs check also runs fixed edge inputs, so it reports
# its own fault at every seed, not only where a random draw lands on it.
_INJECTED_FAULTS = """
import sys
from math import prod
from unittest.mock import patch
from sievecycles import basis, counting, cycles, pairs, verify
from sievecycles.ring import ResidueVector

def meissel_plus_one(b, x):
    honest = counting.count_meissel(b, x)
    return counting.CountResult(honest.value + 1, honest.method)

def census_m_minus_2(b, spec):
    factors = tuple(pairs.PairFactor(m, 2, m - 2) for m in b)
    return pairs.PairCensus(b, spec, prod(f.factor for f in factors), factors)

honest_roll = basis._roll

def roll_strikes_next_class(residues, period, m, struck):
    # row K strikes what row K + 1 should: every count stays right
    return honest_roll(residues, period, m, {(s - period) % m for s in struck})

def roll_row_0_shifted(residues, period, m, struck):
    rows = honest_roll(residues, period, m, struck)
    yield [a + period for a in next(rows)]
    yield from rows

honest_walk, honest_legendre = counting._legendre_walk, counting._legendre

def walk_children_from_remainder(n, rest, start, period, phi, pos, neg):
    q, r = divmod(n, period)
    total = q * phi + honest_walk(r, (), 0, period, phi, pos, neg)
    for i in range(start, len(rest)):
        if rest[i] > n:
            break
        total -= walk_children_from_remainder(r // rest[i], rest, i + 1,
                                              period, phi, pos, neg)
    return total

def legendre_whole_survivor_count(moduli, n):
    whole = prod(m - 1 for m in moduli)
    def walk(n, rest, start, period, phi, pos, neg):
        return honest_walk(n, rest, start, period, whole, pos, neg)
    with patch.object(counting, "_legendre_walk", walk):
        return honest_legendre(moduli, n)

faults = [
    # every x from half the period on counts as a survivor
    ("wheel", verify, "is_survivor",
     lambda b, x: x >= b.period // 2 or basis.is_survivor(b, x)),
    # 0 counts as a survivor
    ("wheel", verify, "is_survivor", lambda b, x: x == 0 or basis.is_survivor(b, x)),
    ("count", verify, "count_meissel", meissel_plus_one),
    # Legendre's walk: the children start from n mod Q instead of n
    ("count", counting, "_legendre_walk", walk_children_from_remainder),
    # n // Q times the whole basis's survivor count, not the table's phi(Q)
    ("count", counting, "_legendre", legendre_whole_survivor_count),
    # every boundary count one too high
    ("cycles", cycles, "_floor_counts",
     lambda moduli, ns: [c + 1 for c in counting._floor_counts(moduli, ns)]),
    # b mod m instead of -b mod m
    ("pairs", pairs, "_forbidden",
     lambda m, spec: {spec.left_offset % m, spec.right_offset % m}),
    # every modulus forbids two classes, even where a + b merges them
    ("pairs", verify, "pair_count", census_m_minus_2),
    # centres over [0, P) instead of (0, P]
    ("pairs", verify, "enumerate_pair_centers",
     lambda b, spec: tuple(sorted(x % b.period
                                  for x in pairs.enumerate_pair_centers(b, spec)))),
    # the roll behind wheels and centres, wrong residues at right counts
    ("wheel", basis, "_roll", roll_strikes_next_class),
    ("wheel", basis, "_roll", roll_row_0_shifted),
    ("pairs", basis, "_roll", roll_strikes_next_class),
    ("pairs", basis, "_roll", roll_row_0_shifted),
    # entries added instead of multiplied
    ("ring", verify, "multiply",
     lambda u, v: ResidueVector(u.basis, tuple(
         (a + b) % m for a, b, m in zip(u.entries, v.entries, u.basis)))),
    # Fermat's inverse, pow(e, m - 2, m): right only for prime m
    ("ring", verify, "inverse",
     lambda v: ResidueVector(v.basis, tuple(
         pow(e, m - 2, m) for e, m in zip(v.entries, v.basis)))),
]
print("optimize", sys.flags.optimize)
for family, module, name, fault in faults:
    names = [n for n, _ in verify.CHECKS if n.startswith(family + ".")]
    with patch.object(module, name, fault):
        results = verify.run_checks("small", 0, names)
    print(family, *(r.name for r in results if not r.passed))
"""


# Every check must catch its faults with and without assert statements.
@pytest.mark.parametrize("flags, optimize", [((), 0), (("-O",), 1)],
                         ids=["python", "python-O"])
def test_checks_catch_injected_fault(flags, optimize):
    done = subprocess.run([sys.executable, *flags, "-c", _INJECTED_FAULTS],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"optimize {optimize}",
        "wheel wheel.periodicity wheel.symmetry wheel.composite_moduli",
        "wheel wheel.periodicity",
        "count count.method_agreement count.peel_largest count.peel_any",
        "count count.method_agreement count.period_shift count.reflection",
        "count count.method_agreement count.period_shift count.reflection "
        "count.pruning",
        "cycles cycles.uniform_counts cycles.degenerate_two cycles.fractional_boundaries",
        "pairs pairs.twin_product pairs.merged_offsets pairs.center_shift "
        "pairs.center_mirror",
        "pairs pairs.census_exact pairs.twin_product pairs.merged_offsets",
        "pairs pairs.center_shift pairs.center_mirror",
        "wheel wheel.count_product wheel.order_independence",
        "wheel wheel.count_product wheel.one_kill_per_row "
        "wheel.order_independence",
        "pairs pairs.center_shift pairs.center_mirror",
        "pairs pairs.center_shift pairs.center_mirror",
        "ring ring.group_axioms ring.product_map",
        "ring ring.group_axioms",
    ]
