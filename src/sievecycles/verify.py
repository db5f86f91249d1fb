"""Self-verification suites: every structural law, checked at runtime.

Each named check exercises one invariant against an independent route
(exhaustive scan, direct sieve, or a second formula).  Checks are
deterministic for a given seed and scale with the chosen depth, so the
same suite doubles as a quick smoke test and an overnight grind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress
from math import floor, prod
from operator import and_

from .basis import (
    CoprimeBasis,
    build_wheel,
    extend_wheel,
    is_survivor,
    killer_index,
    make_basis,
    make_prime_basis,
    survivor_flags,
)
from .counting import (
    count_by_sieve,
    count_generalized_meissel,
    count_legendre,
    count_meissel,
    count_periodic,
    count_strictly_below,
    phi_identity_check,
)
from .cycles import cycle_table, subdivision, subdivision_boundary_check, total_intervals
from .pairs import PairSpec, enumerate_pair_centers, pair_count
from .ring import (
    decompose,
    identity,
    inverse,
    is_survivor_vector,
    is_unit_vector,
    multiply,
    reconstruct,
)


@dataclass(frozen=True)
class DepthParams:
    samples: int          # random repetitions per check
    max_primes: int       # prime-basis sizes drawn from [0, max_primes]
    exhaustive_cap: int   # periods up to this get full scans
    pair_cap: int         # largest period for center enumeration
    boundary_cap: int     # ceiling for random boundaries
    subdivided_primes: int = 0  # one subdivision of 30 to this many primes; 0: none


_PARAMS = {
    "small": DepthParams(samples=40, max_primes=5, exhaustive_cap=10**4,
                         pair_cap=10**4, boundary_cap=10**3),
    "standard": DepthParams(samples=200, max_primes=8, exhaustive_cap=6 * 10**4,
                            pair_cap=3 * 10**4, boundary_cap=10**5),
    "deep": DepthParams(samples=1000, max_primes=8, exhaustive_cap=6 * 10**5,
                        pair_cap=3 * 10**5, boundary_cap=10**6,
                        subdivided_primes=150),
}
DEPTHS = tuple(_PARAMS)

# Checked at every seed, whatever the draw: five moduli, so its wheel and
# pair centres roll through four stages, and a largest modulus, 29, that no
# drawn basis holds.  The checks that compare with a strike or a direct test
# use it.
_ROLLED = (2, 3, 5, 7, 29)

# Pairwise-coprime composite bases exercising the non-prime generality.
_COMPOSITE_POOL = (
    (20, 2783),
    (4, 9, 25),
    (6, 35),
    (8, 15, 77),
    (9, 10, 77),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(condition: bool, message: str) -> None:
    """Fail the running check; unlike ``assert``, kept under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _random_prime_basis(rng: random.Random, p: DepthParams, *,
                        min_size: int = 0) -> CoprimeBasis:
    primes = make_prime_basis(p.max_primes).moduli
    size = rng.randint(min_size, len(primes))
    return make_basis(rng.sample(primes, size))


def _random_basis(rng: random.Random, p: DepthParams, *,
                  min_size: int = 0) -> CoprimeBasis:
    if rng.random() < 0.25:
        pool = [c for c in _COMPOSITE_POOL if len(c) >= max(min_size, 1)]
        return make_basis(rng.choice(pool))
    return _random_prime_basis(rng, p, min_size=min_size)


def _random_boundary(rng: random.Random, cap: int) -> Fraction:
    den = rng.choice((1, 1, 2, 2, 3, 4, 5, 7, 10))
    return Fraction(rng.randint(0, cap * den), den)


# --- wheel structure ---------------------------------------------------------


def _asymmetric_residues(basis: CoprimeBasis) -> list[int]:
    """Every a in (0, period) whose mirror period - a differs in survivorship."""
    period = basis.period
    alive = survivor_flags(basis.moduli, 0, period)
    return [a for a in range(1, period) if alive[a] != alive[period - a]]


def check_wheel_periodicity(rng, p):
    for _ in range(p.samples):
        basis = _random_basis(rng, p)
        period = basis.period
        x = rng.randint(0, 4 * period)
        k = rng.randint(0, 5)
        # the edges of the period, each shifted by at least one period
        for y, shift in ((x, k), (0, k + 1), (1, k + 1), (period - 1, k + 1),
                         (period, k + 1)):
            _require(is_survivor(basis, y) == is_survivor(basis, shift * period + y),
                     f"period shift changed survivorship at x={y}, K={shift}, "
                     f"basis={basis.moduli}")
    return f"{p.samples} random shifts, and 0, 1, P - 1 and P on each basis"


def check_wheel_symmetry(rng, p):
    exhaustive = 0
    for basis in (make_prime_basis(4), make_prime_basis(5),
                  make_basis((20, 2783)), make_basis((4, 9, 25))):
        period = basis.period
        if period <= p.exhaustive_cap:
            broken = _asymmetric_residues(basis)
            _require(not broken, f"asymmetry at a={broken[:3]}, basis={basis.moduli}")
            exhaustive += 1
    for _ in range(p.samples):
        basis = _random_basis(rng, p, min_size=1)
        a = rng.randint(1, basis.period - 1)
        _require(is_survivor(basis, a) == is_survivor(basis, basis.period - a),
                 f"asymmetry at a={a}, basis={basis.moduli}")
    return f"{exhaustive} bases exhaustively, {p.samples} samples"


def _struck_residues(basis: CoprimeBasis) -> tuple[int, ...]:
    """One period's survivors by striking every candidate: the route that a
    rolled wheel is checked against."""
    period = basis.period
    return tuple(compress(range(period), survivor_flags(basis.moduli, 0, period - 1)))


def check_wheel_count_product(rng, p):
    drawn = (_random_basis(rng, p) for _ in range(p.samples // 4))
    bases = [make_basis(_ROLLED)] + [b for b in drawn if b.period <= p.exhaustive_cap]
    for basis in bases:
        wheel = build_wheel(basis)
        expected = prod(m - 1 for m in basis)
        _require(wheel.count == len(wheel.residues) == expected,
                 f"count mismatch for basis={basis.moduli}")
        _require(wheel.residues == _struck_residues(basis),
                 f"residues differ from the strike for basis={basis.moduli}")
    return f"{len(bases)} wheels, counts and residues as struck"


def check_wheel_one_kill_per_row(rng, p):
    cases = 0
    for moduli, extras in (((2, 3, 5), (7, 11, 13)), ((2, 3, 5, 7), (11, 13))):
        wheel = build_wheel(make_basis(moduli))
        for m in extras:
            for a in wheel.residues:
                hits = [k for k in range(m) if (k * wheel.period + a) % m == 0]
                _require(hits == [killer_index(wheel, m, a)],
                         f"row a={a} hit at K={hits}, modulus {m}")
                cases += 1
    return f"{cases} rows scanned"


def check_wheel_order_independence(rng, p):
    rounds = max(4, p.samples // 10)
    for _ in range(rounds):
        basis = _random_basis(rng, p, min_size=1)
        if basis.period > p.exhaustive_cap:
            continue
        direct = build_wheel(basis)
        order = list(basis.moduli)
        rng.shuffle(order)
        wheel = build_wheel(make_basis(()))
        for m in order:
            wheel = extend_wheel(wheel, m)
        _require(wheel.residues == direct.residues,
                 f"order {order} gave different residues")
        _require(direct.residues == _struck_residues(basis),
                 f"residues differ from the strike for basis={basis.moduli}")
    return f"{rounds} shuffled rebuilds, each as struck"


def check_wheel_composite_moduli(rng, p):
    basis = make_basis((20, 2783))
    period = basis.period
    count = count_legendre(basis, period).value
    _require(count == 19 * 2782 == 52858, f"composite survivor count {count}")
    broken = _asymmetric_residues(basis)
    _require(not broken, f"composite asymmetry at a={broken[:3]}")
    for _ in range(p.samples):
        x = rng.randint(0, period - 1)
        _require(is_survivor(basis, x) == is_survivor(basis, x + period),
                 f"composite period shift changed survivorship at x={x}")
    return "count 52858; symmetry exhaustive over one period"


# --- counting routes ---------------------------------------------------------


def check_count_method_agreement(rng, p):
    for _ in range(p.samples):
        basis = _random_basis(rng, p)
        x = _random_boundary(rng, p.boundary_cap)
        values = {
            count_by_sieve(basis, x).value,
            count_legendre(basis, x).value,
            count_meissel(basis, x).value,
            count_periodic(basis, x).value,
        }
        for drop in basis:
            values.add(count_generalized_meissel(basis, drop, x).value)
        _require(len(values) == 1,
                 f"methods disagree at x={x}, basis={basis.moduli}: {values}")
    return f"{p.samples} (basis, boundary) pairs, all routes equal"


def check_count_peel_largest(rng, p):
    for _ in range(p.samples):
        basis = _random_basis(rng, p, min_size=1)
        x = _random_boundary(rng, p.boundary_cap)
        m = basis.largest()
        rest = basis.without(m)
        lhs = count_meissel(basis, x).value
        rhs = count_meissel(rest, x).value - count_meissel(rest, x / m).value
        _require(lhs == rhs, f"peel failed at x={x}, basis={basis.moduli}")
    return f"{p.samples} peels of the largest modulus"


def check_count_peel_any(rng, p):
    for _ in range(p.samples // 2):
        basis = _random_basis(rng, p, min_size=1)
        x = _random_boundary(rng, p.boundary_cap)
        reference = count_meissel(basis, x).value
        for drop in basis:
            got = count_generalized_meissel(basis, drop, x).value
            _require(got == reference,
                     f"dropping {drop} gave {got} != {reference} at x={x}")
    return f"{p.samples // 2} boundaries, every drop choice"


def check_count_monotone_steps(rng, p):
    for _ in range(p.samples // 4):
        basis = _random_basis(rng, p)
        start = rng.randint(0, p.boundary_cap)
        previous = count_legendre(basis, start).value
        for x in range(start + 1, start + 30):
            current = count_legendre(basis, x).value
            step = current - previous
            _require(step in (0, 1),
                     f"f stepped by {step} at x={x}, basis={basis.moduli}")
            survives = is_survivor(basis, x)
            _require(step == (1 if survives else 0),
                     f"f stepped by {step} at x={x}, survivor: {survives}")
            previous = current
    return f"{p.samples // 4} windows of 30 consecutive integers"


def check_count_period_shift(rng, p):
    for _ in range(p.samples):
        basis = _random_basis(rng, p)
        x = _random_boundary(rng, p.boundary_cap)
        k = rng.randint(0, 4)
        lhs = count_legendre(basis, k * basis.period + x).value
        rhs = k * basis.survivor_count + count_legendre(basis, x).value
        _require(lhs == rhs,
                 f"shift failed at x={x}, K={k}, basis={basis.moduli}")
    return f"{p.samples} shifted boundaries"


def check_count_reflection(rng, p):
    # Nonempty bases only: the empty basis keeps 0 as a survivor, which the
    # strict count below x deliberately excludes.
    for _ in range(p.samples):
        basis = _random_basis(rng, p, min_size=1)
        period = basis.period
        den = rng.choice((1, 1, 2, 3, 4))
        x = Fraction(rng.randint(1, period * den), den)
        lhs = count_legendre(basis, period - x).value
        rhs = basis.survivor_count - count_strictly_below(basis, x)
        _require(lhs == rhs,
                 f"reflection failed at x={x}, basis={basis.moduli}")
    return f"{p.samples} reflected boundaries (strict form)"


def check_count_pruning(rng, p):
    for _ in range(p.samples // 4):
        basis = _random_basis(rng, p)
        if len(basis) > 6:
            continue
        x = _random_boundary(rng, min(p.boundary_cap, 10**4))
        full = 0
        for r in range(len(basis) + 1):
            for subset in combinations(basis.moduli, r):
                full += (-1) ** r * floor(x / prod(subset))
        _require(count_legendre(basis, x).value == full,
                 f"pruned result differs from full subset sum at x={x}")
    return f"{p.samples // 4} unpruned subset sums matched"


def check_count_totient_bridge(rng, p):
    limit = min(2000 + p.samples * 10, 10**4)
    for x in range(1, 200):
        _require(phi_identity_check(x), f"totient bridge broke at x={x}")
    for _ in range(p.samples):
        x = rng.randint(1, limit)
        _require(phi_identity_check(x), f"totient bridge broke at x={x}")
    return f"x in [1, 200] exhaustively, {p.samples} samples up to {limit}"


# --- cycle subdivisions ------------------------------------------------------


def check_cycles_uniform_counts(rng, p):
    rounds = max(6, p.samples // 10)
    for _ in range(rounds):
        basis = _random_basis(rng, p, min_size=1)
        while len(basis) > 6:
            basis = basis.without(basis.largest())
        expected_total = basis.survivor_count
        chosen = rng.choice(basis.moduli)
        step = basis.without(chosen).survivor_count
        boundaries = [Fraction(k * basis.period, chosen - 1) for k in range(1, chosen)]
        # Within reach each interval is struck over its own window and added
        # to a running count; Legendre takes the boundaries beyond it.
        got = counted = 0
        for k, boundary in enumerate(boundaries, start=1):
            if boundary <= 10**5:
                n = floor(boundary)
                got += survivor_flags(basis.moduli, counted + 1, n).count(1)
                counted = n
            else:
                got = count_legendre(basis, boundary).value
            _require(got == k * step,
                     f"boundary K={k} of modulus {chosen} holds {got}, "
                     f"wanted {k * step}")
        _require((chosen - 1) * step == expected_total,
                 f"{chosen - 1} intervals of {step} miss the total {expected_total}")
        _require(subdivision_boundary_check(basis),
                 f"first boundary carries no full reduced period, basis={basis.moduli}")
    if not p.subdivided_primes:
        return f"{rounds} (basis, modulus) subdivisions"
    # Far out of reach of the oracle and of Legendre: Theorem 3 alone gives
    # each count, K times the survivors of the basis without the modulus.
    basis = make_prime_basis(rng.randint(30, p.subdivided_primes))
    chosen = basis.largest()
    step = basis.without(chosen).survivor_count
    for k, iv in enumerate(subdivision(basis, chosen).intervals, start=1):
        _require(iv.cumulative_count == k * step,
                 f"boundary K={k} of the first {len(basis)} primes by {chosen} "
                 f"holds {iv.cumulative_count}, wanted {k * step}")
    return (f"{rounds} (basis, modulus) subdivisions, and the first "
            f"{len(basis)} primes by {chosen}")


def check_cycles_row_consistency(rng, p):
    rounds = max(6, p.samples // 10)
    for _ in range(rounds):
        basis = _random_basis(rng, p)
        rows = cycle_table(basis)
        for row in rows:
            _require(row.interval_count * row.interval_size == basis.period,
                     f"row {row.modulus}: intervals do not tile the period")
            _require(row.interval_count * row.survivors_per_interval
                     == basis.survivor_count,
                     f"row {row.modulus}: interval counts miss the survivor count")
        _require(total_intervals(basis) == sum(r.interval_count for r in rows),
                 "total_intervals disagrees with the table rows")
    return f"{rounds} cycle tables"


def check_cycles_degenerate_two(rng, p):
    for basis in (make_prime_basis(1), make_prime_basis(4),
                  make_basis((2, 9, 25))):
        report = subdivision(basis, 2)
        _require(len(report.intervals) == 1,
                 f"modulus 2 gave {len(report.intervals)} intervals")
        only = report.intervals[0]
        _require(only.boundary == basis.period,
                 f"modulus 2 boundary {only.boundary} is not the period")
        _require(only.per_interval_count == basis.survivor_count,
                 f"modulus 2 interval holds {only.per_interval_count} survivors")
    return "3 bases, single whole-wave interval"


def check_cycles_fractional_boundaries(rng, p):
    hits = 0
    for basis in (make_prime_basis(3), make_prime_basis(4), make_prime_basis(5)):
        for chosen in basis:
            report = subdivision(basis, chosen)
            for iv in report.intervals:
                if iv.boundary.denominator != 1:
                    flat = count_legendre(basis, Fraction(floor(iv.boundary))).value
                    _require(iv.cumulative_count == flat,
                             f"survivor sits on fractional boundary {iv.boundary}")
                    hits += 1
    _require(hits > 0, "no subdivision boundary was fractional")
    return f"{hits} fractional boundaries, none occupied"


# --- pair censuses -----------------------------------------------------------


def _pair_cases(rng, p, rounds: int, top: int):
    """Bases and specs for a pair check, each basis cut to the pair cap.

    First the edges, on every composite basis: twins, whose centres
    include P in every basis, and (1, 59), whose sum 60 merges the two
    forbidden classes of one modulus of each (4, 6, 10, 15 or 20).  Then
    ``rounds`` random draws, with offsets up to ``top``.
    """
    edges = [(make_basis(c), PairSpec(1, b)) for c in _COMPOSITE_POOL for b in (1, 59)]
    drawn = ((_random_basis(rng, p), PairSpec(rng.randint(0, top), rng.randint(0, top)))
             for _ in range(rounds))
    for basis, spec in chain(edges, drawn):
        while basis.period > p.pair_cap:
            basis = basis.without(basis.largest())
        yield basis, spec


def check_pairs_census_exact(rng, p):
    rounds = max(8, p.samples // 8)
    for basis, spec in _pair_cases(rng, p, rounds, 50):
        census = pair_count(basis, spec)
        centers = enumerate_pair_centers(basis, spec)
        _require(len(centers) == census.predicted_count,
                 f"{len(centers)} centers vs predicted {census.predicted_count} "
                 f"for spec={spec}, basis={basis.moduli}")
    return f"{rounds} random censuses and the edges, enumeration matches prediction"


def check_pairs_twin_product(rng, p):
    for n in range(1, p.max_primes + 1):
        basis = make_prime_basis(n)
        predicted = pair_count(basis, PairSpec(1, 1)).predicted_count
        expected = prod(m - 2 for m in basis if m != 2)
        _require(predicted == expected, f"twin product wrong for n={n}")
    return f"prime bases n=1..{p.max_primes}"


def check_pairs_merged_offsets(rng, p):
    for _ in range(p.samples):
        basis = _random_basis(rng, p)
        spec = PairSpec(rng.randint(0, 100), rng.randint(0, 100))
        census = pair_count(basis, spec)
        for f in census.per_modulus_factors:
            merged = (spec.left_offset + spec.right_offset) % f.modulus == 0
            _require(f.factor == f.modulus - (1 if merged else 2),
                     f"factor at modulus {f.modulus} for spec={spec}")
    return f"{p.samples} specs, per-modulus factors"


def check_pairs_center_shift(rng, p):
    # every x in (3P, 4P] for twins and (1, 59), where x - 1 and x + b are
    # read from the survivor flags of [3P, 4P + b], against the rolled
    # centres folded into (0, P]; then random offsets and x over the first
    # four primes
    rolled, basis = make_basis(_ROLLED), make_prime_basis(4)
    period = rolled.period
    for b in (1, 59):
        alive = survivor_flags(rolled.moduli, 3 * period, 4 * period + b)
        both = map(and_, alive[:period], alive[1 + b:period + 1 + b])
        direct = set(compress(range(1, period + 1), both))
        centers = set(enumerate_pair_centers(rolled, PairSpec(1, b)))
        _require(direct == centers,
                 f"shifted centers differ at {sorted(direct ^ centers)[:3]} "
                 f"(folded), spec=(1,{b}), basis={rolled.moduli}")
    period = basis.period
    for _ in range(p.samples):
        a, b = rng.randint(0, 20), rng.randint(0, 20)
        x = rng.randint(a + 1, 5 * period)
        centers = set(enumerate_pair_centers(basis, PairSpec(a, b)))
        direct = is_survivor(basis, x - a) and is_survivor(basis, x + b)
        _require(direct == ((x - 1) % period + 1 in centers),
                 f"shifted center mismatch at x={x}, spec=({a},{b})")
    return (f"{p.samples} off-wave integers and two shifted periods of "
            f"{rolled.moduli} vs folded centers")


def check_pairs_center_mirror(rng, p):
    for basis, spec in _pair_cases(rng, p, max(8, p.samples // 8), 30):
        a, b, period = spec.left_offset, spec.right_offset, basis.period
        forward = set(enumerate_pair_centers(basis, spec))
        backward = set(enumerate_pair_centers(basis, PairSpec(b, a)))
        mirrored = {period - x if x < period else period for x in forward}
        _require(mirrored == backward, f"mirror failed for spec=({a},{b})")
    return "mirrored center sets coincide"


# --- residue-vector ring -----------------------------------------------------


def check_ring_bijection(rng, p):
    for basis in (make_prime_basis(3), make_prime_basis(4), make_basis((4, 9, 25))):
        for x in range(basis.period):
            _require(reconstruct(decompose(basis, x)) == x,
                     f"round trip failed at x={x}, basis={basis.moduli}")
    basis = make_prime_basis(p.max_primes)
    for _ in range(p.samples):
        x = rng.randint(0, basis.period - 1)
        _require(reconstruct(decompose(basis, x)) == x,
                 f"round trip failed at x={x}, basis={basis.moduli}")
    return "3 bases exhaustively, large basis sampled"


def check_ring_survivor_vs_unit(rng, p):
    prime = make_prime_basis(4)
    for x in range(prime.period):
        v = decompose(prime, x)
        _require(is_survivor_vector(v) == is_unit_vector(v) == is_survivor(prime, x),
                 f"survivor and unit notions split at x={x} over primes")
    composite = make_basis((4, 9, 25))
    split = 0
    for x in range(composite.period):
        v = decompose(composite, x)
        _require(is_survivor_vector(v) == is_survivor(composite, x),
                 f"vector survivorship differs at x={x}, composite basis")
        if is_unit_vector(v):
            _require(is_survivor_vector(v),
                     f"unit vector at x={x} is not a survivor vector")
        elif is_survivor_vector(v):
            split += 1
    _require(split > 0, "expected survivor non-units over composite moduli")
    return f"prime basis: notions coincide; composite: {split} survivor non-units"


def check_ring_group_axioms(rng, p):
    basis = make_prime_basis(3)
    units = [decompose(basis, x) for x in range(basis.period)
             if is_survivor(basis, x)]
    _require(len(units) == basis.survivor_count,
             f"{len(units)} units, survivor count {basis.survivor_count}")
    one = identity(basis)
    for u in units:
        _require(multiply(u, one) == u, f"{u.entries} times the identity changed")
        _require(multiply(u, inverse(u)) == one,
                 f"{u.entries} times its inverse is not the identity")
        for v in units:
            w = multiply(u, v)
            _require(is_unit_vector(w), f"{u.entries} * {v.entries} is not a unit")
            _require(w == multiply(v, u), f"{u.entries} * {v.entries} does not commute")
            for t in units:
                _require(multiply(multiply(u, v), t) == multiply(u, multiply(v, t)),
                         f"product of {u.entries}, {v.entries}, {t.entries} "
                         "is not associative")
    big = make_prime_basis(p.max_primes)
    for _ in range(p.samples):
        u = decompose(big, rng.randint(0, big.period - 1))
        if not is_unit_vector(u):
            continue
        _require(multiply(u, inverse(u)) == identity(big),
                 f"{u.entries} times its inverse is not the identity")
    # Over composite moduli, where Fermat's pow(e, m - 2, m) is no inverse.
    composites = [make_basis((4, 9, 25)), make_basis((20, 2783))]
    for u in [decompose(b, rng.randrange(b.period)) for b in composites
              for _ in range(p.samples)]:
        _require(not is_unit_vector(u) or multiply(u, inverse(u)) == identity(u.basis),
                 f"{u.entries} times its inverse is not the identity over "
                 f"{u.basis.moduli}")
    return ("full axiom table on one small basis; sampled inverses on a large "
            "one and over (4, 9, 25) and (20, 2783)")


def check_ring_product_map(rng, p):
    for _ in range(p.samples):
        basis = _random_basis(rng, p)
        period = basis.period
        x, y = rng.randint(0, period - 1), rng.randint(0, period - 1)
        _require(decompose(basis, x * y % period) == \
            multiply(decompose(basis, x), decompose(basis, y)),
                 f"product map failed at x={x}, y={y}, basis={basis.moduli}")
    return f"{p.samples} random products"


# Every check_<suite>_<law> above, in definition order, as "<suite>.<law>".
CHECKS = tuple((name.removeprefix("check_").replace("_", ".", 1), fn)
               for name, fn in globals().items()
               if name.startswith("check_"))


def run_checks(depth: str = "standard", seed: int = 0,
               names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and collect results.

    An empty ``names`` is a ValueError: zero checks would pass silently.
    """
    if depth not in _PARAMS:
        raise ValueError(f"depth must be one of {DEPTHS}")
    params = _PARAMS[depth]
    selected = [(n, f) for n, f in CHECKS if names is None or n in names]
    if names is not None:
        if not names:
            raise ValueError("no checks selected")
        known = {n for n, _ in CHECKS}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name, fn in selected:
        rng = random.Random(f"{seed}:{name}")
        try:
            detail = fn(rng, params)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # a library call that raises fails its check
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
