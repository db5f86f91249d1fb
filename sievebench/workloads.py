"""The in-process workloads: seeded inputs, the timed calls, the checks.

Each workload (``count``, ``cycles``, ``wheel``; ``cli`` lives in
``cli_workload``) is three functions.  ``make(rng, ctx)`` draws one round of
operations from the seeded generator; ``run(op, ctx)`` makes the calls into
the program and returns what they returned; ``check(op, got, ctx)`` compares
that with ``reference`` and raises ``CheckFailed`` on any difference.  Only
``run`` is timed.  The program is always called through its module
attributes (``counting.count_legendre``), so a ``Tracer`` can wrap them.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, prod
from typing import Callable

from sievecycles import basis, counting, cycles, pairs, ring

from reference import (
    boundary_string,
    count_upto,
    is_center,
    pair_census,
    require,
    survives,
    survivor_total,
)

# --- count: one exact query on a fresh basis of 12 moduli --------------------

COUNT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
SQUARES = {2: 4, 3: 9, 5: 25}
DELTA_DENOMINATORS = (1, 2, 4, 5, 8, 10, 3, 7, 9)


def _prime_power_basis(rng, primes, size: int) -> list[int]:
    """``size`` of ``primes``, with 2, 3 and 5 squared half the time."""
    chosen = rng.sample(primes, size)
    return [SQUARES[p] if p in SQUARES and rng.random() < 0.5 else p for p in chosen]


def make_count(rng, ctx):
    moduli = _prime_power_basis(rng, COUNT_PRIMES, 12)
    period = prod(moduli)
    m = rng.choice([v for v in moduli if v >= 4])
    # Keep x inside the middle half of the period, where pruning is rare,
    # so every query evaluates close to the full 2^12 terms.
    k = rng.choice([k for k in range(1, m - 1) if m - 1 <= 4 * k <= 3 * (m - 1)])
    den = rng.choice(DELTA_DENOMINATORS)
    x = Fraction(k * period, m - 1) + Fraction(rng.randint(-30 * den, 30 * den), den)
    return [{"moduli": moduli, "x": x, "text": boundary_string(x),
             "drop": rng.choice(moduli), "shift": rng.randint(1, 10**12) * period}]


def run_count(op, ctx):
    b = basis.make_basis(op["moduli"])
    x = counting.exact_boundary(op["text"])
    return (b.moduli, x,
            counting.count_legendre(b, x).value,
            counting.count_meissel(b, x).value,
            counting.count_generalized_meissel(b, op["drop"], x).value,
            counting.count_periodic(b, x + op["shift"]).value)


def check_count(op, got, ctx):
    moduli, x, legendre, meissel, general, periodic = got
    want = count_upto(op["moduli"], op["x"])
    require(moduli == tuple(sorted(op["moduli"])), f"basis {moduli}")
    require(x == op["x"], f"{op['text']} parsed as {x}")
    require(legendre == want, f"count_legendre {legendre} != {want} at {op['text']}")
    require(meissel == want, f"count_meissel {meissel} != {want} at {op['text']}")
    require(general == want, f"count_generalized_meissel {general} != {want}")
    shifted = want + op["shift"] // prod(op["moduli"]) * survivor_total(op["moduli"])
    require(periodic == shifted, f"count_periodic {periodic} != {shifted}")


# --- cycles: every boundary of one subdivision of a 10-modulus basis ---------

CYCLE_PRIMES = COUNT_PRIMES[:12]


def make_cycles(rng, ctx):
    moduli = sorted(_prime_power_basis(rng, CYCLE_PRIMES, 10))
    return [{"moduli": moduli, "chosen": rng.choice(moduli[-3:])}]


def run_cycles(op, ctx):
    b = basis.make_basis(op["moduli"])
    return (cycles.subdivision(b, op["chosen"]), cycles.cycle_table(b),
            cycles.subdivision_boundary_check(b))


def check_cycles(op, got, ctx):
    report, table, boundary_ok = got
    moduli, m = op["moduli"], op["chosen"]
    period, total = prod(moduli), survivor_total(moduli)
    step = Fraction(period, m - 1)
    require(report.chosen_modulus == m, "chosen modulus")
    require(report.interval_length == step, f"interval length {report.interval_length}")
    require(len(report.intervals) == m - 1, f"{len(report.intervals)} intervals")
    for k, iv in enumerate(report.intervals, start=1):
        want = count_upto(moduli, k * step)
        require(iv.index == k and iv.boundary == k * step, f"boundary {k}")
        require(iv.cumulative_count == want, f"boundary {k}: {iv.cumulative_count} != {want}")
        require(iv.per_interval_count == total // (m - 1), f"interval {k} count")
    require([r.modulus for r in table] == moduli, "cycle table moduli")
    for row in table:
        require(row.interval_count == row.modulus - 1, f"row {row.modulus} pieces")
        require(row.interval_size == Fraction(period, row.modulus - 1),
                f"row {row.modulus} size")
        require(row.survivors_per_interval == total // (row.modulus - 1),
                f"row {row.modulus} survivors")
    require(boundary_ok is True, "subdivision_boundary_check returned false")


# --- wheel: materialize, extend, walk, pair and decompose --------------------

WHEEL_CHOICES = ((2, 4), (3, 9), (5, 25), (7,), (11,), (13,), (17,), (19,))
WHEEL_EXTENSIONS = (7, 11, 13)
WHEEL_PERIOD = (5 * 10**4, 1.2 * 10**5)
WHEEL_EXTEND_WORK = (1.3 * 10**5, 2.3 * 10**5)  # survivors x extension modulus
WHEEL_WINDOW = 2000
RING_SAMPLES = 40
WHEEL_SAMPLES = 64


def _draw_wheel_basis(rng):
    while True:
        extension = rng.choice(WHEEL_EXTENSIONS)
        moduli = [rng.choice(c) for c in WHEEL_CHOICES
                  if c[0] != extension and rng.random() < 0.8]
        period = prod(moduli)
        work = survivor_total(moduli) * extension
        if (WHEEL_PERIOD[0] <= period <= WHEEL_PERIOD[1]
                and WHEEL_EXTEND_WORK[0] <= work <= WHEEL_EXTEND_WORK[1]):
            return sorted(moduli), extension


def _odd(rng) -> int:
    return 2 * rng.randint(0, 49) + 1


def make_wheel(rng, ctx):
    moduli, extension = _draw_wheel_basis(rng)
    period = prod(moduli)
    units = []
    while len(units) < 2 * RING_SAMPLES:
        u = rng.randrange(1, period)
        if gcd(u, period) == 1:
            units.append(u)
    return [{"moduli": moduli, "extension": extension,
             "lo": rng.randint(10**12, 10**15), "a": _odd(rng), "b": _odd(rng),
             "samples": [rng.randrange(period) for _ in range(RING_SAMPLES)],
             "units": units, "probe": rng.getrandbits(32)}]


def run_wheel(op, ctx):
    b = basis.make_basis(op["moduli"])
    wheel = basis.build_wheel(b)
    extended = basis.extend_wheel(wheel, op["extension"])
    window = list(basis.iter_survivors(extended, op["lo"], op["lo"] + WHEEL_WINDOW))
    spec = pairs.PairSpec(op["a"], op["b"])
    census = pairs.pair_count(b, spec)
    centers = pairs.enumerate_pair_centers(b, spec)
    vectors = [ring.decompose(b, x) for x in op["samples"]]
    rebuilt = [ring.reconstruct(v) for v in vectors]
    units = op["units"]
    products, inverses = [], []
    for u, v in zip(units[::2], units[1::2]):
        du = ring.decompose(b, u)
        products.append(ring.multiply(du, ring.decompose(b, v)))
        inverses.append(ring.inverse(du))
    return wheel, extended, window, census, centers, vectors, rebuilt, products, inverses


def _check_wheel_body(wheel, moduli, rng, label):
    period, residues = prod(moduli), wheel.residues
    n = len(residues)
    require(wheel.period == period, f"{label} period {wheel.period}")
    require(wheel.count == n == survivor_total(moduli),
            f"{label} holds {n} residues, count {wheel.count}, "
            f"want {survivor_total(moduli)}")
    # map() over operator functions: linear, and allocates nothing per residue
    require(all(map(operator.lt, residues, islice(residues, 1, None))),
            f"{label} residues not strictly increasing")
    require(all(map(operator.eq, map(operator.add, residues, reversed(residues)),
                    repeat(period))),
            f"{label} residues not symmetric under r -> P - r")
    for _ in range(WHEEL_SAMPLES):
        y = rng.randrange(period)
        i = bisect_left(residues, y)
        listed = i < n and residues[i] == y
        require(listed == survives(moduli, y), f"{label}: {y} listed={listed}")


def check_wheel(op, got, ctx):
    wheel, extended, window, census, centers, vectors, rebuilt, products, inverses = got
    rng = random.Random(op["probe"])
    moduli = op["moduli"]
    period = prod(moduli)
    _check_wheel_body(wheel, moduli, rng, "build_wheel")
    wide = sorted(moduli + [op["extension"]])
    _check_wheel_body(extended, wide, rng, "extend_wheel")
    lo = op["lo"]
    require(window == [x for x in range(lo, lo + WHEEL_WINDOW + 1) if survives(wide, x)],
            f"iter_survivors window at {lo}")
    a, b = op["a"], op["b"]
    want = pair_census(moduli, a, b)
    require(census.predicted_count == want, f"pair_count {census.predicted_count} != {want}")
    require(len(centers) == want, f"{len(centers)} centers, census {want}")
    require(all(0 < c <= period for c in centers[:1] + centers[-1:]), "centers out of range")
    require(all(centers[i] < centers[i + 1] for i in range(len(centers) - 1)),
            "centers not strictly increasing")
    for c in rng.sample(centers, min(len(centers), WHEEL_SAMPLES)):
        require(is_center(moduli, period, c, a, b), f"{c} is no center of ({a}, {b})")
    for x, v, back in zip(op["samples"], vectors, rebuilt):
        require(v.entries == tuple(x % m for m in moduli), f"decompose({x})")
        require(back == x, f"reconstruct(decompose({x})) = {back}")
    units = op["units"]
    for u, v, prod_vec, inv in zip(units[::2], units[1::2], products, inverses):
        require(prod_vec.entries == tuple(u * v % m for m in moduli), f"multiply({u}, {v})")
        require(all(e * f % m == 1 for e, f, m in
                    zip((u % m for m in moduli), inv.entries, moduli)),
                f"inverse({u})")


@dataclass(frozen=True)
class Workload:
    make: Callable
    run: Callable
    check: Callable
    traced: dict  # module name -> the public functions the workload calls


IN_PROCESS = {
    "count": Workload(make_count, run_count, check_count, {
        "basis": ("make_basis",),
        "counting": ("exact_boundary", "count_legendre", "count_meissel",
                     "count_generalized_meissel", "count_periodic")}),
    "cycles": Workload(make_cycles, run_cycles, check_cycles, {
        "basis": ("make_basis",),
        "cycles": ("subdivision", "cycle_table", "subdivision_boundary_check")}),
    "wheel": Workload(make_wheel, run_wheel, check_wheel, {
        "basis": ("make_basis", "build_wheel", "extend_wheel", "iter_survivors"),
        "pairs": ("pair_count", "enumerate_pair_centers"),
        "ring": ("decompose", "reconstruct", "multiply", "inverse")}),
}
