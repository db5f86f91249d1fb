"""Shared brute-force oracles, deliberately independent of the library.

Everything here recomputes from first principles (literal trial division,
full scans, one recursive call per inclusion-exclusion term) so library
results are checked against a second route, not against themselves.
``child_env`` alone reads the library: the environment a child interpreter
needs to import the same package as the tests.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import floor, prod


def oracle_survives(moduli, x: int) -> bool:
    return all(x % m != 0 for m in moduli)


def oracle_count(moduli, x) -> int:
    """Survivors a with 1 <= a <= x, one trial division at a time."""
    n = floor(Fraction(x))
    return sum(1 for a in range(1, n + 1) if oracle_survives(moduli, a))


def survivors_between(moduli, lo: int, hi: int) -> int:
    """Survivors a with lo < a <= hi, by trial division."""
    return sum(1 for a in range(lo + 1, hi + 1) if oracle_survives(moduli, a))


def count_near_subdivision(moduli, m: int, k: int, y) -> int:
    """f(y) for y near the boundary B = k * period / (m - 1), for any
    number of moduli.

    f(B) is k whole intervals of prod(m' - 1, m' != m) survivors, the
    paper's equal-count law; trial division over the few integers between
    B and y does the rest.
    """
    lo, hi = floor(Fraction(k * prod(moduli), m - 1)), floor(Fraction(y))
    base = k * prod(v - 1 for v in moduli if v != m)
    return base + survivors_between(moduli, lo, hi) - survivors_between(moduli, hi, lo)


def oracle_legendre(moduli, n: int) -> int:
    """Signed sum of n // d over the squarefree products d <= n of the
    ascending ``moduli``: one recursive call per product, pruned once
    products exceed n."""

    def signed_tail(start: int, product: int) -> int:
        total = n // product
        for i in range(start, len(moduli)):
            d = product * moduli[i]
            if d > n:
                break  # moduli ascend, so every later product exceeds n too
            total -= signed_tail(i + 1, d)
        return total

    if n < 1:
        return 0
    return signed_tail(0, 1)


def oracle_centers(moduli, a: int, b: int) -> list[int]:
    """Centers x in (0, period] with x-a and x+b surviving mod the period."""
    period = prod(moduli)
    return [x for x in range(1, period + 1)
            if oracle_survives(moduli, (x - a) % period)
            and oracle_survives(moduli, (x + b) % period)]


def child_env() -> dict:
    """The environment of a child interpreter: it imports the same
    ``sievecycles`` as these tests, under Python's default digit limit."""
    import sievecycles
    src = os.path.dirname(os.path.dirname(sievecycles.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env
