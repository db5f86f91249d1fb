"""Reference answers computed apart from the program.

Nothing here imports ``sievecycles``.  Counts come from the closed form at
subdivision boundaries plus trial division of the few integers between
that boundary and the query; everything else is trial division, brute
force or the product formulas.  Every check raises ``CheckFailed``
explicitly, so the checks keep working under ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, prod


class CheckFailed(Exception):
    """A program output disagreed with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def survives(moduli, n: int) -> bool:
    """Trial division: no modulus divides ``n``."""
    return all(n % m for m in moduli)


def survivors_between(moduli, lo: int, hi: int) -> int:
    """Survivors n with lo < n <= hi, by trial division."""
    return sum(1 for n in range(max(lo, 0) + 1, hi + 1) if survives(moduli, n))


def survivor_total(moduli) -> int:
    return prod(m - 1 for m in moduli)


def boundary_count(moduli, m: int, k: int) -> int:
    """Survivors <= k * P / (m - 1): k times the count without ``m``.

    With y = k * (P / m) / (m - 1), striking m removes exactly the
    survivors <= y of the other moduli, and (y, m*y] spans k of their
    periods, so the count is k * prod(m' - 1 for m' != m) for every k >= 0.
    """
    return k * (survivor_total(moduli) // (m - 1))


def count_upto(moduli, x: Fraction) -> int:
    """f(x): the closed form at the boundary nearest x, corrected by trial
    division of the integers between that boundary and x."""
    moduli = tuple(moduli)
    if x < 1:
        return 0
    if not moduli:
        return floor(x)
    period = prod(moduli)
    best = None
    for m in moduli:
        step = Fraction(period, m - 1)
        k = round(x / step)
        gap = abs(x - k * step)
        if best is None or gap < best[0]:
            best = (gap, m, k)
    _, m, k = best
    boundary = Fraction(k * period, m - 1)
    base = boundary_count(moduli, m, k)
    if x >= boundary:
        return base + survivors_between(moduli, floor(boundary), floor(x))
    return base - survivors_between(moduli, floor(x), floor(boundary))


def exact_text(q) -> str:
    """A rational as a terminating decimal when it is one, else n/d."""
    q = Fraction(q)
    den, twos, fives = q.denominator, 0, 0
    while den % 2 == 0:
        den, twos = den // 2, twos + 1
    while den % 5 == 0:
        den, fives = den // 5, fives + 1
    digits = max(twos, fives)
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    scaled = str(q.numerator * 10**digits // q.denominator)
    if digits == 0:
        return scaled
    scaled = scaled.rjust(digits + 1, "0")
    return f"{scaled[:-digits]}.{scaled[-digits:]}"


def boundary_string(x: Fraction) -> str:
    """The query spelling: "<int>.<digits>" when exact, else "<int>/<int>"."""
    text = exact_text(x)
    return text if "/" in text or "." in text else f"{text}.0"


def prime_divisors(n: int) -> list[int]:
    found, d = [], 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        found.append(n)
    return found


def totient(n: int) -> int:
    """Euler's totient by counting coprime residues."""
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def crt(moduli, entries) -> int:
    """The x in [0, P) with the given remainders, by stepping one modulus
    at a time."""
    x, step = 0, 1
    for e, m in zip(entries, moduli):
        while x % m != e:
            x += step
        step *= m
    return x


def pair_census(moduli, a: int, b: int) -> int:
    """Centers per period: prod(m - |{a mod m, -b mod m}|)."""
    return prod(m - len({a % m, (-b) % m}) for m in moduli)


def is_center(moduli, period: int, x: int, a: int, b: int) -> bool:
    return survives(moduli, (x - a) % period) and survives(moduli, (x + b) % period)
