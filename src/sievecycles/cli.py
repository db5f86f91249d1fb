"""Command-line interface.

Subcommands mirror the library: exact counts at rational boundaries,
wheel and survivor enumeration, pair censuses, cycle subdivision reports,
the totient bridge, residue-vector arithmetic, and the self-verification
suite.  Output is deterministic (no timestamps) in plain, CSV, or JSON
form.  Each ``cmd_*`` returns its findings once, as a ``Report``, and
``_render`` alone writes them in the chosen format.

Exit codes: 0 success, 1 usage or parse error, 2 capacity cap exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, islice

from .basis import (
    DEFAULT_WHEEL_CAP,
    CoprimeBasis,
    Wheel,
    _check_wheel_cap,
    build_wheel,
    iter_survivors,
    make_basis,
    make_prime_basis,
    survivor_blocks,
    survivor_flags,
)
from .counting import (
    DEFAULT_FACTOR_CAP,
    DEFAULT_ORACLE_CAP,
    METHOD_GENERALIZED_MEISSEL,
    METHOD_LEGENDRE,
    METHODS,
    _totient,
    count_by_sieve,
    count_generalized_meissel,
    count_legendre,
    count_meissel,
    count_periodic,
    distinct_prime_factors,
    exact_boundary,
)
from .cycles import cycle_table, subdivision, total_intervals
from .errors import CapacityError
from .pairs import PairSpec, enumerate_pair_centers, pair_count
from .render import format_exact
from .ring import (
    ResidueVector,
    decompose,
    inverse,
    is_survivor_vector,
    is_unit_vector,
    reconstruct,
)
from .verify import DEPTHS, run_checks

# One row per cap: dest, flag, environment variable, default, what it
# limits, and the subcommands that accept it.
_CAPS = (
    ("oracle_cap", "--oracle-cap", "SIEVECYCLES_ORACLE_CAP", DEFAULT_ORACLE_CAP,
     "largest floor(x) the sieve oracle will scan", ("count",)),
    ("wheel_cap", "--wheel-cap", "SIEVECYCLES_WHEEL_CAP", DEFAULT_WHEEL_CAP,
     "largest period list may span, or wheel, pairs or twins --enumerate "
     "materialize", ("list", "wheel", "pairs", "twins")),
    ("factor_cap", "--factor-cap", "SIEVECYCLES_FACTOR_CAP", DEFAULT_FACTOR_CAP,
     "largest input phi will trial-divide", ("phi",)),
)

_EPILOG = "caps:\n" + "".join(
    f"  {flag:<12} / {env:<22}   {limits} (default {default})\n"
    for _, flag, env, default, limits, _ in _CAPS) + """\
Flags win over environment variables; both win over the defaults.

exit codes: 0 success, 1 usage/parse error, 2 capacity exceeded, 3 verification failure.
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own complaints through our exit-code convention
    def error(self, message):
        raise UsageError(message)


def _resolve_caps(args) -> None:
    """Settle every cap the subcommand accepts: the flag, else the
    environment variable, else the default; a negative value is an error."""
    for dest, flag, env, default, _, _ in _CAPS:
        if not hasattr(args, dest):
            continue
        value, source = getattr(args, dest), flag
        if value is None:
            raw, source = os.environ.get(env, ""), env
            try:
                value = int(raw) if raw else default
            except ValueError:
                raise UsageError(f"{env} must be an integer, got {raw!r}") from None
        if value < 0:
            raise UsageError(f"{source} must be non-negative, got {value}")
        setattr(args, dest, value)


def _basis_from_args(args) -> CoprimeBasis:
    """The basis of --n or --moduli, checked as every basis is.  It
    refuses no period: once it returns, ``cmd_list`` holds the period to
    the wheel cap, and ``build_wheel`` and ``enumerate_pair_centers`` do
    so inside the library.  A census (``pairs`` or ``twins`` without
    ``--enumerate``) makes no wheel and never reads the cap."""
    if args.n is not None and args.moduli is not None:
        raise UsageError("--n and --moduli are mutually exclusive")
    if args.n is not None:
        if args.n < 0:
            raise UsageError("--n must be non-negative")
        return make_prime_basis(args.n)
    if args.moduli is not None:
        try:
            values = [int(tok) for tok in args.moduli.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"cannot parse --moduli {args.moduli!r}") from None
        if not values:
            raise UsageError("--moduli must list at least one modulus")
        return make_basis(values)
    raise UsageError("a basis is required: pass --n or --moduli")


# --- rendering ---------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """What one subcommand found, once, for every output format.

    ``result`` is the JSON value; an iterator is streamed.  ``rows`` (under
    ``header``, in csv) and the plain ``lines`` may be lazy too, so a long
    ``list`` range is never built and a large wheel never held as text.
    """

    query: dict
    moduli: tuple[int, ...] | None   # the JSON "basis"
    result: object
    header: list[str]
    rows: Iterable[list]
    lines: Iterable[str]
    method: str | None = None
    code: int = 0


def _cell(value) -> str:
    """One value as plain text and csv show it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _keyed(fields: dict) -> list[str]:
    return [f"{key}: {_cell(value)}" for key, value in fields.items()]


def _aligned(rows: list[list]) -> list[str]:
    cells = [[_cell(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in cells]


def _record(query: dict, basis: CoprimeBasis, fields: dict, *, result=None,
            method=None) -> Report:
    """A report whose csv is one row of ``fields`` and whose plain text is
    one ``key: value`` line per field."""
    return Report(query, basis.moduli, fields if result is None else result,
                  list(fields), [list(fields.values())], _keyed(fields), method)


def _render(report: Report, args, out) -> int:
    """Write ``report`` in the requested format; return its exit code."""
    fmt = "json" if args.json else args.format
    if fmt == "csv":
        writer = csv.writer(out)
        if not args.no_header:
            writer.writerow(report.header)
        writer.writerows([_cell(value) for value in row] for row in report.rows)
        return report.code
    if fmt == "plain":
        pieces = (line + "\n" for line in report.lines)
    else:
        head = {"query": report.query, "basis": report.moduli, "method": report.method}
        if isinstance(report.result, Iterator):
            items = map(json.dumps, report.result)
            pieces = chain(["{\n"], (f'  "{key}": {json.dumps(value)},\n'
                                     for key, value in head.items()),
                           ['  "result": ['], islice(items, 1),
                           (", " + item for item in items), ["]\n}\n"])
        else:
            doc = {**head, "result": report.result}
            pieces = chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"])
    # one write per 64 pieces: a large wheel or a long window is neither
    # held as one string nor written a line at a time, and a batch adds
    # nothing measurable to the peak memory of a long listing
    while text := "".join(islice(pieces, 64)):
        out.write(text)
    return report.code


# --- subcommands -------------------------------------------------------------


def cmd_count(args) -> Report:
    basis = _basis_from_args(args)
    x = exact_boundary(args.x)
    method = args.method
    if args.drop is not None and method != METHOD_GENERALIZED_MEISSEL:
        raise UsageError("--drop only applies to --method generalized_meissel")
    if method == "oracle":
        result = count_by_sieve(basis, x, cap=args.oracle_cap)
    elif method == "legendre":
        result = count_legendre(basis, x)
    elif method == "meissel":
        result = count_meissel(basis, x)
    elif method == METHOD_GENERALIZED_MEISSEL:
        if args.drop is None and not basis.moduli:
            raise UsageError("empty basis has no modulus to peel")
        drop = args.drop if args.drop is not None else basis.moduli[0]
        result = count_generalized_meissel(basis, drop, x)
    else:
        result = count_periodic(basis, x)
    return _record({"command": "count", "x": str(x), "method": method}, basis,
                   {"value": result.value, "method": result.method},
                   result=result.value, method=result.method)


@contextmanager
def _int_str_digits(limit: int):
    """Run the block or call under a limit of ``limit`` digits (0: none) on
    int/str conversion; Python before 3.10.7 has no such limit to set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# outside input: under Python's default digit limit an integer of a
# million digits fails at once instead of parsing for seconds
@_int_str_digits(getattr(sys.int_info, "default_max_str_digits", 0))
def _load_wheel_json(path: str, *, cap: int) -> Wheel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} does not look like wheel JSON: "
                             "nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not look like wheel JSON: not an object")
    try:
        moduli = data["basis"]
        residues = tuple(data["result"]["residues"])
        period = data["result"]["period"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} does not look like wheel JSON: {exc}") from None
    if not isinstance(moduli, list):
        raise ValueError(f"{path} is not a valid wheel: basis {moduli!r} is not a list")
    basis = make_basis(moduli)
    _check_wheel_cap(basis.period, cap)
    problem = _wheel_problem(basis, period, residues)
    if problem is not None:
        raise ValueError(f"{path} is not a valid wheel: {problem}")
    return Wheel(basis=basis, period=period, residues=residues,
                 count=len(residues))


def _wheel_problem(basis: CoprimeBasis, period, residues: tuple) -> str | None:
    """What keeps ``residues`` from being exactly the survivors of ``basis``
    in [0, period), or None.

    Strictly increasing survivors in [0, period), as many as the product
    formula gives, can only be all of them.
    """
    if type(period) is not int or period != basis.period:
        return f"period {period!r} is not the basis product {basis.period}"
    if len(residues) != basis.survivor_count:
        return (f"{len(residues)} residues, not the {basis.survivor_count} "
                "survivors of one period")
    if any(type(r) is not int for r in residues):
        return "residues must be integers"
    if not all(map(operator.lt, residues, residues[1:])):
        return "residues must be strictly increasing"
    if residues[0] < 0 or residues[-1] >= period:
        return f"residues must lie in [0, {period})"
    alive = survivor_flags(basis.moduli, 0, period - 1)
    struck = next((r for r in residues if not alive[r]), None)
    if struck is not None:
        return f"residue {struck} is divisible by a basis modulus"
    return None


def cmd_list(args) -> Report:
    """Survivors in [lo, hi].  A window narrower than the period is struck
    block by block, with no wheel; a wider one, or a wheel read from a file,
    is walked period by period.  Either way the wheel cap refuses the
    period."""
    if args.from_wheel is not None:
        if args.n is not None or args.moduli is not None:
            raise UsageError("--from-wheel replaces --n/--moduli")
        wheel = _load_wheel_json(args.from_wheel, cap=args.wheel_cap)
        basis = wheel.basis
    else:
        basis, wheel = _basis_from_args(args), None
        _check_wheel_cap(basis.period, args.wheel_cap)
    lo = args.lo if args.lo is not None else 1
    hi = args.hi if args.hi is not None else basis.period
    if lo < 0 or hi < lo:
        raise UsageError("need 0 <= lo <= hi")
    if wheel is None and hi - lo + 1 >= basis.period:
        wheel = build_wheel(basis, cap=args.wheel_cap)

    def walk() -> Iterator[int]:
        if wheel is not None:
            return iter_survivors(wheel, lo, hi)
        blocks = survivor_blocks(basis.moduli, lo, hi)
        return compress(range(lo, hi + 1), chain.from_iterable(blocks))

    # three lazy walks, of which the renderer consumes one
    return Report({"command": "list", "lo": lo, "hi": hi}, basis.moduli, walk(),
                  ["survivor"], ([x] for x in walk()), map(str, walk()))


def cmd_wheel(args) -> Report:
    wheel = build_wheel(_basis_from_args(args), cap=args.wheel_cap)
    fields = {"period": wheel.period, "count": wheel.count}
    return Report({"command": "wheel"}, wheel.basis.moduli,
                  {**fields, "residues": wheel.residues}, ["residue"],
                  ([r] for r in wheel.residues),
                  chain(_keyed(fields), ["residues:"], map(str, wheel.residues)))


def cmd_pairs(args) -> Report:
    basis = _basis_from_args(args)
    spec = PairSpec(args.a, args.b)
    census = pair_count(basis, spec)
    header = ["modulus", "forbidden", "factor"]
    rows = [[f.modulus, f.forbidden_count, f.factor]
            for f in census.per_modulus_factors]
    result = {"predicted": census.predicted_count,
              "factors": [dict(zip(header, row)) for row in rows]}
    lines = [f"predicted: {census.predicted_count}"]
    lines += [f"modulus {m}: forbidden {forbidden}, factor {factor}"
              for m, forbidden, factor in rows]
    if args.enumerate:
        centers = enumerate_pair_centers(basis, spec, cap=args.wheel_cap)
        result["centers"] = centers
        header, rows = ["center"], ([c] for c in centers)
        lines = chain(lines, ["centers:"], map(str, centers))
    query = {"command": args.command,
             "a": spec.left_offset, "b": spec.right_offset,
             "enumerate": bool(args.enumerate)}
    return Report(query, basis.moduli, result, header, rows, lines)


def cmd_cycles(args) -> Report:
    basis = _basis_from_args(args)
    report = subdivision(basis, args.chosen)
    fields = {"chosen": report.chosen_modulus,
              "interval_length": format_exact(report.interval_length)}
    header = ["k", "boundary", "cumulative", "per_interval"]
    rows = [[iv.index, format_exact(iv.boundary), iv.cumulative_count,
             iv.per_interval_count] for iv in report.intervals]
    return Report({"command": "cycles", "chosen": args.chosen}, basis.moduli,
                  {**fields, "intervals": [dict(zip(header, row)) for row in rows]},
                  header, rows, _keyed(fields) + _aligned([header] + rows))


def cmd_table(args) -> Report:
    basis = _basis_from_args(args)
    total = total_intervals(basis)
    header = ["modulus", "intervals", "interval_size", "survivors_per_interval"]
    rows = [[r.modulus, r.interval_count, format_exact(r.interval_size),
             r.survivors_per_interval] for r in cycle_table(basis)]
    return Report({"command": "table"}, basis.moduli,
                  {"rows": [dict(zip(header, row)) for row in rows],
                   "total_intervals": total}, header, rows,
                  _aligned([header] + rows) + [f"total_intervals: {total}"])


def cmd_phi(args) -> Report:
    if args.x < 1:
        raise UsageError("--x must be a positive integer")
    basis = CoprimeBasis(distinct_prime_factors(args.x, cap=args.factor_cap))
    value = _totient(args.x, basis)
    return _record({"command": "phi", "x": args.x}, basis,
                   {"phi": value, "prime_divisors": list(basis.moduli),
                    "matches_count": value == count_legendre(basis, args.x).value})


def cmd_ring(args) -> Report:
    basis = _basis_from_args(args)
    if (args.x is None) == (args.vector is None):
        raise UsageError("pass exactly one of --x or --vector")
    if args.x is not None:
        if args.x < 0:
            raise UsageError("--x must be non-negative")
        vector = decompose(basis, args.x)
    else:
        try:
            entries = tuple(int(tok) for tok in args.vector.split(","))
        except ValueError:
            raise UsageError(f"cannot parse --vector {args.vector!r}") from None
        vector = ResidueVector(basis, entries)

    fields: dict = {
        "entries": list(vector.entries),
        "survivor_vector": is_survivor_vector(vector),
        "unit_vector": is_unit_vector(vector),
        "reconstructed": reconstruct(vector),
    }
    if args.inverse:
        inv = inverse(vector)  # ValueError on non-units -> exit 1
        fields["inverse_entries"] = list(inv.entries)
        fields["inverse_reconstructed"] = reconstruct(inv)
    query = {"command": "ring",
             "x": args.x, "vector": args.vector, "inverse": bool(args.inverse)}
    return _record(query, basis, fields)


def cmd_verify(args) -> Report:
    names = None
    if args.checks is not None:
        names = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
    results = run_checks(depth=args.depth, seed=args.seed, names=names)
    failed = sum(not r.passed for r in results)
    header = ["name", "passed", "detail"]
    rows = [[r.name, r.passed, r.detail] for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append(f"passed {len(results) - failed}/{len(results)} at depth {args.depth}")
    result = {"results": [dict(zip(header, row)) for row in rows],
              "passed": len(results) - failed, "failed": failed}
    return Report({"command": "verify", "depth": args.depth, "seed": args.seed},
                  None, result, header, rows, lines, code=3 if failed else 0)


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sievecycles",
        description="Exact survivor structure of iterated sieving: wheels, "
                    "counts, cycles, pair censuses, residue vectors.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    basis = argparse.ArgumentParser(add_help=False)
    basis.add_argument("--n", type=int, metavar="N",
                       help="use the first N primes as the basis")
    basis.add_argument("--moduli", metavar="LIST",
                       help="comma-separated pairwise-coprime moduli, e.g. 20,2783")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "csv", "json"),
                     default="plain", help="output format (default plain)")
    fmt.add_argument("--json", action="store_true",
                     help="shorthand for --format json")
    fmt.add_argument("--no-header", action="store_true",
                     help="omit the header row in csv output")
    both = [basis, fmt]

    p = sub.add_parser("count", help="count survivors <= x", parents=both)
    p.add_argument("--x", required=True, metavar="BOUNDARY",
                   help="exact rational: 35, 52.5, or 105/2")
    p.add_argument("--method", choices=METHODS, default=METHOD_LEGENDRE)
    p.add_argument("--drop", type=int,
                   help="modulus to peel first (generalized_meissel only; "
                        "default: smallest)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("list", help="enumerate survivors in [lo, hi]", parents=both)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.add_argument("--from-wheel", metavar="FILE", dest="from_wheel",
                   help="reuse a wheel previously emitted as JSON")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("wheel", help="emit one full period of residues", parents=both)
    p.set_defaults(func=cmd_wheel)

    p = sub.add_parser("pairs", help="census of (x-a, x+b) survivor pairs",
                       parents=both)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--enumerate", action="store_true",
                   help="also list the centers in (0, period]")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("twins", help="census of twin survivors (a = b = 1)",
                       parents=both)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=cmd_pairs, a=1, b=1)

    p = sub.add_parser("cycles", help="equal-count subdivision for one modulus",
                       parents=both)
    p.add_argument("--chosen", type=int, required=True,
                   help="basis modulus whose m-1 intervals to report")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("table", help="per-modulus interval table for a basis",
                       parents=both)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("phi", help="Euler's totient and the survivor-count bridge",
                       parents=[fmt])
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("ring", help="residue vectors: decompose, reconstruct, invert",
                       parents=both)
    p.add_argument("--x", type=int, help="integer to decompose")
    p.add_argument("--vector", metavar="LIST",
                   help="comma-separated entries to reconstruct")
    p.add_argument("--inverse", action="store_true",
                   help="also report the componentwise inverse")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("verify", help="run the invariant suites", parents=[fmt])
    p.add_argument("--depth", choices=DEPTHS, default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", metavar="LIST",
                   help="comma-separated check names (default: all)")
    p.set_defaults(func=cmd_verify)

    for dest, flag, _, _, _, commands in _CAPS:
        for command in commands:
            sub.choices[command].add_argument(flag, type=int, dest=dest)
    return parser


# no digit limit on output: a 1250-prime period passes the default 4300
@_int_str_digits(0)
def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        _resolve_caps(args)
        return _render(args.func(args), args, out)
    except BrokenPipeError:
        # The reader stopped early (``| head``).  Point stdout at devnull,
        # so the interpreter's last flush cannot raise again, and exit 1
        # quietly, as Python does on a closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # an internal check (a roll's residue count, an interval's
        # survivors) found a wrong result; each runs before output starts
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # a cap set between free memory and the index range lets a request
        # through that no allocation can meet; name only the caps this
        # subcommand accepts
        caps = ", ".join(flag for dest, flag, *_ in _CAPS if hasattr(args, dest))
        advice = (f"; a lower cap ({caps}) refuses this request before allocating"
                  if caps else "")
        print(f"capacity error: out of memory{advice}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
