"""Command-line interface.

Subcommands mirror the library: exact counts at rational boundaries,
wheel and survivor enumeration, pair censuses, cycle subdivision reports,
the totient bridge, residue-vector arithmetic, and the self-verification
suite.  Output is deterministic (no timestamps) in plain, CSV, or JSON
form.

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

from .basis import (
    DEFAULT_WHEEL_CAP,
    CoprimeBasis,
    Wheel,
    build_wheel,
    iter_survivors,
    make_basis,
    make_prime_basis,
)
from .counting import (
    DEFAULT_FACTOR_CAP,
    DEFAULT_ORACLE_CAP,
    METHOD_GENERALIZED_MEISSEL,
    METHOD_LEGENDRE,
    METHODS,
    _survivor_flags,
    count_by_sieve,
    count_generalized_meissel,
    count_legendre,
    count_meissel,
    count_periodic,
    distinct_prime_factors,
    euler_phi,
    exact_boundary,
    phi_identity_check,
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

ENV_ORACLE_CAP = "SIEVECYCLES_ORACLE_CAP"
ENV_WHEEL_CAP = "SIEVECYCLES_WHEEL_CAP"
ENV_FACTOR_CAP = "SIEVECYCLES_FACTOR_CAP"

_EPILOG = f"""\
caps:
  --oracle-cap / {ENV_ORACLE_CAP}   largest floor(x) the sieve oracle will scan (default {DEFAULT_ORACLE_CAP})
  --wheel-cap  / {ENV_WHEEL_CAP}    largest period a wheel may materialize (default {DEFAULT_WHEEL_CAP})
  --factor-cap / {ENV_FACTOR_CAP}   largest input phi will trial-divide (default {DEFAULT_FACTOR_CAP})
Flags win over environment variables; both win over the defaults.

exit codes: 0 success, 1 usage/parse error, 2 capacity exceeded, 3 verification failure.
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own complaints through our exit-code convention
    def error(self, message):
        raise UsageError(message)


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None
    if value < 0:
        raise UsageError(f"{name} must be non-negative, got {value}")
    return value


def _resolve_cap(flag_value, flag: str, env_name: str, default: int) -> int:
    if flag_value is None:
        return _env_cap(env_name, default)
    if flag_value < 0:
        raise UsageError(f"{flag} must be non-negative, got {flag_value}")
    return flag_value


def _add_basis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, metavar="N",
                        help="use the first N primes as the basis")
    parser.add_argument("--moduli", metavar="LIST",
                        help="comma-separated pairwise-coprime moduli, e.g. 20,2783")


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("plain", "csv", "json"),
                        default="plain", help="output format (default plain)")
    parser.add_argument("--json", action="store_true",
                        help="shorthand for --format json")
    parser.add_argument("--no-header", action="store_true",
                        help="omit the header row in csv output")


def _basis_from_args(args) -> CoprimeBasis:
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


def _format_of(args) -> str:
    return "json" if args.json else args.format


def _envelope(query: dict, basis, method, result) -> str:
    document = {
        "query": query,
        "basis": list(basis.moduli) if basis is not None else None,
        "method": method,
        "result": result,
    }
    return json.dumps(document, indent=2)


def _write_csv(out, header, rows, no_header: bool) -> None:
    writer = csv.writer(out)
    if not no_header:
        writer.writerow(header)
    writer.writerows(rows)


def _plain_bool(value: bool) -> str:
    return "true" if value else "false"


# --- subcommands -------------------------------------------------------------


def cmd_count(args, out) -> int:
    basis = _basis_from_args(args)
    x = exact_boundary(args.x)
    method = args.method
    if args.drop is not None and method != METHOD_GENERALIZED_MEISSEL:
        raise UsageError("--drop only applies to --method generalized_meissel")
    if method == "oracle":
        cap = _resolve_cap(args.oracle_cap, "--oracle-cap", ENV_ORACLE_CAP,
                           DEFAULT_ORACLE_CAP)
        result = count_by_sieve(basis, x, cap=cap)
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

    fmt = _format_of(args)
    query = {"command": "count", "x": str(x), "method": method}
    if fmt == "json":
        out.write(_envelope(query, basis, result.method, result.value) + "\n")
    elif fmt == "csv":
        _write_csv(out, ["value", "method"], [[result.value, result.method]],
                   args.no_header)
    else:
        out.write(f"value: {result.value}\n")
        out.write(f"method: {result.method}\n")
    return 0


def _load_wheel_json(path: str) -> Wheel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not look like wheel JSON: not an object")
    body = data.get("result") if isinstance(data.get("result"), dict) else data
    try:
        moduli = data.get("basis") if "basis" in data else body["basis"]
        residues = tuple(body["residues"])
        period = body["period"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} does not look like wheel JSON: {exc}") from None
    basis = make_basis(moduli) if moduli else CoprimeBasis(())
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
    alive = _survivor_flags(basis.moduli, period - 1)
    struck = next((r for r in residues if not alive[r]), None)
    if struck is not None:
        return f"residue {struck} is divisible by a basis modulus"
    return None


def cmd_list(args, out) -> int:
    cap = _resolve_cap(args.wheel_cap, "--wheel-cap", ENV_WHEEL_CAP,
                       DEFAULT_WHEEL_CAP)
    if args.from_wheel is not None:
        if args.n is not None or args.moduli is not None:
            raise UsageError("--from-wheel replaces --n/--moduli")
        wheel = _load_wheel_json(args.from_wheel)
    else:
        wheel = build_wheel(_basis_from_args(args), cap=cap)
    lo = args.lo if args.lo is not None else 1
    hi = args.hi if args.hi is not None else wheel.period
    if lo < 0 or hi < lo:
        raise UsageError("need 0 <= lo <= hi")

    fmt = _format_of(args)
    survivors = iter_survivors(wheel, lo, hi)
    if fmt == "json":
        query = {"command": "list", "lo": lo, "hi": hi}
        # streamed by hand so huge ranges never materialize
        out.write('{\n  "query": ' + json.dumps(query) + ",\n")
        out.write('  "basis": ' + json.dumps(list(wheel.basis.moduli)) + ",\n")
        out.write('  "method": null,\n')
        out.write('  "result": [')
        first = True
        for x in survivors:
            out.write(("" if first else ", ") + str(x))
            first = False
        out.write("]\n}\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        if not args.no_header:
            writer.writerow(["survivor"])
        for x in survivors:
            writer.writerow([x])
    else:
        for x in survivors:
            out.write(f"{x}\n")
    return 0


def cmd_wheel(args, out) -> int:
    cap = _resolve_cap(args.wheel_cap, "--wheel-cap", ENV_WHEEL_CAP,
                       DEFAULT_WHEEL_CAP)
    wheel = build_wheel(_basis_from_args(args), cap=cap)
    fmt = _format_of(args)
    if fmt == "json":
        query = {"command": "wheel"}
        result = {"period": wheel.period, "count": wheel.count,
                  "residues": list(wheel.residues)}
        out.write(_envelope(query, wheel.basis, None, result) + "\n")
    elif fmt == "csv":
        _write_csv(out, ["residue"], [[r] for r in wheel.residues],
                   args.no_header)
    else:
        out.write(f"period: {wheel.period}\n")
        out.write(f"count: {wheel.count}\n")
        out.write("residues:\n")
        for r in wheel.residues:
            out.write(f"{r}\n")
    return 0


def cmd_pairs(args, out, *, twins: bool = False) -> int:
    basis = _basis_from_args(args)
    if twins:
        spec = PairSpec(1, 1)
    else:
        if args.a < 0 or args.b < 0:
            raise UsageError("offsets must be non-negative")
        spec = PairSpec(args.a, args.b)
    census = pair_count(basis, spec)
    centers = None
    if args.enumerate:
        cap = _resolve_cap(args.wheel_cap, "--wheel-cap", ENV_WHEEL_CAP,
                           DEFAULT_WHEEL_CAP)
        centers = enumerate_pair_centers(basis, spec, cap=cap)

    fmt = _format_of(args)
    query = {"command": "twins" if twins else "pairs",
             "a": spec.left_offset, "b": spec.right_offset,
             "enumerate": bool(args.enumerate)}
    if fmt == "json":
        result = {
            "predicted": census.predicted_count,
            "factors": [
                {"modulus": f.modulus, "forbidden": f.forbidden_count,
                 "factor": f.factor}
                for f in census.per_modulus_factors
            ],
        }
        if centers is not None:
            result["centers"] = list(centers)
        out.write(_envelope(query, basis, None, result) + "\n")
    elif fmt == "csv":
        if centers is not None:
            _write_csv(out, ["center"], [[c] for c in centers], args.no_header)
        else:
            _write_csv(out, ["modulus", "forbidden", "factor"],
                       [[f.modulus, f.forbidden_count, f.factor]
                        for f in census.per_modulus_factors],
                       args.no_header)
    else:
        out.write(f"predicted: {census.predicted_count}\n")
        for f in census.per_modulus_factors:
            out.write(f"modulus {f.modulus}: forbidden {f.forbidden_count}, "
                      f"factor {f.factor}\n")
        if centers is not None:
            out.write("centers:\n")
            for c in centers:
                out.write(f"{c}\n")
    return 0


def cmd_cycles(args, out) -> int:
    basis = _basis_from_args(args)
    report = subdivision(basis, args.chosen)
    fmt = _format_of(args)
    query = {"command": "cycles", "chosen": args.chosen}
    if fmt == "json":
        result = {
            "chosen": report.chosen_modulus,
            "interval_length": format_exact(report.interval_length),
            "intervals": [
                {"k": iv.index, "boundary": format_exact(iv.boundary),
                 "cumulative": iv.cumulative_count,
                 "per_interval": iv.per_interval_count}
                for iv in report.intervals
            ],
        }
        out.write(_envelope(query, basis, None, result) + "\n")
    elif fmt == "csv":
        _write_csv(out, ["k", "boundary", "cumulative", "per_interval"],
                   [[iv.index, format_exact(iv.boundary), iv.cumulative_count,
                     iv.per_interval_count] for iv in report.intervals],
                   args.no_header)
    else:
        out.write(f"chosen: {report.chosen_modulus}\n")
        out.write(f"interval_length: {format_exact(report.interval_length)}\n")
        rows = [("k", "boundary", "cumulative", "per_interval")]
        rows += [(str(iv.index), format_exact(iv.boundary),
                  str(iv.cumulative_count), str(iv.per_interval_count))
                 for iv in report.intervals]
        _write_aligned(out, rows)
    return 0


def cmd_table(args, out) -> int:
    basis = _basis_from_args(args)
    rows = cycle_table(basis)
    total = total_intervals(basis)
    fmt = _format_of(args)
    query = {"command": "table"}
    if fmt == "json":
        result = {
            "rows": [
                {"modulus": r.modulus, "intervals": r.interval_count,
                 "interval_size": format_exact(r.interval_size),
                 "survivors_per_interval": r.survivors_per_interval}
                for r in rows
            ],
            "total_intervals": total,
        }
        out.write(_envelope(query, basis, None, result) + "\n")
    elif fmt == "csv":
        _write_csv(out, ["modulus", "intervals", "interval_size",
                         "survivors_per_interval"],
                   [[r.modulus, r.interval_count, format_exact(r.interval_size),
                     r.survivors_per_interval] for r in rows],
                   args.no_header)
    else:
        table = [("modulus", "intervals", "interval_size",
                  "survivors_per_interval")]
        table += [(str(r.modulus), str(r.interval_count),
                   format_exact(r.interval_size), str(r.survivors_per_interval))
                  for r in rows]
        _write_aligned(out, table)
        out.write(f"total_intervals: {total}\n")
    return 0


def cmd_phi(args, out) -> int:
    if args.x < 1:
        raise UsageError("--x must be a positive integer")
    cap = _resolve_cap(args.factor_cap, "--factor-cap", ENV_FACTOR_CAP,
                       DEFAULT_FACTOR_CAP)
    value = euler_phi(args.x, cap=cap)
    divisors = distinct_prime_factors(args.x, cap=cap)
    matches = phi_identity_check(args.x, cap=cap)
    fmt = _format_of(args)
    query = {"command": "phi", "x": args.x}
    basis = CoprimeBasis(divisors)
    if fmt == "json":
        result = {"phi": value, "prime_divisors": list(divisors),
                  "matches_count": matches}
        out.write(_envelope(query, basis, None, result) + "\n")
    elif fmt == "csv":
        _write_csv(out, ["phi", "prime_divisors", "matches_count"],
                   [[value, " ".join(map(str, divisors)), _plain_bool(matches)]],
                   args.no_header)
    else:
        out.write(f"phi: {value}\n")
        out.write(f"prime_divisors: {' '.join(map(str, divisors))}\n")
        out.write(f"matches_count: {_plain_bool(matches)}\n")
    return 0


def cmd_ring(args, out) -> int:
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

    result: dict = {
        "entries": list(vector.entries),
        "survivor_vector": is_survivor_vector(vector),
        "unit_vector": is_unit_vector(vector),
        "reconstructed": reconstruct(vector),
    }
    if args.inverse:
        inv = inverse(vector)  # ValueError on non-units -> exit 1
        result["inverse_entries"] = list(inv.entries)
        result["inverse_reconstructed"] = reconstruct(inv)

    def rendered(value) -> str:
        if isinstance(value, bool):
            return _plain_bool(value)
        if isinstance(value, list):
            return " ".join(map(str, value))
        return str(value)

    fmt = _format_of(args)
    query = {"command": "ring",
             "x": args.x, "vector": args.vector, "inverse": bool(args.inverse)}
    if fmt == "json":
        out.write(_envelope(query, basis, None, result) + "\n")
    elif fmt == "csv":
        _write_csv(out, list(result), [[rendered(v) for v in result.values()]],
                   args.no_header)
    else:
        for key, value in result.items():
            out.write(f"{key}: {rendered(value)}\n")
    return 0


def cmd_verify(args, out) -> int:
    names = None
    if args.checks:
        names = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
    results = run_checks(depth=args.depth, seed=args.seed, names=names)
    failed = [r for r in results if not r.passed]
    fmt = _format_of(args)
    query = {"command": "verify", "depth": args.depth, "seed": args.seed}
    if fmt == "json":
        result = {
            "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        out.write(_envelope(query, None, None, result) + "\n")
    elif fmt == "csv":
        _write_csv(out, ["name", "passed", "detail"],
                   [[r.name, _plain_bool(r.passed), r.detail] for r in results],
                   args.no_header)
    else:
        for r in results:
            out.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
        out.write(f"passed {len(results) - len(failed)}/{len(results)} "
                  f"at depth {args.depth}\n")
    return 3 if failed else 0


def _write_aligned(out, rows) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        out.write(line.rstrip() + "\n")


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

    p = sub.add_parser("count", help="count survivors <= x")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--x", required=True, metavar="BOUNDARY",
                   help="exact rational: 35, 52.5, or 105/2")
    p.add_argument("--method", choices=METHODS, default=METHOD_LEGENDRE)
    p.add_argument("--drop", type=int,
                   help="modulus to peel first (generalized_meissel only; "
                        "default: smallest)")
    p.add_argument("--oracle-cap", type=int, dest="oracle_cap")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("list", help="enumerate survivors in [lo, hi]")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.add_argument("--from-wheel", metavar="FILE", dest="from_wheel",
                   help="reuse a wheel previously emitted as JSON")
    p.add_argument("--wheel-cap", type=int, dest="wheel_cap")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("wheel", help="emit one full period of residues")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--wheel-cap", type=int, dest="wheel_cap")
    p.set_defaults(func=cmd_wheel)

    p = sub.add_parser("pairs", help="census of (x-a, x+b) survivor pairs")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--enumerate", action="store_true",
                   help="also list the centers in (0, period]")
    p.add_argument("--wheel-cap", type=int, dest="wheel_cap")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("twins", help="census of twin survivors (a = b = 1)")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--wheel-cap", type=int, dest="wheel_cap")
    p.set_defaults(func=lambda args, out: cmd_pairs(args, out, twins=True))

    p = sub.add_parser("cycles", help="equal-count subdivision for one modulus")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--chosen", type=int, required=True,
                   help="basis modulus whose m-1 intervals to report")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("table", help="per-modulus interval table for a basis")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("phi", help="Euler's totient and the survivor-count bridge")
    _add_format_flags(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--factor-cap", type=int, dest="factor_cap")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("ring", help="residue vectors: decompose, reconstruct, invert")
    _add_basis_flags(p)
    _add_format_flags(p)
    p.add_argument("--x", type=int, help="integer to decompose")
    p.add_argument("--vector", metavar="LIST",
                   help="comma-separated entries to reconstruct")
    p.add_argument("--inverse", action="store_true",
                   help="also report the componentwise inverse")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_format_flags(p)
    p.add_argument("--depth", choices=DEPTHS, default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", metavar="LIST",
                   help="comma-separated check names (default: all)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
