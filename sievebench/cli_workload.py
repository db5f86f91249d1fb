"""The ``cli`` workload: one ``python -m sievecycles.cli`` process per op.

Every README command runs in plain, csv and json; ``verify --depth small``
runs once per check, so that the commands cost within a small factor of
each other (see ``readme_commands``).  Expected answers come from
``reference``; each output is parsed back into one normalized dict per
subcommand and compared field by field.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import selectors
import subprocess
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from reference import (
    CheckFailed,
    count_upto,
    crt,
    exact_text,
    is_center,
    prime_divisors,
    require,
    survives,
    survivor_total,
    totient,
)

FORMATS = ("plain", "csv", "json")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

VERIFY_FAMILIES = {
    "wheel": ("wheel.periodicity", "wheel.symmetry", "wheel.count_product",
              "wheel.one_kill_per_row", "wheel.order_independence",
              "wheel.composite_moduli"),
    "count": ("count.method_agreement", "count.peel_largest", "count.peel_any",
              "count.monotone_steps", "count.period_shift", "count.reflection",
              "count.pruning", "count.totient_bridge"),
    "cycles": ("cycles.uniform_counts", "cycles.row_consistency",
               "cycles.degenerate_two", "cycles.fractional_boundaries"),
    "pairs": ("pairs.census_exact", "pairs.twin_product", "pairs.merged_offsets",
              "pairs.center_shift", "pairs.center_mirror"),
    "ring": ("ring.bijection", "ring.survivor_vs_unit", "ring.group_axioms",
             "ring.product_map"),
}


def readme_commands(wheel_file: str, verify_seed: int) -> list[tuple[str, ...]]:
    """The README commands, ``verify`` split into one command per check, in
    each format.

    A plain command costs about 110 ms, nearly all of it interpreter start
    and import.  Most checks add 0.1-22 ms at depth small and
    ``wheel.composite_moduli`` about 90 ms, so 117 of the 120 commands cost
    within about 1.3x of each other.  One command per check family would
    add 5-110 ms in five classes of 3 commands each, and put the 90th
    percentile on the step between two of them.
    """
    base = [
        "count --n 4 --x 52.5",
        "count --n 4 --x 105/2",
        "count --n 10 --x 6469693230 --method legendre",
        "count --moduli 2,3,5 --x 209 --method periodic_reduction",
        "wheel --n 3",
        "list --n 4 --lo 100 --hi 140",
        "list --from-wheel WHEEL_FILE --lo 1 --hi 1000",
        "twins --n 4 --enumerate",
        "pairs --n 4 --a 3 --b 3",
        "cycles --n 4 --chosen 5",
        "table --n 10",
        "phi --x 55660",
        "ring --n 3 --x 7 --inverse",
    ]
    base += [f"verify --depth small --seed {verify_seed} --checks {name}"
             for names in VERIFY_FAMILIES.values() for name in names]
    # Split before substituting the path, which may hold spaces.
    return [tuple(wheel_file if tok == "WHEEL_FILE" else tok for tok in line.split())
            + ("--format", fmt) for line in base for fmt in FORMATS]


def wheel_document(moduli) -> str:
    """A wheel in the JSON schema ``wheel --json`` writes, for ``--from-wheel``."""
    period = 1
    for m in moduli:
        period *= m
    residues = [r for r in range(period) if survives(moduli, r)]
    return json.dumps({"query": {"command": "wheel"}, "basis": list(moduli),
                       "method": None,
                       "result": {"period": period, "count": len(residues),
                                  "residues": residues}})


# --- expected answers --------------------------------------------------------


def _options(argv) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _moduli(opts) -> tuple[int, ...]:
    if "n" in opts:
        return PRIMES[: int(opts["n"])]
    if "moduli" in opts:
        return tuple(sorted(int(t) for t in opts["moduli"].split(",")))
    return (2, 3, 5, 7)  # the --from-wheel file's basis


def expected(argv) -> dict:
    """Normalized answer of one command, from the reference alone."""
    sub, opts = argv[0], _options(argv)
    if sub == "verify":
        names = list(opts["checks"].split(","))
        return {"names": names, "passed": [True] * len(names)}
    if sub == "phi":
        x = int(opts["x"])
        return {"phi": totient(x), "prime_divisors": prime_divisors(x),
                "matches": True}
    moduli = _moduli(opts)
    period = 1
    for m in moduli:
        period *= m
    if sub == "count":
        # Fraction parses "52.5" and "105/2" exactly, apart from the program
        return {"value": count_upto(moduli, Fraction(opts["x"])),
                "method": opts.get("method", "legendre")}
    if sub == "wheel":
        residues = [r for r in range(period) if survives(moduli, r)]
        return {"period": period, "count": survivor_total(moduli),
                "residues": residues}
    if sub == "list":
        lo, hi = int(opts["lo"]), int(opts["hi"])
        return {"survivors": [n for n in range(lo, hi + 1) if survives(moduli, n)]}
    if sub in ("pairs", "twins"):
        a = int(opts.get("a", 1))
        b = int(opts.get("b", 1))
        factors = []
        predicted = 1
        for m in moduli:
            forbidden = len({a % m, (-b) % m})
            factors.append([m, forbidden, m - forbidden])
            predicted *= m - forbidden
        answer = {"predicted": predicted, "factors": factors}
        if opts.get("enumerate"):
            answer["centers"] = [x for x in range(1, period + 1)
                                 if is_center(moduli, period, x, a, b)]
        return answer
    if sub == "cycles":
        chosen = int(opts["chosen"])
        step = Fraction(period, chosen - 1)
        per = survivor_total(moduli) // (chosen - 1)
        return {"chosen": chosen, "interval_length": exact_text(step),
                "intervals": [[k, exact_text(k * step), count_upto(moduli, k * step), per]
                              for k in range(1, chosen)]}
    if sub == "table":
        total = survivor_total(moduli)
        return {"rows": [[m, m - 1, exact_text(Fraction(period, m - 1)),
                          total // (m - 1)] for m in moduli],
                "total": sum(m - 1 for m in moduli)}
    if sub == "ring":
        x = int(opts["x"])
        entries = [x % m for m in moduli]
        answer = {"entries": entries,
                  "survivor_vector": all(entries),
                  "unit_vector": all(gcd(e, m) == 1 for e, m in zip(entries, moduli)),
                  "reconstructed": crt(moduli, entries)}
        if opts.get("inverse"):
            inv = [next(f for f in range(m) if e * f % m == 1 % m)
                   for e, m in zip(entries, moduli)]
            answer["inverse_entries"] = inv
            answer["inverse_reconstructed"] = crt(moduli, inv)
        return answer
    raise CheckFailed(f"no reference for subcommand {sub}")


# --- parsing the three formats back ------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split()]


def _bool(text: str) -> bool:
    require(text in ("true", "false"), f"not a boolean: {text!r}")
    return text == "true"


def _kv(lines) -> dict[str, str]:
    pairs = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        require(bool(sep), f"unexpected line {line!r}")
        pairs[key] = value
    return pairs


_FACTOR_LINE = re.compile(r"^modulus (\d+): forbidden (\d+), factor (\d+)$")
_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+): .*$")


def _from_plain(sub: str, text: str) -> dict:
    lines = text.splitlines()
    if sub == "count":
        kv = _kv(lines)
        return {"value": int(kv["value"]), "method": kv["method"]}
    if sub == "wheel":
        require(lines[2] == "residues:", "missing residues header")
        kv = _kv(lines[:2])
        return {"period": int(kv["period"]), "count": int(kv["count"]),
                "residues": [int(t) for t in lines[3:]]}
    if sub == "list":
        return {"survivors": [int(t) for t in lines]}
    if sub in ("pairs", "twins"):
        answer = {"predicted": int(_kv(lines[:1])["predicted"]), "factors": []}
        rest = lines[1:]
        while rest and rest[0].startswith("modulus "):
            match = _FACTOR_LINE.match(rest.pop(0))
            require(match is not None, "malformed factor line")
            answer["factors"].append([int(g) for g in match.groups()])
        if rest:
            require(rest[0] == "centers:", f"unexpected line {rest[0]!r}")
            answer["centers"] = [int(t) for t in rest[1:]]
        return answer
    if sub == "cycles":
        kv = _kv(lines[:2])
        require(lines[2].split() == ["k", "boundary", "cumulative", "per_interval"],
                "missing interval header")
        rows = [line.split() for line in lines[3:]]
        return {"chosen": int(kv["chosen"]), "interval_length": kv["interval_length"],
                "intervals": [[int(k), b, int(c), int(p)] for k, b, c, p in rows]}
    if sub == "table":
        require(lines[0].split() == ["modulus", "intervals", "interval_size",
                                     "survivors_per_interval"], "missing table header")
        rows = [line.split() for line in lines[1:-1]]
        return {"rows": [[int(m), int(n), s, int(v)] for m, n, s, v in rows],
                "total": int(_kv(lines[-1:])["total_intervals"])}
    if sub == "phi":
        kv = _kv(lines)
        return {"phi": int(kv["phi"]), "prime_divisors": _ints(kv["prime_divisors"]),
                "matches": _bool(kv["matches_count"])}
    if sub == "ring":
        return _ring_fields(_kv(lines))
    if sub == "verify":
        matches = [_VERIFY_LINE.match(line) for line in lines[:-1]]
        require(all(matches), "malformed verify line")
        require(re.match(r"^passed (\d+)/(\d+) at depth small$", lines[-1]) is not None,
                "missing verify summary")
        return {"names": [m.group(2) for m in matches],
                "passed": [m.group(1) == "PASS" for m in matches]}
    raise CheckFailed(f"no plain parser for {sub}")


def _ring_fields(kv: dict[str, str]) -> dict:
    answer = {}
    for key, value in kv.items():
        if key in ("survivor_vector", "unit_vector"):
            answer[key] = _bool(value)
        elif key in ("entries", "inverse_entries"):
            answer[key] = _ints(value)
        else:
            answer[key] = int(value)
    return answer


_CSV_HEADERS = {
    "count": ["value", "method"],
    "wheel": ["residue"],
    "list": ["survivor"],
    "cycles": ["k", "boundary", "cumulative", "per_interval"],
    "table": ["modulus", "intervals", "interval_size", "survivors_per_interval"],
    "phi": ["phi", "prime_divisors", "matches_count"],
    "verify": ["name", "passed", "detail"],
}


def _from_csv(sub: str, text: str, enumerate_centers: bool) -> dict:
    header, *rows = list(csv.reader(io.StringIO(text)))
    if sub == "ring":
        require(len(rows) == 1, "ring csv wants one row")
        return _ring_fields(dict(zip(header, rows[0])))
    if sub in ("pairs", "twins"):
        if enumerate_centers:
            require(header == ["center"], f"csv header {header}")
            return {"centers": [int(r[0]) for r in rows]}
        require(header == ["modulus", "forbidden", "factor"], f"csv header {header}")
        return {"factors": [[int(v) for v in r] for r in rows]}
    require(header == _CSV_HEADERS[sub], f"csv header {header}")
    if sub == "count":
        require(len(rows) == 1, "count csv wants one row")
        return {"value": int(rows[0][0]), "method": rows[0][1]}
    if sub == "wheel":
        return {"residues": [int(r[0]) for r in rows]}
    if sub == "list":
        return {"survivors": [int(r[0]) for r in rows]}
    if sub == "cycles":
        return {"intervals": [[int(k), b, int(c), int(p)] for k, b, c, p in rows]}
    if sub == "table":
        return {"rows": [[int(m), int(n), s, int(v)] for m, n, s, v in rows]}
    if sub == "phi":
        require(len(rows) == 1, "phi csv wants one row")
        return {"phi": int(rows[0][0]), "prime_divisors": _ints(rows[0][1]),
                "matches": _bool(rows[0][2])}
    return {"names": [r[0] for r in rows], "passed": [_bool(r[1]) for r in rows]}


def _from_json(sub: str, text: str) -> dict:
    doc = json.loads(text)
    require(sorted(doc) == ["basis", "method", "query", "result"],
            f"json keys {sorted(doc)}")
    result = doc["result"]
    if sub == "count":
        return {"value": result, "method": doc["method"]}
    if sub == "list":
        return {"survivors": result}
    if sub in ("pairs", "twins"):
        answer = {"predicted": result["predicted"],
                  "factors": [[f["modulus"], f["forbidden"], f["factor"]]
                              for f in result["factors"]]}
        if "centers" in result:
            answer["centers"] = result["centers"]
        return answer
    if sub == "cycles":
        return {"chosen": result["chosen"], "interval_length": result["interval_length"],
                "intervals": [[iv["k"], iv["boundary"], iv["cumulative"], iv["per_interval"]]
                              for iv in result["intervals"]]}
    if sub == "table":
        return {"rows": [[r["modulus"], r["intervals"], r["interval_size"],
                          r["survivors_per_interval"]] for r in result["rows"]],
                "total": result["total_intervals"]}
    if sub == "phi":
        return {"phi": result["phi"], "prime_divisors": result["prime_divisors"],
                "matches": result["matches_count"]}
    if sub == "verify":
        require(result["failed"] == 0, f"verify reports {result['failed']} failed")
        return {"names": [r["name"] for r in result["results"]],
                "passed": [r["passed"] for r in result["results"]]}
    return dict(result)  # wheel and ring already use the normalized names


def check_output(argv, want: dict, code: int, stdout: str, stderr: str) -> None:
    """Raise CheckFailed unless one run of ``argv`` printed ``want``."""
    require(code == 0, f"{' '.join(argv)}: exit code {code}: {stderr.strip()[-200:]}")
    require(stderr == "", f"{' '.join(argv)}: stderr {stderr[-200:]!r}")
    sub, fmt = argv[0], argv[-1]
    try:
        if fmt == "json":
            got = _from_json(sub, stdout)
        elif fmt == "csv":
            got = _from_csv(sub, stdout, "--enumerate" in argv)
        else:
            got = _from_plain(sub, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"{' '.join(argv)}: unparseable output ({exc!r})") from None
    for key, value in got.items():
        require(key in want and want[key] == value,
                f"{' '.join(argv)}: {key} differs from the reference")
    if fmt != "csv":
        require(set(got) == set(want), f"{' '.join(argv)}: fields {sorted(got)}")


# --- running the commands ----------------------------------------------------


@dataclass
class ProcessResult:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kib: int


def run_process(argv, env, cwd, timeout: float = 120.0) -> ProcessResult:
    """Run ``argv`` to its end; collect its output and its own max RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, start + timeout - time.perf_counter()))
            if not ready:
                proc.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    return ProcessResult(proc.returncode, stdout, stderr, seconds, usage.ru_maxrss)


@dataclass
class CliContext:
    """Interpreter, checkout root and environment for the child processes."""

    python: str
    root: str
    env: dict
    wheel_file: str
    expected: dict = field(default_factory=dict)


def make_cli(rng, ctx: CliContext):
    """One round: every command once, in a seeded order."""
    commands = readme_commands(ctx.wheel_file, verify_seed=rng.randrange(1000))
    rng.shuffle(commands)
    for argv in commands:
        if argv not in ctx.expected:
            ctx.expected[argv] = expected(argv)
    return commands


def setup_commands(ctx: CliContext) -> list[tuple[str, ...]]:
    """The commands a set-up probe may run: all but the verify families."""
    commands = [argv for argv in readme_commands(ctx.wheel_file, verify_seed=0)
                if argv[0] != "verify"]
    for argv in commands:
        if argv not in ctx.expected:
            ctx.expected[argv] = expected(argv)
    return commands


def run_cli(argv, ctx: CliContext) -> ProcessResult:
    return run_process([ctx.python, "-m", "sievecycles.cli", *argv], ctx.env, ctx.root)


def check_cli(argv, got: ProcessResult, ctx: CliContext) -> None:
    check_output(argv, ctx.expected[argv], got.code, got.stdout, got.stderr)
