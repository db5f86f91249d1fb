"""Self-test of the benchmark's answer checks.

    python3 sievebench/selftest.py

Each case wraps one public function of the program so that it returns a
wrong answer (a count off by one, a dropped residue, a missing centre, ...),
runs one operation through the same ``measure`` loop that ``run.py`` times,
and requires that operation to be reported failed.  The ``cli`` checks are
shown real outputs with one value altered.  The reference itself is
compared with brute force on small bases.  The script runs every case under
the current interpreter and then again under ``python -O``, where bare
``assert`` statements vanish; it exits 0 only if every fault is caught in
both.
"""

from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
from fractions import Fraction
from math import prod

import cli_workload
import run as bench
from reference import CheckFailed, count_upto, survives

sys.path.insert(0, str(bench.SRC))  # the program, for the imports below
from sievecycles import basis, counting, cycles, pairs, ring


def plus_one(result):
    return dataclasses.replace(result, value=result.value + 1)


def drop_residue(wheel):
    residues = wheel.residues[:3] + wheel.residues[4:]
    return dataclasses.replace(wheel, residues=residues, count=len(residues))


def bump_interval(report):
    first = dataclasses.replace(report.intervals[0],
                                cumulative_count=report.intervals[0].cumulative_count + 1)
    return dataclasses.replace(report, intervals=(first,) + report.intervals[1:])


def skip_second(items):
    for i, x in enumerate(items):
        if i != 1:
            yield x


def wrong_entry(vector):
    entries = (1 - vector.entries[0] % 2,) + vector.entries[1:]
    return dataclasses.replace(vector, entries=entries)


# (workload, module, function, how the result is corrupted)
FAULTS = [
    ("count", counting, "count_legendre", plus_one),
    ("count", counting, "count_meissel", plus_one),
    ("count", counting, "count_generalized_meissel", plus_one),
    ("count", counting, "count_periodic", plus_one),
    ("count", counting, "exact_boundary", lambda x: x + Fraction(1, 7)),
    ("cycles", cycles, "subdivision", bump_interval),
    ("cycles", cycles, "cycle_table", lambda rows: rows[:-1]),
    ("cycles", cycles, "subdivision_boundary_check", lambda ok: not ok),
    ("wheel", basis, "build_wheel", drop_residue),
    ("wheel", basis, "extend_wheel", drop_residue),
    ("wheel", basis, "iter_survivors", skip_second),
    ("wheel", pairs, "enumerate_pair_centers", lambda centers: centers[1:]),
    ("wheel", pairs, "pair_count",
     lambda c: dataclasses.replace(c, predicted_count=c.predicted_count + 1)),
    ("wheel", ring, "reconstruct", lambda x: x + 1),
    ("wheel", ring, "inverse", wrong_entry),
]


def one_op(name: str, ctx=None) -> bench.Run:
    table = bench.workload_table()
    return bench.measure(table[name], random.Random(f"selftest:{name}"), ctx, 0)


def check_program_faults() -> list[str]:
    problems = []
    for name in ("count", "cycles", "wheel"):
        clean = one_op(name)
        if clean.failed:
            problems.append(f"{name}: unaltered program reported failed: {clean.errors}")
    for name, module, function, corrupt in FAULTS:
        original = getattr(module, function)

        def faulty(*args, _f=original, _c=corrupt, **kwargs):
            return _c(_f(*args, **kwargs))

        setattr(module, function, faulty)
        try:
            outcome = one_op(name)
        finally:
            setattr(module, function, original)
        if outcome.wrong != outcome.attempted or outcome.attempted == 0:
            problems.append(f"{name}: wrong {module.__name__}.{function} not caught")
    return problems


# (command, how its stdout, exit code and stderr are altered)
CLI_FAULTS = [
    (("count", "--n", "4", "--x", "52.5", "--format", "plain"),
     lambda out, code, err: (out.replace("value: 12", "value: 13"), code, err)),
    (("wheel", "--n", "3", "--format", "json"),
     lambda out, code, err: (out.replace("29", "28"), code, err)),
    (("list", "--n", "4", "--lo", "100", "--hi", "140", "--format", "csv"),
     lambda out, code, err: (out.replace("101\r\n", ""), code, err)),
    (("twins", "--n", "4", "--enumerate", "--format", "plain"),
     lambda out, code, err: (out.rsplit("\n", 2)[0] + "\n", code, err)),
    (("phi", "--x", "55660", "--format", "json"),
     lambda out, code, err: (out.replace("19360", "19361"), code, err)),
    (("table", "--n", "10", "--format", "plain"),
     lambda out, code, err: (out, 1, err)),
    (("ring", "--n", "3", "--x", "7", "--inverse", "--format", "csv"),
     lambda out, code, err: (out, code, "warning\n")),
]


def check_cli_faults(ctx) -> list[str]:
    problems = []
    for argv, alter in CLI_FAULTS:
        want = cli_workload.expected(argv)
        got = cli_workload.run_cli(argv, ctx)
        try:
            cli_workload.check_output(argv, want, got.code, got.stdout, got.stderr)
        except CheckFailed as exc:
            problems.append(f"cli: unaltered {' '.join(argv)} failed: {exc}")
            continue
        out, code, err = alter(got.stdout, got.code, got.stderr)
        try:
            cli_workload.check_output(argv, want, code, out, err)
        except CheckFailed:
            continue
        problems.append(f"cli: altered output of {' '.join(argv)} not caught")
    return problems


def check_reference() -> list[str]:
    """The closed form plus trial division against a plain running count."""
    problems = []
    rng = random.Random("selftest:reference")
    for moduli in ((2, 3, 5, 7), (4, 9, 25), (3, 4, 5, 7), (8, 15, 77), (2, 9, 11, 13)):
        period = prod(moduli)
        running = [0]
        for n in range(1, 2 * period + 2):
            running.append(running[-1] + survives(moduli, n))
        for _ in range(200):
            den = rng.choice((1, 2, 3, 6))
            x = Fraction(rng.randrange(0, 2 * period * den), den)
            if count_upto(moduli, x) != running[int(x)]:
                problems.append(f"reference count wrong for {moduli} at {x}")
                break
    return problems


def main() -> int:
    ctx = cli_workload.CliContext(python=sys.executable, root=str(bench.ROOT),
                                  env=bench.child_env(), wheel_file="")
    problems = check_reference() + check_program_faults() + check_cli_faults(ctx)
    mode = "python -O" if sys.flags.optimize else "python"
    for problem in problems:
        print(f"FAIL ({mode}): {problem}")
    print(f"selftest under {mode}: {len(FAULTS)} program faults and "
          f"{len(CLI_FAULTS)} altered cli outputs, {len(problems)} problems")
    if problems:
        return 1
    if not sys.flags.optimize:
        return subprocess.run([sys.executable, "-O", __file__]).returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
