"""Benchmark of sievecycles: four seeded closed-loop workloads.

    python3 sievebench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One operation is in flight at a time.
Every answer is checked against ``reference``, which never imports the
program.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Full results and
the spans of a traced run go to ``sievebench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

import cli_workload
from reference import CheckFailed, exact_text
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NAMES = ("count", "cycles", "wheel", "cli")
MIN_OPS = 100           # so that ten samples lie beyond latency_p90_ms
SETUP_PROBES = 7        # fresh processes per run; setup_s is their median
LAYER_PROBE_OPS = 5     # traced ops of each other workload in a traced run
CLI_START_PROBES = 5    # fresh processes for cli.interpreter_ms and cli.import_ms
REF_SECONDS = 0.5


def ref_loop() -> float:
    """Blocks per second of a fixed integer loop that never calls the program."""
    blocks, start = 0, time.perf_counter()
    while True:
        x = 0
        for i in range(20000):
            x = (x * 31 + i) % 1000003
        blocks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= REF_SECONDS:
            return blocks / elapsed


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first, and
    bytecode cached under ``out/`` so that set-up is measured compiled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Run:
    """Counts and samples of one measured phase."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.started: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.child_rss_kib = 0

    def record_failure(self, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append(message)

    def ops_per_s(self) -> float:
        return len(self.seconds) / sum(self.seconds)


def measure(load, rng, ctx, seconds: float, *, min_ops: int = 1, tracer=None,
            after=None, run: Run | None = None) -> Run:
    """Closed loop over whole rounds until ``seconds`` have passed and at
    least ``min_ops`` were attempted.  Only ``load.run`` is timed;
    ``after(op, got, elapsed)`` runs untimed after each correct op."""
    run = run or Run()
    first = run.attempted
    start = time.perf_counter()
    while run.attempted - first < min_ops or time.perf_counter() - start < seconds:
        for op in load.make(rng, ctx):
            run.attempted += 1
            if tracer is not None:
                tracer.op_id = run.attempted
            span = tracer.span("op") if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    got = load.run(op, ctx)
            except Exception as exc:  # the program raised: a failed op
                run.record_failure(f"{type(exc).__name__}: {exc}", wrong=False)
                continue
            elapsed = time.perf_counter() - t0
            try:
                load.check(op, got, ctx)
            except CheckFailed as exc:
                run.record_failure(str(exc), wrong=True)
                continue
            except Exception as exc:  # output not even shaped like the answer
                run.record_failure(f"unreadable output: {type(exc).__name__}: {exc}",
                                   wrong=True)
                continue
            run.seconds.append(elapsed)
            run.started.append(t0)
            if hasattr(got, "maxrss_kib"):
                run.child_rss_kib = max(run.child_rss_kib, got.maxrss_kib)
            if after is not None:
                after(op, got, time.perf_counter() - start)
    return run


def setup_probe(name: str, seed: int, i: int, ctx, run: Run) -> float:
    """Wall time of one fresh process that starts, imports and runs one
    warm-up op drawn from a set-up seed (for ``cli``: one CLI command)."""
    label = f"setup:{name}:{seed}:{i}"
    if name == "cli":
        argv = random.Random(label).choice(cli_workload.setup_commands(ctx))
        got = cli_workload.run_cli(argv, ctx)
        try:
            cli_workload.check_cli(argv, got, ctx)
        except CheckFailed as exc:
            run.record_failure(f"set-up probe: {exc}", wrong=True)
    else:
        got = cli_workload.run_process(
            [ctx.python, str(BENCH / "probe.py"), name, label], ctx.env, ctx.root)
        if got.code != 0:
            run.record_failure(f"set-up probe: {got.stderr.strip()[-300:]}", wrong=True)
    return got.seconds


def end_to_end(name: str, run: Run, setup: list[float]) -> dict:
    """The metrics of the result line.  Throughput and median latency are
    not among them: they move with the machine's speed spells by 10-35 %
    between runs of the same code (README, "The machine's spells"), so they
    go to the detail file only (``spell_sensitive``)."""
    ms = [s * 1e3 for s in run.seconds]
    if name == "cli":
        rss_kib = run.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup), "s"),
        "latency_p90_ms": (quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def spell_sensitive(run: Run) -> dict:
    ms = [s * 1e3 for s in run.seconds]
    return {"ops_per_s": run.ops_per_s(), "latency_p50_ms": median(ms),
            "latency_p75_ms": quantiles(ms, n=4)[2]}


# --- the traced run ----------------------------------------------------------

SPAN_METRICS = {  # metric -> (span name, scale, unit)
    "counting.exact_boundary_us": ("counting.exact_boundary", 1e6, "us"),
    "basis.make_basis_us": ("basis.make_basis", 1e6, "us"),
    "counting.legendre_ms": ("counting.count_legendre", 1e3, "ms"),
    "counting.meissel_ms": ("counting.count_meissel", 1e3, "ms"),
    "counting.generalized_meissel_ms": ("counting.count_generalized_meissel", 1e3, "ms"),
    "counting.periodic_ms": ("counting.count_periodic", 1e3, "ms"),
    "cycles.subdivision_ms": ("cycles.subdivision", 1e3, "ms"),
    "cycles.cycle_table_us": ("cycles.cycle_table", 1e6, "us"),
    "cycles.boundary_check_ms": ("cycles.subdivision_boundary_check", 1e3, "ms"),
    "basis.build_wheel_ms": ("basis.build_wheel", 1e3, "ms"),
    "basis.extend_wheel_ms": ("basis.extend_wheel", 1e3, "ms"),
    "basis.iter_survivors_ms": ("basis.iter_survivors", 1e3, "ms"),
    "pairs.enumerate_pair_centers_ms": ("pairs.enumerate_pair_centers", 1e3, "ms"),
    "pairs.pair_count_us": ("pairs.pair_count", 1e6, "us"),
    "render.format_exact_us": ("render.format_exact", 1e6, "us"),
}


def traced_run(table, name: str, seed: int, ctx, cli_ctx, seconds: float,
               run: Run) -> dict:
    """Untraced then traced halves of the workload, then a few traced ops of
    every other workload and the in-process cli probes."""
    from sievecycles import basis, counting, cli, cycles, pairs, render, ring, verify

    modules = {"basis": basis, "counting": counting, "cycles": cycles,
               "pairs": pairs, "ring": ring}
    load = table[name]
    in_process = {n: w for n, w in table.items() if n != "cli"}
    plain = measure(load, random.Random(f"{name}:{seed}"), ctx, seconds / 2, run=Run())
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.wrong += plain.wrong
    run.errors += plain.errors

    tracer = Tracer()
    wanted: dict[str, set] = {}
    for other in in_process.values():
        for module, functions in other.traced.items():
            wanted.setdefault(module, set()).update(functions)
    for module, functions in wanted.items():
        tracer.install(modules[module], sorted(functions))
    tracer.install(render, ["format_exact"])
    notes: dict[str, list] = {"pieces": [], "residues": [], "bytes": []}

    def observe(op, got, elapsed):
        if "chosen" in op:
            notes["pieces"].append((tracer.op_id, op["chosen"] - 1))
        elif "extension" in op:
            residues = got[1].residues
            notes["residues"].append(len(residues))
            notes["bytes"].append(sys.getsizeof(residues)
                                  + sum(sys.getsizeof(r) for r in residues))

    try:
        traced = measure(load, random.Random(f"{name}:{seed}:traced"),
                         ctx, seconds / 2, tracer=tracer, after=observe, run=run)
        overhead = traced.ops_per_s() / plain.ops_per_s()
        for other, other_load in in_process.items():
            if other != name:
                rng = random.Random(f"layers:{other}:{seed}")
                for _ in range(LAYER_PROBE_OPS):
                    measure(other_load, rng, None, 0, tracer=tracer,
                            after=observe, run=run)
        cli_metrics = cli_layer_probe(cli, verify, render, tracer, cli_ctx, seed, run)
    finally:
        tracer.uninstall()

    metrics = {m: (tracer.median_duration(span) * scale, unit)
               for m, (span, scale, unit) in SPAN_METRICS.items()}
    by_op = {op: end - start for n, start, end, _, op in tracer.spans
             if n == "cycles.subdivision"}
    metrics["cycles.subdivision_per_boundary_ms"] = (
        median(by_op[op] / pieces for op, pieces in notes["pieces"]) * 1e3, "ms")
    metrics["ring.roundtrip_us"] = ((tracer.median_duration("ring.decompose")
                                     + tracer.median_duration("ring.reconstruct")) * 1e6, "us")
    metrics["ring.multiply_inverse_us"] = ((tracer.median_duration("ring.multiply")
                                            + tracer.median_duration("ring.inverse")) * 1e6, "us")
    metrics["basis.wheel_residues"] = (median(notes["residues"]), "count")
    metrics["basis.wheel_bytes"] = (median(notes["bytes"]), "bytes")
    metrics.update(cli_metrics)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
    return metrics


IMPORT_TIMER = ("import time; t = time.perf_counter(); import sievecycles.cli; "
                "print(time.perf_counter() - t)")


def cli_layer_probe(cli, verify, render, tracer, ctx, seed: int, run: Run) -> dict:
    """Interpreter start, import, each command through ``cli.main`` in
    process, each verify family, and ``format_exact``, all traced."""
    starts = [cli_workload.run_process([ctx.python, "-c", "pass"], ctx.env, ctx.root)
              for _ in range(CLI_START_PROBES + 1)][1:]
    imports = [cli_workload.run_process([ctx.python, "-c", IMPORT_TIMER], ctx.env, ctx.root)
               for _ in range(CLI_START_PROBES)]
    commands = cli_workload.make_cli(random.Random(f"layers:cli:{seed}"), ctx)
    stdout_bytes = 0
    for argv in commands:
        run.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.{argv[0]}", program=True), redirect_stderr(err):
            code = cli.main(list(argv), out=out)
        try:
            cli_workload.check_output(argv, ctx.expected[argv], code,
                                      out.getvalue(), err.getvalue())
        except CheckFailed as exc:
            run.record_failure(f"in-process {exc}", wrong=True)
        stdout_bytes += len(out.getvalue().encode())
    for family, names in cli_workload.VERIFY_FAMILIES.items():
        run.attempted += 1
        with tracer.span(f"verify.{family}", program=True):
            results = verify.run_checks(depth="small", seed=seed, names=list(names))
        bad = [r.name for r in results if not r.passed]
        if bad or [r.name for r in results] != list(names):
            run.record_failure(f"verify {family}: failed {bad}", wrong=True)
    for modulus in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        period = 6469693230 * 31 * 37
        for k in range(1, 8):
            q = Fraction(k * period, modulus - 1) + Fraction(k, 2 ** k)
            run.attempted += 1
            if render.format_exact(q) != exact_text(q):
                run.record_failure(f"format_exact({q})", wrong=True)
    metrics = {
        "cli.interpreter_ms": (median(p.seconds for p in starts) * 1e3, "ms"),
        "cli.import_ms": (median(float(p.stdout) for p in imports) * 1e3, "ms"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    for sub in sorted({argv[0] for argv in commands}):
        metrics[f"cli.{sub}_ms"] = (tracer.median_duration(f"cli.{sub}") * 1e3, "ms")
    for family in cli_workload.VERIFY_FAMILIES:
        metrics[f"verify.{family}_ms"] = (tracer.median_duration(f"verify.{family}") * 1e3, "ms")
    return metrics


# --- entry point -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sievecycles" / "__init__.py").is_file():
        print(f"sievebench: no sievecycles package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workload_table()
    OUT.mkdir(exist_ok=True)

    wheel_file = OUT / "wheel-2-3-5-7.json"
    wheel_file.write_text(cli_workload.wheel_document((2, 3, 5, 7)), encoding="utf-8")
    cli_ctx = cli_workload.CliContext(python=sys.executable, root=str(ROOT),
                                      env=child_env(), wheel_file=str(wheel_file))
    ctx = cli_ctx if args.workload == "cli" else None
    load = table[args.workload]
    run = Run()
    ref_before = ref_loop()
    if args.trace:
        setup = []
        metrics = traced_run(table, args.workload, args.seed, ctx, cli_ctx, args.seconds, run)
    else:
        # Set-up probes are spread over the run, so that their median spans
        # the machine's slow and fast spells as the ops do.  The first one
        # only compiles bytecode and is not counted.
        setup_probe(args.workload, args.seed, 0, cli_ctx, run)
        setup = []

        def probe_when_due(op, got, elapsed: float) -> None:
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(setup_probe(args.workload, args.seed, len(setup) + 1,
                                         cli_ctx, run))

        measure(load, random.Random(f"{args.workload}:{args.seed}"), ctx,
                args.seconds, min_ops=MIN_OPS, after=probe_when_due, run=run)
        while len(setup) < SETUP_PROBES:
            probe_when_due(None, None, float("inf"))
        metrics = end_to_end(args.workload, run, setup)
    ref_after = ref_loop()
    if args.trace:
        metrics["machine.ref_loop_per_s"] = ((ref_before + ref_after) / 2, "1/s")

    result = {"correct": run.wrong == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, errors=run.errors, setup_samples_s=setup,
                  spell_sensitive={} if args.trace else spell_sensitive(run),
                  ref_loop_per_s=[ref_before, ref_after],
                  op_start_s=[round(t - run.started[0], 4) for t in run.started],
                  op_ms=[round(s * 1e3, 3) for s in run.seconds], nproc=os.cpu_count(),
                  python=platform.python_version())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for message in run.errors:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def workload_table() -> dict:
    """All four workloads; imports the program, so call it once ``src`` is
    on ``sys.path``."""
    import workloads

    table = dict(workloads.IN_PROCESS)
    table["cli"] = workloads.Workload(cli_workload.make_cli, cli_workload.run_cli,
                                      cli_workload.check_cli, {})
    return table


if __name__ == "__main__":
    sys.exit(main())
