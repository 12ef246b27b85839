"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rollup --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/`` of that checkout and nowhere else.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` spends half the window untraced
and half traced and prints the per-layer metrics (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, span
traces and a run report go to ``perfbench/out/``.

``--workload all`` runs every workload, each in its own process, and
prints one row per workload.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("rollup", "invent", "reason")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # reserved for confirming claims; never tune on it
SETUP_REPEATS = 5
IMPORT_REPEATS = 3  # this process's own import plus two fresh interpreters
TAIL_SAMPLES = 10  # a percentile is reported only with this many beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples: list[float], pct: int) -> float | None:
    """The ``pct``-th percentile of ``samples``, or ``None`` unless at
    least :data:`TAIL_SAMPLES` samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100)[pct - 1]
    beyond = sum(1 for sample in samples if sample > value)
    return value if beyond >= TAIL_SAMPLES else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_import_s() -> float:
    """Import time of the program and the benchmark in a new
    interpreter, measured as this process measures its own."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "import workloads, tracing, repro.perf.fingerprint; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return float(done.stdout)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check that
    ``repro`` really comes from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not {src}")


class Phase:
    """Ops of one closed-loop window."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.tallies: Counter[str] = Counter()

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_window(workload, inputs, expected, seconds, tracer, start_index,
               digests: list[str]) -> Phase:
    """Send ops one after another until ``seconds`` of wall time have
    passed; check each output.  ``prepare`` runs outside the timed
    region."""
    phase = Phase()
    began = time.perf_counter()
    index = start_index
    while time.perf_counter() - began < seconds:
        workload.prepare(inputs, index)
        tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                output = workload.op(inputs, index, tracer)
        except Exception:  # an op that raises is a failed op, not a crash
            phase.latencies.append(time.perf_counter() - t0)
            phase.failed += 1
            phase.problems.append(f"op {index} raised:\n{traceback.format_exc()}")
            index += 1
            continue
        phase.latencies.append(time.perf_counter() - t0)
        problems, digest = workload.check(inputs, expected, index, output)
        digests.append(digest)
        if workload.fixed_input and digest != digests[0]:
            problems.append("output differs from the first op's on the same input")
        if problems:
            phase.failed += 1
            phase.problems.append(f"op {index}: " + "; ".join(problems[:5]))
        phase.tallies.update(output.tallies)
        del output  # the next op starts without this op's result alive
        index += 1
    return phase


def per_layer_metrics(tracer, counters, phase, overhead_ratio):
    """Per-op layer metrics from the span records, the benchmark's own
    tallies and the program's telemetry counters."""
    ops = len(phase.latencies)
    totals = tracer.layer_totals()
    tallies = phase.tallies
    count = tracer.counts

    def layer(name, field, scale=1e-9):
        return totals.get(name, {}).get(field, 0) * scale / ops

    def per_op(value):
        return value / ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    seconds, counts, share = "s/op", "count/op", "ratio"
    ingest_s = totals.get("ingest", {}).get("busy", 0) * 1e-9
    metrics = {
        "ingest.busy_s": (layer("ingest", "busy"), seconds),
        "ingest.facts": (per_op(tallies["ingest.facts"]), counts),
        "ingest.facts_per_s": (ratio(tallies["ingest.facts"], ingest_s), "1/s"),
        "join.calls": (layer("join", "calls", 1), counts),
        "join.busy_s": (layer("join", "busy"), seconds),
        "join.triggers": (per_op(count["join.items"]), counts),
        "join.useful_ratio": (ratio(counters.get("chase.triggers_fired", 0),
                                    counters.get("chase.triggers_enumerated", 0)),
                              share),
        "hom.index_probes": (per_op(counters.get("hom.index_probes", 0)), counts),
        "hom.backtracks": (per_op(counters.get("hom.backtracks", 0)), counts),
        "activity.calls": (layer("activity", "calls", 1), counts),
        "activity.busy_s": (layer("activity", "busy"), seconds),
        "activity.reject_ratio": (
            ratio(count["activity.rejects"],
                  totals.get("activity", {}).get("calls", 0)), share),
        "sort.calls": (layer("sort", "calls", 1), counts),
        "sort.busy_s": (layer("sort", "busy"), seconds),
        "egd.search_calls": (layer("egd.search", "calls", 1), counts),
        "egd.search_busy_s": (layer("egd.search", "busy"), seconds),
        "egd.merges": (per_op(counters.get("chase.egd_merges", 0)), counts),
        "chase.calls": (layer("chase", "calls", 1), counts),
        "chase.busy_s": (layer("chase", "busy"), seconds),
        "chase.self_s": (layer("chase", "self"), seconds),
        "chase.rounds": (per_op(tallies["chase.rounds"]), counts),
        "chase.fired": (per_op(tallies["chase.fired"]), counts),
        "chase.nulls": (per_op(tallies["chase.nulls"]), counts),
        "chase.facts_added": (per_op(tallies["chase.facts_added"]), counts),
        "entail.calls": (layer("entail", "calls", 1), counts),
        "entail.busy_s": (layer("entail", "busy"), seconds),
        "entail.self_s": (layer("entail", "self"), seconds),
        "entail.cache_hit_ratio": (
            ratio(counters.get("entailment.cache_hits", 0),
                  counters.get("entailment.cache_hits", 0)
                  + counters.get("entailment.cache_misses", 0)), share),
        "entail.unknown": (per_op(count["entail.unknown"]), counts),
        "entail.chase_calls": (layer("entail.chase", "calls", 1), counts),
        "entail.chase_busy_s": (layer("entail.chase", "busy"), seconds),
        "cert.calls": (layer("cert", "calls", 1), counts),
        "cert.busy_s": (layer("cert", "busy"), seconds),
        "rewrite.busy_s": (layer("rewrite", "busy"), seconds),
        "rewrite.self_s": (layer("rewrite", "self"), seconds),
        "enum.candidates": (per_op(counters.get("enumeration.candidates", 0)),
                            counts),
        "rewrite.candidates_considered": (
            per_op(tallies["rewrite.considered"]), counts),
        "rewrite.entailed_ratio": (
            ratio(tallies["rewrite.entailed"], tallies["rewrite.considered"]),
            share),
        "plan.compiles": (per_op(count["plan.compile.calls"]), counts),
        "plan.compile_s": (per_op(count["plan.compile.ns"] * 1e-9), seconds),
        "trace.overhead_ratio": (overhead_ratio, share),
    }
    return metrics


def run_traced(workload, inputs, expected, args, digests):
    """Half the window untraced, half traced with the program's
    telemetry counters on; returns both phases and the per-layer
    metrics of the traced one."""
    from repro.telemetry import TELEMETRY
    from tracing import NullTracer, Tracer, engine_patches

    plain = run_window(workload, inputs, expected, args.seconds / 2,
                       NullTracer(), 0, digests)
    tracer = Tracer()
    tracer.egd_bodies = {id(body) for body in workload.egd_bodies(inputs)}
    TELEMETRY.reset()
    TELEMETRY.enable(spans=False)
    try:
        with tracer.installed(engine_patches(tracer)):
            traced = run_window(workload, inputs, expected, args.seconds / 2,
                                tracer, len(plain.latencies), digests)
    finally:
        TELEMETRY.disable()
    counters = TELEMETRY.snapshot()
    TELEMETRY.reset()
    tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl.gz")
    metrics = per_layer_metrics(
        tracer, counters, traced, plain.ops_per_s / traced.ops_per_s
    )
    return [plain, traced], metrics


def run_one(args) -> int:
    import_program()
    import workloads
    from repro.perf.fingerprint import environment_fingerprint
    from tracing import NullTracer

    import_s = statistics.median(
        [time.perf_counter() - _STARTED]
        + [fresh_import_s() for _ in range(IMPORT_REPEATS - 1)]
    )
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_times = []
    input_digests = set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, OUT)
        setup_times.append(time.perf_counter() - t0)
        input_digests.add(workload.input_digest(inputs))
    if len(input_digests) != 1:
        raise SystemExit("error: one seed gave different inputs")
    setup_s = import_s + statistics.median(setup_times)
    expected = workload.expect(inputs)

    digests: list[str] = []
    if args.trace:
        phases, metrics = run_traced(workload, inputs, expected, args, digests)
    else:
        phases = [run_window(workload, inputs, expected, args.seconds,
                             NullTracer(), 0, digests)]

    measured = phases[0]
    latencies = measured.latencies
    p90 = tail_percentile(latencies, 90)
    attempted = sum(len(phase.latencies) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    undecided = sum(phase.tallies["reason.undecided"] for phase in phases)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": measured.ops_per_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    if not args.trace:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end.items()}

    problems = [p for phase in phases for p in phase.problems]
    for problem in problems[:10]:
        print(problem, file=sys.stderr)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "end_to_end": end_to_end,
        "op_p90_ms": None if p90 is None else p90 * 1e3,
        "ops": len(latencies),
        "latencies_ms": [lat * 1e3 for lat in latencies],
        "fail_rate": failed / attempted,
        "undecided_rate": undecided / attempted,
        "input_digest": input_digests.pop(),
        "output_digest": hashlib.sha256(
            "".join(digests[:workload.digest_ops]).encode()
        ).hexdigest(),
        "fingerprint": environment_fingerprint(),
        "per_layer": {name: value for name, (value, _unit) in metrics.items()}
        if args.trace else {},
    }
    (OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    _print_summary(report, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _print_summary(report, metrics) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  {report['ops']} timed ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    p90 = report["op_p90_ms"]
    print(f"  {'op_p90_ms':32s} "
          + ("n/a (fewer than 10 ops beyond it)" if p90 is None
             else f"{p90:14.6g} ms"))
    print(f"  {'fail_rate':32s} {report['fail_rate']:14.6g}")
    print(f"  {'undecided_rate':32s} {report['undecided_rate']:14.6g}")
    print(f"  input digest  {report['input_digest']}")
    print(f"  output digest {report['output_digest']}")
    print(f"  fingerprint   {json.dumps(report['fingerprint'], sort_keys=True)}")


def run_all(args) -> int:
    """Every workload in its own process; one row each."""
    rows = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print(done.stdout.rstrip().rsplit("\n", 1)[0])
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(row["correct"] for row in rows.values()),
        "attempted": sum(row["attempted"] for row in rows.values()),
        "failed": sum(row["failed"] for row in rows.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, row in rows.items()
                    for metric, value in row["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
