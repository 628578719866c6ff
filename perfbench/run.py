#!/usr/bin/env python3
"""Run one benchmark workload and print one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` next to this directory;
without it the run exits non-zero and prints no result. Each run executes
in a fresh interpreter whose ``PYTHONHASHSEED`` is derived from
``--seed`` (string hashing decides set iteration order, and with it how
much work some code paths do), with every ``REPRO_*`` override
removed so the program's defaults are measured, pinned to one CPU. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds of the same workload and reports the per-layer metrics. Timings
are scaled to a reference host speed (``perfbench/hostspeed.py``). The
last line of standard output is the result object; the lines before it
record the run's settings and the host-speed scales it applied.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A run whose reads mostly come back empty measures nothing useful.
MIN_NONEMPTY_SHARE = 0.5
#: Hard limit on one run, including set-up.
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hash_seed(seed: int) -> str:
    return str(seed % 2**32)


def needs_fresh_interpreter(seed: int) -> bool:
    return os.environ.get("PYTHONHASHSEED") != hash_seed(seed) or any(
        key.startswith("REPRO_") for key in os.environ
    )


def run_in_fresh_interpreter(argv, seed: int) -> int:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hash_seed(seed)
    try:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv],
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 3
    return completed.returncode


def pin_to_one_cpu() -> None:
    """Run this process, and every thread and process it starts, on one CPU.

    The program's pool threads run most of the work of a search, full
    garbage collections included; pinned, they share the core whose
    speed :mod:`perfbench.hostspeed` measures from the main thread.
    Threads and forked workers inherit the mask, so this runs before
    the program is imported.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program() -> None:
    """Make ``src/repro`` and this package importable, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, deployment, seconds: float, sample) -> None:
    """Whole rounds until ``seconds`` of wall time (checks included) pass."""
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        if not workload.run_round(deployment, sample):
            break


def end_to_end(sample, phases) -> dict:
    """The end-to-end metrics of one measured run, over all its operations."""
    setup = [sum(phase.values()) for phase in phases]
    return {
        "throughput_ops_s": (len(sample.ops) / sum(sample.ops), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(sample.reads), "ms"),
        "latency_p90_ms": (1000.0 * percentile(sample.reads, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(workload, deployment, seconds: float, phases):
    """Alternate untraced and traced rounds, then derive layer metrics.

    Alternating round by round puts both sides under the same host speed
    and the same garbage-collection cadence, so ``trace.overhead_ratio``
    compares like with like. Spans come from the traced rounds; GC
    pauses and write latencies from the untraced ones; counter deltas
    cover both and are taken per operation.
    """
    from perfbench import layers
    from perfbench.spans import GcMonitor, SpanRecorder
    from perfbench.workloads import Sample

    plain, sample = Sample(), Sample()
    collector, recorder = GcMonitor(), SpanRecorder()
    gc.collect()
    before = layers.registry_counts()
    cache_before = deployment.engine.cache_info()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        collector.install()
        try:
            more = workload.run_round(deployment, plain)
        finally:
            collector.uninstall()
        if not more:
            break
        layers.install(recorder)
        try:
            more = workload.run_round(deployment, sample)
        finally:
            recorder.uninstall()
        if not more:
            break
    after = layers.registry_counts()
    cache_after = deployment.engine.cache_info()
    queries = workload.read_queries()
    obs_ratio = layers.obs_overhead_ratio(deployment, queries) if queries else 0.0

    writes = plain.writes
    full = collector.full
    extra = {
        "setup.first_s": sum(phases[0].values()),
        "setup.load_s": statistics.median(phase["load"] for phase in phases),
        "setup.rank_s": statistics.median(phase["rank"] for phase in phases),
        "setup.warm_s": statistics.median(phase["warm"] for phase in phases),
        "obs.overhead_ratio": obs_ratio,
        "trace.overhead_ratio": statistics.mean(sample.ops) / statistics.mean(plain.ops),
        "gc.pause_share": collector.seconds / plain.wall,
        "gc.full_pause_ms": 1000.0 * statistics.median(full) if full else 0.0,
        "write.p50_ms": 1000.0 * statistics.median(writes) if writes else 0.0,
        "write.p95_ms": 1000.0 * percentile(writes, 95) if writes else 0.0,
    }
    values = layers.layer_metrics(
        recorder, len(plain.ops) + len(sample.ops), before, after, cache_before, cache_after, extra
    )
    metrics = {name: (value, layers.unit_of(name)) for name, value in values.items()}
    return metrics, [plain, sample]


def run(args) -> dict:
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    deployment, phases = workloads.build(workload)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} PYTHONHASHSEED={os.environ['PYTHONHASHSEED']} setups={len(phases)} "
        f"cpus={sorted(os.sched_getaffinity(0))}",
        flush=True,
    )
    try:
        if args.trace:
            metrics, samples = traced(workload, deployment, args.seconds, phases)
        else:
            sample = workloads.Sample()
            measure(workload, deployment, args.seconds, sample)
            metrics, samples = end_to_end(sample, phases), [sample]
    finally:
        deployment.close()
        workloads.release_pools()
    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    nonempty = sum(sample.nonempty for sample in samples)
    scales = [scale for sample in samples for scale in sample.scales]
    operations = sum(len(sample.ops) for sample in samples)
    if scales:
        print(
            f"perfbench: {operations} operations; host-speed scale median "
            f"{statistics.median(scales):.3f} (range {min(scales):.3f}-{max(scales):.3f}); "
            f"unscaled throughput {operations / sum(s.wall for s in samples):.4g} ops/s",
            flush=True,
        )
    for sample in samples:
        for reason in sample.failures:
            print(f"perfbench: failed: {reason}", file=sys.stderr)
    if nonempty < MIN_NONEMPTY_SHARE * attempted:
        print(
            f"perfbench: only {nonempty} of {attempted} reads returned results",
            file=sys.stderr,
        )
    return {
        "correct": failed == 0 and nonempty >= MIN_NONEMPTY_SHARE * attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if needs_fresh_interpreter(args.seed):
        return run_in_fresh_interpreter(argv, args.seed)
    pin_to_one_cpu()
    import_program()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
