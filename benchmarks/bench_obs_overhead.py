"""Observability overhead on the engine query and solver hot paths.

Every search builds one ``QueryProvenance`` record, appends it to the
provenance ring (the only per-search store, which the slow-query and
popularity views read) and observes two histograms inside an
``engine.search`` span. This module times advanced search in five
configurations:

- **baseline** — the pipeline with no views: ``engine._search`` filling
  a fresh record;
- **disabled** / **enabled** (gated) — the public ``engine.search`` on
  the default *cached* engine, with the metrics registry, tracer, event
  log, convergence recorder and provenance ring all off, or all on (plus
  histogram exemplars). After the warm-up every
  timed query is a result-cache hit, so these rows time a cache hit
  against an uncached pipeline run: their gates hold, but they are not
  an overhead measurement;
- **uncached disabled** / **uncached enabled** (report only) — the same
  two states on an engine built with ``cache=None`` over the same SMR
  and ranker, so every query runs the pipeline: these rows are the
  per-query views' cost over the baseline.

In the enabled modes the metrics sampler's background thread also runs
(scraping the registry into time series and evaluating the SLO set every
``SAMPLER_INTERVAL`` seconds); ``process_time`` counts every thread's
CPU, putting the scrape + burn-rate evaluation cost inside the number.

A second section times the PageRank solver path (one full Gauss–Seidel
solve on an n=500 double-link graph) enabled vs. disabled, covering the
per-solve convergence-recorder append and log event. Each of its rounds
times one solve per mode back to back, alternating which goes first, and
the gate reads the median of the per-round ratios.

Gates: < 5 % enabled and < 1 % disabled on the cached rows, < 5 %
enabled-vs-disabled on the solver path. Defenses against benchmark
noise: ``time.process_time`` (CPU time, immune to scheduler preemption
in shared containers) with GC paused during timing; for the query rows,
many short interleaved rounds keeping the best round per mode; for the
solver, paired rounds, whose ratios a host-speed shift between rounds
cannot bias toward one mode. Results go to
``benchmarks/results/obs_overhead.txt``.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

from repro import obs
from repro.core.engine import AdvancedSearchEngine
from repro.core.privileges import ANONYMOUS
from repro.pagerank import combine_link_structures, solve_pagerank
from repro.workloads.webgraphs import paired_link_structures

# REPRO_BENCH_SMOKE=1 keeps the plumbing assertions (sample counts, log
# events, recorded runs) but shrinks the rounds and skips the overhead
# percentage gates — best-of-2 timings are pure noise.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

QUERIES = [
    "kind=station",
    "keyword=wind",
    "kind=sensor sort=pagerank limit=20",
]
ROUNDS = 3 if SMOKE else 50
ITERATIONS = 2 if SMOKE else 5  # passes over QUERIES per round per mode
SOLVER_ROUNDS = 2 if SMOKE else 16
SOLVER_N = 120 if SMOKE else 500
SAMPLER_INTERVAL = 0.2  # aggressive vs the 5 s default: worst case


def _run_baseline(engine, queries):
    for query in queries:
        description = query.describe()
        engine._search(query, ANONYMOUS, obs.QueryProvenance(description))


def _run_search(engine, queries):
    for query in queries:
        engine.search(query)


def _timed_round(run, engine, queries) -> float:
    start = time.process_time()
    for _ in range(ITERATIONS):
        run(engine, queries)
    return time.process_time() - start


class _ObsStack:
    """The full obs stack, installed fresh and toggled together.

    The registry is built with exemplar collection on, so the *enabled*
    mode pays for the trace-id tuple every histogram observation stores
    — the worst-case configuration of the stack. The metrics sampler
    (with the default SLO set wired to its evaluator) runs its thread
    only while enabled, at ``SAMPLER_INTERVAL`` — 25x faster than the
    production default, so the enabled number overstates real scraping
    cost rather than hiding it.
    """

    def __init__(self):
        self.registry = obs.MetricsRegistry(enabled=True, exemplars=True)
        self.tracer = obs.Tracer()
        self.event_log = obs.EventLog(capacity=4096)
        self.recorder = obs.ConvergenceRecorder(per_solver=4)
        self.prov_recorder = obs.ProvenanceRecorder(capacity=256)
        self.sampler = obs.MetricsSampler(
            interval=SAMPLER_INTERVAL,
            evaluator=obs.SloEvaluator(obs.default_slos()),
        )
        self._previous = None

    def install(self):
        self._previous = (
            obs.set_registry(self.registry),
            obs.set_tracer(self.tracer),
            obs.set_event_log(self.event_log),
            obs.set_convergence_recorder(self.recorder),
            obs.set_provenance_recorder(self.prov_recorder),
            obs.set_sampler(self.sampler),
        )

    def restore(self):
        registry, tracer, event_log, recorder, prov, sampler = self._previous
        self.sampler.stop()
        obs.set_registry(registry)
        obs.set_tracer(tracer)
        obs.set_event_log(event_log)
        obs.set_convergence_recorder(recorder)
        obs.set_provenance_recorder(prov)
        obs.set_sampler(sampler)

    def disable(self):
        self.registry.disable()
        self.tracer.disable()
        self.event_log.disable()
        self.recorder.disable()
        self.prov_recorder.disable()
        self.sampler.stop()
        self.sampler.evaluator.disable()

    def enable(self):
        self.registry.enable()
        self.tracer.enable()
        self.event_log.enable()
        self.recorder.enable()
        self.prov_recorder.enable()
        self.sampler.evaluator.enable()
        self.sampler.start()


def _solver_overhead(stack: _ObsStack):
    """Median per-round solve times and enabled/disabled ratio on one problem.

    Each round times one disabled and one enabled solve back to back,
    alternating which goes first, and takes their ratio: a host-speed
    shift between rounds moves both solves of a round alike, so it cannot
    bias one side the way a best-of-rounds minimum per side can.
    """
    web, semantic = paired_link_structures(SOLVER_N, seed=SOLVER_N)
    problem = combine_link_structures(web, semantic, alpha=0.5)

    def solve() -> float:
        start = time.process_time()
        solve_pagerank(problem, method="gauss_seidel", tol=1e-8, max_iter=2000)
        return time.process_time() - start

    solve()  # warm caches before timing
    disabled, enabled, ratios = [], [], []
    gc.disable()
    try:
        for round_index in range(SOLVER_ROUNDS):
            seconds = {}
            for on in (False, True) if round_index % 2 == 0 else (True, False):
                if on:
                    stack.enable()
                else:
                    stack.disable()
                seconds[on] = solve()
            disabled.append(seconds[False])
            enabled.append(seconds[True])
            ratios.append(seconds[True] / seconds[False])
    finally:
        stack.enable()
        gc.enable()
        gc.collect()
    return statistics.median(disabled), statistics.median(enabled), statistics.median(ratios)


def test_obs_overhead(engine, write_result):
    queries = [engine.parse(text) for text in QUERIES]
    engine.ranker.scores()  # ensure ranking is warm before any timing
    uncached = AdvancedSearchEngine(engine.smr, ranker=engine.ranker, cache=None)

    stack = _ObsStack()
    stack.install()
    try:
        # Warm every path once (index caches, lazy imports, metric families).
        _run_baseline(engine, queries)
        _run_search(engine, queries)
        _run_search(uncached, queries)
        # The warm-up may find a stale cache entry, which logs; the timed
        # rounds are counted from here.
        logged_before = len(stack.event_log)

        baseline = disabled = enabled = float("inf")
        uncached_disabled = uncached_enabled = float("inf")
        gc.disable()
        try:
            for _ in range(ROUNDS):
                baseline = min(baseline, _timed_round(_run_baseline, engine, queries))
                stack.disable()
                disabled = min(disabled, _timed_round(_run_search, engine, queries))
                uncached_disabled = min(
                    uncached_disabled, _timed_round(_run_search, uncached, queries)
                )
                stack.enable()
                enabled = min(enabled, _timed_round(_run_search, engine, queries))
                uncached_enabled = min(
                    uncached_enabled, _timed_round(_run_search, uncached, queries)
                )
        finally:
            gc.enable()
            gc.collect()

        sample_count = stack.registry.histogram("engine_query_seconds").count
        log_count = len(stack.event_log) - logged_before
        prov_records = len(stack.prov_recorder)
        prov_admitted = stack.prov_recorder.recorded
        slow_shown = len(stack.prov_recorder.slowest())
        solver_disabled, solver_enabled, solver_ratio = _solver_overhead(stack)
        recorded_runs = len(stack.recorder.runs("gauss_seidel"))
        # One explicit tick guarantees at least one scrape + SLO pass in
        # the record even if every enabled window was shorter than the
        # sampler interval (SMOKE runs), then freeze the thread's state.
        stack.sampler.stop()
        stack.sampler.tick()
        sampler_ticks = stack.sampler.ticks
        sampler_series = len(stack.sampler.store)
        scrape_seconds = stack.sampler.last_scrape_seconds
        slo_evaluations = stack.sampler.evaluator.evaluations
        alerts_firing = len(stack.sampler.evaluator.firing())
    finally:
        stack.restore()

    queries_per_round = ITERATIONS * len(QUERIES)
    enabled_overhead = (enabled - baseline) / baseline
    disabled_overhead = (disabled - baseline) / baseline
    solver_overhead = solver_ratio - 1.0

    def row(mode, seconds):
        overhead = f"{(seconds - baseline) / baseline:>9.2%}" if mode != "baseline" else "—"
        return (
            f"{mode:<18} {seconds:>15.6f} {queries_per_round / seconds:>12.0f} "
            f"{overhead:>10}"
        )

    lines = [
        "Observability overhead on the engine query path",
        f"rounds={ROUNDS} iterations={ITERATIONS} queries/round={queries_per_round}",
        "(enabled/disabled toggles registry[+exemplars] + tracer + event log",
        " + convergence recorder + provenance ring)",
        "",
        f"{'mode':<18} {'best round (s)':>15} {'queries/s':>12} {'overhead':>10}",
        row("baseline", baseline),
        row("disabled", disabled),
        row("enabled", enabled),
        row("uncached disabled", uncached_disabled),
        row("uncached enabled", uncached_enabled),
        "",
        "baseline: engine._search filling a fresh record, no views",
        "disabled/enabled: engine.search on the cached engine; every timed query",
        "  is a cache hit, so these time a hit against the uncached baseline (gated)",
        "uncached disabled/enabled: engine.search with cache=None on the same SMR",
        "  and ranker: the per-query views' cost over the baseline (report only)",
        "",
        f"histogram samples recorded while enabled: {sample_count}",
        f"event-log records written by the timed rounds: {log_count}",
        f"provenance records retained while enabled: {prov_records} "
        f"(of {prov_admitted} admitted; /debug/slow shows {slow_shown})",
        "",
        f"sampler (interval {SAMPLER_INTERVAL:g}s, thread up in enabled mode only):",
        f"  ticks={sampler_ticks} series={sampler_series} "
        f"last_scrape={scrape_seconds * 1000:.2f}ms",
        f"  slo evaluations={slo_evaluations} alerts firing={alerts_firing}",
        "",
        f"Solver path (gauss_seidel, n={SOLVER_N}, {SOLVER_ROUNDS} rounds of one disabled",
        " and one enabled solve back to back, alternating which goes first)",
        "(per-solve cost: convergence-recorder append + log event + span + metrics)",
        f"{'mode':<10} {'median (s)':>15} {'overhead':>9}",
        f"{'disabled':<10} {solver_disabled:>15.6f}",
        f"{'enabled':<10} {solver_enabled:>15.6f} {solver_overhead:>9.2%}",
        "(overhead: the median of the per-round enabled/disabled ratios, minus one)",
        "",
        "gates: enabled < 5%, disabled < 1% (cached rows),",
        "solver enabled-vs-disabled < 5%; the uncached rows only report",
    ]
    write_result("obs_overhead.txt", "\n".join(lines) + "\n")

    # Both engines' enabled rounds and warm-up passes are observed.
    assert sample_count == 2 * (queries_per_round * ROUNDS + len(QUERIES))
    assert log_count == 0, "a search that does not fail should write no event line"
    assert recorded_runs > 0, "enabled solver rounds should have recorded runs"
    assert prov_records > 0, "enabled rounds should have recorded provenance"
    assert slow_shown > 0, "the ring's slow view should show the enabled rounds"
    assert sampler_ticks > 0, "the sampler should have completed at least one tick"
    assert sampler_series > 0, "the scrape should have retained time series"
    assert slo_evaluations > 0, "each tick should have run the SLO evaluator"
    assert alerts_firing == 0, "a healthy bench run must not trip any SLO alert"
    if not SMOKE:
        assert enabled_overhead < 0.05, f"enabled overhead {enabled_overhead:.2%} >= 5%"
        assert disabled_overhead < 0.01, f"disabled overhead {disabled_overhead:.2%} >= 1%"
        assert solver_overhead < 0.05, f"solver overhead {solver_overhead:.2%} >= 5%"
