"""The traced run's per-layer metrics.

:func:`install` wraps the public calls into each layer (see
``perfbench/README.md`` for the list and the end-to-end metric each
number should move); :func:`layer_metrics` turns the recorded spans,
counters and registry deltas into the ``per_layer`` metrics of
``BENCHMARK.json``. Per-call timings are means in milliseconds.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, List

from repro import obs
from repro.core.engine import AdvancedSearchEngine
from repro.core.ranking import PageRankRanker
from repro.relational.database import Database
from repro.relational.indexes.rtree import RTreeIndex
from repro.smr.repository import SensorMetadataRepository
from repro.text.inverted_index import InvertedIndex
from repro.web import app as web_app
from repro.wiki.site import WikiSite

from perfbench import client
from perfbench.spans import SpanRecorder

#: Interleaved rounds per side of the obs-overhead comparison, and the
#: uncached requests each round sends.
OBS_ROUNDS = 7
OBS_QUERIES = 21

#: Per-layer metrics measured outside the span tree: set-up phases, the
#: obs and tracing overhead comparisons, garbage collection, and write
#: latencies (taken from the untraced rounds).
EXTRA_METRICS = (
    "setup.first_s",
    "setup.load_s",
    "setup.rank_s",
    "setup.warm_s",
    "obs.overhead_ratio",
    "trace.overhead_ratio",
    "gc.pause_share",
    "gc.full_pause_ms",
    "write.p50_ms",
    "write.p95_ms",
)


def _search_attrs(args, kwargs, result) -> Dict[str, Any]:
    if result is None:
        return {}
    return {"candidates": result.total_candidates, "returned": len(result)}


def _is_delete(args, kwargs) -> bool:
    return str(args[1]).lstrip()[:6].upper() == "DELETE"


def _ranker_stale(args, kwargs) -> bool:
    return not args[0].freshness()["fresh"]


def _refresh_attrs(args, kwargs, result) -> Dict[str, Any]:
    ranker = args[0]
    return {
        "mode": ranker.last_refresh_mode,
        "relaxations": ranker.last_refresh_relaxations,
    }


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points for the traced phase."""
    wrap = recorder.wrap
    wrap(client, "call", "web.request", attrs=lambda a, k, r: {"bytes": len(r[1]) if r else 0})
    wrap(AdvancedSearchEngine, "search", "core.search", attrs=_search_attrs)
    wrap(SensorMetadataRepository, "titles", "core.snapshot")
    wrap(SensorMetadataRepository, "kind_map", "core.snapshot")
    wrap(
        SensorMetadataRepository,
        "keyword_search",
        "text.keyword",
        attrs=lambda a, k, r: {"hits": len(r) if r is not None else 0},
    )
    wrap(InvertedIndex, "add", "text.index_write")
    wrap(SensorMetadataRepository, "sql", "relational.select")
    wrap(Database, "execute", "relational.delete", gate=_is_delete)
    wrap(SensorMetadataRepository, "sparql", "rdf.sparql")
    wrap(WikiSite, "export_rdf", "rdf.export")
    recorder.accumulate(RTreeIndex, "insert", "spatial.insert", key=lambda a: id(a[0]))
    wrap(RTreeIndex, "box", "spatial.probe")
    wrap(SensorMetadataRepository, "register", "smr.register")
    wrap(WikiSite, "save", "wiki.save")
    wrap(PageRankRanker, "scores", "ranking.recompute", attrs=_refresh_attrs, gate=_ranker_stale)
    wrap(WikiSite, "link_graph", "ranking.graph_build")
    wrap(WikiSite, "semantic_graph", "ranking.graph_build")


# ----------------------------------------------------------------------
# Registry and cache counters
# ----------------------------------------------------------------------


def registry_counts() -> Dict[str, float]:
    """Snapshot of the program's own counters the layer metrics use."""
    registry = obs.get_registry()
    out: Dict[str, float] = {}
    tasks = registry.get("perf_pool_tasks_total")
    if tasks is not None:
        for (pool,), child in tasks.samples():
            out[f"pool_tasks.{pool}"] = child.value
    seconds = registry.get("perf_pool_task_seconds")
    if seconds is not None:
        for (pool,), child in seconds.samples():
            out[f"pool_seconds.{pool}"] = child.sum
            out[f"pool_count.{pool}"] = child.count
    plans = registry.get("planner_plans_total")
    if plans is not None:
        for (path,), child in plans.samples():
            key = "plans.seq" if path == "seq" else "plans.index"
            out[key] = out.get(key, 0.0) + child.value
    return out


def delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


# ----------------------------------------------------------------------
# Observability overhead on the uncached path
# ----------------------------------------------------------------------


def _recorders() -> List[Any]:
    return [
        obs.get_registry(),
        obs.get_tracer(),
        obs.get_event_log(),
        obs.get_provenance_recorder(),
        obs.get_slow_query_log(),
        obs.get_convergence_recorder(),
    ]


def obs_overhead_ratio(deployment, queries: List[str]) -> float:
    """Uncached search time with recorders as configured ÷ all disabled.

    Both sides send the same ``/api/search`` requests through a WSGI app
    (so the request middleware's span, events, counter and histogram are
    counted) over an engine built with ``cache=None`` on the same
    repository and ranker, so neither side is served from the result
    cache. Rounds interleave the two sides; the ratio is of the per-side
    median round times.
    """
    queries = queries[:OBS_QUERIES]
    engine = AdvancedSearchEngine(deployment.smr, ranker=deployment.engine.ranker, cache=None)
    app = web_app.create_app(engine)
    recorders = _recorders()
    configured = [recorder.enabled for recorder in recorders]

    def run() -> float:
        started = time.perf_counter()
        for text in queries:
            client.call(app, "GET", "/api/search", {"q": text})
        return time.perf_counter() - started

    run()  # warm both sides' code paths
    on: List[float] = []
    off: List[float] = []
    try:
        for _ in range(OBS_ROUNDS):
            # Each round starts from an empty young generation, so a full
            # collection is no likelier to land on one side than the other.
            gc.collect()
            on.append(run())
            for recorder in recorders:
                recorder.disable()
            gc.collect()
            off.append(run())
            for recorder, enabled in zip(recorders, configured):
                if enabled:
                    recorder.enable()
    finally:
        for recorder, enabled in zip(recorders, configured):
            (recorder.enable if enabled else recorder.disable)()
    return statistics.median(on) / statistics.median(off)


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ms(spans) -> float:
    return 1000.0 * _mean([span.seconds for span in spans])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    ops: int,
    before: Dict[str, float],
    after: Dict[str, float],
    cache_before: Dict[str, Any],
    cache_after: Dict[str, Any],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase of ``ops`` operations."""
    spans = recorder.by_name
    self_seconds = recorder.self_seconds()

    def self_ms(name: str) -> float:
        return 1000.0 * _mean([self_seconds[span.id] for span in spans(name)])

    searches = spans("core.search")
    writes = len(spans("smr.register"))
    recomputes = spans("ranking.recompute")
    incremental = [span for span in recomputes if span.attrs.get("mode") == "incremental"]
    requests = spans("web.request")
    lookups = sum(
        delta(cache_after, cache_before, key) for key in ("hits", "misses", "stale")
    )
    rtree_builds = recorder.counters.get("spatial.insert.groups", 0.0)
    snapshot_seconds = sum(span.seconds for span in spans("core.snapshot"))
    graph_seconds = sum(span.seconds for span in spans("ranking.graph_build"))
    pool_count = delta(after, before, "pool_count.default")
    plans = delta(after, before, "plans.seq") + delta(after, before, "plans.index")

    metrics = {
        "web.self_ms": self_ms("web.request"),
        "web.response_kb": _mean([span.attrs.get("bytes", 0) / 1024.0 for span in requests]),
        "core.search_ms": _ms(searches),
        "core.self_ms": self_ms("core.search"),
        "core.snapshot_ms": 1000.0 * _ratio(snapshot_seconds, len(searches)),
        "core.candidates": _mean([span.attrs.get("candidates", 0) for span in searches]),
        "core.topk_yield": _ratio(
            sum(span.attrs.get("returned", 0) for span in searches),
            sum(span.attrs.get("candidates", 0) for span in searches),
        ),
        "perf.cache_hit_ratio": _ratio(delta(cache_after, cache_before, "hits"), lookups),
        "perf.pool_tasks": _ratio(delta(after, before, "pool_tasks.default"), ops),
        "perf.pool_task_ms": 1000.0 * _ratio(delta(after, before, "pool_seconds.default"), pool_count),
        "text.keyword_ms": _ms(spans("text.keyword")),
        "text.hits": _mean([span.attrs.get("hits", 0) for span in spans("text.keyword")]),
        "text.index_write_ms": _ms(spans("text.index_write")),
        "relational.select_ms": _ms(spans("relational.select")),
        "relational.index_scan_share": _ratio(delta(after, before, "plans.index"), plans),
        "relational.delete_ms": _ms(spans("relational.delete")),
        "rdf.export_ms": _ms(spans("rdf.export")),
        "rdf.exports_per_write": _ratio(len(spans("rdf.export")), writes),
        "rdf.sparql_ms": self_ms("rdf.sparql"),
        "spatial.rtree_build_ms": 1000.0
        * _ratio(recorder.counters.get("spatial.insert.seconds", 0.0), rtree_builds),
        "spatial.rtree_builds_per_write": _ratio(rtree_builds, writes),
        "spatial.probe_ms": _ms(spans("spatial.probe")),
        "smr.register_ms": _ms(spans("smr.register")),
        "wiki.save_ms": _ms(spans("wiki.save")),
        "ranking.recompute_ms": _ms(recomputes),
        "ranking.graph_build_ms": 1000.0 * _ratio(graph_seconds, len(recomputes)),
        "ranking.incremental_share": _ratio(len(incremental), len(recomputes)),
        "ranking.relaxations": _mean([span.attrs.get("relaxations", 0) for span in incremental]),
    }
    if set(extra) != set(EXTRA_METRICS):
        raise ValueError(f"extra metrics {sorted(extra)} != {sorted(EXTRA_METRICS)}")
    metrics.update(extra)
    return metrics


UNITS: Dict[str, str] = {
    "web.response_kb": "KiB",
    "core.candidates": "count",
    "core.topk_yield": "ratio",
    "perf.cache_hit_ratio": "ratio",
    "perf.pool_tasks": "count",
    "text.hits": "count",
    "relational.index_scan_share": "ratio",
    "rdf.exports_per_write": "count",
    "spatial.rtree_builds_per_write": "count",
    "ranking.incremental_share": "ratio",
    "ranking.relaxations": "count",
    "obs.overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "gc.pause_share": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    raise KeyError(f"no unit for per-layer metric {name!r}")
