"""Observability subsystem: metrics, tracing, logging, and exposition.

The paper justifies its design decisions with measurements — solver
convergence iterations and wall-clock time (Fig. 3), tagging pipeline
and cache behaviour (Fig. 4) — and the ROADMAP's scaling goals need the
same numbers from every layer of this reproduction. This package is the
single substrate they flow through:

- :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` with
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` primitives and
  the :func:`time_block` timer helper;
- :mod:`repro.obs.tracing` — context-manager :class:`Span` trees with a
  bounded in-memory buffer, per-trace ``trace_id`` correlation and
  root-level error propagation;
- :mod:`repro.obs.log` — structured, leveled :class:`EventLog` ring
  buffer whose records carry the current trace id (``/debug/logs``);
- :mod:`repro.obs.profile` — flamegraph-style self/cumulative-time
  aggregation of finished span trees (``/debug/profile``);
- :mod:`repro.obs.convergence` — bounded per-solver residual-series
  history, the live counterpart of Fig. 3(a) (``/debug/convergence``);
- :mod:`repro.obs.provenance` — the one record every search leaves:
  which constraint matched what, at what cost, and who killed the
  candidate set (``/explore``, ``explain=full``), kept in one ring of
  the last 1,000 searches that every per-query view reads
  (``/debug/provenance``, ``/debug/slow``, the ``/api/stats`` slow
  queries, ``/api/queries/popular``);
- :mod:`repro.obs.exposition` — Prometheus and OpenMetrics text formats
  (the latter with trace-id exemplars on histogram buckets) and JSON
  snapshots (served by ``GET /metrics`` and ``/api/stats``);
- :mod:`repro.obs.timeseries` — the background :class:`MetricsSampler`
  scraping the registry into bounded ring-buffer time series with
  reset-aware rates and windowed histogram percentiles
  (``/api/timeseries``, ``/debug/dashboard``);
- :mod:`repro.obs.slo` — declarative service-level objectives with
  rolling error budgets and multi-window burn-rate alerting
  (``/api/alerts``, the ``slo`` health probe);
- :mod:`repro.obs.process` — pull-style process self-metrics gauges
  (uptime, RSS, CPU seconds, threads, GC), refreshed as a sampler
  probe.

Instrumented modules call :func:`get_registry` / :func:`get_tracer` /
:func:`get_event_log` / :func:`get_convergence_recorder` /
:func:`get_provenance_recorder` / :func:`get_sampler` at the point of
use, so tests inject fresh instances with the matching ``set_*`` hooks
and production code can disable any of them.

Metric naming conventions (documented in README "Observability"):
``<subsystem>_<quantity>_<unit|total>`` with snake_case names, e.g.
``engine_query_seconds``, ``pagerank_iterations_total``; labels are
low-cardinality only (solver name, endpoint pattern, cache name —
never titles or raw query strings).
"""

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NOOP_METRIC,
    estimate_quantile,
    get_registry,
    set_registry,
    time_block,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    bind_trace_id,
    count_error,
    current_trace_id,
    get_tracer,
    mint_trace_id,
    set_tracer,
    unbind_trace_id,
)
from repro.obs.log import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    EventLog,
    LogRecord,
    get_event_log,
    level_number,
    set_event_log,
)
from repro.obs.profile import format_profile, profile_spans, profile_tracer
from repro.obs.convergence import (
    ConvergenceRecorder,
    ConvergenceRun,
    get_convergence_recorder,
    set_convergence_recorder,
)
from repro.obs.provenance import (
    SLOW_VIEW_SIZE,
    ConstraintStage,
    ProvenanceRecorder,
    QueryProvenance,
    get_provenance_recorder,
    set_provenance_recorder,
)
from repro.obs.timeseries import (
    HistogramSeries,
    MetricsSampler,
    TimeSeries,
    TimeSeriesStore,
    get_sampler,
    set_sampler,
)
from repro.obs.slo import (
    SEARCH_SLO_SECONDS,
    Alert,
    AvailabilitySlo,
    BurnWindow,
    FreshnessSlo,
    LatencySlo,
    SloDefinition,
    SloEvaluator,
    default_slos,
)
from repro.obs.process import process_metrics_probe, update_process_metrics
from repro.obs.exposition import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    render_openmetrics,
    render_prometheus,
    snapshot,
    snapshot_json,
)

#: The ring under the deleted slow-query log's name, which perfbench toggles.
get_slow_query_log = get_provenance_recorder

__all__ = [
    "Alert",
    "AvailabilitySlo",
    "BurnWindow",
    "ConstraintStage",
    "ConvergenceRecorder",
    "ConvergenceRun",
    "Counter",
    "DEBUG",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "ERROR",
    "EventLog",
    "FreshnessSlo",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "INFO",
    "LatencySlo",
    "LogRecord",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSampler",
    "NOOP_METRIC",
    "NOOP_SPAN",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "ProvenanceRecorder",
    "QueryProvenance",
    "SEARCH_SLO_SECONDS",
    "SLOW_VIEW_SIZE",
    "SloDefinition",
    "SloEvaluator",
    "Span",
    "TimeSeries",
    "TimeSeriesStore",
    "Tracer",
    "WARNING",
    "bind_trace_id",
    "count_error",
    "current_trace_id",
    "default_slos",
    "estimate_quantile",
    "format_profile",
    "get_convergence_recorder",
    "get_event_log",
    "get_provenance_recorder",
    "get_registry",
    "get_sampler",
    "get_tracer",
    "level_number",
    "mint_trace_id",
    "process_metrics_probe",
    "profile_spans",
    "profile_tracer",
    "render_openmetrics",
    "render_prometheus",
    "set_convergence_recorder",
    "set_event_log",
    "set_provenance_recorder",
    "set_registry",
    "set_sampler",
    "set_tracer",
    "snapshot",
    "snapshot_json",
    "time_block",
    "unbind_trace_id",
    "update_process_metrics",
]
