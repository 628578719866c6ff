"""Time-series telemetry: a sampler turning registry snapshots into history.

The paper demos a system meant to run continuously for a community of
users; its evaluation (Fig. 3, Fig. 4) plots behaviour *over time*, not
point-in-time snapshots. Everything `/metrics` and `/api/stats` expose,
however, is cumulative-since-start — an operator cannot see QPS rise,
latency percentiles drift, or the ranker fall behind a write stream.
This module closes that gap without any external TSDB:

- :class:`TimeSeries` — a bounded ring buffer of ``(timestamp, value)``
  points for one counter or gauge child, with reset-aware
  :meth:`~TimeSeries.delta` / :meth:`~TimeSeries.rate` derivations;
- :class:`HistogramSeries` — a bounded ring of per-tick histogram
  snapshots (interval bucket counts + sum + count) supporting *windowed*
  percentiles: the quantile of only the observations that landed inside
  the last N seconds, computed by differencing two snapshots and running
  the same :func:`~repro.obs.metrics.estimate_quantile` the cumulative
  surfaces use;
- :class:`TimeSeriesStore` — the keyed collection of both, scraped from
  a :class:`~repro.obs.metrics.MetricsRegistry`;
- :class:`MetricsSampler` — a background thread that scrapes the
  registry into the store at a configurable interval, runs registered
  *probes* first (callables that refresh pull-style gauges: process RSS,
  ranker staleness lag) and hands each completed tick to the SLO
  evaluator (:mod:`repro.obs.slo`).

Memory is bounded by construction: ``points_per_series`` per ring and
``max_series`` rings per store; a full store drops new series (counted
in ``dropped_series``) rather than growing. Sampling is off the query
path entirely — instrumented code still writes to the registry only —
so the sampler's cost is one scrape per interval, gated alongside the
rest of the stack by ``bench_obs_overhead.py``.

The module-level default follows the package's injection pattern
(:func:`get_sampler` / :func:`set_sampler`); the default sampler is
created lazily, wired with the process self-metrics probe and the
default SLO set, and **not** started — ``create_app(...,
start_sampler=True)`` or :func:`~repro.web.app.serve` starts it.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricsRegistry,
    estimate_quantile,
)

DEFAULT_INTERVAL_SECONDS = 5.0
DEFAULT_POINTS_PER_SERIES = 720  # one hour of 5 s ticks
DEFAULT_MAX_SERIES = 2048


class TimeSeries:
    """Bounded ring of ``(timestamp, value)`` points for one metric child.

    ``kind`` ("counter" or "gauge") selects the derivation semantics:
    counters difference reset-aware (a restarted process re-counts from
    zero; negative steps are treated as resets, not negative traffic),
    gauges difference naively.
    """

    __slots__ = ("kind", "capacity", "_points", "_lock")

    def __init__(self, kind: str, capacity: int = DEFAULT_POINTS_PER_SERIES):
        if capacity <= 0:
            raise ObservabilityError(f"series capacity must be positive, got {capacity}")
        self.kind = kind
        self.capacity = capacity
        self._points: List[Tuple[float, float]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._points)

    def append(self, timestamp: float, value: float) -> None:
        """Append one sample; the oldest point falls off past capacity."""
        with self._lock:
            self._points.append((float(timestamp), float(value)))
            if len(self._points) > self.capacity:
                del self._points[: len(self._points) - self.capacity]

    def points(
        self, window: Optional[float] = None, now: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Points inside the trailing ``window`` seconds (all if None)."""
        with self._lock:
            pts = list(self._points)
        if window is None or not pts:
            return pts
        cutoff = (now if now is not None else pts[-1][0]) - window
        start = bisect.bisect_left(pts, (cutoff,))
        return pts[start:]

    def latest(self) -> Optional[Tuple[float, float]]:
        """The newest ``(timestamp, value)`` point, or None when empty."""
        with self._lock:
            return self._points[-1] if self._points else None

    def delta(
        self, window: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Increase over the trailing window; None without >= 2 points.

        Counters sum only the positive steps between consecutive points,
        so a counter reset (process restart) contributes zero instead of
        a huge negative delta; gauges return last-minus-first.
        """
        pts = self.points(window, now)
        if len(pts) < 2:
            return None
        if self.kind == COUNTER:
            return sum(
                max(0.0, b[1] - a[1]) for a, b in zip(pts, pts[1:])
            )
        return pts[-1][1] - pts[0][1]

    def rate(self, window: float, now: Optional[float] = None) -> Optional[float]:
        """Per-second rate of increase over the trailing window."""
        pts = self.points(window, now)
        if len(pts) < 2:
            return None
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return None
        change = self.delta(window, now)
        return None if change is None else change / span

    def rate_series(
        self, window: Optional[float] = None, now: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Per-point instantaneous rates (consecutive-point differences).

        Each output point ``(t_i, r_i)`` is the reset-aware increase from
        the previous sample divided by the elapsed time — the series the
        dashboard's QPS sparkline plots.
        """
        pts = self.points(window, now)
        out: List[Tuple[float, float]] = []
        for a, b in zip(pts, pts[1:]):
            dt = b[0] - a[0]
            if dt <= 0:
                continue
            step = b[1] - a[1]
            if self.kind == COUNTER and step < 0:
                step = 0.0
            out.append((b[0], step / dt))
        return out


class HistogramSeries:
    """Bounded ring of histogram snapshots for windowed percentiles.

    Each point stores the histogram's per-interval bucket counts (the
    cumulative-since-start totals), sum and count at one tick.
    Differencing any two points yields the bucket distribution of just
    the observations between them, which
    :func:`~repro.obs.metrics.estimate_quantile` turns into a windowed
    percentile — the same estimator `/api/stats` applies to the
    cumulative counts, so the two agree by construction.
    """

    __slots__ = ("bounds", "capacity", "_points", "_lock")

    def __init__(
        self, bounds: Sequence[float], capacity: int = DEFAULT_POINTS_PER_SERIES
    ):
        if capacity <= 0:
            raise ObservabilityError(f"series capacity must be positive, got {capacity}")
        self.bounds = tuple(float(b) for b in bounds)
        self.capacity = capacity
        # (timestamp, interval_counts tuple, sum, count)
        self._points: List[Tuple[float, Tuple[int, ...], float, int]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._points)

    def append(
        self,
        timestamp: float,
        interval_counts: Sequence[int],
        total_sum: float,
        count: int,
    ) -> None:
        """Append one snapshot; the oldest falls off past capacity."""
        with self._lock:
            self._points.append(
                (float(timestamp), tuple(interval_counts), float(total_sum), int(count))
            )
            if len(self._points) > self.capacity:
                del self._points[: len(self._points) - self.capacity]

    def points(
        self, window: Optional[float] = None, now: Optional[float] = None
    ) -> List[Tuple[float, Tuple[int, ...], float, int]]:
        """Snapshots inside the trailing window (all if None)."""
        with self._lock:
            pts = list(self._points)
        if window is None or not pts:
            return pts
        cutoff = (now if now is not None else pts[-1][0]) - window
        start = bisect.bisect_left(pts, (cutoff,))
        return pts[start:]

    @staticmethod
    def _interval_delta(
        old: Tuple[float, Tuple[int, ...], float, int],
        new: Tuple[float, Tuple[int, ...], float, int],
    ) -> List[int]:
        """Bucket counts landed between two snapshots (reset-aware)."""
        deltas = [max(0, b - a) for a, b in zip(old[1], new[1])]
        if len(new[1]) > len(old[1]):  # bucket layout changed mid-flight
            deltas.extend(new[1][len(old[1]):])
        return deltas

    def window_quantile(
        self, q: float, window: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Quantile of the observations inside the trailing window.

        None when fewer than two snapshots cover the window or nothing
        was observed between them.
        """
        pts = self.points(window, now)
        if len(pts) < 2:
            return None
        deltas = self._interval_delta(pts[0], pts[-1])
        if sum(deltas) == 0:
            return None
        return estimate_quantile(self.bounds, deltas, q)

    def quantile_series(
        self,
        q: float,
        window: float,
        display_window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Per-tick trailing-window quantiles — the dashboard's pXX lines.

        For each snapshot inside ``display_window``, the quantile of the
        observations in the ``window`` seconds before it; ticks with no
        traffic in their window are skipped.
        """
        pts = self.points(display_window, now)
        out: List[Tuple[float, float]] = []
        start = 0
        for index, point in enumerate(pts):
            cutoff = point[0] - window
            while start < index and pts[start][0] < cutoff:
                start += 1
            if start >= index:
                continue
            deltas = self._interval_delta(pts[start], point)
            if sum(deltas) == 0:
                continue
            out.append((point[0], estimate_quantile(self.bounds, deltas, q)))
        return out

    def rate(self, window: float, now: Optional[float] = None) -> Optional[float]:
        """Observations per second over the trailing window."""
        pts = self.points(window, now)
        if len(pts) < 2:
            return None
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return None
        return max(0, pts[-1][3] - pts[0][3]) / span

    def window_mean(self, window: float, now: Optional[float] = None) -> Optional[float]:
        """Mean observed value over the trailing window, or None."""
        pts = self.points(window, now)
        if len(pts) < 2:
            return None
        count = pts[-1][3] - pts[0][3]
        if count <= 0:
            return None
        return (pts[-1][2] - pts[0][2]) / count


class TimeSeriesStore:
    """Keyed collection of rings, one per metric child the scrape saw.

    Keys are ``(family_name, label_names, label_values)``; the store is
    bounded at ``max_series`` rings and silently (but countably) drops
    new series past the bound — an unbounded-label-cardinality bug must
    not become an unbounded-memory bug here.
    """

    def __init__(
        self,
        points_per_series: int = DEFAULT_POINTS_PER_SERIES,
        max_series: int = DEFAULT_MAX_SERIES,
    ):
        self.points_per_series = points_per_series
        self.max_series = max_series
        self.dropped_series = 0
        self._series: Dict[Tuple[str, Tuple[str, ...], Tuple[str, ...]], Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._series)

    def _get_or_create(self, key, factory) -> Optional[Any]:
        series = self._series.get(key)
        if series is not None:
            return series
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_series:
                    self.dropped_series += 1
                    return None
                series = factory()
                self._series[key] = series
        return series

    def observe_registry(self, registry: MetricsRegistry, now: float) -> int:
        """Scrape one snapshot of every family into the rings.

        Returns the number of series updated this scrape.
        """
        updated = 0
        for family in registry.families():
            for label_values, child in family.samples():
                key = (family.name, family.label_names, label_values)
                if family.kind == HISTOGRAM:
                    series = self._get_or_create(
                        key,
                        lambda c=child: HistogramSeries(
                            c.buckets, self.points_per_series
                        ),
                    )
                    if series is not None:
                        series.append(
                            now, child.interval_counts(), child.sum, child.count
                        )
                        updated += 1
                elif family.kind in (COUNTER, GAUGE):
                    series = self._get_or_create(
                        key,
                        lambda k=family.kind: TimeSeries(k, self.points_per_series),
                    )
                    if series is not None:
                        series.append(now, child.value)
                        updated += 1
        return updated

    def series(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """Every ``(labels_dict, series)`` stored under metric ``name``."""
        with self._lock:
            items = [
                (dict(zip(key[1], key[2])), series)
                for key, series in sorted(self._series.items())
                if key[0] == name
            ]
        return items

    def get(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Any]:
        """The first series under ``name`` whose labels contain ``labels``."""
        for series_labels, series in self.series(name):
            if not labels or all(
                series_labels.get(k) == str(v) for k, v in labels.items()
            ):
                return series
        return None

    def matching(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> List[Tuple[Dict[str, str], Any]]:
        """Every series under ``name`` whose labels contain ``labels``."""
        return [
            (series_labels, series)
            for series_labels, series in self.series(name)
            if not labels
            or all(series_labels.get(k) == str(v) for k, v in labels.items())
        ]

    def summed_points(
        self, name: str, window: Optional[float] = None, now: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Per-timestamp sum across every child series of ``name``.

        Samples taken in the same tick share a timestamp, so merging by
        timestamp reconstructs the family-level series (e.g. total
        staleness lag across label sets).
        """
        merged: Dict[float, float] = {}
        for _, series in self.series(name):
            if isinstance(series, HistogramSeries):
                continue
            for t, v in series.points(window, now):
                merged[t] = merged.get(t, 0.0) + v
        return sorted(merged.items())

    def summed_rate_series(
        self, name: str, window: Optional[float] = None, now: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Per-timestamp summed instantaneous rates across children.

        Rates are computed per child first (reset-aware) and then merged
        by timestamp, so one restarting child never zeroes the family.
        """
        merged: Dict[float, float] = {}
        for _, series in self.series(name):
            if isinstance(series, HistogramSeries):
                continue
            for t, r in series.rate_series(window, now):
                merged[t] = merged.get(t, 0.0) + r
        return sorted(merged.items())

    def names(self) -> List[str]:
        """Every metric name with at least one stored series, sorted."""
        with self._lock:
            return sorted({key[0] for key in self._series})

    def reset(self) -> None:
        """Drop every ring (test isolation)."""
        with self._lock:
            self._series.clear()
            self.dropped_series = 0


class MetricsSampler:
    """Background scraper: registry -> :class:`TimeSeriesStore` + SLOs.

    One :meth:`tick` = run the registered probes (pull-style gauge
    refreshers), scrape the *current* default registry (resolved each
    tick so test-injected registries are picked up), and hand the store
    to the SLO evaluator. :meth:`start` runs ticks on a daemon thread
    every ``interval`` seconds; :meth:`stop` joins it. Both are
    idempotent — calling ``start`` on a running sampler or ``stop`` on a
    stopped one is a no-op returning False — so repeated
    ``create_app()`` instances share one thread instead of leaking one
    each.

    Tests drive :meth:`tick` directly with an explicit ``now`` for fully
    deterministic series; the thread merely calls ``tick()`` with wall
    time.
    """

    def __init__(
        self,
        store: Optional[TimeSeriesStore] = None,
        interval: float = DEFAULT_INTERVAL_SECONDS,
        evaluator: Optional[Any] = None,
        registry_fn: Optional[Callable[[], MetricsRegistry]] = None,
    ):
        if interval <= 0:
            raise ObservabilityError(f"sampler interval must be positive, got {interval}")
        self.store = store if store is not None else TimeSeriesStore()
        self.interval = interval
        self.evaluator = evaluator
        self._registry_fn = registry_fn or metrics_mod.get_registry
        self._probes: Dict[str, Callable[[MetricsRegistry], None]] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._lifecycle_lock = threading.Lock()
        self.ticks = 0
        self.last_tick_at: Optional[float] = None
        self.last_scrape_seconds = 0.0
        self.probe_errors = 0

    # -- probes ----------------------------------------------------------

    def set_probe(self, name: str, fn: Callable[[MetricsRegistry], None]) -> None:
        """Register (or replace) the named pre-scrape probe.

        Keyed registration keeps repeated ``create_app()`` calls from
        stacking duplicate probes on the shared default sampler.
        """
        self._probes[name] = fn

    def remove_probe(self, name: str) -> None:
        """Drop the named probe if present."""
        self._probes.pop(name, None)

    # -- sampling --------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> int:
        """Run one sampling cycle; returns series updated.

        Probe failures are counted and logged, never raised — a broken
        gauge refresher must not stop the rest of telemetry.
        """
        if now is None:
            now = time.time()
        registry = self._registry_fn()
        started = time.perf_counter()
        for name, probe in list(self._probes.items()):
            try:
                probe(registry)
            except Exception as exc:  # noqa: BLE001 — telemetry must not die
                self.probe_errors += 1
                from repro.obs.log import get_event_log

                get_event_log().error(
                    "obs.sampler.probe_error", probe=name, error=str(exc)
                )
        updated = self.store.observe_registry(registry, now)
        self.last_scrape_seconds = time.perf_counter() - started
        self.ticks += 1
        self.last_tick_at = now
        if registry.enabled:
            registry.counter(
                "obs_sampler_ticks_total", "Sampling cycles completed."
            ).inc()
            registry.gauge(
                "obs_sampler_series", "Time series currently retained."
            ).set(float(len(self.store)))
        if self.evaluator is not None:
            self.evaluator.evaluate(self.store, now)
        return updated

    # -- thread lifecycle ------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> bool:
        """Start the background thread; False if already running."""
        with self._lifecycle_lock:
            if self.running:
                return False
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="repro-metrics-sampler", daemon=True
            )
            self._thread.start()
            return True

    def stop(self, timeout: float = 2.0) -> bool:
        """Stop and join the background thread; False if not running."""
        with self._lifecycle_lock:
            thread = self._thread
            if thread is None:
                return False
            self._stop_event.set()
            thread.join(timeout)
            self._thread = None
            return True

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.tick()
            except Exception as exc:  # noqa: BLE001 — keep sampling
                from repro.obs.log import get_event_log

                get_event_log().error("obs.sampler.tick_error", error=str(exc))


# ----------------------------------------------------------------------
# Module-level default sampler with injection hooks
# ----------------------------------------------------------------------

_default_sampler: Optional[MetricsSampler] = None
_default_lock = threading.Lock()


def _build_default_sampler() -> MetricsSampler:
    from repro.obs.notify import NotificationHub
    from repro.obs.process import process_metrics_probe
    from repro.obs.slo import SloEvaluator, default_slos

    sampler = MetricsSampler(
        evaluator=SloEvaluator(default_slos(), notifier=NotificationHub())
    )
    sampler.set_probe("process", process_metrics_probe())
    return sampler


def get_sampler() -> MetricsSampler:
    """The process-wide default sampler (created lazily, not started)."""
    global _default_sampler
    if _default_sampler is None:
        with _default_lock:
            if _default_sampler is None:
                _default_sampler = _build_default_sampler()
    return _default_sampler


def set_sampler(sampler: MetricsSampler) -> Optional[MetricsSampler]:
    """Swap the default sampler (tests inject a fresh one); returns old.

    The previous sampler is *not* stopped automatically — callers that
    started its thread own its lifecycle.
    """
    global _default_sampler
    with _default_lock:
        previous = _default_sampler
        _default_sampler = sampler
    return previous
