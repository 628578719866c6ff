"""Tests for the time-series telemetry layer (repro.obs.timeseries)."""

import threading

import pytest

from repro.core import AdvancedSearchEngine
from repro.errors import ObservabilityError
from repro.obs import (
    HistogramSeries,
    MetricsRegistry,
    MetricsSampler,
    TimeSeries,
    TimeSeriesStore,
    estimate_quantile,
    get_sampler,
    set_registry,
    set_sampler,
)
from repro.smr import SensorMetadataRepository
from repro.web import create_app


@pytest.fixture
def registry():
    """A fresh default registry, restored after the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def sampler():
    """A fresh default sampler (no probes, no SLOs), restored after."""
    fresh = MetricsSampler()
    previous = set_sampler(fresh)
    yield fresh
    fresh.stop()
    set_sampler(previous)


def _tiny_engine() -> AdvancedSearchEngine:
    smr = SensorMetadataRepository()
    smr.register("station", "Station:T-001", [("name", "T-001"), ("status", "online")])
    return AdvancedSearchEngine(smr)


class TestTimeSeries:
    def test_ring_wraparound_keeps_newest(self):
        series = TimeSeries("gauge", capacity=5)
        for i in range(12):
            series.append(float(i), float(i * 10))
        points = series.points()
        assert len(points) == 5
        assert [t for t, _ in points] == [7.0, 8.0, 9.0, 10.0, 11.0]
        assert series.latest() == (11.0, 110.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            TimeSeries("counter", capacity=0)

    def test_window_slicing(self):
        series = TimeSeries("gauge")
        for i in range(10):
            series.append(float(i), 1.0)
        assert len(series.points(window=3.0, now=9.0)) == 4  # t in [6, 9]
        assert len(series.points()) == 10

    def test_counter_rate_and_delta(self):
        series = TimeSeries("counter")
        # 10 requests per tick, one tick per second.
        for i in range(6):
            series.append(float(i), float(i * 10))
        assert series.delta(window=10.0, now=5.0) == 50.0
        assert series.rate(window=10.0, now=5.0) == pytest.approx(10.0)

    def test_counter_reset_not_counted_as_negative(self):
        series = TimeSeries("counter")
        series.append(0.0, 100.0)
        series.append(1.0, 150.0)
        series.append(2.0, 5.0)  # process restarted: counter reset to ~0
        series.append(3.0, 25.0)
        # Only the positive steps count: 50 + 0 + 20.
        assert series.delta(window=10.0, now=3.0) == 70.0
        rates = dict(series.rate_series())
        assert rates[2.0] == 0.0  # the reset step clamps to zero
        assert rates[3.0] == pytest.approx(20.0)

    def test_gauge_delta_is_signed(self):
        series = TimeSeries("gauge")
        series.append(0.0, 10.0)
        series.append(1.0, 4.0)
        assert series.delta(window=10.0, now=1.0) == -6.0

    def test_too_few_points_returns_none(self):
        series = TimeSeries("counter")
        assert series.delta(10.0) is None
        series.append(0.0, 1.0)
        assert series.rate(10.0) is None


class TestHistogramSeries:
    BOUNDS = (0.1, 0.5, 1.0)

    def test_window_quantile_uses_only_window_observations(self):
        series = HistogramSeries(self.BOUNDS)
        # Cumulative interval counts: 100 fast observations first...
        series.append(0.0, [100, 0, 0, 0], 5.0, 100)
        # ...then 100 slow ones land between t=0 and t=10.
        series.append(10.0, [100, 0, 100, 0], 80.0, 200)
        q = series.window_quantile(0.5, window=20.0, now=10.0)
        # The window's observations are all in the (0.5, 1.0] bucket.
        assert q is not None and 0.5 < q <= 1.0

    def test_agrees_with_cumulative_estimator(self, registry):
        """The dashboard's windowed quantile and /api/stats' cumulative
        quantile share one estimator — identical counts, identical answer."""
        histogram = registry.histogram("h_seconds", buckets=self.BOUNDS)
        for value in (0.05, 0.05, 0.3, 0.3, 0.7, 2.0):
            histogram.observe(value)
        series = HistogramSeries(self.BOUNDS)
        series.append(0.0, [0, 0, 0, 0], 0.0, 0)
        series.append(1.0, histogram.interval_counts(), histogram.sum, histogram.count)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert series.window_quantile(q, window=5.0, now=1.0) == pytest.approx(
                histogram.quantile(q)
            )

    def test_estimate_quantile_edge_cases(self):
        assert estimate_quantile(self.BOUNDS, [0, 0, 0, 0], 0.5) == 0.0
        # Everything in +Inf clamps to the last finite bound.
        assert estimate_quantile(self.BOUNDS, [0, 0, 0, 10], 0.5) == 1.0
        with pytest.raises(ObservabilityError):
            estimate_quantile(self.BOUNDS, [1, 0, 0, 0], 1.5)

    def test_quantile_series_skips_empty_ticks(self):
        series = HistogramSeries(self.BOUNDS)
        series.append(0.0, [0, 0, 0, 0], 0.0, 0)
        series.append(5.0, [10, 0, 0, 0], 0.5, 10)
        series.append(10.0, [10, 0, 0, 0], 0.5, 10)  # no new traffic
        pts = series.quantile_series(0.5, window=6.0, now=10.0)
        assert [t for t, _ in pts] == [5.0]

    def test_rate_and_mean(self):
        series = HistogramSeries(self.BOUNDS)
        series.append(0.0, [0, 0, 0, 0], 0.0, 0)
        series.append(10.0, [20, 0, 0, 0], 1.0, 20)
        assert series.rate(window=20.0, now=10.0) == pytest.approx(2.0)
        assert series.window_mean(window=20.0, now=10.0) == pytest.approx(0.05)


class TestTimeSeriesStore:
    def test_scrape_creates_series_per_child(self, registry):
        registry.counter("a_total").inc(3)
        registry.gauge("b").set(7.0)
        registry.histogram("c_seconds").observe(0.2)
        family = registry.counter("d_total", labels=("kind",))
        family.labels("x").inc()
        family.labels("y").inc()
        store = TimeSeriesStore()
        updated = store.observe_registry(registry, now=1.0)
        assert updated == 5
        assert store.names() == ["a_total", "b", "c_seconds", "d_total"]
        assert store.get("a_total").latest() == (1.0, 3.0)
        assert len(store.series("d_total")) == 2
        assert store.get("d_total", {"kind": "y"}).latest() == (1.0, 1.0)

    def test_max_series_bound_drops_not_grows(self, registry):
        family = registry.counter("many_total", labels=("i",))
        for i in range(10):
            family.labels(str(i)).inc()
        store = TimeSeriesStore(max_series=4)
        store.observe_registry(registry, now=1.0)
        assert len(store) == 4
        assert store.dropped_series == 6

    def test_summed_rate_series_survives_one_child_reset(self, registry):
        store = TimeSeriesStore()
        family = registry.counter("r_total", labels=("shard",))
        family.labels("a").inc(10)
        family.labels("b").inc(10)
        store.observe_registry(registry, now=0.0)
        family.labels("a").inc(10)
        family.labels("b").inc(10)
        store.observe_registry(registry, now=1.0)
        # Shard b "restarts": simulate by appending a lower raw value.
        store.get("r_total", {"shard": "b"}).append(2.0, 0.0)
        store.get("r_total", {"shard": "a"}).append(2.0, 30.0)
        merged = dict(store.summed_rate_series("r_total"))
        assert merged[1.0] == pytest.approx(20.0)
        assert merged[2.0] == pytest.approx(10.0)  # a's 10/s; b's reset adds 0


class TestMetricsSampler:
    def test_tick_runs_probes_then_scrapes(self, registry):
        sampler = MetricsSampler()
        calls = []

        def probe(reg):
            calls.append(reg)
            reg.gauge("probe_gauge").set(42.0)

        sampler.set_probe("p", probe)
        updated = sampler.tick(now=1.0)
        assert calls == [registry]
        assert updated >= 1
        assert sampler.ticks == 1
        assert sampler.last_tick_at == 1.0
        assert sampler.store.get("probe_gauge").latest() == (1.0, 42.0)
        # The sampler self-reports.
        assert registry.counter("obs_sampler_ticks_total").value == 1.0

    def test_probe_error_counted_not_raised(self, registry):
        sampler = MetricsSampler()
        sampler.set_probe("bad", lambda reg: 1 / 0)
        sampler.tick(now=1.0)
        sampler.tick(now=2.0)
        assert sampler.probe_errors == 2
        assert sampler.ticks == 2

    def test_probe_error_counts_into_errors_total(self, registry):
        sampler = MetricsSampler()
        sampler.set_probe("bad", lambda reg: 1 / 0)
        sampler.tick(now=1.0)
        assert registry.get("errors_total").labels("obs").value == 1

    def test_tick_error_counts_into_errors_total(self, registry):
        sampler = MetricsSampler(interval=0.001)
        raised = threading.Event()

        def tick():
            if not raised.is_set():
                raised.set()
                raise RuntimeError("scrape failed")

        sampler.tick = tick  # the background loop calls the instance's tick
        assert sampler.start()
        thread = sampler._thread
        try:
            assert raised.wait(5.0)
        finally:
            sampler.stop()  # joins the thread, so its handler has run
        assert not thread.is_alive()
        assert registry.get("errors_total").labels("obs").value == 1

    def test_probe_replacement_is_keyed(self):
        sampler = MetricsSampler()
        sampler.set_probe("k", lambda reg: None)
        sampler.set_probe("k", lambda reg: None)
        assert len(sampler._probes) == 1
        sampler.remove_probe("k")
        sampler.remove_probe("k")  # idempotent
        assert len(sampler._probes) == 0

    def test_interval_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            MetricsSampler(interval=0)

    def test_start_stop_idempotent(self):
        sampler = MetricsSampler(interval=30.0)
        try:
            assert not sampler.running
            assert sampler.start() is True
            assert sampler.start() is False  # already running
            assert sampler.running
            threads = [
                t for t in threading.enumerate()
                if t.name == "repro-metrics-sampler"
            ]
            assert len(threads) == 1
        finally:
            assert sampler.stop() is True
        assert sampler.stop() is False  # already stopped
        assert not sampler.running

    def test_restart_after_stop(self):
        sampler = MetricsSampler(interval=30.0)
        sampler.start()
        sampler.stop()
        assert sampler.start() is True
        sampler.stop()
        assert not sampler.running


class TestCreateAppLifecycle:
    def test_create_app_does_not_start_thread(self, registry, sampler):
        app = create_app(_tiny_engine())
        assert app.sampler is sampler
        assert not sampler.running

    def test_repeated_create_app_leaks_no_threads(self, registry, sampler):
        engine = _tiny_engine()
        baseline = [
            t for t in threading.enumerate() if t.name == "repro-metrics-sampler"
        ]
        apps = [create_app(engine, start_sampler=True) for _ in range(4)]
        threads = [
            t for t in threading.enumerate() if t.name == "repro-metrics-sampler"
        ]
        # All four apps share the default sampler: exactly one new thread.
        assert len(threads) == len(baseline) + 1
        for app in apps:
            app.close()
        assert not sampler.running

    def test_close_only_stops_if_it_started(self, registry, sampler):
        engine = _tiny_engine()
        sampler.start()
        try:
            app = create_app(engine)  # did not start it
            app.close()
            assert sampler.running  # close() must not stop someone else's thread
        finally:
            sampler.stop()

    def test_engine_probe_feeds_staleness_gauge(self, registry, sampler):
        engine = _tiny_engine()
        create_app(engine)
        engine.ranker.top(1)  # build the ranking
        engine.smr.register("station", "Station:T-002", [("name", "T-002")])
        sampler.tick(now=1.0)
        series = sampler.store.get("ranking_staleness_generations")
        assert series is not None
        assert series.latest()[1] >= 1.0


class TestDefaultSampler:
    def test_default_sampler_is_shared_and_not_started(self, sampler):
        assert get_sampler() is sampler
        assert get_sampler() is get_sampler()
        assert not get_sampler().running
