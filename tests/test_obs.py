"""Tests for the observability subsystem (repro.obs)."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    NOOP_METRIC,
    NOOP_SPAN,
    Tracer,
    get_registry,
    get_tracer,
    render_prometheus,
    set_registry,
    set_tracer,
    snapshot,
    time_block,
)


@pytest.fixture
def registry():
    """A fresh default registry, restored after the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def tracer():
    """A fresh default tracer, restored after the test."""
    fresh = Tracer(buffer_size=16)
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


class TestCounter:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("c_total").inc(-1)

    def test_labelled_children_are_independent(self, registry):
        family = registry.counter("c_total", labels=("solver",))
        family.labels("power").inc()
        family.labels(solver="gmres").inc(2)
        assert family.labels("power").value == 1
        assert family.labels("gmres").value == 2
        assert family.total() == 3

    def test_unlabelled_shortcut_rejected_on_labelled_family(self, registry):
        family = registry.counter("c_total", labels=("solver",))
        with pytest.raises(ObservabilityError):
            family.inc()

    def test_wrong_label_count_rejected(self, registry):
        family = registry.counter("c_total", labels=("a", "b"))
        with pytest.raises(ObservabilityError):
            family.labels("only-one")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g", "help")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_bucket_math_is_cumulative(self, registry):
        hist = registry.histogram("h", buckets=(1, 2, 5))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        # le=1 catches 0.5 and 1.0 (boundaries are inclusive), le=2 adds
        # 1.5, le=5 adds 3.0, +Inf adds 100.0.
        assert hist.bucket_counts() == [(1, 2), (2, 3), (5, 4), (float("inf"), 5)]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)

    def test_quantiles_interpolate(self, registry):
        hist = registry.histogram("h", buckets=(10, 20, 30))
        for value in range(1, 21):  # uniform over (0, 20]
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(10.0, abs=1.0)
        assert hist.quantile(1.0) == pytest.approx(20.0, abs=1.0)
        assert hist.quantile(0.0) == pytest.approx(0.0, abs=1.0)

    def test_quantile_of_empty_histogram_is_zero(self, registry):
        assert registry.histogram("h").quantile(0.95) == 0.0

    def test_quantile_clamps_inf_bucket(self, registry):
        hist = registry.histogram("h", buckets=(1,))
        hist.observe(50.0)
        assert hist.quantile(0.99) == 1.0  # clamped to the last finite bound

    def test_bad_quantile_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("h").quantile(1.5)

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("h", buckets=(5, 1))


class TestRegistry:
    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("same_total")
        first.inc()
        second = registry.counter("same_total")
        assert second.value == 1

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total")

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("bad-name")

    def test_disabled_registry_returns_noop(self, registry):
        registry.disable()
        metric = registry.counter("x_total")
        assert metric is NOOP_METRIC
        metric.inc()
        metric.labels(a=1).observe(3)  # all no-ops, nothing raises
        assert registry.families() == []
        registry.enable()
        registry.counter("x_total").inc()
        assert registry.counter("x_total").value == 1

    def test_reset_drops_families(self, registry):
        registry.counter("x_total").inc()
        registry.reset()
        assert registry.get("x_total") is None

    def test_default_registry_is_swappable(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestTimeBlock:
    def test_observes_into_histogram(self, registry):
        hist = registry.histogram("h")
        with time_block(hist):
            pass
        assert hist.count == 1

    def test_callable_sink_and_elapsed(self):
        seen = []
        with time_block(seen.append) as timer:
            pass
        assert len(seen) == 1
        assert timer.elapsed == seen[0] >= 0.0

    def test_deterministic_with_injected_clock(self):
        ticks = iter([10.0, 12.5])
        with time_block(clock=lambda: next(ticks)) as timer:
            pass
        assert timer.elapsed == 2.5


class TestTracer:
    def test_nesting_builds_a_tree(self, tracer):
        with tracer.span("root", q="x"):
            with tracer.span("child-a"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("child-b"):
                pass
        (trace,) = tracer.recent(1)
        assert trace["name"] == "root"
        assert trace["attributes"] == {"q": "x"}
        assert [c["name"] for c in trace["children"]] == ["child-a", "child-b"]
        assert trace["children"][0]["children"][0]["name"] == "leaf"

    def test_durations_are_monotone(self, tracer):
        with tracer.span("root"):
            with tracer.span("inner"):
                pass
        (trace,) = tracer.recent(1)
        assert trace["duration"] >= trace["children"][0]["duration"] >= 0.0

    def test_buffer_is_bounded(self):
        tracer = Tracer(buffer_size=3)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [t["name"] for t in tracer.recent(10)]
        assert names == ["s9", "s8", "s7"]  # most recent first, oldest dropped

    def test_exceptions_are_recorded_and_propagate(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (trace,) = tracer.recent(1)
        assert trace["attributes"]["error"] == "ValueError: no"

    def test_disabled_tracer_is_noop(self, tracer):
        tracer.disable()
        span = tracer.span("x")
        assert span is NOOP_SPAN
        with span:
            span.set_attribute("k", 1)
        assert tracer.recent(5) == []

    def test_set_attribute_mid_span(self, tracer):
        with tracer.span("s") as span:
            span.set_attribute("found", 7)
        assert tracer.recent(1)[0]["attributes"]["found"] == 7

    def test_current_span(self, tracer):
        assert tracer.current() is None
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.current().name == "inner"
        assert tracer.current() is None

    def test_default_tracer_is_swappable(self):
        fresh = Tracer()
        previous = set_tracer(fresh)
        try:
            assert get_tracer() is fresh
        finally:
            set_tracer(previous)


class TestPrometheusExposition:
    def test_counter_and_gauge_text(self, registry):
        registry.counter("queries_total", "Total queries.").inc(3)
        registry.gauge("rate", "A rate.").set(1.5)
        text = render_prometheus(registry)
        assert "# HELP queries_total Total queries.\n" in text
        assert "# TYPE queries_total counter\n" in text
        assert "\nqueries_total 3\n" in text
        assert "# TYPE rate gauge\n" in text
        assert "\nrate 1.5\n" in text

    def test_labels_and_escaping(self, registry):
        family = registry.counter("c_total", labels=("q",))
        family.labels('say "hi"\nthere').inc()
        text = render_prometheus(registry)
        assert 'c_total{q="say \\"hi\\"\\nthere"} 1' in text

    def test_histogram_series(self, registry):
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 5.55" in text
        assert "lat_seconds_count 3" in text

    def test_families_render_sorted_and_deterministic(self, registry):
        registry.counter("zz_total").inc()
        registry.counter("aa_total").inc()
        text = render_prometheus(registry)
        assert text.index("aa_total") < text.index("zz_total")
        assert render_prometheus(registry) == text

    def test_empty_registry_renders_empty(self, registry):
        assert render_prometheus(registry) == ""

    def test_snapshot_shape(self, registry):
        registry.counter("c_total", "help", labels=("k",)).labels("v").inc(2)
        hist = registry.histogram("h_seconds")
        hist.observe(0.01)
        snap = snapshot(registry)
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["samples"] == [{"labels": {"k": "v"}, "value": 2.0}]
        sample = snap["h_seconds"]["samples"][0]
        assert sample["count"] == 1
        assert 0.0 < sample["p50"] <= 0.01


class TestThreadSafety:
    def test_concurrent_counter_and_histogram(self, registry):
        counter = registry.counter("c_total", labels=("worker",))
        hist = registry.histogram("h", buckets=(0.5,))
        rounds = 2000

        def work(worker_id):
            child = counter.labels(str(worker_id))
            for _ in range(rounds):
                child.inc()
                hist.observe(0.25)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == 8 * rounds
        assert hist.count == 8 * rounds
        assert hist.bucket_counts()[0] == (0.5, 8 * rounds)

    def test_spans_are_per_thread(self):
        tracer = Tracer(buffer_size=64)
        errors = []

        def work(name):
            try:
                for _ in range(50):
                    with tracer.span(name):
                        with tracer.span(f"{name}.child"):
                            pass
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for trace in tracer.recent(64):
            assert len(trace["children"]) == 1  # no cross-thread adoption


class TestStackInstrumentation:
    """The hot paths actually report through the default registry."""

    def test_engine_search_records_metrics_and_latency(self, registry, tracer):
        from repro import build_demo_engine
        from repro.obs import ProvenanceRecorder, set_provenance_recorder

        engine = build_demo_engine(seed=7, stations=4, sensors=8)
        recorder = ProvenanceRecorder()
        previous = set_provenance_recorder(recorder)
        try:
            engine.search(engine.parse("kind=station"))
        finally:
            set_provenance_recorder(previous)
        assert registry.histogram("engine_query_seconds").count == 1
        assert registry.histogram(
            "engine_result_count", buckets=DEFAULT_COUNT_BUCKETS
        ).count == 1
        # The histograms are the only per-search families; a count of
        # searches is engine_query_seconds_count.
        assert registry.get("engine_queries_total") is None
        # The search opens no span: its ring record is its trace.
        names = [t["name"] for t in tracer.recent(5)]
        assert "engine.search" not in names
        slow = recorder.slowest()
        assert slow and slow[0]["seconds"] > 0.0

    def test_solver_records_per_solver_metrics(self, registry, tracer):
        from repro.pagerank import combine_link_structures, solve_pagerank
        from repro.workloads.webgraphs import paired_link_structures

        web, sem = paired_link_structures(30, seed=3)
        problem = combine_link_structures(web, sem, alpha=0.5)
        result = solve_pagerank(problem, method="power", tol=1e-6)
        solves = registry.get("pagerank_solves_total")
        assert solves.labels("power").value == 1
        iters = registry.get("pagerank_iterations_total")
        assert iters.labels("power").value == result.iterations
        hist = registry.get("pagerank_solve_seconds")
        assert hist.labels("power").count == 1
        assert any(t["name"] == "pagerank.solve" for t in tracer.recent(5))

    def test_cache_bridges_to_registry(self, registry):
        from repro.perf import GenerationalLruCache
        from repro.tagging import TaggingSystem

        tagging = TaggingSystem(cache=GenerationalLruCache(capacity=1, name="tagcloud"))
        tagging.create_tag("Page:A", "snow")
        tagging.cloud()  # miss
        tagging.cloud()  # hit
        tagging.cloud(top=1)  # miss; evicts the full cloud
        tagging.create_tag("Page:B", "snow")
        tagging.cloud(top=1)  # stale: the store's version moved
        expected = {"hits": 1, "misses": 2, "stale": 1, "evictions": 1}
        stats = tagging.cache.stats
        assert {event: getattr(stats, event) for event in expected} == expected
        for event, value in expected.items():
            family = registry.get(f"perf_cache_{event}_total")
            assert family.labels("tagcloud").value == value

    def test_tagging_cloud_stage_spans(self, registry, tracer):
        from repro.tagging import TaggingSystem

        tagging = TaggingSystem()
        tagging.create_tag("Page:A", "snow")
        tagging.cloud()  # miss: builds
        tagging.cloud()  # hit: cache only
        miss, hit = tracer.recent(2)[1], tracer.recent(2)[0]
        assert miss["name"] == "tagging.cloud" and miss["attributes"]["cache"] == "miss"
        assert [c["name"] for c in miss["children"]] == ["tagging.cache", "tagging.matrix"]
        assert hit["attributes"]["cache"] == "hit"
        assert [c["name"] for c in hit["children"]] == ["tagging.cache"]
        assert registry.histogram("tagging_cloud_build_seconds").count == 1

    def test_bulkload_records_throughput(self, registry, tracer):
        from repro.smr.bulkload import BulkLoader
        from repro.smr.repository import SensorMetadataRepository

        loader = BulkLoader(SensorMetadataRepository())
        report = loader.load_records(
            "station",
            [
                {"title": "Station:S1", "name": "S1"},
                {"title": "Station:S2", "name": "S2"},
            ],
        )
        assert report.loaded == 2
        records = registry.get("bulkload_records_total")
        assert records.labels("station", "loaded").value == 2
        assert records.labels("station", "error").value == 0
        assert registry.histogram("bulkload_batch_seconds").count == 1
        assert registry.gauge("bulkload_pages_per_second").value > 0
        (trace,) = [t for t in tracer.recent(5) if t["name"] == "bulkload.batch"]
        assert trace["attributes"]["loaded"] == 2

    def test_disabled_registry_keeps_stack_working(self, registry, tracer):
        registry.disable()
        tracer.disable()
        from repro import build_demo_engine

        engine = build_demo_engine(seed=7, stations=3, sensors=3)
        results = engine.search(engine.parse("kind=station"))
        assert results.total_candidates == 3
        assert registry.families() == []
        assert tracer.recent(5) == []
