"""Tests for the deep-observability layer: event log, span profiler,
convergence recorder, trace correlation and error propagation."""

import json
import threading
import time

import pytest

from repro import obs
from repro.errors import ObservabilityError


@pytest.fixture
def fresh_obs():
    """Install a fresh registry/tracer/log/recorder; restore afterwards."""
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer()
    event_log = obs.EventLog()
    recorder = obs.ConvergenceRecorder()
    previous = (
        obs.set_registry(registry),
        obs.set_tracer(tracer),
        obs.set_event_log(event_log),
        obs.set_convergence_recorder(recorder),
    )
    yield registry, tracer, event_log, recorder
    obs.set_registry(previous[0])
    obs.set_tracer(previous[1])
    obs.set_event_log(previous[2])
    obs.set_convergence_recorder(previous[3])


class TestLevels:
    def test_names_round_trip(self):
        assert obs.level_number("debug") == obs.DEBUG
        assert obs.level_number("WARNING") == obs.WARNING
        assert obs.level_number(obs.ERROR) == obs.ERROR
        assert obs.level_number(None) is None

    def test_unknown_name_raises(self):
        with pytest.raises(ObservabilityError, match="unknown log level"):
            obs.level_number("loud")


class TestEventLog:
    def test_ring_buffer_drops_oldest(self):
        log = obs.EventLog(capacity=4)
        for i in range(10):
            log.info("engine.search", i=i)
        assert len(log) == 4
        records = log.records()
        # Most recent first; the oldest six fell off, sequence kept going.
        assert [r["fields"]["i"] for r in records] == [9, 8, 7, 6]
        assert records[0]["seq"] == 10

    def test_capture_threshold_filters_at_emission(self):
        log = obs.EventLog(level=obs.INFO)
        log.debug("engine.search", dropped=True)
        log.warning("engine.slow_query")
        assert len(log) == 1
        log.set_level("error")
        log.info("engine.search")
        assert len(log) == 1

    def test_query_filters(self):
        log = obs.EventLog()
        log.debug("engine.search")
        log.info("tagging.cloud")
        log.warning("engine.slow_query")
        assert [r["event"] for r in log.records(level="info")] == [
            "engine.slow_query",
            "tagging.cloud",
        ]
        assert [r["event"] for r in log.records(component="engine")] == [
            "engine.slow_query",
            "engine.search",
        ]
        assert len(log.records(k=1)) == 1

    def test_component_defaults_to_event_prefix(self):
        log = obs.EventLog()
        log.info("bulkload.batch")
        log.info("flat_event")
        assert log.records()[1]["component"] == "bulkload"
        assert log.records()[0]["component"] == "flat_event"

    def test_disabled_log_records_nothing(self):
        log = obs.EventLog(enabled=False)
        log.error("engine.search_error")
        assert len(log) == 0
        log.enable()
        log.error("engine.search_error")
        assert len(log) == 1

    def test_json_lines_render(self):
        log = obs.EventLog(clock=lambda: 123.5)
        log.info("engine.search", query="kind=station")
        lines = log.to_json_lines()
        row = json.loads(lines)
        assert row["event"] == "engine.search"
        assert row["timestamp"] == 123.5
        assert row["fields"] == {"query": "kind=station"}

    def test_thread_safety_smoke(self):
        log = obs.EventLog(capacity=64)
        workers, per_worker = 8, 50

        def emit(worker):
            for i in range(per_worker):
                log.info("engine.search", worker=worker, i=i)

        threads = [threading.Thread(target=emit, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 64
        # Every emission got a distinct sequence number under the lock.
        assert log.records(k=1)[0]["seq"] == workers * per_worker


class TestTraceCorrelation:
    def test_records_inherit_span_trace_id(self, fresh_obs):
        _, tracer, event_log, _ = fresh_obs
        with tracer.span("http.request") as root:
            with tracer.span("engine.search"):
                event_log.info("engine.search", results=2)
        record = event_log.records()[0]
        assert record["trace_id"] == root.trace_id
        assert record["span"] == "engine.search"

    def test_bound_trace_id_survives_disabled_tracer(self, fresh_obs):
        _, tracer, event_log, _ = fresh_obs
        tracer.disable()
        obs.bind_trace_id("cafe1234deadbeef")
        try:
            event_log.info("engine.search")
        finally:
            obs.unbind_trace_id()
        assert event_log.records()[0]["trace_id"] == "cafe1234deadbeef"
        assert obs.current_trace_id() is None

    def test_root_span_adopts_bound_trace_id(self, fresh_obs):
        _, tracer, _, _ = fresh_obs
        obs.bind_trace_id("feedface00000001")
        try:
            with tracer.span("http.request") as root:
                with tracer.span("engine.search") as child:
                    assert child.trace_id == "feedface00000001"
            assert root.trace_id == "feedface00000001"
        finally:
            obs.unbind_trace_id()
        assert tracer.recent(trace_id="feedface00000001")[0]["name"] == "http.request"

    def test_minted_ids_are_unique_hex(self):
        minted = {obs.mint_trace_id() for _ in range(32)}
        assert len(minted) == 32
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in minted)


class TestErrorPropagation:
    def test_propagating_error_marks_both_spans_and_counts(self, fresh_obs):
        registry, tracer, _, _ = fresh_obs
        with pytest.raises(ValueError):
            with tracer.span("http.request"):
                with tracer.span("engine.search"):
                    raise ValueError("boom")
        trace = tracer.recent(1)[0]
        assert trace["attributes"]["error"]  # root saw the exception itself
        assert trace["children"][0]["attributes"]["error"] == "ValueError: boom"
        counter = registry.get("errors_total")
        assert counter.labels("engine").value == 1
        assert counter.labels("http").value == 1

    def test_caught_child_error_still_flags_root(self, fresh_obs):
        """A handled failure must stay visible at the root span."""
        registry, tracer, _, _ = fresh_obs
        with tracer.span("http.request"):
            try:
                with tracer.span("engine.search"):
                    raise ValueError("boom")
            except ValueError:
                pass
        trace = tracer.recent(1)[0]
        assert trace["attributes"]["error"] is True
        counter = registry.get("errors_total")
        assert counter.labels("engine").value == 1
        assert counter.labels("http").value == 0


class TestProfile:
    def test_self_and_cumulative_time(self):
        traces = [
            {
                "name": "http.request",
                "duration": 1.0,
                "children": [
                    {"name": "engine.search", "duration": 0.7, "children": []},
                ],
            },
            {
                "name": "http.request",
                "duration": 0.5,
                "children": [
                    {"name": "engine.search", "duration": 0.2, "children": []},
                ],
            },
        ]
        rows = {row["path"]: row for row in obs.profile_spans(traces)}
        root = rows["http.request"]
        child = rows["http.request/engine.search"]
        assert root["count"] == 2
        assert root["cum_seconds"] == pytest.approx(1.5)
        assert root["self_seconds"] == pytest.approx(0.6)  # 0.3 + 0.3
        assert root["max_seconds"] == pytest.approx(1.0)
        assert child["cum_seconds"] == child["self_seconds"] == pytest.approx(0.9)
        assert child["avg_seconds"] == pytest.approx(0.45)

    def test_rows_sorted_by_cumulative(self):
        traces = [
            {"name": "b", "duration": 2.0, "children": []},
            {"name": "a", "duration": 1.0, "children": []},
        ]
        assert [r["path"] for r in obs.profile_spans(traces)] == ["b", "a"]

    def test_profile_tracer_and_format(self, fresh_obs):
        _, tracer, _, _ = fresh_obs
        with tracer.span("http.request"):
            with tracer.span("engine.search"):
                pass
        rows = obs.profile_tracer(tracer)
        assert [r["path"] for r in rows][0] == "http.request"
        text = obs.format_profile(rows)
        assert "http.request/engine.search" in text
        assert "self_s" in text


class TestConvergenceRecorder:
    def test_bounded_per_solver_history(self, fresh_obs):
        _, _, _, recorder = fresh_obs
        small = obs.ConvergenceRecorder(per_solver=2)
        for i in range(5):
            small.record("power", n=10, iterations=i, converged=True,
                         elapsed=0.1, residuals=[1e-3])
        runs = small.runs("power")
        assert len(runs) == 2
        assert [r["iterations"] for r in runs] == [4, 3]
        assert small.latest("power")["iterations"] == 4

    def test_downsampling_keeps_endpoints(self):
        recorder = obs.ConvergenceRecorder(max_points=10)
        residuals = [1.0 / (i + 1) for i in range(100)]
        recorder.record("jacobi", n=10, iterations=100, converged=True,
                        elapsed=0.5, residuals=residuals)
        points = recorder.latest("jacobi")["residuals"]
        assert len(points) <= 11  # cap plus the re-appended endpoint
        assert points[0] == [1, 1.0]
        assert points[-1] == [100, pytest.approx(0.01)]
        assert recorder.latest("jacobi")["final_residual"] == pytest.approx(0.01)

    def test_metrics_mirror(self, fresh_obs):
        registry, _, _, recorder = fresh_obs
        recorder.record("gmres", n=50, iterations=12, converged=True,
                        elapsed=0.2, residuals=[1e-2, 1e-6])
        assert registry.get("pagerank_convergence_runs_total").labels("gmres").value == 1
        assert registry.get("pagerank_convergence_last_iterations").labels("gmres").value == 12

    def test_trace_id_captured(self, fresh_obs):
        _, tracer, _, recorder = fresh_obs
        with tracer.span("http.request") as root:
            recorder.record("power", n=10, iterations=3, converged=True,
                            elapsed=0.1, residuals=[1e-9])
        assert recorder.latest("power")["trace_id"] == root.trace_id

    def test_disabled_recorder_is_noop(self, fresh_obs):
        _, _, _, recorder = fresh_obs
        recorder.disable()
        recorder.record("power", n=10, iterations=3, converged=True,
                        elapsed=0.1, residuals=[1e-9])
        assert recorder.runs() == []
        assert recorder.snapshot()["solvers"] == []

    def test_solver_boundary_records_runs(self, fresh_obs):
        """Every registered solver reports through the recorder."""
        import numpy as np

        from repro.pagerank import LinkGraph, PageRankProblem, solve_pagerank

        graph = LinkGraph(4)
        for src, dst in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]:
            graph.add_edge(src, dst)
        problem = PageRankProblem.from_graph(graph)
        result = solve_pagerank(problem, method="power", tol=1e-10, max_iter=500)
        _, _, _, recorder = fresh_obs
        run = recorder.latest("power")
        assert run["n"] == 4
        assert run["converged"] is True
        assert run["iterations"] == result.iterations
        residuals = [residual for _, residual in run["residuals"]]
        assert residuals == pytest.approx(result.residuals)
        assert np.all(np.diff([i for i, _ in run["residuals"]]) > 0)


class TestEngineEvents:
    @pytest.fixture
    def engine(self):
        from repro.core import AdvancedSearchEngine
        from repro.smr import SensorMetadataRepository

        smr = SensorMetadataRepository()
        smr.register("station", "Station:A", [("name", "A"), ("status", "online")])
        smr.register("station", "Station:B", [("name", "B"), ("status", "offline")])
        return AdvancedSearchEngine(smr)

    def test_search_event_with_cache_verdict(self, fresh_obs, engine):
        """A search's facts live in its ring record, not in an event line."""
        _, _, event_log, _ = fresh_obs
        recorder = obs.ProvenanceRecorder()
        previous = obs.set_provenance_recorder(recorder)
        try:
            engine.search(engine.parse("kind=station"))
            engine.search(engine.parse("kind=station"))
        finally:
            obs.set_provenance_recorder(previous)
        records = recorder.records()
        assert [r["cache"] for r in records] == ["hit", "miss"]
        assert [(r["results"], r["privileges"]) for r in records] == [(2, "*"), (2, "*")]
        assert event_log.records(component="engine") == []

    def test_slow_query_event_past_threshold(self, fresh_obs, engine, monkeypatch):
        registry, _, event_log, _ = fresh_obs
        engine.search(engine.parse("kind=station"))  # fast: no slow event
        pipeline = engine._search

        def slow_pipeline(*args):
            time.sleep(obs.SEARCH_SLO_SECONDS)
            return pipeline(*args)

        monkeypatch.setattr(engine, "_search", slow_pipeline)
        engine.search(engine.parse("kind=sensor"))
        slow = [r for r in event_log.records() if r["event"] == "engine.slow_query"]
        assert len(slow) == 1  # only the query at the search SLO's threshold
        assert slow[0]["fields"]["threshold"] == obs.SEARCH_SLO_SECONDS == 0.25
        assert slow[0]["fields"]["seconds"] >= obs.SEARCH_SLO_SECONDS
        assert slow[0]["fields"]["query"].startswith("kind=sensor")
        assert registry.counter("engine_slow_queries_total").value == 1

    def test_no_events_when_everything_disabled(self, fresh_obs, engine):
        registry, tracer, event_log, _ = fresh_obs
        registry.disable()
        tracer.disable()
        event_log.disable()
        results = engine.search(engine.parse("kind=station"))
        assert results.total_candidates == 2
        assert len(event_log) == 0
        assert registry.get("engine_query_seconds") is None
