"""Tests for the web API, driven through the WSGI interface directly."""

import io
import json
import re
from collections import Counter
from contextlib import contextmanager
from urllib.parse import urlencode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AdvancedSearchEngine
from repro.core.query import OPERATORS
from repro.smr import SensorMetadataRepository
from repro.tagging import TaggingSystem
from repro.web import create_app
from repro.web.app import _result_payload
from repro.web.http import encode_json


@pytest.fixture(scope="module")
def app():
    smr = SensorMetadataRepository()
    smr.register(
        "station",
        "Station:WAN-001",
        [
            ("name", "WAN-001"),
            ("latitude", 46.8),
            ("longitude", 9.8),
            ("elevation_m", 2400),
            ("status", "online"),
        ],
    )
    smr.register(
        "station",
        "Station:WAN-002",
        [
            ("name", "WAN-002"),
            ("latitude", 46.81),
            ("longitude", 9.81),
            ("elevation_m", 2100),
            ("status", "offline"),
        ],
    )
    smr.register(
        "sensor",
        "Sensor:W1",
        [("name", "wind sensor"), ("station", "Station:WAN-001"), ("sensor_type", "wind")],
    )
    engine = AdvancedSearchEngine(smr)
    tagging = TaggingSystem()
    tagging.create_tag("Station:WAN-001", "snow")
    tagging.create_tag("Station:WAN-002", "snow")
    tagging.create_tag("Station:WAN-001", "wind")
    application = create_app(engine, tagging)
    application.engine = engine  # for tests that poke the stack directly
    return application


def call(app, method, path, query="", body=None):
    """Invoke the WSGI app and return (status, headers, decoded body)."""
    status, headers, payload = call_raw(app, method, path, query, body)
    decoded = (
        json.loads(payload.decode())
        if "json" in headers.get("Content-Type", "")
        else payload.decode()
    )
    return status, headers, decoded


def call_raw(app, method, path, query="", body=None):
    """Invoke the WSGI app and return (status, headers, body bytes)."""
    raw = json.dumps(body).encode() if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], b"".join(chunks)


class TestSearchEndpoints:
    def test_search(self, app):
        status, _, body = call(app, "GET", "/api/search", "q=kind%3Dstation")
        assert status == "200 OK"
        assert body["total_candidates"] == 2
        titles = {r["title"] for r in body["results"]}
        assert titles == {"Station:WAN-001", "Station:WAN-002"}
        assert body["results"][0]["location"]["lat"] == pytest.approx(46.8, abs=0.1)

    def test_search_with_filter(self, app):
        status, _, body = call(
            app, "GET", "/api/search", "q=kind%3Dstation%20elevation_m%3E%3D2300"
        )
        assert status == "200 OK"
        assert [r["title"] for r in body["results"]] == ["Station:WAN-001"]

    def test_bad_query_is_400(self, app):
        status, _, body = call(app, "GET", "/api/search", "q=")
        assert status == "400 Bad Request"
        assert body["type"] == "QueryError"

    @pytest.mark.parametrize("text", ["elevation_m%3Dabc", "elevation_m%3E%3Dabc"])
    def test_mistyped_filter_on_a_btree_column_answers_like_the_scan(self, text):
        """A text literal against a B+-tree on a numeric column keeps the
        SeqScan, so the indexed app answers exactly as the unindexed one."""

        def search(indexed):
            smr = SensorMetadataRepository()
            for i, elevation in enumerate([2400, 2100, 1500]):
                smr.register(
                    "station", f"Station:S{i}", [("name", f"S{i}"), ("elevation_m", elevation)]
                )
            if indexed:
                smr.db.execute("CREATE INDEX idx_elev ON station(elevation_m) USING btree")
            app = create_app(AdvancedSearchEngine(smr, cache=None))
            status, _, body = call(app, "GET", "/api/search", f"q={text}")
            body.pop("trace_id", None)
            return status, body

        indexed = search(indexed=True)
        assert indexed == search(indexed=False)
        assert indexed[0] == "200 OK"

    @pytest.mark.parametrize(
        "text, expected",
        [
            # Rendered FILTER(?v > 1e-05): an exponent-form SPARQL DOUBLE.
            ("last_value%3E0.00001", ["Sensor:Hot"]),
            ("last_value%3C-0.00002", ["Sensor:Cold"]),
            # Rendered accuracy < 1e-05: an exponent-form SQL REAL.
            ("accuracy%3C0.00001", ["Sensor:Cold"]),
            ("accuracy%3E%3D0.00001", ["Sensor:Hot"]),
        ],
    )
    def test_filter_value_written_with_an_exponent(self, text, expected):
        smr = SensorMetadataRepository()
        smr.register("sensor", "Sensor:Hot", [("accuracy", 0.5), ("last_value", 0.25)])
        smr.register("sensor", "Sensor:Cold", [("accuracy", 1e-06), ("last_value", -3e-05)])
        app = create_app(AdvancedSearchEngine(smr, cache=None))
        status, _, body = call(app, "GET", "/api/search", f"q={text}")
        assert status == "200 OK", body
        assert [r["title"] for r in body["results"]] == expected

    def test_page_detail(self, app):
        status, _, body = call(app, "GET", "/api/page/Station:WAN-001")
        assert status == "200 OK"
        assert body["kind"] == "station"
        assert body["annotations"]["elevation_m"] == 2400

    def test_page_missing_is_400(self, app):
        status, _, body = call(app, "GET", "/api/page/Nope")
        assert status == "400 Bad Request"

    def test_unknown_route_404(self, app):
        status, _, _ = call(app, "GET", "/api/nothing")
        assert status == "404 Not Found"

    def test_method_not_allowed(self, app):
        status, _, _ = call(app, "POST", "/api/search")
        assert status == "405 Method Not Allowed"


class TestAutocompleteEndpoints:
    def test_title_completion(self, app):
        _, _, body = call(app, "GET", "/api/autocomplete/title", "prefix=Station")
        assert "Station:WAN-001" in body["completions"]

    def test_property_completion(self, app):
        _, _, body = call(app, "GET", "/api/autocomplete/property", "prefix=s")
        assert any(c.startswith("s") for c in body["completions"])

    def test_dropdown_values(self, app):
        _, _, body = call(app, "GET", "/api/values", "prop=status&kind=station")
        values = {entry["value"]: entry["count"] for entry in body["values"]}
        assert values == {"online": 1, "offline": 1}

    def test_completions_follow_a_write(self):
        smr = SensorMetadataRepository()
        smr.register("station", "Station:WAN-001", [("name", "WAN-001"), ("status", "online")])
        app = create_app(AdvancedSearchEngine(smr))

        def answers():
            return (
                call(app, "GET", "/api/autocomplete/title", "prefix=Station:ZZ")[2],
                call(app, "GET", "/api/autocomplete/property", "prefix=maint")[2],
                call(app, "GET", "/api/values", "prop=status&kind=station")[2],
            )

        titles, properties, values = answers()
        assert titles["completions"] == [] and properties["completions"] == []
        assert values["values"] == [{"value": "online", "count": 1}]
        smr.register(
            "station",
            "Station:ZZTOP",
            [("name", "zz"), ("status", "retired-x"), ("maintainer", "alice")],
        )
        titles, properties, values = answers()
        assert titles["completions"] == ["Station:ZZTOP"]
        assert properties["completions"] == ["maintainer"]
        assert {"value": "retired-x", "count": 1} in values["values"]


class TestAnalysisEndpoints:
    def test_facets(self, app):
        _, _, body = call(app, "GET", "/api/facets", "q=kind%3Dstation&prop=status")
        values = {entry["value"]: entry["count"] for entry in body["facets"]}
        assert values == {"online": 1, "offline": 1}

    def test_recommend(self, app):
        _, _, body = call(app, "GET", "/api/recommend", "q=kind%3Dsensor&k=3")
        titles = [rec["title"] for rec in body["recommendations"]]
        assert "Station:WAN-001" in titles

    def test_pagerank_top(self, app):
        _, _, body = call(app, "GET", "/api/pagerank/top", "k=2")
        assert len(body["pages"]) == 2
        assert body["pages"][0]["score"] >= body["pages"][1]["score"]

    def test_pagerank_top_rejects_negative_k(self, app):
        status, _, body = call(app, "GET", "/api/pagerank/top", "k=-3")
        assert status == "400 Bad Request"
        assert body["type"] == "QueryError"
        _, _, body = call(app, "GET", "/api/pagerank/top", "k=0")
        assert body["pages"] == []


class TestTagEndpoints:
    def test_cloud_json(self, app):
        _, _, body = call(app, "GET", "/api/tags/cloud")
        tags = {entry["tag"] for entry in body["tags"]}
        assert "snow" in tags

    def test_cloud_svg(self, app):
        status, headers, body = call(app, "GET", "/api/tags/cloud.svg")
        assert status == "200 OK"
        assert headers["Content-Type"] == "image/svg+xml"
        assert body.startswith("<svg")

    def test_create_tag(self, app):
        status, _, body = call(
            app, "POST", "/api/tags", body={"page": "Station:WAN-002", "tag": "alpine"}
        )
        assert status == "201 Created" and body["created"] is True
        status, _, body = call(
            app, "POST", "/api/tags", body={"page": "Station:WAN-002", "tag": "alpine"}
        )
        assert status == "200 OK" and body["created"] is False

    def test_create_tag_bad_body(self, app):
        status, _, body = call(app, "POST", "/api/tags", body={"nope": 1})
        assert status == "400 Bad Request"


class TestHtmlAndInfoEndpoints:
    def test_index_page(self, app):
        status, headers, body = call(app, "GET", "/")
        assert status == "200 OK"
        assert "text/html" in headers["Content-Type"]
        assert "/api/search" in body

    def test_search_page_form_only(self, app):
        status, _, body = call(app, "GET", "/search")
        assert status == "200 OK"
        assert "<form" in body and "<ol>" not in body

    def test_search_page_results_with_snippets(self, app):
        status, _, body = call(app, "GET", "/search", "q=keyword%3Dwind")
        assert status == "200 OK"
        assert "<ol>" in body
        assert "<b>wind</b>" in body  # highlighted snippet

    def test_search_page_bad_query_shows_error(self, app):
        _, _, body = call(app, "GET", "/search", "q=limit%3Dzz")
        assert "Error:" in body

    def test_stats_endpoint(self, app):
        status, _, body = call(app, "GET", "/api/stats")
        assert status == "200 OK"
        assert body["page_count"] == 3
        assert body["pages_per_kind"]["station"] == 2

    def test_suggest_endpoint(self, app):
        _, _, body = call(app, "GET", "/api/suggest", "q=wnd")
        assert "wind" in body["suggestions"]

    def test_related_endpoint(self, app):
        status, _, body = call(app, "GET", "/api/related/Sensor:W1", "k=2")
        assert status == "200 OK"
        titles = [entry["title"] for entry in body["related"]]
        assert "Station:WAN-001" in titles

    def test_related_rejects_negative_k(self, app):
        status, _, body = call(app, "GET", "/api/related/Sensor:W1", "k=-3")
        assert status == "400 Bad Request"
        assert body["type"] == "QueryError"
        _, _, body = call(app, "GET", "/api/related/Sensor:W1", "k=0")
        assert body["related"] == []

    def test_snippet_endpoint(self, app):
        _, _, body = call(app, "GET", "/api/snippet/Sensor:W1", "q=wind")
        assert "**wind**" in body["snippet"]


class TestCountParameters:
    """Every ``k``, ``top`` and ``top_k``: 0 is an empty list, negative a 400."""

    @pytest.mark.parametrize(
        "path, param, fields",
        [
            ("/debug/trace", "k", ("traces",)),
            ("/debug/provenance", "k", ("records",)),
            ("/debug/profile", "k", ("rows",)),
            ("/debug/logs", "k", ("records",)),
            ("/api/queries/popular", "k", ("popular", "zero_results")),
            ("/api/tags/cloud", "top", ("tags",)),
        ],
    )
    def test_zero_is_empty_and_negative_is_400(self, app, path, param, fields):
        # Leave something in every recorder, the query log's zero-result
        # list among them.
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        call(app, "GET", "/api/search", "q=keyword%3Dzzyzx")
        status, _, body = call(app, "GET", path, f"{param}=0")
        assert status == "200 OK"
        assert all(body[field] == [] for field in fields)
        status, _, body = call(app, "GET", path, f"{param}=-1")
        assert status == "400 Bad Request"
        assert body["type"] == "QueryError"


class TestObservabilityEndpoints:
    @pytest.fixture
    def fresh_obs(self):
        """Swap in a fresh registry + tracer for the duration of one test."""
        from repro import obs

        registry = obs.MetricsRegistry()
        tracer = obs.Tracer()
        prev_registry = obs.set_registry(registry)
        prev_tracer = obs.set_tracer(tracer)
        yield registry, tracer
        obs.set_registry(prev_registry)
        obs.set_tracer(prev_tracer)

    def test_metrics_prometheus_exposition(self, app, fresh_obs):
        # Drive the stack so every required family exists: a search
        # (engine latency), a PageRank refresh (solver metrics), a tag
        # cloud (cache), then scrape. The middleware itself records the
        # per-endpoint counts.
        app.engine.ranker.refresh()  # force a solve under the fresh registry
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        call(app, "GET", "/api/tags/cloud")
        status, headers, body = call(app, "GET", "/metrics")
        assert status == "200 OK"
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "# TYPE engine_query_seconds histogram" in body
        assert "engine_query_seconds_count 1" in body
        assert "engine_queries_total" not in body  # the histogram's count says it
        assert "# TYPE pagerank_solve_seconds histogram" in body
        assert 'pagerank_iterations_total{solver="gauss_seidel"}' in body
        # A miss on a fresh cache, stale once an earlier test tagged a page.
        assert re.search(r'perf_cache_(misses|stale)_total\{cache="tagcloud"\} 1\n', body)
        assert (
            'http_requests_total{endpoint="/api/search",method="GET",status="200"} 1'
            in body
        )
        assert 'http_request_seconds_bucket{endpoint="/api/tags/cloud",le="+Inf"} 1' in body

    def test_metrics_label_cardinality_is_bounded(self, app, fresh_obs):
        registry, _ = fresh_obs
        call(app, "GET", "/api/page/Station:WAN-001")
        call(app, "GET", "/api/page/Station:WAN-002")
        call(app, "GET", "/api/nothing-here")
        _, _, body = call(app, "GET", "/metrics")
        # Raw paths never become labels: parameterized routes collapse to
        # their template and unrouted paths to one bucket.
        assert 'endpoint="/api/page/{title}",method="GET",status="200"} 2' in body
        assert 'endpoint="(unmatched)",method="GET",status="404"} 1' in body
        assert "WAN-001" not in body

    def test_debug_trace_endpoint(self, app, fresh_obs):
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        status, _, body = call(app, "GET", "/debug/trace", "k=5")
        assert status == "200 OK"
        search_traces = [
            t for t in body["traces"] if t["attributes"].get("endpoint") == "/api/search"
        ]
        assert search_traces, "expected an http.request trace for the search"
        trace = search_traces[0]
        assert trace["name"] == "http.request"
        assert [c["name"] for c in trace["children"]] == ["engine.search"]
        assert trace["duration"] >= trace["children"][0]["duration"]

    def test_stats_includes_latency_percentiles(self, app, fresh_obs):
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        call(app, "GET", "/api/search", "q=kind%3Dsensor")
        status, _, body = call(app, "GET", "/api/stats")
        assert status == "200 OK"
        latency = body["query_latency"]
        assert latency["count"] == 2
        assert 0.0 < latency["p50_seconds"] <= latency["p95_seconds"]
        assert body["http_requests_total"] == 2.0  # the two searches
        assert body["slow_queries"][0]["seconds"] > 0.0

    def test_disabled_registry_serves_empty_metrics(self, app, fresh_obs):
        registry, tracer = fresh_obs
        registry.disable()
        tracer.disable()
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        status, _, body = call(app, "GET", "/metrics")
        assert status == "200 OK"
        assert body == ""
        _, _, traces = call(app, "GET", "/debug/trace")
        assert traces["traces"] == []


class TestDeepObservability:
    @pytest.fixture
    def fresh_obs(self):
        """Swap in a fresh registry/tracer/log/recorder for one test."""
        from repro import obs

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

    def test_every_response_carries_a_trace_id(self, app, fresh_obs):
        seen = set()
        for method, path, expected in [
            ("GET", "/api/search", "200 OK"),
            ("GET", "/api/nothing", "404 Not Found"),
            ("GET", "/api/page/Nope", "400 Bad Request"),
        ]:
            query = "q=kind%3Dstation" if path == "/api/search" else ""
            status, headers, _ = call(app, method, path, query)
            assert status == expected
            assert len(headers["X-Trace-Id"]) == 16
            seen.add(headers["X-Trace-Id"])
        assert len(seen) == 3  # one fresh id per request

    def test_trace_id_in_header_even_when_obs_disabled(self, app, fresh_obs):
        registry, tracer, event_log, _ = fresh_obs
        registry.disable()
        tracer.disable()
        event_log.disable()
        status, headers, _ = call(app, "GET", "/api/search", "q=kind%3Dstation")
        assert status == "200 OK"
        assert len(headers["X-Trace-Id"]) == 16
        assert len(event_log) == 0 and tracer.recent() == []

    def test_payload_trace_id_matches_header(self, app, fresh_obs):
        _, headers, body = call(app, "GET", "/api/search", "q=kind%3Dstation")
        assert body["trace_id"] == headers["X-Trace-Id"]
        _, headers, body = call(app, "GET", "/api/stats")
        assert body["trace_id"] == headers["X-Trace-Id"]

    def test_one_request_reconstructable_from_its_trace_id(self, app, fresh_obs):
        """The acceptance path: header -> span tree -> record -> correlated logs."""
        app.engine.ranker.refresh()  # the search pays a solve: events between spans
        _, headers, _ = call(app, "GET", "/api/search", "q=kind%3Dstation")
        trace_id = headers["X-Trace-Id"]

        status, _, body = call(app, "GET", "/debug/trace", f"trace_id={trace_id}")
        assert status == "200 OK"
        assert len(body["traces"]) == 1
        assert body["traces"][0]["trace_id"] == trace_id
        assert body["traces"][0]["attributes"] == {
            "method": "GET", "path": "/api/search", "endpoint": "/api/search", "status": "200",
        }

        status, _, body = call(app, "GET", "/debug/provenance", f"trace_id={trace_id}")
        assert status == "200 OK"
        [record] = body["records"]
        assert record["query"].startswith("kind=station")
        assert record["cache"] in ("miss", "stale")
        assert (record["results"], record["privileges"]) == (2, "*")

        status, _, body = call(app, "GET", "/debug/logs", f"trace_id={trace_id}")
        assert status == "200 OK"
        events = [r["event"] for r in body["records"]]
        assert "ranking.refresh" in events and "pagerank.solve" in events
        assert not {"http.request.start", "engine.search", "http.request.end"} & set(events)
        assert all(r["trace_id"] == trace_id for r in body["records"])

    def test_debug_logs_level_filter(self, app, fresh_obs):
        app.engine.ranker.refresh()  # the search pays a solve: an info and a debug line
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        _, _, body = call(app, "GET", "/debug/logs", "level=info")
        assert body["count"] > 0
        assert all(r["level"] != "debug" for r in body["records"])

    def test_debug_logs_bad_level_is_400(self, app, fresh_obs):
        status, _, body = call(app, "GET", "/debug/logs", "level=loud")
        assert status == "400 Bad Request"
        assert "unknown log level" in body["error"]

    def test_debug_profile_aggregates_span_paths(self, app, fresh_obs):
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        call(app, "GET", "/api/search", "q=kind%3Dsensor")
        status, _, body = call(app, "GET", "/debug/profile")
        assert status == "200 OK"
        rows = {row["path"]: row for row in body["rows"]}
        assert rows["http.request"]["count"] == 2
        child = rows["http.request/engine.search"]
        assert child["count"] == 2
        assert 0.0 <= child["cum_seconds"] <= rows["http.request"]["cum_seconds"]

    def test_debug_convergence_serves_solver_runs(self, app, fresh_obs):
        app.engine.ranker.refresh()  # force a full re-solve...
        app.engine.ranker.scores()  # ...and run it under the fresh recorder
        status, _, body = call(app, "GET", "/debug/convergence")
        assert status == "200 OK"
        assert body["solvers"], "expected at least one recorded solver"
        solver = body["solvers"][0]
        status, _, body = call(app, "GET", "/debug/convergence", f"solver={solver}")
        assert status == "200 OK"
        run = body["runs"][0]
        assert run["residuals"], "expected a non-empty residual series"
        assert run["converged"] is True

    def test_healthz_ok(self, app, fresh_obs):
        status, _, body = call(app, "GET", "/healthz")
        assert status == "200 OK"
        assert body["status"] in ("ok", "degraded")  # ranker may be cold
        assert set(body["checks"]) == {
            "smr", "relational", "rdf", "ranker", "cache", "indexes", "slo",
        }
        assert body["checks"]["smr"]["pages"] == 3
        assert body["checks"]["relational"]["status"] == "ok"
        assert body["checks"]["rdf"]["triples"] > 0

    def test_healthz_counts_a_failing_probe(self, app, fresh_obs, monkeypatch):
        registry = fresh_obs[0]

        def broken():
            raise RuntimeError("cache backend down")

        monkeypatch.setattr(app.engine, "cache_info", broken)
        status, _, body = call(app, "GET", "/healthz")
        assert status == "503 Service Unavailable"
        assert body["checks"]["cache"] == {"status": "error", "error": "cache backend down"}
        assert registry.get("errors_total").labels("cache").value == 1

    def test_healthz_degrades_when_ranker_goes_stale(self, fresh_obs):
        from repro.core import AdvancedSearchEngine
        from repro.smr import SensorMetadataRepository
        from repro.web import create_app

        smr = SensorMetadataRepository()
        smr.register("station", "Station:H1", [("name", "H1")])
        engine = AdvancedSearchEngine(smr)
        own_app = create_app(engine)

        # Warm, then write: the SMR generation moves past the ranker's.
        engine.ranker.scores()
        status, _, body = call(own_app, "GET", "/healthz")
        assert status == "200 OK"
        assert body["checks"]["ranker"]["status"] == "ok"
        smr.register("station", "Station:H2", [("name", "H2")])
        _, _, body = call(own_app, "GET", "/healthz")
        assert body["status"] == "degraded"
        assert body["checks"]["ranker"]["status"] == "degraded"
        assert body["checks"]["ranker"]["fresh"] is False

    def test_spatial_index_never_lags_a_write(self, fresh_obs):
        from repro.core import AdvancedSearchEngine
        from repro.smr import SensorMetadataRepository
        from repro.web import create_app

        smr = SensorMetadataRepository()
        located = [("latitude", 46.0), ("longitude", 9.0)]
        smr.register("station", "Station:H1", [("name", "H1")] + located)
        own_app = create_app(AdvancedSearchEngine(smr))
        call(own_app, "GET", "/api/search", "q=bbox%3D45%2C8%2C47%2C10")
        smr.register("station", "Station:H2", [("name", "H2")] + located)
        _, _, body = call(own_app, "GET", "/healthz")
        indexes = body["checks"]["indexes"]
        assert indexes["status"] == "ok" and indexes["entries"] == 2
        assert indexes["generation"] == indexes["current_generation"] == smr.mutation_count
        _, _, stats = call(own_app, "GET", "/api/stats")
        assert stats["spatial_index"]["generation"] == smr.mutation_count

    def test_debug_endpoints_locked_without_debug_flag(self, app, fresh_obs):
        from repro.web import create_app

        locked = create_app(app.engine, debug=False)
        for path in ("/debug/trace", "/debug/logs", "/debug/profile", "/debug/convergence"):
            status, headers, body = call(locked, "GET", path)
            assert status == "403 Forbidden"
            assert "X-Trace-Id" in headers
        status, _, _ = call(locked, "GET", "/healthz")
        assert status == "200 OK"
        status, _, _ = call(locked, "GET", "/metrics")
        assert status == "200 OK"

    def test_every_debug_route_is_locked_without_debug_flag(self, app, fresh_obs):
        locked = create_app(app.engine, debug=False)
        paths = [
            pattern
            for _, _, _, pattern in locked.router._routes
            if (pattern + "/").startswith("/debug/")
        ]
        assert "/debug" in paths and "/debug/plan" in paths
        # An unrouted path under /debug/ is refused before routing, too.
        for path in paths + ["/debug/no-such-surface"]:
            status, headers, body = call(locked, "GET", path)
            assert status == "403 Forbidden", path
            assert body == {"error": "debug endpoints are disabled on this deployment"}
            assert len(headers["X-Trace-Id"]) == 16
        status, _, _ = call(locked, "GET", "/debugger")
        assert status == "404 Not Found"


class TestVizEndpoints:
    def test_map_svg(self, app):
        status, headers, body = call(app, "GET", "/api/viz/map.svg", "q=kind%3Dstation")
        assert status == "200 OK"
        assert headers["Content-Type"] == "image/svg+xml"
        assert "match degree" in body

    def test_facet_bar_svg(self, app):
        _, headers, body = call(
            app, "GET", "/api/viz/facets.svg", "q=kind%3Dstation&prop=status&chart=bar"
        )
        assert headers["Content-Type"] == "image/svg+xml"
        assert "<rect" in body

    def test_facet_pie_svg(self, app):
        _, _, body = call(
            app, "GET", "/api/viz/facets.svg", "q=kind%3Dstation&prop=status&chart=pie"
        )
        assert "<path" in body


class TestProvenanceExplorer:
    @pytest.fixture
    def fresh_obs(self):
        """Fresh registry (exemplars on) + provenance ring per test."""
        from repro import obs

        registry = obs.MetricsRegistry(exemplars=True)
        tracer = obs.Tracer()
        event_log = obs.EventLog()
        recorder = obs.ProvenanceRecorder()
        previous = (
            obs.set_registry(registry),
            obs.set_tracer(tracer),
            obs.set_event_log(event_log),
            obs.set_provenance_recorder(recorder),
        )
        yield registry, recorder
        obs.set_registry(previous[0])
        obs.set_tracer(previous[1])
        obs.set_event_log(previous[2])
        obs.set_provenance_recorder(previous[3])

    def test_explain_full_attaches_provenance_and_decomposition(self, app, fresh_obs):
        status, _, body = call(
            app, "GET", "/api/search", "q=kind%3Dstation&explain=full"
        )
        assert status == "200 OK"
        provenance = body["provenance"]
        assert provenance["cache"] == "bypass"
        assert provenance["trace_id"] == body["trace_id"]
        assert [s["strategy"] for s in provenance["stages"]] == ["KindTitleLookup"]
        assert provenance["waterfall"][-1]["after"] == provenance["candidates"]
        assert provenance["ranking"]["returned"] == len(body["results"])
        for entry in body["results"]:
            explanation = entry["score_explanation"]
            parts = (
                explanation["teleport"]
                + explanation["dangling"]
                + sum(c["value"] for c in explanation["contributions"])
                + explanation["remainder"]
            )
            # The acceptance bar, asserted at the HTTP layer.
            assert abs(parts - explanation["score"]) < 1e-9

    def test_explain_full_lands_in_debug_provenance_by_trace_id(self, app, fresh_obs):
        _, headers, _ = call(app, "GET", "/api/search", "q=kind%3Dstation&explain=full")
        trace_id = headers["X-Trace-Id"]
        status, _, body = call(app, "GET", "/debug/provenance", f"trace_id={trace_id}")
        assert status == "200 OK"
        assert body["count"] == 1
        assert body["records"][0]["trace_id"] == trace_id
        assert body["records"][0]["cache"] == "bypass"

    def test_explore_page_renders_waterfall_and_contributions(self, app, fresh_obs):
        status, headers, body = call(app, "GET", "/explore", "q=kind%3Dstation")
        assert status == "200 OK"
        assert headers["Content-Type"].startswith("text/html")
        assert len(headers["X-Trace-Id"]) == 16
        assert "waterfall.svg" in body and "contributions.svg" in body
        assert "KindTitleLookup" in body

    def test_explore_without_query_serves_the_form(self, app, fresh_obs):
        status, _, body = call(app, "GET", "/explore")
        assert status == "200 OK"
        assert "<form" in body

    def test_explore_waterfall_svg(self, app, fresh_obs):
        status, headers, body = call(
            app, "GET", "/explore/waterfall.svg", "q=kind%3Dstation"
        )
        assert status == "200 OK"
        assert headers["Content-Type"] == "image/svg+xml"
        assert "<svg" in body and "kind=station" in body

    def test_explore_contributions_svg(self, app, fresh_obs):
        status, headers, body = call(
            app, "GET", "/explore/contributions.svg", "q=kind%3Dstation"
        )
        assert status == "200 OK"
        assert headers["Content-Type"] == "image/svg+xml"
        assert "<svg" in body and "teleport" in body

    def test_contributions_svg_404_when_no_results(self, app, fresh_obs):
        status, headers, body = call(
            app, "GET", "/explore/contributions.svg", "q=zzznothing"
        )
        assert status == "404 Not Found"
        assert len(headers["X-Trace-Id"]) == 16
        assert "no results" in body["error"]

    def test_debug_slow_serves_recorded_queries_with_plans(self, app, fresh_obs):
        # A unique query so the module-scoped engine's result cache
        # cannot serve it: a hit would record a plan-less entry.
        _, headers, _ = call(app, "GET", "/api/search", "q=elevation_m%3C2500")
        status, _, body = call(app, "GET", "/debug/slow")
        assert status == "200 OK"
        assert body["enabled"] is True and body["count"] >= 1
        entry = body["entries"][0]
        assert entry["trace_id"] == headers["X-Trace-Id"]
        assert entry["plan"]["waterfall"], "the plan must carry the waterfall"

    def test_openmetrics_negotiation_via_param_and_accept(self, app, fresh_obs):
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        status, headers, body = call(app, "GET", "/metrics", "format=openmetrics")
        assert status == "200 OK"
        assert headers["Content-Type"].startswith("application/openmetrics-text")
        assert body.endswith("# EOF\n")
        assert "http_requests_total" in body

        environ_accept = "application/openmetrics-text; version=1.0.0"
        raw = io.BytesIO(b"")
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/metrics",
            "QUERY_STRING": "",
            "HTTP_ACCEPT": environ_accept,
            "wsgi.input": raw,
        }
        captured = {}

        def start_response(response_status, response_headers):
            captured["status"] = response_status
            captured["headers"] = dict(response_headers)

        chunks = app(environ, start_response)
        assert captured["status"] == "200 OK"
        assert captured["headers"]["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        assert b"# EOF\n" in b"".join(chunks)

    def test_openmetrics_buckets_carry_trace_id_exemplars(self, app, fresh_obs):
        _, headers, _ = call(app, "GET", "/api/search", "q=kind%3Dstation")
        _, _, body = call(app, "GET", "/metrics", "format=openmetrics")
        assert f'trace_id="{headers["X-Trace-Id"]}"' in body

    def test_prometheus_default_remains_exemplar_free(self, app, fresh_obs):
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        _, headers, body = call(app, "GET", "/metrics")
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "trace_id=" not in body and "# EOF" not in body

    def test_stats_per_endpoint_percentiles_with_exemplars(self, app, fresh_obs):
        call(app, "GET", "/api/search", "q=kind%3Dstation")
        call(app, "GET", "/api/search", "q=kind%3Dsensor")
        _, _, body = call(app, "GET", "/api/stats")
        latency = body["endpoint_latency"]["/api/search"]
        assert latency["count"] == 2
        for name in ("p50", "p95", "p99"):
            assert latency[f"{name}_seconds"] >= 0.0
            assert len(latency[f"{name}_trace_id"]) == 16

    def test_unhandled_exception_is_a_500_with_trace_id(self, app, fresh_obs, monkeypatch):
        def boom(query):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(app.engine, "search_explained", boom)
        status, headers, body = call(
            app, "GET", "/api/search", "q=kind%3Dstation&explain=full"
        )
        assert status == "500 Internal Server Error"
        assert len(headers["X-Trace-Id"]) == 16
        assert body["error"] == "internal server error"
        assert body["type"] == "RuntimeError"
        assert body["trace_id"] == headers["X-Trace-Id"]

    def test_unhandled_exception_counts_into_errors_total(self, app, fresh_obs, monkeypatch):
        registry = fresh_obs[0]

        def boom(query):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(app.engine, "search_explained", boom)
        status, _, _ = call(app, "GET", "/api/search", "q=kind%3Dstation&explain=full")
        assert status == "500 Internal Server Error"
        assert registry.get("errors_total").labels("http").value == 1

    def test_new_debug_surfaces_locked_without_debug_flag(self, app, fresh_obs):
        locked = create_app(app.engine, debug=False)
        for path in ("/debug/slow", "/debug/provenance"):
            status, headers, _ = call(locked, "GET", path)
            assert status == "403 Forbidden"
            assert len(headers["X-Trace-Id"]) == 16
        # /explore is an operator UI but not a debug dump: stays open.
        status, _, _ = call(locked, "GET", "/explore")
        assert status == "200 OK"


def _station_app(sensors=()):
    """A fresh app over two stations plus ``(title, last_value)`` sensors."""
    smr = SensorMetadataRepository()
    for name, elevation in [("WAN-001", 2400), ("WAN-002", 2100)]:
        smr.register(
            "station",
            f"Station:{name}",
            [("name", name), ("elevation_m", elevation), ("status", "online")],
        )
    for title, value in sensors:
        smr.register("sensor", title, [("name", "wind sensor"), ("last_value", value)])
    engine = AdvancedSearchEngine(smr)
    engine.ranker.scores()  # solve before a test watches the event log
    application = create_app(engine)
    application.engine = engine
    return application


@contextmanager
def _fresh_ring_stack(ring_capacity=1000):
    """A fresh registry, tracer, event log and provenance ring, restored after."""
    from repro import obs

    installed = (
        obs.MetricsRegistry(), obs.Tracer(), obs.EventLog(), obs.ProvenanceRecorder(ring_capacity),
    )
    setters = (
        obs.set_registry, obs.set_tracer, obs.set_event_log, obs.set_provenance_recorder,
    )
    previous = [setter(fresh) for setter, fresh in zip(setters, installed)]
    try:
        yield installed
    finally:
        for setter, old in zip(setters, previous):
            setter(old)


class TestOneRecordPerSearch:
    """A search leaves one ring record and two histogram observations;
    the ring's views are the only query history."""

    def test_a_miss_and_a_hit_add_two_records_and_no_event_line(self):
        app = _station_app()
        with _fresh_ring_stack() as (registry, _, event_log, recorder):
            trace_ids = []
            for _ in range(2):
                status, headers, _ = call(app, "GET", "/api/search", "q=kind%3Dstation")
                assert status == "200 OK"
                trace_ids.append(headers["X-Trace-Id"])
            assert len(recorder) == 2 and recorder.recorded == 2
            assert len(event_log) == 0
            assert registry.histogram("engine_query_seconds").count == 2
            _, _, metrics = call(app, "GET", "/metrics")
            assert "engine_query_seconds_count 2" in metrics
            for trace_id, cache in zip(trace_ids, ("miss", "hit")):
                _, _, body = call(app, "GET", "/debug/provenance", f"trace_id={trace_id}")
                records = [(r["trace_id"], r["cache"]) for r in body["records"]]
                assert records == [(trace_id, cache)]

    def test_popular_and_slow_views_equal_a_brute_force_over_the_ring(self):
        app = _station_app()
        texts = [
            "kind=station", "keyword=Wind", "keyword=WIND", "wind", "kind=station",
            "keyword=zzznothing", "elevation_m>9000", "kind=station limit=1",
            "elevation_m>=2200", "keyword=zzznothing", "wAN kind=station",
        ] * 5
        with _fresh_ring_stack(ring_capacity=40) as (_, _, _, recorder):
            searched = []  # (normalized describe(), total_candidates), in order
            for text in texts:
                _, _, body = call(app, "GET", "/api/search", urlencode({"q": text}))
                normalized = " ".join(app.engine.parse(text).describe().lower().split())
                searched.append((normalized, body["total_candidates"]))
            _, _, popular = call(app, "GET", "/api/queries/popular", "k=1000")
            _, _, top = call(app, "GET", "/api/queries/popular")
            _, _, slow = call(app, "GET", "/debug/slow")
            records = recorder.snapshot()

        retained = searched[-40:]  # the ring's window
        counts = Counter(query for query, _ in retained)
        assert popular["popular"] == [
            {"query": q, "count": c}
            for q, c in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        ]
        zero = [q for q, total in reversed(retained) if total == 0]
        assert popular["zero_results"] == list(dict.fromkeys(zero))
        assert top["popular"] == popular["popular"][:10]

        assert [" ".join(p.query.lower().split()) for p in records] == [q for q, _ in retained]
        expected = sorted(records, key=lambda p: (-p.seconds, p.seq))[:32]
        assert [(e["seq"], e["seconds"], e["query"]) for e in slow["entries"]] == [
            (p.seq, p.seconds, p.query) for p in expected
        ]
        assert (slow["count"], slow["capacity"], slow["recorded"]) == (32, 32, len(texts))


class TestPropertySortBeyondFloat:
    """A property value too large for a float still sorts, exactly."""

    def test_sort_answers_200_in_exact_order_with_finite_scores(self):
        app = _station_app(
            [("Sensor:Huge", 10**400), ("Sensor:Tiny", -(10**400)), ("Sensor:Three", 3)]
        )

        def finite_only(constant):
            raise AssertionError(f"non-finite number {constant} in the body")

        for order, expected in [
            ("desc", ["Sensor:Huge", "Sensor:Three", "Sensor:Tiny"]),
            ("asc", ["Sensor:Tiny", "Sensor:Three", "Sensor:Huge"]),
        ]:
            query = urlencode({"q": f"kind=sensor sort=last_value order={order}"})
            status, _, raw = call_raw(app, "GET", "/api/search", query)
            assert status == "200 OK", raw[:300]
            body = json.loads(raw, parse_constant=finite_only)
            assert [r["title"] for r in body["results"]] == expected
            values = [r["annotations"]["last_value"] for r in body["results"]]
            assert values == sorted(values, reverse=order == "desc")


class TestTelemetryEndpoints:
    @pytest.fixture
    def fresh_sampler(self):
        """Swap in a fresh registry + default sampler for one test."""
        from repro import obs

        registry = obs.MetricsRegistry()
        prev_registry = obs.set_registry(registry)
        sampler = obs.MetricsSampler(
            evaluator=obs.SloEvaluator(obs.default_slos())
        )
        prev_sampler = obs.set_sampler(sampler)
        yield registry, sampler
        sampler.stop()
        obs.set_registry(prev_registry)
        obs.set_sampler(prev_sampler)

    def test_timeseries_requires_metric_and_lists_names(self, app, fresh_sampler):
        registry, sampler = fresh_sampler
        own_app = create_app(app.engine)
        call(own_app, "GET", "/api/search", "q=kind%3Dstation")
        sampler.tick(now=10.0)
        status, _, body = call(own_app, "GET", "/api/timeseries")
        assert status == "400 Bad Request"
        assert "http_requests_total" in body["metrics"]
        assert body["sampler"]["ticks"] == 1

    def test_timeseries_counter_series(self, app, fresh_sampler):
        registry, sampler = fresh_sampler
        own_app = create_app(app.engine)
        call(own_app, "GET", "/api/search", "q=kind%3Dstation")
        sampler.tick(now=10.0)
        call(own_app, "GET", "/api/search", "q=kind%3Dstation")
        sampler.tick(now=20.0)
        status, _, body = call(
            own_app, "GET", "/api/timeseries",
            "metric=http_requests_total&window=60",
        )
        assert status == "200 OK"
        series = next(
            s for s in body["series"]
            if s["labels"].get("endpoint") == "/api/search"
        )
        assert series["kind"] == "counter"
        assert series["delta"] == 1.0
        assert series["rate_per_second"] == pytest.approx(0.1)
        assert len(series["points"]) == 2

    def test_timeseries_histogram_percentiles(self, app, fresh_sampler):
        registry, sampler = fresh_sampler
        own_app = create_app(app.engine)
        histogram = registry.histogram("engine_query_seconds")
        # Materialize the unlabelled child before the first scrape; an
        # empty family has no children and therefore no series yet.
        histogram.observe(0.03)
        sampler.tick(now=0.0)
        for _ in range(10):
            histogram.observe(0.03)
        sampler.tick(now=10.0)
        status, _, body = call(
            own_app, "GET", "/api/timeseries", "metric=engine_query_seconds"
        )
        assert status == "200 OK"
        (series,) = body["series"]
        assert series["kind"] == "histogram"
        assert series["percentiles"]["p50"] is not None
        assert series["rate_per_second"] == pytest.approx(1.0)

    def test_timeseries_unknown_metric_404(self, app, fresh_sampler):
        own_app = create_app(app.engine)
        status, _, body = call(
            own_app, "GET", "/api/timeseries", "metric=no_such_metric"
        )
        assert status == "404 Not Found"

    def test_alerts_payload_shape(self, app, fresh_sampler):
        registry, sampler = fresh_sampler
        own_app = create_app(app.engine)
        sampler.tick(now=10.0)
        status, _, body = call(own_app, "GET", "/api/alerts")
        assert status == "200 OK"
        assert body["enabled"] is True
        assert body["firing"] == []
        assert {s["name"] for s in body["slos"]} == {
            "availability", "search_latency", "ranker_freshness",
        }
        assert body["sampler"]["running"] is False

    def test_debug_index_lists_every_surface(self, app):
        status, _, page = call(app, "GET", "/debug")
        assert status == "200 OK"
        for path in (
            "/debug/dashboard", "/debug/trace", "/debug/logs",
            "/debug/profile", "/debug/convergence", "/debug/plan",
            "/debug/slow", "/debug/provenance", "/explore",
            "/api/alerts", "/api/timeseries", "/metrics", "/healthz",
        ):
            assert path in page

    def test_dashboard_html_embeds_svg(self, app, fresh_sampler):
        registry, sampler = fresh_sampler
        own_app = create_app(app.engine)
        sampler.tick(now=10.0)
        status, _, page = call(own_app, "GET", "/debug/dashboard")
        assert status == "200 OK"
        assert "/debug/dashboard.svg" in page
        assert "Service level objectives" in page
        assert "No firing alerts" in page

    def test_dashboard_svg_renders_without_data(self, app, fresh_sampler):
        import xml.etree.ElementTree as ET

        own_app = create_app(app.engine)
        status, headers, svg = call(own_app, "GET", "/debug/dashboard.svg")
        assert status == "200 OK"
        assert "svg" in headers["Content-Type"]
        ET.fromstring(svg)  # an empty store must still render panels

    def test_healthz_has_slo_probe(self, app, fresh_sampler):
        _, sampler = fresh_sampler
        own_app = create_app(app.engine)
        status, _, body = call(own_app, "GET", "/healthz")
        assert status == "200 OK"
        assert body["checks"]["slo"]["status"] == "ok"
        assert body["checks"]["slo"]["slos"] == 3

    def test_telemetry_surfaces_gated_by_debug_flag(self, app, fresh_sampler):
        locked = create_app(app.engine, debug=False)
        for path in ("/debug", "/debug/dashboard", "/debug/dashboard.svg"):
            status, _, _ = call(locked, "GET", path)
            assert status == "403 Forbidden"
        # The JSON telemetry APIs carry aggregates only: stay open.
        for path in ("/api/alerts", "/api/timeseries?metric=x"):
            status, _, _ = call(locked, "GET", path.split("?")[0],
                                path.partition("?")[2])
            assert status in ("200 OK", "400 Bad Request", "404 Not Found")


# Compact-query tokens for the HTTP-edge fuzz: every reserved field,
# mapped and unmapped properties under every operator, and values that
# are out of range, not numbers, quoted or non-ASCII.
_NUMBERS = st.one_of(
    st.integers(-3, 3000).map(str),
    st.sampled_from(["46.8", "-1.5", "1e309", "-1e309", "nan", "inf", "abc", ""]),
)
_WORDS = st.sampled_from(
    ["wind", "snow", "WAN-001", "Station:WAN-002", "\u00e9t\u00e9", "\u65e5\u672c",
     '"', "'", '"wind"', "a b"]
)
_PROPERTIES = st.sampled_from(
    ["elevation_m", "status", "name", "latitude", "sensor_type", "station", "maintainer",
     "h\u00f6he", "limit", "kind"]
)
_TOKENS = st.one_of(
    _WORDS,
    st.builds("keyword={}".format, _WORDS),
    st.builds("kind={}".format, st.sampled_from(["station", "Sensor", "nope", ""])),
    st.builds("limit={}".format, _NUMBERS),
    st.builds("offset={}".format, _NUMBERS),
    st.builds("sort={}".format, st.sampled_from(["relevance", "pagerank", "elevation_m", "nope"])),
    st.builds("order={}".format, st.sampled_from(["asc", "desc", "up"])),
    st.builds("relaxed={}".format, st.sampled_from(["true", "no", "1"])),
    st.builds(
        "bbox={}".format,
        st.one_of(
            st.lists(st.floats(-90, 90).map(str), min_size=4, max_size=4),
            st.lists(_NUMBERS, min_size=3, max_size=5),
        ).map(",".join),
    ),
    st.builds(
        "{}{}{}".format, _PROPERTIES, st.sampled_from(OPERATORS), st.one_of(_NUMBERS, _WORDS)
    ),
)
# Path titles and counts for the page-level and listing endpoints:
# existing pages, missing ones, case variants, non-ASCII, %-escapes that
# the router receives undecoded, and counts that are negative, huge or
# not numbers.
_TITLES = st.sampled_from(
    ["Station:WAN-001", "Sensor:W1", "station:wan-001", "SENSOR:W1", " Station:WAN-002 ",
     "Station:NOPE", "Nowhere", "Station:H\u00f6he", "\u65e5\u672c", "\U0001f600",
     "Station%3AWAN-001", "%E2%82%AC", "%", "%zz", "a%2Fb", ":", "a b", ""]
)
_COUNTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["-1", "-0", "9" * 30, "1e3", "1.5", "abc", "", "0x10", " 3", "nan"]),
)
_PAGE_ENDPOINTS = [
    ("/api/page/{}", None),
    ("/api/related/{}", "k"),
    ("/api/snippet/{}", None),
    ("/api/values", None),
    ("/api/tags/cloud", "top"),
    ("/api/pagerank/top", "k"),
]
_ENDPOINTS = [
    ("/api/search", {}),
    ("/api/search", {"explain": "1"}),
    ("/api/search", {"explain": "full"}),
    ("/api/facets", {"prop": "status"}),
    ("/api/recommend", {}),
    ("/api/viz/map.svg", {}),
    ("/explore", {}),
    ("/debug/plan", {}),
]


class TestHttpEdgeFuzz:
    """Malformed input at the HTTP edge is a 4xx, never the catch-all 500,
    and every plain search body is the one encoder's output."""

    @given(
        st.lists(_TOKENS, max_size=5).map(" ".join),
        st.sampled_from(_ENDPOINTS),
    )
    @settings(max_examples=200, deadline=None)
    def test_queries_answer_2xx_or_4xx_and_search_bodies_match_the_oracle(
        self, app, text, endpoint
    ):
        path, params = endpoint
        query = urlencode({"q": text, **params})
        status, headers, body = call_raw(app, "GET", path, query)
        assert status[0] in "24", (path, text, status, body[:300])
        if path != "/api/search" or params or not status.startswith("200"):
            return
        # The first request may have missed; this one hits the result
        # cache and is served from the stored body.
        _, again_headers, again = call_raw(app, "GET", path, query)
        results = app.engine.search(app.engine.parse(text))  # the cached result set
        for served, served_headers in ((body, headers), (again, again_headers)):
            payload = {
                "query": results.query_description,
                "total_candidates": results.total_candidates,
                "results": [_result_payload(result) for result in results],
                "trace_id": served_headers["X-Trace-Id"],
            }
            assert served == encode_json(payload), text

    @given(
        st.sampled_from(_PAGE_ENDPOINTS),
        _TITLES,
        _COUNTS,
        st.one_of(_WORDS, _PROPERTIES),
        st.sampled_from(["station", "Sensor", "nope", ""]),
    )
    @settings(max_examples=200, deadline=None)
    @example(("/api/related/{}", "k"), "station:wan-001", "9" * 30, "wind", "")
    @example(("/api/page/{}", None), "Station%3AWAN-001", "", "wind", "")
    @example(("/api/tags/cloud", "top"), "", "-1", "", "")
    def test_page_and_listing_endpoints_answer_2xx_or_4xx(
        self, app, endpoint, title, count, word, kind
    ):
        template, count_name = endpoint
        path = template.format(title)
        params = {"q": word, "prop": word, "kind": kind}
        if count_name:
            params[count_name] = count
        status, _, body = call_raw(app, "GET", path, urlencode(params))
        assert status[0] in "24", (path, params, status, body[:300])
