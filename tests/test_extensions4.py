"""Tests for the fourth extension batch: CASE/COALESCE/NULLIF and the
observation web endpoints; plus a docstring-coverage meta-check."""

import io
import json

import pytest

from repro.errors import QueryError, RelationalError, SqlSyntaxError
from repro.relational import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, tag TEXT)")
    database.execute(
        "INSERT INTO t (id, v, tag) VALUES (1, 10, 'a'), (2, NULL, 'b'), (3, 30, NULL)"
    )
    return database


class TestCaseExpression:
    def test_searched_case(self, db):
        rows = db.execute(
            "SELECT id, CASE WHEN v > 15 THEN 'high' WHEN v IS NULL THEN 'none' "
            "ELSE 'low' END FROM t ORDER BY id"
        ).rows
        assert rows == [(1, "low"), (2, "none"), (3, "high")]

    def test_simple_case_desugars(self, db):
        rows = db.execute(
            "SELECT CASE tag WHEN 'a' THEN 1 WHEN 'b' THEN 2 END FROM t ORDER BY id"
        ).rows
        assert rows == [(1,), (2,), (None,)]

    def test_no_else_yields_null(self, db):
        assert db.execute("SELECT CASE WHEN false THEN 1 END").scalar() is None

    def test_case_inside_aggregate(self, db):
        count = db.execute(
            "SELECT SUM(CASE WHEN v IS NULL THEN 1 ELSE 0 END) FROM t"
        ).scalar()
        assert count == 1

    def test_case_in_where(self, db):
        rows = db.execute(
            "SELECT id FROM t WHERE CASE WHEN v IS NULL THEN 0 ELSE v END > 5 ORDER BY id"
        ).rows
        assert rows == [(1,), (3,)]

    def test_case_without_when_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT CASE ELSE 1 END")

    def test_unterminated_case_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT CASE WHEN true THEN 1")


class TestCoalesceNullif:
    def test_coalesce(self, db):
        rows = db.execute("SELECT COALESCE(v, 0) FROM t ORDER BY id").rows
        assert rows == [(10,), (0,), (30,)]

    def test_coalesce_all_null(self, db):
        assert db.execute("SELECT COALESCE(NULL, NULL)").scalar() is None

    def test_coalesce_needs_args(self, db):
        with pytest.raises(RelationalError):
            db.execute("SELECT COALESCE()")

    def test_nullif(self, db):
        rows = db.execute("SELECT NULLIF(tag, 'a') FROM t ORDER BY id").rows
        assert rows == [(None,), ("b",), (None,)]

    def test_nullif_arity(self, db):
        with pytest.raises(RelationalError):
            db.execute("SELECT NULLIF(1)")


class TestObservationEndpoints:
    @pytest.fixture(scope="class")
    def app(self):
        from repro import build_demo_engine
        from repro.observations import ObservationStore
        from repro.web import create_app

        engine = build_demo_engine(seed=4, stations=6, sensors=12)
        store = ObservationStore()
        store.simulate_from_smr(engine.smr, ticks=50, seed=2)
        self_sensor = engine.smr.titles("sensor")[0]
        return create_app(engine, observations=store), self_sensor

    def _call(self, app, path, query=""):
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "wsgi.input": io.BytesIO(b""),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = dict(headers)

        body = b"".join(app(environ, start_response)).decode()
        return captured["status"], captured["headers"], body

    def test_stats_endpoint(self, app):
        application, sensor = app
        status, _, body = self._call(application, f"/api/observations/{sensor}")
        assert status == "200 OK"
        payload = json.loads(body)
        assert payload["count"] > 0
        assert payload["stale"] is False

    def test_series_svg(self, app):
        application, sensor = app
        status, headers, body = self._call(
            application, f"/api/observations/{sensor}/series.svg", "bucket=10"
        )
        assert status == "200 OK"
        assert headers["Content-Type"] == "image/svg+xml"
        assert body.startswith("<svg")

    def test_unknown_sensor_is_400(self, app):
        application, _ = app
        status, _, _ = self._call(application, "/api/observations/Ghost:Sensor")
        assert status == "400 Bad Request"

    def test_no_store_is_404(self):
        from repro import build_demo_engine
        from repro.web import create_app

        engine = build_demo_engine(seed=4, stations=5, sensors=10)
        application = create_app(engine)  # no observation store
        status, _, _ = self._call(application, "/api/observations/Sensor:X")
        assert status == "404 Not Found"


class TestDocstringCoverage:
    """Every public module, class, and function carries a docstring."""

    def test_all_public_api_documented(self):
        import importlib
        import inspect
        import pkgutil

        import repro

        undocumented = []
        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if module_info.name.endswith("__main__"):
                continue  # importing it would run the CLI
            module = importlib.import_module(module_info.name)
            if not module.__doc__:
                undocumented.append(module_info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module_info.name:
                    continue  # re-exports are documented at their source
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{module_info.name}.{name}")
                    if inspect.isclass(obj):
                        for member_name, member in vars(obj).items():
                            if member_name.startswith("_"):
                                continue
                            if inspect.isfunction(member) and not inspect.getdoc(member):
                                undocumented.append(
                                    f"{module_info.name}.{name}.{member_name}"
                                )
        assert not undocumented, f"missing docstrings: {undocumented[:20]}"


class TestApiGapFills:
    """Direct tests for public API that was only exercised indirectly."""

    def test_convergence_study_run_all(self):
        from repro.pagerank import ConvergenceStudy, combine_link_structures
        from repro.workloads.webgraphs import paired_link_structures

        problems = []
        for n in (40, 60):
            web, sem = paired_link_structures(n, sink_pairs=2, seed=n)
            problems.append((f"n={n}", combine_link_structures(web, sem)))
        study = ConvergenceStudy(methods=["power", "gauss_seidel"], tol=1e-6)
        records = study.run_all(problems)
        assert len(records) == 4
        assert len(study.iterations_series()["power"]) == 2

    def test_inverted_index_document_frequency(self):
        from repro.text import InvertedIndex

        index = InvertedIndex()
        index.add("a", "wind and snow")
        index.add("b", "wind only")
        assert index.document_frequency("wind") == 2
        assert index.document_frequency("snow") == 1
        assert index.document_frequency("the") == 0  # stopword analyzes away

    def test_query_helpers(self):
        from repro.core import SearchQuery, parse_query

        query = parse_query("kind=station bbox=46,6,47,8")
        assert query.is_spatial
        bigger = query.with_limit(None)
        assert bigger.limit is None and bigger.bbox == query.bbox
        assert not parse_query("kind=station").is_spatial

    def test_ranker_top_properties(self):
        from repro import build_demo_engine

        engine = build_demo_engine(seed=8, stations=8, sensors=16)
        top = engine.ranker.top_properties(3)
        assert len(top) == 3
        weights = [weight for _, weight in top]
        assert weights == sorted(weights, reverse=True)
        assert engine.ranker.top_properties(0) == []
        with pytest.raises(QueryError):
            engine.ranker.top_properties(-1)

    def test_privileges_direct(self):
        from repro.core import AccessPolicy, User
        from repro.errors import AccessDeniedError

        assert AccessPolicy.allow_all().can_read("sensor")
        user = User("u", AccessPolicy.restrict_to(["sensor"]))
        user.check_kind("sensor")  # no raise
        with pytest.raises(AccessDeniedError):
            user.check_kind("station")

    def test_ranker_raises_convergence_error(self):
        from repro.core.ranking import PageRankRanker
        from repro.errors import ConvergenceError
        from repro.smr import SensorMetadataRepository

        smr = SensorMetadataRepository()
        for i in range(30):
            smr.register(
                "station",
                f"Station:C{i}",
                [("name", f"c{i}"), ("deployment", f"Station:C{(i + 1) % 30}")],
            )
        ranker = PageRankRanker(smr, tol=1e-12, max_iter=2)  # impossible budget
        with pytest.raises(ConvergenceError) as excinfo:
            ranker.scores()
        assert excinfo.value.iterations > 0


class TestRemainingEdgePaths:
    """Edge paths surfaced by the final coverage sweep."""

    def test_distinct_order_by_hidden_column_rejected(self, db):
        # After DISTINCT actually merges rows, the per-row contexts are
        # gone; ordering by a non-projected column cannot be answered
        # (sqlite rejects this query shape too).
        db.execute("INSERT INTO t (id, v, tag) VALUES (4, 7, 'a')")  # duplicate tag
        with pytest.raises(RelationalError):
            db.execute("SELECT DISTINCT tag FROM t ORDER BY v")

    def test_text_response(self):
        from repro.web.http import TextResponse

        response = TextResponse("plain body")
        assert response.status == "200 OK"
        assert dict(response.headers)["Content-Type"].startswith("text/plain")
        assert response.body == b"plain body"

    def test_graph_render_skips_edges_to_unknown_nodes(self):
        from repro.viz import GraphRenderer

        svg = GraphRenderer(seed=1).render(["A"], [("A", "GHOST", "x")])
        assert svg.count("<circle") == 1  # only the known node is drawn

    def test_solver_result_top_pages(self):
        import numpy as np

        from repro.pagerank.solvers.base import SolverResult

        result = SolverResult("power", np.array([0.1, 0.6, 0.3]), iterations=1)
        assert result.top_pages(2) == [1, 2]
        assert result.final_residual == float("inf")  # no residuals recorded

    def test_series_downsample_empty(self):
        from repro.observations import TimeSeries

        assert TimeSeries().downsample(5) == []

    def test_values_since_empty(self):
        from repro.observations import TimeSeries

        assert TimeSeries().values_since(0) == []
