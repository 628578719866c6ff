"""Tests for the extension features: EXPLAIN, range scans, SPARQL UNION,
line charts, personalized PageRank, snippets, and SMR dumps."""

import pytest

from repro.errors import QueryError, SparqlSyntaxError, SqlSyntaxError, VizError
from repro.relational import Database
from repro.rdf import Graph, Literal, Namespace, SparqlEngine
from repro.smr import SensorMetadataRepository, export_dump, export_json, restore, restore_json
from repro.text import best_snippet
from repro.viz import LineChart

EX = Namespace("http://x/")


class TestExplain:
    @pytest.fixture
    def db(self):
        # Large enough that the cost-based planner prices selective index
        # probes below a sequential scan (on a 3-row table seq would win).
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL, tag TEXT)")
        database.execute("CREATE INDEX idx_v ON t(v) USING btree")
        database.execute("CREATE INDEX idx_tag ON t(tag)")
        for i in range(64):
            database.execute(
                f"INSERT INTO t (id, v, tag) VALUES ({i + 1}, {float(i)}, 't{i % 16}')"
            )
        database.execute("INSERT INTO t (id, v, tag) VALUES (100, 1.0, 'a')")
        return database

    def test_explain_seq_scan(self, db):
        plan = [row[0] for row in db.execute("EXPLAIN SELECT * FROM t")]
        assert plan[0].startswith("SeqScan(t)")
        assert "cost=" in plan[0]

    def test_explain_index_eq(self, db):
        plan = [row[0] for row in db.execute("EXPLAIN SELECT * FROM t WHERE tag = 'a'")]
        assert plan[0].startswith("IndexScan(t.tag = 'a' via idx_tag)")
        assert any("Filter" in line for line in plan)

    def test_explain_pk_index(self, db):
        plan = [row[0] for row in db.execute("EXPLAIN SELECT * FROM t WHERE id = 2")]
        assert plan[0].startswith("IndexScan(t.id")

    def test_explain_range_scan(self, db):
        plan = [row[0] for row in db.execute("EXPLAIN SELECT * FROM t WHERE v > 60.5")]
        assert plan[0].startswith("RangeIndexScan(t: v > 60.5 via idx_v)")

    def test_explain_flipped_range(self, db):
        plan = [row[0] for row in db.execute("EXPLAIN SELECT * FROM t WHERE 60.5 < v")]
        assert plan[0].startswith("RangeIndexScan(t: v > 60.5 via idx_v)")

    def test_explain_seq_when_unselective(self, db):
        # tag = 'a' is selective, but v > -1000 matches everything: the
        # planner must keep the scan rather than fetch the whole table
        # through an index.
        plan = [row[0] for row in db.execute("EXPLAIN SELECT * FROM t WHERE v > -1000.0")]
        assert plan[0].startswith("SeqScan(t)")

    def test_explain_join_and_agg(self, db):
        plan = [
            row[0]
            for row in db.execute(
                "EXPLAIN SELECT a.tag, COUNT(*) FROM t a JOIN t b ON a.id = b.id "
                "GROUP BY a.tag ORDER BY a.tag LIMIT 1"
            )
        ]
        assert any(line.startswith("HashJoin") for line in plan)
        assert any(line.startswith("HashAggregate") for line in plan)
        assert any(line.startswith("Sort") for line in plan)
        assert any(line.startswith("Limit") for line in plan)

    def test_explain_nested_loop(self, db):
        plan = [
            row[0]
            for row in db.execute("EXPLAIN SELECT * FROM t a JOIN t b ON a.v < b.v")
        ]
        assert any(line.startswith("NestedLoopJoin") for line in plan)

    def test_explain_only_select(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("EXPLAIN DELETE FROM t")

    def test_range_scan_results_correct(self, db):
        # v = id - 1 for ids 1..64, plus (id=100, v=1.0).
        assert db.execute("SELECT id FROM t WHERE v > 61.5 ORDER BY id").rows == [
            (63,),
            (64,),
        ]
        assert db.execute("SELECT id FROM t WHERE v >= 62.0 ORDER BY id").rows == [
            (63,),
            (64,),
        ]
        assert db.execute("SELECT id FROM t WHERE v < 1.0").rows == [(1,)]
        assert db.execute("SELECT id FROM t WHERE v <= 1.0 ORDER BY id").rows == [
            (1,),
            (2,),
            (100,),
        ]

    def test_range_scan_with_extra_predicates(self, db):
        rows = db.execute("SELECT id FROM t WHERE v > 0.5 AND tag = 'a' ORDER BY id").rows
        assert rows == [(100,)]


class TestSparqlUnion:
    @pytest.fixture
    def engine(self):
        graph = Graph()
        graph.add(EX.a, EX.p1, Literal("v1"))
        graph.add(EX.b, EX.p2, Literal("v2"))
        graph.add(EX.c, EX.p3, Literal("v3"))
        graph.add(EX.a, EX.name, Literal("A"))
        return SparqlEngine(graph)

    def test_two_way_union(self, engine):
        result = engine.query(
            "PREFIX ex: <http://x/> "
            "SELECT ?s WHERE { { ?s ex:p1 ?v } UNION { ?s ex:p2 ?v } } ORDER BY ?s"
        )
        assert result.column("s") == [EX.a, EX.b]

    def test_three_way_union(self, engine):
        result = engine.query(
            "PREFIX ex: <http://x/> "
            "SELECT ?s WHERE { { ?s ex:p1 ?v } UNION { ?s ex:p2 ?v } UNION { ?s ex:p3 ?v } }"
        )
        assert len(result) == 3

    def test_union_joined_with_pattern(self, engine):
        result = engine.query(
            "PREFIX ex: <http://x/> "
            "SELECT ?n WHERE { ?s ex:name ?n . { ?s ex:p1 ?v } UNION { ?s ex:p2 ?v } }"
        )
        assert result.column("n") == [Literal("A")]

    def test_union_no_match_kills_solution(self, engine):
        result = engine.query(
            "PREFIX ex: <http://x/> "
            "SELECT ?s WHERE { ?s ex:p3 ?v . { ?s ex:p1 ?x } UNION { ?s ex:p2 ?x } }"
        )
        assert len(result) == 0

    def test_lone_braced_group_rejected(self, engine):
        with pytest.raises(SparqlSyntaxError):
            engine.query("SELECT ?s WHERE { { ?s ?p ?o } }")


class TestLineChart:
    def test_basic_chart(self):
        chart = LineChart(title="T", x_label="x", y_label="y")
        chart.add_series("a", [(0, 1.0), (1, 2.0)])
        chart.add_series("b", [(0, 2.0), (1, 1.0)])
        svg = chart.to_svg()
        assert "<svg" in svg and "T" in svg
        assert svg.count("<path") == 2  # one polyline per series

    def test_log_scale(self):
        chart = LineChart(log_y=True)
        chart.add_series("res", [(1, 1e-1), (2, 1e-4), (3, 1e-8)])
        svg = chart.to_svg()
        assert "1e" in svg  # log tick labels

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(VizError):
            LineChart(log_y=True).add_series("bad", [(0, 0.0)])

    def test_empty_series_rejected(self):
        with pytest.raises(VizError):
            LineChart().add_series("empty", [])

    def test_empty_chart_rejected(self):
        with pytest.raises(VizError):
            LineChart().to_svg()

    def test_single_point_series(self):
        svg = LineChart().add_series("dot", [(1, 1)]).to_svg()
        assert "<circle" in svg


@pytest.fixture(scope="module")
def mini_smr():
    smr = SensorMetadataRepository()
    smr.register("field_site", "Fieldsite:F", [("name", "F"), ("latitude", 46.5), ("longitude", 8.0)])
    smr.register(
        "deployment",
        "Deployment:D",
        [("name", "D"), ("field_site", "Fieldsite:F"), ("project", "SnowFlux")],
    )
    smr.register("station", "Station:S1", [("name", "S1"), ("deployment", "Deployment:D")])
    smr.register("station", "Station:S2", [("name", "S2"), ("deployment", "Deployment:D")])
    smr.register(
        "sensor",
        "Sensor:X",
        [("name", "wind speed probe"), ("station", "Station:S1"), ("sensor_type", "wind speed")],
    )
    return smr


class TestPersonalizedPageRank:
    def test_related_pages_follow_links(self, mini_smr):
        from repro.core.ranking import PageRankRanker

        ranker = PageRankRanker(mini_smr)
        related = ranker.related_pages("Sensor:X", k=3)
        titles = [title for title, _ in related]
        assert titles[0] == "Station:S1"  # the direct semantic neighbor
        assert "Sensor:X" not in titles

    def test_personalized_is_distribution(self, mini_smr):
        from repro.core.ranking import PageRankRanker

        scores = PageRankRanker(mini_smr).personalized(["Station:S1", "Station:S2"])
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_unknown_seed_rejected(self, mini_smr):
        from repro.core.ranking import PageRankRanker

        with pytest.raises(QueryError):
            PageRankRanker(mini_smr).personalized(["Nope:Nothing"])

    def test_empty_seeds_rejected(self, mini_smr):
        from repro.core.ranking import PageRankRanker

        with pytest.raises(QueryError):
            PageRankRanker(mini_smr).personalized([])


class TestSnippets:
    def test_highlighting_and_stemming(self):
        text = (
            "The station records wind measurements hourly. Snow height and "
            "wind direction are archived. Unrelated trailing text about nothing."
        )
        snippet = best_snippet(text, "wind measurement", window=10)
        assert "**wind**" in snippet.text
        assert "**measurements**" in snippet.text  # stemmed match
        assert snippet.matches >= 2
        assert snippet.distinct_terms == 2

    def test_window_selects_dense_region(self):
        text = "filler " * 50 + "wind wind wind" + " filler" * 50
        snippet = best_snippet(text, "wind", window=6)
        assert snippet.text.count("**wind**") == 3
        assert snippet.text.startswith("…") and snippet.text.endswith("…")

    def test_no_match_returns_head(self):
        snippet = best_snippet("alpha beta gamma", "zzz")
        assert snippet.matches == 0
        assert "alpha" in snippet.text

    def test_empty_text(self):
        snippet = best_snippet("", "wind")
        assert snippet.text == "" and snippet.matches == 0

    def test_engine_snippet(self, mini_smr):
        from repro.core import AdvancedSearchEngine

        engine = AdvancedSearchEngine(mini_smr)
        snippet = engine.snippet("Sensor:X", "wind speed")
        assert "**wind**" in snippet.text


class TestDump:
    def test_roundtrip(self, mini_smr):
        payload = export_json(mini_smr)
        restored = restore_json(payload)
        assert restored.page_count == mini_smr.page_count
        assert export_dump(restored) == export_dump(mini_smr)

    def test_dump_shape(self, mini_smr):
        dump = export_dump(mini_smr)
        assert set(dump) == {"field_site", "deployment", "station", "sensor"}
        assert dump["sensor"][0]["title"] == "Sensor:X"
        assert dump["sensor"][0]["sensor_type"] == "wind speed"

    def test_restored_repo_queries(self, mini_smr):
        restored = restore(export_dump(mini_smr))
        assert restored.sql("SELECT COUNT(*) FROM station").scalar() == 2
        hits = restored.keyword_search("wind")
        assert hits and max(hits, key=hits.get) == "Sensor:X"
