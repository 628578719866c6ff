"""End-to-end integration tests across all subsystems.

These exercise the flows the paper demonstrates: bulk load -> triple-store
consistency -> combined SQL+SPARQL search -> ranking -> recommendation ->
visualization -> tagging, all on one shared corpus.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro import build_demo_engine
from repro.core import AdvancedSearchEngine, parse_query
from repro.pagerank import combine_link_structures, solve_pagerank
from repro.smr import BulkLoader, SensorMetadataRepository, export_dump, restore
from repro.tagging import TaggingSystem
from repro.viz import (
    BarChart,
    MapMarker,
    MapRenderer,
    PieChart,
    render_tag_cloud_svg,
)
from repro.wiki.site import PROP, title_to_iri
from repro.workloads import CorpusSpec, generate_corpus, generate_tag_workload

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(seed=77))


@pytest.fixture(scope="module")
def engine(corpus):
    smr = SensorMetadataRepository.from_corpus(corpus)
    return AdvancedSearchEngine(smr)


class TestThreeStoreConsistency:
    """Every page must exist — consistently — in all three stores."""

    def test_counts_match(self, corpus, engine):
        smr = engine.smr
        assert smr.page_count == corpus.page_count
        relational_total = sum(
            smr.sql(f"SELECT COUNT(*) FROM {kind}").scalar() for kind in smr.mapping.kinds
        )
        assert relational_total == corpus.page_count

    def test_every_page_has_rdf_type(self, engine):
        from repro.rdf.namespace import RDF

        graph = engine.smr.rdf_graph()
        for title in engine.smr.titles():
            subject = title_to_iri(title)
            assert graph.objects(subject, RDF.type), f"{title} missing rdf:type"

    def test_sql_and_sparql_agree_on_a_property(self, engine):
        smr = engine.smr
        sql_count = smr.sql(
            "SELECT COUNT(*) FROM sensor WHERE sensor_type = 'snow height'"
        ).scalar()
        sparql = smr.sparql(
            "PREFIX prop: <http://repro.example.org/property/> "
            'SELECT ?s WHERE { ?s prop:sensor_type ?t . FILTER(?t = "snow height") }'
        )
        assert sql_count == len(sparql)

    def test_keyword_index_covers_all_pages(self, engine):
        assert engine.smr.text_index.document_count == engine.smr.page_count

    def test_semantic_links_consistent_with_rdf(self, corpus, engine):
        graph = engine.smr.rdf_graph()
        for source, prop, target in corpus.semantic_links[:50]:
            triple = (
                title_to_iri(source),
                PROP.term(prop),
                title_to_iri(target),
            )
            assert triple in graph, f"missing {source} --{prop}--> {target}"


class TestSearchPipeline:
    def test_combined_query_all_constraints(self, engine):
        results = engine.search(
            parse_query(
                "keyword=wind kind=sensor sampling_rate_s<=600 sort=pagerank limit=10"
            )
        )
        for result in results:
            assert result.kind == "sensor"
            assert result.get("sampling_rate_s") <= 600
            assert "wind" in result.get("sensor_type", "") or "wind" in result.title.lower()

    def test_ranking_consistent_with_standalone_pagerank(self, engine):
        """The engine's scores equal a direct double-link solve."""
        web = engine.smr.wiki.link_graph()
        semantic = engine.smr.wiki.semantic_graph()
        problem = combine_link_structures(web, semantic, alpha=0.5)
        direct = solve_pagerank(problem, tol=1e-10, max_iter=5000)
        titles = engine.smr.wiki.titles()
        for i in (0, len(titles) // 2, len(titles) - 1):
            assert engine.ranker.score(titles[i]) == pytest.approx(
                float(direct.scores[i]), abs=1e-6
            )

    def test_recommendations_are_semantic_neighbors(self, engine):
        results = engine.search(parse_query("kind=sensor limit=5"))
        for rec in engine.recommend(results, k=5):
            assert rec.reasons
            for prop, source in rec.reasons:
                annotations = dict(
                    (p.lower(), v) for p, v in engine.smr.annotations(source)
                )
                reverse = dict(
                    (p.lower(), v) for p, v in engine.smr.annotations(rec.title)
                )
                assert annotations.get(prop) == rec.title or reverse.get(prop) == source

    def test_relaxed_search_monotonic_degrees(self, engine):
        strict = engine.search(
            parse_query("kind=station status=online elevation_m>=2000 limit=0")
        )
        relaxed = engine.search(
            parse_query("kind=station status=online elevation_m>=2000 relaxed=true limit=0")
        )
        assert len(relaxed) >= len(strict)
        strict_titles = set(strict.titles)
        for result in relaxed:
            if result.title in strict_titles:
                assert result.match_degree == 1.0


class TestVisualizationFromLiveData:
    def test_map_from_search(self, engine):
        results = engine.search(parse_query("kind=station limit=0"))
        markers = [MapMarker(r.location, r.title, r.match_degree) for r in results.located()]
        assert markers
        svg = MapRenderer().render(markers)
        assert svg.count("<circle") >= 1

    def test_charts_from_facets(self, engine):
        results = engine.search(parse_query("kind=sensor limit=0"))
        facets = engine.facets(results, "sensor_type")
        assert BarChart(facets).to_svg().startswith("<svg")
        assert PieChart(facets).to_svg().startswith("<svg")
        assert sum(count for _, count in facets) == len(results)


class TestTaggingIntegration:
    def test_smr_properties_plus_user_tags(self, engine):
        system = TaggingSystem()
        imported = system.sync_from_smr(engine.smr, ["project", "sensor_type"])
        assert imported > 0
        workload = generate_tag_workload(pages=60, seed=4)
        system.store.import_assignments(workload.assignments)
        cloud = system.cloud(top=30)
        assert cloud.entries
        # Every cloud tag must carry a valid clique id.
        for entry in cloud.entries:
            for clique_id in entry.clique_ids:
                assert entry.tag in cloud.cliques[clique_id]
        assert render_tag_cloud_svg(cloud).startswith("<svg")


class TestDumpRestoreEquivalence:
    def test_search_results_survive_dump_restore(self, engine):
        restored_engine = AdvancedSearchEngine(restore(export_dump(engine.smr)))
        query = "kind=sensor sensor_type=snow height limit=0"
        original = {r.title for r in engine.search(parse_query(query))}
        restored = {r.title for r in restored_engine.search(parse_query(query))}
        assert original == restored


class TestDemoBuilder:
    def test_build_demo_engine_overrides(self):
        engine = build_demo_engine(seed=3, stations=10, sensors=20)
        assert len(engine.smr.titles("station")) == 10
        assert len(engine.smr.titles("sensor")) == 20
        results = engine.search(parse_query("kind=station limit=0"))
        assert len(results) == 10

    def test_bulk_load_equivalent_to_from_corpus(self):
        corpus = generate_corpus(CorpusSpec(seed=31))
        via_loader = SensorMetadataRepository()
        BulkLoader(via_loader).load_corpus_dump(corpus.records)
        via_corpus = SensorMetadataRepository.from_corpus(corpus)
        # Same relational contents (wiki link text differs: the loader
        # does not carry the corpus's free-form page links).
        for kind in via_corpus.mapping.kinds:
            left = via_loader.sql(f"SELECT COUNT(*) FROM {kind}").scalar()
            right = via_corpus.sql(f"SELECT COUNT(*) FROM {kind}").scalar()
            assert left == right


#: Bulk load, a >= 128-tag similarity and one multi-constraint search in
#: a fresh interpreter, then report which workers are still alive.
_HYGIENE_SCRIPT = """
import io
import multiprocessing
import threading

from repro.core import AdvancedSearchEngine
from repro.smr import BulkLoader, SensorMetadataRepository
from repro.tagging import TagStore, build_similarity
from repro.web import create_app
from repro.workloads import CorpusSpec, generate_corpus

smr = SensorMetadataRepository()
report = BulkLoader(smr).load_corpus_dump(generate_corpus(CorpusSpec(seed=5)).records)
assert report.ok and report.loaded > 100, report.summary()

store = TagStore()
for tag in range(130):
    for page in range(tag % 7, 200, 9):
        store.create(f"Page:{page:03d}", f"tag{tag:03d}")
assert len(build_similarity(store).tags) == 130

app = create_app(AdvancedSearchEngine(smr))
environ = {
    "REQUEST_METHOD": "GET",
    "PATH_INFO": "/api/search",
    "QUERY_STRING": "q=keyword%3Dwind%20kind%3Dstation%20elevation_m%3E%3D1000%20bbox%3D45%2C5%2C48%2C11",
    "SERVER_NAME": "test",
    "SERVER_PORT": "80",
    "wsgi.url_scheme": "http",
    "wsgi.input": io.BytesIO(b""),
}
statuses = []
b"".join(app(environ, lambda status, headers, exc_info=None: statuses.append(status)))
assert statuses == ["200 OK"], statuses

assert multiprocessing.active_children() == [], multiprocessing.active_children()
assert threading.active_count() == 1, threading.enumerate()
"""


class TestProcessHygiene:
    def test_program_leaves_no_workers_behind(self):
        completed = subprocess.run(
            [sys.executable, "-c", _HYGIENE_SCRIPT],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
