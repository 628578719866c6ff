"""Concurrency and equivalence tests for the search engine and the SMR lock.

Nine properties: (1) a limited query returns *identical* results to the
same query without its limit, sliced to the page — same titles, same
floats, same order — for every query shape, so the lazy top-k path
matches the full sort; (2) the engine stays correct while reader threads race a live
writer: no torn reads across the three stores, and no post-edit search
may serve pre-edit state from any cache or memo (result cache, IRI->title
map, location map, ranker scores); (3) SQL readers sharing one executor,
as ``smr.sql()`` readers do under the read lock, each get their own
statement's answer; (4) query threads publishing into one provenance
ring keep its popularity view equal to its retained window; (5) the
reader–writer lock under those threads keeps its documented semantics;
(6) autocomplete and recommendations read under a live writer never go
back and end equal to a fresh build; (7) ``/api/search`` bodies read
under a live writer each carry their own request's trace id and end
byte-equal to a fresh engine's; (8) ``explain_search`` names the same
constraints, with the same strategies and in the same order, as the
stages a search records; (9) keyword reads racing a writer that grows
the text index's arrays each equal the from-definition BM25 map of the
corpus after some prefix of the writes.
"""

import io
import json
import sys
import threading
import time
from collections import Counter
from urllib.parse import urlencode

import pytest

from repro.core import AdvancedSearchEngine
from repro.errors import ReproError
from repro.obs import ProvenanceRecorder, QueryProvenance
from repro.relational import Database
from repro.smr import SensorMetadataRepository
from repro.smr.rwlock import ReadWriteLock
from repro.web import create_app
from repro.web.app import _result_payload
from repro.web.http import encode_json
from repro.workloads import CorpusSpec, generate_corpus


def _corpus_smr() -> SensorMetadataRepository:
    smr = SensorMetadataRepository.from_corpus(generate_corpus(CorpusSpec(seed=7)))
    # A handful of pages with an *unmapped* property so queries exercise
    # the SPARQL constraint path (and the IRI->title memo) too.
    for i, owner in enumerate(["alice", "bob", "alice"]):
        smr.register(
            "station",
            f"Station:OWNED-{i}",
            [
                ("name", f"OWNED-{i}"),
                ("latitude", 46.5 + i * 0.01),
                ("longitude", 9.0 + i * 0.01),
                ("elevation_m", 1800 + i),
                ("status", "online"),
                ("maintainer", owner),
            ],
        )
    return smr


@pytest.fixture(scope="module")
def smr():
    return _corpus_smr()


QUERY_SHAPES = [
    "kind=station elevation_m>=1500 status=online",  # strict SQL filters
    "kind=sensor sensor_type=wind accuracy>=0.5 relaxed=true",  # relaxed union
    "keyword=wind limit=15",  # keyword + relevance blend
    "kind=station bbox=46,8,47,10",  # spatial scan
    "maintainer=alice elevation_m>=1500 relaxed=true",  # SPARQL + SQL mix
    "kind=sensor sort=pagerank limit=5",  # pagerank sort
    "kind=sensor sort=installed_year order=asc limit=10",  # property sort
    "kind=sensor limit=10 offset=5",  # paging
    "kind=station sort=relevance order=asc limit=7",  # ascending score sort
]


def _fingerprint(results):
    return [
        (
            r.title,
            r.kind,
            r.score,
            r.relevance,
            r.pagerank,
            r.match_degree,
            r.location,
        )
        for r in results.results
    ], results.total_candidates


def _full_sort(engine, query):
    """The fingerprint of ``query`` run without its limit, which builds
    every result and sorts them all, sliced to the page."""
    results, total = _fingerprint(engine.search(query.with_limit(None)))
    return results[: query.limit], total


class TestTopkIdentity:
    """Top-k vs full sort: byte-identical results."""

    @pytest.mark.parametrize("text", QUERY_SHAPES)
    def test_topk_matches_full_sort(self, smr, text):
        engine = AdvancedSearchEngine(smr, cache=None)
        query = engine.parse(text)
        assert _fingerprint(engine.search(query)) == _full_sort(engine, query)

    def test_topk_with_offset_past_end(self, smr):
        engine = AdvancedSearchEngine(smr, cache=None)
        query = engine.parse("kind=institution limit=50 offset=6")
        assert _fingerprint(engine.search(query)) == _full_sort(engine, query)


class TestExplainNamesTheRunConstraints:
    """``explain_search`` lists the constraints a search runs, in order."""

    @pytest.mark.parametrize(
        "text",
        QUERY_SHAPES
        + ["keyword=wind kind=station elevation_m>=1500 maintainer=alice bbox=46,8,47,10"],
    )
    def test_explain_matches_the_provenance_stages(self, smr, text):
        engine = AdvancedSearchEngine(smr, cache=None)
        query = engine.parse(text)
        plan = engine.explain_search(query)
        _, provenance = engine.search_explained(query)
        explained = [(c["constraint"], c["strategy"]) for c in plan["constraints"]]
        assert explained == [(s.name, s.strategy) for s in provenance.stages]


class TestConcurrentReadersWithWriter:
    """Stress: 4 reader threads vs a writer editing pages in a loop."""

    EDIT_TITLE = "Station:EDIT-TARGET"
    WRITES = 8

    def _version(self, v):
        return [
            ("name", "EDIT-TARGET"),
            ("latitude", 46.6),
            ("longitude", 9.5),
            ("elevation_m", 1000 + v),
            ("status", f"v{v}"),
            ("firmware", f"fw{v}"),  # unmapped: lives in the RDF graph only
        ]

    def test_no_torn_reads_and_no_stale_results(self):
        smr = _corpus_smr()
        smr.register("station", self.EDIT_TITLE, self._version(0))
        engine = AdvancedSearchEngine(smr)
        valid = {(1000 + v, f"v{v}", f"fw{v}") for v in range(self.WRITES + 1)}
        errors = []
        observed = []
        sparql_misses = []
        stop = threading.Event()

        firmware_query = engine.parse("firmware~fw")  # a SPARQL filter
        reader_queries = [
            engine.parse("kind=station name=EDIT-TARGET"),
            engine.parse("kind=station elevation_m>=1000 status~v relaxed=true"),
            engine.parse("maintainer=alice elevation_m>=1500 relaxed=true"),
            engine.parse("kind=station bbox=46,8,47,10"),
            firmware_query,
        ]

        def reader(q):
            try:
                while not stop.is_set():
                    results = engine.search(q)
                    titles = [r.title for r in results.results]
                    if q is firmware_query and titles != [self.EDIT_TITLE]:
                        # Every version has a firmware value, so only a
                        # graph caught between dropping the page's triples
                        # and adding them back could miss the page.
                        sparql_misses.append(titles)
                    for r in results.results:
                        if r.title == self.EDIT_TITLE:
                            observed.append(
                                (
                                    r.annotations.get("elevation_m"),
                                    r.annotations.get("status"),
                                    r.annotations.get("firmware"),
                                )
                            )
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        def writer():
            try:
                for v in range(1, self.WRITES + 1):
                    smr.register("station", self.EDIT_TITLE, self._version(v))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(q,)) for q in reader_queries]
        w = threading.Thread(target=writer)
        for t in threads:
            t.start()
        w.start()
        w.join(30.0)
        stop.set()
        for t in threads:
            t.join(30.0)

        assert not any(t.is_alive() for t in [w, *threads]), "a reader or the writer hung"
        assert not errors, errors
        # Torn read = an (elevation, status, firmware) triple that never
        # existed together in any registered version of the page.
        torn = [values for values in observed if values not in valid]
        assert not torn, f"torn reads: {torn[:5]}"
        assert not sparql_misses, f"SPARQL reads of a half-written graph: {sparql_misses[:5]}"

        # Post-edit freshness: with the writer done, every cache and memo
        # must have rolled over to the final version.
        final = engine.search(engine.parse("kind=station name=EDIT-TARGET"))
        assert [r.title for r in final.results] == [self.EDIT_TITLE]
        annotations = final.results[0].annotations
        assert annotations["elevation_m"] == 1000 + self.WRITES
        assert annotations["status"] == f"v{self.WRITES}"
        latest = engine.search(engine.parse(f"firmware=fw{self.WRITES}"))
        assert [r.title for r in latest.results] == [self.EDIT_TITLE]

    def test_memos_invalidate_on_write(self):
        smr = _corpus_smr()
        engine = AdvancedSearchEngine(smr)
        # Warm the IRI->title memo (SPARQL filter) and the location memo
        # (bbox scan), then register pages that must appear immediately.
        before_sparql = engine.search(engine.parse("maintainer=carol")).total_candidates
        before_bbox = engine.search(engine.parse("kind=station bbox=10,10,11,11"))
        assert before_sparql == 0
        assert before_bbox.total_candidates == 0
        smr.register(
            "station",
            "Station:NEW-SPOT",
            [
                ("name", "NEW-SPOT"),
                ("latitude", 10.5),
                ("longitude", 10.5),
                ("status", "online"),
                ("maintainer", "carol"),
            ],
        )
        after_sparql = engine.search(engine.parse("maintainer=carol"))
        assert [r.title for r in after_sparql.results] == ["Station:NEW-SPOT"]
        after_bbox = engine.search(engine.parse("kind=station bbox=10,10,11,11"))
        assert [r.title for r in after_bbox.results] == ["Station:NEW-SPOT"]


class TestWriteThroughLookupsUnderThreads:
    """Readers race a writer that moves a station in and out of a box.

    The writer also changes an unmapped property each time, so the
    station's bbox, SPARQL and kind reads all go through the SMR's
    write-through lookups while they change.
    """

    TITLE = "Station:MOVER"
    WRITES = 40
    READERS_PER_QUERY = 2  # with the writer, more threads than cores
    BOX = "bbox=46,9,47,10"

    @staticmethod
    def _version(v):
        inside = v % 2 == 0
        return [
            ("name", "MOVER"),
            ("latitude", 46.5 if inside else 10.5),
            ("longitude", 9.5 if inside else 10.5),
            ("firmware", f"fw{v}"),  # unmapped: lives in the RDF graph only
        ]

    def test_reads_see_one_written_version(self):
        from repro.geo.point import GeoPoint

        smr = _corpus_smr()
        smr.register("station", self.TITLE, self._version(1))  # outside the box
        engine = AdvancedSearchEngine(smr, cache=None)
        versions = {}
        for v in range(self.WRITES + 2):
            pairs = dict(self._version(v))
            versions[pairs["firmware"]] = (pairs["latitude"], pairs["longitude"])
        box_query = engine.parse(self.BOX)
        sparql_query = engine.parse("firmware~fw")
        kind_query = engine.parse("kind=station")
        others_in_box = set(engine.search(box_query).titles)
        stations = engine.search(kind_query).total_candidates
        errors, wrong = [], []
        stop = threading.Event()

        def check(query, results):
            titles = set(results.titles)
            if query is box_query and titles - {self.TITLE} != others_in_box:
                wrong.append(("bbox", sorted(titles ^ others_in_box)))
            if query is sparql_query and titles != {self.TITLE}:
                wrong.append(("sparql", sorted(titles)))
            if query is kind_query and results.total_candidates != stations:
                wrong.append(("kind", results.total_candidates))
            for result in results.results:
                if result.title != self.TITLE:
                    continue
                pairs = result.annotations
                version = versions.get(pairs.get("firmware"))
                point = (pairs.get("latitude"), pairs.get("longitude"))
                if version != point or result.location != GeoPoint(*point):
                    wrong.append(("torn", pairs, result.location))

        def reader(query):
            try:
                while not stop.is_set():
                    check(query, engine.search(query))
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        def writer():
            try:
                for v in range(2, self.WRITES + 2):
                    smr.register("station", self.TITLE, self._version(v))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        queries = [box_query, sparql_query, kind_query] * self.READERS_PER_QUERY
        threads = [threading.Thread(target=reader, args=(query,)) for query in queries]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a reader or the writer hung"
        assert not errors, errors
        assert not wrong, wrong[:5]
        last_inside = (self.WRITES + 1) % 2 == 0
        assert (self.TITLE in engine.search(box_query).titles) is last_inside


class TestDerivedViewsUnderThreads:
    """Readers race a writer through autocomplete and recommendations.

    Completions read the wiki's kept structures under the read lock, and
    each memo is published in one assignment and stamped with the
    generation read before its build, so a completion is never a
    lower-cased title, a read never reflects fewer writes than an
    earlier read on the same thread, and after the writer stops every
    view equals a fresh build.
    """

    WRITES = 30
    READERS = 4  # with the writer, more threads than cores

    def test_reads_grow_with_the_writes_and_end_fresh(self):
        from repro.core.autocomplete import AutocompleteService
        from repro.core.recommend import Recommender

        smr = SensorMetadataRepository()
        smr.register("station", "Station:Seed", [("name", "seed"), ("status", "online")])
        engine = AdvancedSearchEngine(smr)
        results = engine.search(engine.parse("kind=station"))  # just the seed
        errors, wrong = [], []
        stop = threading.Event()

        def views():
            titles = engine.autocomplete.complete_title("station:z", 100)
            values = dict(engine.autocomplete.values_for("status", kind="station"))
            return titles, values.get("retired", 0), len(engine.recommend(results, k=100))

        def reader():
            try:
                seen = (0, 0, 0)
                while not stop.is_set():
                    titles, retired, recommended = views()
                    if any(not title.startswith("Station:Z") for title in titles):
                        wrong.append(("case", titles))
                    counts = (len(titles), retired, recommended)
                    if any(now < before for now, before in zip(counts, seen)):
                        wrong.append(("went back", seen, counts))
                    seen = counts
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        def writer():
            try:
                for i in range(self.WRITES):
                    smr.register(
                        "station", f"Station:Z{i:02d}", [("name", f"z{i}"), ("status", "retired")]
                    )
                    smr.register(
                        "sensor",
                        f"Sensor:Z{i:02d}",
                        [("name", f"z{i}"), ("station", "Station:Seed")],
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a reader or the writer hung"
        assert not errors, errors
        assert not wrong, wrong[:5]
        fresh = AutocompleteService(smr, engine.ranker)
        assert views() == (
            fresh.complete_title("station:z", 100),
            self.WRITES,
            len(Recommender(smr, engine.ranker).recommend(results, k=100)),
        )
        assert views()[2] == self.WRITES


class TestSearchBodiesUnderThreads:
    """Readers race a writer through the app's ``/api/search``.

    Cache hits share one encoded body per result set and splice in their
    own request's trace id, so no reader may receive another request's
    id, and after the writer stops every body equals a fresh engine's.
    """

    WRITES = 20
    READERS = 4  # with the writer, more threads than cores
    QUERIES = [
        "kind=station",
        "kind=sensor",
        "keyword=zeta",
        "keyword=seed",
        "status=online",
        "status=retired",
        "kind=station status=retired",
        "kind=station elevation_m>=1500",
        "elevation_m<1000",
        "kind=station sort=pagerank limit=5",
        "kind=station sort=elevation_m order=asc",
        "kind=station limit=3 offset=2",
        "kind=sensor station=Station:Seed",
        "bbox=45,8,48,11",
        "kind=station bbox=46,9,47,10",
        "keyword=zeta kind=station",
        "status=retired elevation_m>=1500 relaxed=true",
        "name~z1",
        "maintainer=alice",
        "keyword=seed sort=pagerank",
    ]

    @staticmethod
    def _get(app, text):
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/api/search",
            "QUERY_STRING": urlencode({"q": text}),
            "wsgi.input": io.BytesIO(b""),
        }
        captured = {}

        def start_response(status, headers, exc_info=None):
            captured["status"] = status
            captured["headers"] = dict(headers)

        body = b"".join(app(environ, start_response))
        return captured["status"], captured["headers"]["X-Trace-Id"], body

    def test_bodies_carry_their_own_trace_id_and_end_fresh(self):
        smr = SensorMetadataRepository()
        smr.register(
            "station",
            "Station:Seed",
            [("name", "seed"), ("status", "online"), ("latitude", 46.5),
             ("longitude", 9.5), ("elevation_m", 2000), ("maintainer", "alice")],
        )
        engine = AdvancedSearchEngine(smr)
        app = create_app(engine)
        errors, wrong = [], []
        stop = threading.Event()
        start = threading.Barrier(self.READERS + 1)

        def reader():
            try:
                start.wait()
                while not stop.is_set():
                    for text in self.QUERIES:
                        status, trace_id, body = self._get(app, text)
                        if not status.startswith("200"):
                            wrong.append(("status", text, status, body[:200]))
                        elif json.loads(body)["trace_id"] != trace_id:
                            wrong.append(("trace id", text, trace_id, body[-40:]))
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        def writer():
            try:
                start.wait()
                for i in range(self.WRITES):
                    smr.register(
                        "station",
                        f"Station:Z{i:02d}",
                        [("name", f"z{i} zeta"), ("status", "retired"), ("latitude", 46 + i / 40),
                         ("longitude", 9 + i / 40), ("elevation_m", 900 + 60 * i)],
                    )
                    time.sleep(0.002)  # let the readers fill and hit the cache between writes
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a reader or the writer hung"
        assert not errors, errors
        assert not wrong, wrong[:5]
        fresh = AdvancedSearchEngine(smr, ranker=engine.ranker)
        for text in self.QUERIES:
            _, trace_id, body = self._get(app, text)
            results = fresh.search(fresh.parse(text))
            expected = {
                "query": results.query_description,
                "total_candidates": results.total_candidates,
                "results": [_result_payload(result) for result in results],
                "trace_id": trace_id,
            }
            assert body == encode_json(expected), text
        assert fresh.search(fresh.parse("status=retired")).total_candidates == self.WRITES


class TestKeywordReadsWhileTheIndexGrows:
    """Readers score keyword queries while a writer grows the index's arrays.

    Each new page takes the next dense number, and the writer registers
    pages past the lengths array's capacity several times over, so reads
    race every doubling. A read must equal the from-definition BM25 map
    of the corpus after some prefix of the writes, float for float.
    """

    SEED_PAGES = 5
    WRITES = 70  # the index's arrays start with 16 slots: three doublings
    READERS = 3  # with the writer, more threads than cores
    QUERIES = ("wind", "wind snow station", "davos davos height")
    WORDS = ("wind", "snow", "davos", "station", "height", "glacier")

    def _pages(self):
        """``(name, description)`` per page, the descriptions of varied length."""
        words = self.WORDS
        return [
            (f"G-{i:03d}", " ".join(words[j % len(words)] for j in range(i % 4 + 1 + i // 7)))
            for i in range(self.SEED_PAGES + self.WRITES)
        ]

    @staticmethod
    def _register(smr, name, description):
        smr.register("station", f"Station:{name}", [("name", name)], description=description)

    def test_every_read_is_a_prefix_of_the_writes(self):
        from repro.text.inverted_index import analyze
        from tests.test_text import _oracle_search

        smr = SensorMetadataRepository()
        pages = self._pages()
        docs = {}
        expected = {query: set() for query in self.QUERIES}
        for i, (name, description) in enumerate(pages):
            # register() indexes the title, the description and each value.
            docs[f"Station:{name}"] = analyze(f"Station:{name} {description} {name}")
            if i + 1 >= self.SEED_PAGES:
                for query in self.QUERIES:
                    expected[query].add(frozenset(_oracle_search(docs, query).items()))
        for name, description in pages[: self.SEED_PAGES]:
            self._register(smr, name, description)
        errors, wrong, reads = [], [], Counter()
        stop = threading.Event()

        def reader(n):
            try:
                while not stop.is_set():
                    for query in self.QUERIES:
                        hits = smr.keyword_search(query)
                        reads[n] += 1
                        if frozenset(hits.items()) not in expected[query]:
                            wrong.append((query, len(hits)))
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        def writer():
            try:
                for name, description in pages[self.SEED_PAGES :]:
                    self._register(smr, name, description)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        for thread in threads:
            assert not thread.is_alive(), "a reader or the writer hung"
        assert not errors, errors
        assert not wrong, wrong[:5]
        assert len(reads) == self.READERS
        for query in self.QUERIES:
            assert smr.keyword_search(query) == _oracle_search(docs, query)


class TestConcurrentSqlReaders:
    """Reader threads share one ``Executor``; each sorts its own rows."""

    READS = 1000

    def test_order_by_reads_sort_their_own_rows(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, name TEXT)")
        db.insert_many(
            "t",
            ({"id": i, "a": i, "b": (i * 7919) % 301, "name": f"n{i}"} for i in range(300)),
        )
        queries = [
            "SELECT name FROM t WHERE a < 150 ORDER BY b",
            "SELECT name FROM t WHERE a >= 150 ORDER BY a DESC",
        ]
        # DISTINCT (merging nothing: names are unique) runs between the
        # projection and the sort, the widest gap a per-statement stash
        # on the shared executor would leave open.
        queries += [query.replace("SELECT", "SELECT DISTINCT") for query in queries]
        expected = {query: db.execute(query).rows for query in queries}
        wrong = []
        errors = []

        def reader(query):
            try:
                for _ in range(self.READS // len(queries)):
                    if db.execute(query).rows != expected[query]:
                        wrong.append(query)
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(query,)) for query in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a reader hung"
        assert not errors, errors
        assert not wrong, f"{len(wrong)} of {self.READS} reads sorted another statement's rows"


class TestConcurrentQueryLog:
    """Query threads publish into one provenance ring while its window
    evicts; the popularity view counts exactly the retained records."""

    THREADS = 4
    CALLS = 3000
    TRIALS = 20

    def _trial(self) -> bool:
        ring = ProvenanceRecorder(capacity=1000)

        def writer(step):
            for i in range(self.CALLS):
                record = QueryProvenance(f"q{(i * step) % 13}")
                record.result_count = i % 2
                ring.record(record)

        threads = [
            threading.Thread(target=writer, args=(step,))
            for step in range(1, self.THREADS + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads), "a writer hung"
        window = Counter(record.query for record in ring.snapshot())
        expected = sorted(window.items(), key=lambda item: (-item[1], item[0]))
        popular, _ = ring.popularity(k=len(expected) + 1)
        return (
            popular == expected
            and sum(window.values()) == len(ring) == 1000
            and ring.recorded == self.THREADS * self.CALLS
        )

    def test_popular_matches_the_retained_window(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            torn = sum(not self._trial() for _ in range(self.TRIALS))
        finally:
            sys.setswitchinterval(interval)
        assert torn == 0, f"{torn} of {self.TRIALS} trials lost a count or an eviction"


class TestReadWriteLock:
    def test_read_is_reentrant(self):
        lock = ReadWriteLock()
        with lock.read():
            with lock.read():
                assert lock.active_readers == 1  # counted per thread
        assert lock.active_readers == 0

    def test_write_is_reentrant_and_allows_reads(self):
        lock = ReadWriteLock()
        with lock.write():
            with lock.write():
                with lock.read():
                    assert lock.write_held
        assert not lock.write_held

    def test_upgrade_attempt_raises(self):
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(ReproError):
                lock.acquire_write()

    def test_unbalanced_release_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(ReproError):
            lock.release_read()
        with pytest.raises(ReproError):
            lock.release_write()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        entered_write = threading.Event()
        release_write = threading.Event()

        def writer():
            with lock.write():
                entered_write.set()
                order.append("write-start")
                release_write.wait(5.0)
                order.append("write-end")

        def reader():
            entered_write.wait(5.0)
            with lock.read():
                order.append("read")

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        entered_write.wait(5.0)
        time.sleep(0.05)  # give the reader a chance to (wrongly) slip in
        release_write.set()
        w.join(5.0)
        r.join(5.0)
        assert order == ["write-start", "write-end", "read"]

    def test_a_waiting_writer_goes_before_a_fresh_reader(self):
        lock = ReadWriteLock()
        order = []
        a_inside, a_release = threading.Event(), threading.Event()
        b_inside = threading.Event()
        nested = []

        def reader_a():
            with lock.read():
                a_inside.set()
                a_release.wait(5.0)
                with lock.read():  # nested: never waits for the waiting writer
                    nested.append(lock.waiting_writers)

        def writer():
            with lock.write():
                order.append("write")

        def reader_b():
            with lock.read():
                order.append("read")
                b_inside.set()

        a = threading.Thread(target=reader_a)
        a.start()
        assert a_inside.wait(5.0)
        w = threading.Thread(target=writer)
        w.start()
        deadline = time.monotonic() + 5.0
        while lock.waiting_writers == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert lock.waiting_writers == 1
        b = threading.Thread(target=reader_b)
        b.start()
        assert not b_inside.wait(0.1)  # held off by the waiting writer
        a_release.set()
        for thread in (a, w, b):
            thread.join(5.0)
            assert not thread.is_alive(), "a reader or the writer hung"
        assert nested == [1]
        assert order == ["write", "read"]
        assert lock.waiting_writers == 0 and lock.active_readers == 0

    def test_concurrent_readers_overlap(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert lock.active_readers == 0
