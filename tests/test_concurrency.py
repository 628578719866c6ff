"""Concurrency and equivalence tests for the search engine and the SMR lock.

Three properties: (1) the lazy top-k path returns *identical* results to
the full sort — same titles, same floats, same order — for every query
shape; (2) the engine stays correct while reader threads race a live
writer: no torn reads across the three stores, and no post-edit search
may serve pre-edit state from any cache or memo (result cache, IRI->title
map, location map, ranker scores); (3) the reader–writer lock under
those threads keeps its documented semantics.
"""

import threading
import time

import pytest

from repro.core import AdvancedSearchEngine, PageRankRanker
from repro.errors import ReproError
from repro.smr import SensorMetadataRepository
from repro.smr.rwlock import ReadWriteLock
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


class TestTopkIdentity:
    """Top-k vs full sort: byte-identical results."""

    @pytest.mark.parametrize("text", QUERY_SHAPES)
    def test_topk_matches_full_sort(self, smr, text):
        ranker = PageRankRanker(smr)  # shared so scores are one solve
        full = AdvancedSearchEngine(smr, ranker=ranker, cache=None, topk=False)
        lazy = AdvancedSearchEngine(smr, ranker=ranker, cache=None, topk=True)
        query = full.parse(text)
        assert _fingerprint(lazy.search(query)) == _fingerprint(full.search(query))

    def test_topk_with_offset_past_end(self, smr):
        ranker = PageRankRanker(smr)
        full = AdvancedSearchEngine(smr, ranker=ranker, cache=None, topk=False)
        lazy = AdvancedSearchEngine(smr, ranker=ranker, cache=None, topk=True)
        query = full.parse("kind=institution limit=50 offset=6")
        assert _fingerprint(lazy.search(query)) == _fingerprint(full.search(query))


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
        ]

    def test_no_torn_reads_and_no_stale_results(self):
        smr = _corpus_smr()
        smr.register("station", self.EDIT_TITLE, self._version(0))
        engine = AdvancedSearchEngine(smr)
        valid_pairs = {(1000 + v, f"v{v}") for v in range(self.WRITES + 1)}
        errors = []
        observed = []
        stop = threading.Event()

        reader_queries = [
            engine.parse("kind=station name=EDIT-TARGET"),
            engine.parse("kind=station elevation_m>=1000 status~v relaxed=true"),
            engine.parse("maintainer=alice elevation_m>=1500 relaxed=true"),
            engine.parse("kind=station bbox=46,8,47,10"),
        ]

        def reader(q):
            try:
                while not stop.is_set():
                    results = engine.search(q)
                    for r in results.results:
                        if r.title == self.EDIT_TITLE:
                            observed.append(
                                (r.annotations.get("elevation_m"), r.annotations.get("status"))
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
        # Torn read = an (elevation, status) pair that never existed
        # together in any registered version of the page.
        torn = [pair for pair in observed if pair not in valid_pairs]
        assert not torn, f"torn reads: {torn[:5]}"

        # Post-edit freshness: with the writer done, every cache and memo
        # must have rolled over to the final version.
        final = engine.search(engine.parse("kind=station name=EDIT-TARGET"))
        assert [r.title for r in final.results] == [self.EDIT_TITLE]
        annotations = final.results[0].annotations
        assert annotations["elevation_m"] == 1000 + self.WRITES
        assert annotations["status"] == f"v{self.WRITES}"

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
