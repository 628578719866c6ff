"""E12 — write-through search lookups and lazy top-k result selection.

Two gates guard the engine's per-query savings (docs/PERFORMANCE.md):

- **Write-through lookups.** Multi-filter relaxed queries (the full
  constraint width of Fig. 1) on the engine (the SMR's IRI->title map,
  page locations and R-tree, all kept current by ``register()``, plus
  lazy top-k) must run >= 2x faster than the **seed path** — a faithful
  replica of the earlier pipeline that rebuilds the IRI map for every
  SPARQL filter, re-parses every page's location on every bbox scan,
  and full-sorts all candidates. Both evaluate constraints serially.
- **Top-k selection.** With >= 5k candidates and a small ``limit``, the
  heap-based top-k path must beat the build-everything-then-sort path
  by >= 3x, because it materializes ``limit`` SearchResults instead of
  thousands. The full-sort side (:class:`FullSortEngine`) runs each
  query without its limit and slices the page afterwards.

Both sections assert that every compared path returns *identical* result
lists (titles, scores, locations — exact float equality), so the
speedups are never bought with a behavior change. Results go to
``benchmarks/results/parallel_fanout.txt``.

``REPRO_BENCH_SMOKE=1`` shrinks the corpora and repetition counts and
keeps only the identity assertions — the timing gates are meaningless at
smoke scale.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.engine import AdvancedSearchEngine
from repro.core.privileges import ANONYMOUS
from repro.core.ranking import PageRankRanker
from repro.core.results import SearchResults
from repro.geo.bbox import BoundingBox
from repro.smr.repository import SensorMetadataRepository, parse_location
from repro.wiki.site import title_to_iri
from repro.workloads.generator import CorpusSpec, generate_corpus

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

FANOUT_SPEC = (
    CorpusSpec(seed=9, deployments=10, stations=30, sensors=120)
    if SMOKE
    else CorpusSpec(seed=9, deployments=20, stations=150, sensors=700)
)
FANOUT_REPEATS = 2 if SMOKE else 15
FANOUT_MIN_SPEEDUP = 2.0

TOPK_SPEC = (
    CorpusSpec(seed=5, deployments=10, stations=30, sensors=400)
    if SMOKE
    else CorpusSpec(seed=5, deployments=30, stations=150, sensors=5000)
)
TOPK_REPEATS = 2 if SMOKE else 10
TOPK_MIN_SPEEDUP = 3.0

# Multi-filter relaxed queries: two unmapped properties (maintainer,
# team -> SPARQL), mapped properties (SQL), keyword and bbox constraints
# — the full constraint width of Fig. 1.
FANOUT_QUERIES = [
    "maintainer~a team~ops status=online relaxed=true bbox=45,6,48,11",
    "maintainer=alice team=ops elevation_m>=1200 relaxed=true",
    "keyword=wind maintainer~e sensor_type=wind relaxed=true bbox=45,6,48,11",
]

# All three shapes keep the candidate set at its widest (every sensor),
# which is the scenario the gate describes: thousands of candidates, a
# small page. Shapes whose cost sits in a shared constraint evaluation
# (keyword BM25, SQL filters) dilute the ratio without exercising the
# top-k machinery and are covered by the memo section instead.
TOPK_QUERIES = [
    "kind=sensor sort=pagerank limit=10",
    "kind=sensor limit=20",  # relevance blend without keyword
    "kind=sensor sort=relevance limit=10",
]


class FullSortEngine(AdvancedSearchEngine):
    """Sort every candidate, build every result, then slice the page.

    Each query runs without its limit, so every candidate is sorted and
    becomes a SearchResult — the work the heap top-k skips.
    The sliced page is the limited query's page (``TestTopkIdentity`` in
    ``tests/test_concurrency.py``).
    """

    def search(self, query, user=ANONYMOUS):
        unlimited = super().search(query.with_limit(None), user)
        return SearchResults(
            unlimited.results[: query.limit],
            unlimited.total_candidates,
            unlimited.query_description,
        )


class _SeedPathRepository:
    """The SMR as the earlier engine read it, without its search lookups.

    Every other attribute is the wrapped repository's own.
    """

    def __init__(self, smr: SensorMetadataRepository):
        self._smr = smr

    def __getattr__(self, name):
        return getattr(self._smr, name)

    def titles_of_iris(self, iris):
        """Rebuild the whole IRI -> title map, as every SPARQL filter did."""
        mapping = {title_to_iri(title).value: title for title in self._smr.titles()}
        return {mapping[iri] for iri in iris if iri in mapping}

    def page_details(self, titles):
        """Kinds from one snapshot; each result's annotations read on their
        own and its location parsed again, as the earlier engine did."""
        kinds = self._smr.kind_map()
        details = []
        for title in titles:
            pairs = self._smr.annotations(title)
            details.append((kinds[title.strip().lower()], pairs, parse_location(pairs)))
        return details

    def locations(self):
        """Parse every page's location again, as every bbox scan did."""
        located = {}
        for title in self._smr.titles():
            point = parse_location(self._smr.annotations(title))
            if point is not None:
                located[title] = point
        return located

    def titles_in_box(self, south, north, west, east):
        """Scan every page's freshly parsed location instead of the R-tree."""
        box = BoundingBox(south, west, north, east)
        return {title for title, location in self.locations().items() if box.contains(location)}


class SeedPathEngine(FullSortEngine):
    """The earlier query path, re-created as an honest baseline.

    Undoes three per-query savings: the IRI->title map is rebuilt for
    *every* SPARQL filter, page locations are re-parsed and scanned on
    *every* bbox constraint, and every candidate is sorted and becomes a
    SearchResult. Everything else is the shared engine code.
    """

    def __init__(self, smr, **kwargs):
        super().__init__(smr, **kwargs)
        self.smr = _SeedPathRepository(smr)


def _fanout_smr() -> SensorMetadataRepository:
    smr = SensorMetadataRepository.from_corpus(generate_corpus(FANOUT_SPEC))
    # Pages carrying properties outside the relational mapping, so the
    # maintainer/team filters go down the SPARQL path.
    owners = ["alice", "bob", "eve", "mallory"]
    teams = ["ops", "science", "field"]
    for i in range(40):
        smr.register(
            "station",
            f"Station:OWNED-{i:03d}",
            [
                ("name", f"OWNED-{i:03d}"),
                ("latitude", 45.5 + (i % 20) * 0.1),
                ("longitude", 6.5 + (i % 30) * 0.1),
                ("elevation_m", 900 + 37 * i),
                ("status", "online" if i % 3 else "offline"),
                ("maintainer", owners[i % len(owners)]),
                ("team", teams[i % len(teams)]),
            ],
        )
    return smr


def _fingerprint(results):
    return [
        (r.title, r.kind, r.score, r.relevance, r.pagerank, r.match_degree, r.location)
        for r in results.results
    ], results.total_candidates


def _time_workload(engine, queries, repeats) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            engine.search(query)
    return time.perf_counter() - start


def test_fanout_vs_seed_path(write_result):
    """Engine (write-through lookups + R-tree + top-k) >= 2x over the seed path."""
    smr = _fanout_smr()
    ranker = PageRankRanker(smr)
    ranker.scores()  # one shared solve; ranking cost out of the timing
    seed = SeedPathEngine(smr, ranker=ranker, cache=None)
    engine = AdvancedSearchEngine(smr, ranker=ranker, cache=None)
    queries = [seed.parse(text) for text in FANOUT_QUERIES]

    # Identity first: both paths must return byte-identical lists.
    for query in queries:
        assert _fingerprint(engine.search(query)) == _fingerprint(seed.search(query))

    seed_s = _time_workload(seed, queries, FANOUT_REPEATS)
    engine_s = _time_workload(engine, queries, FANOUT_REPEATS)
    speedup = seed_s / engine_s if engine_s > 0 else float("inf")

    write_result(
        "parallel_fanout.txt",
        "# E12 lookups: multi-filter relaxed queries "
        f"({len(FANOUT_QUERIES)} queries x {FANOUT_REPEATS} repeats, "
        f"{smr.page_count} pages)\n"
        "# seed = earlier path (IRI map per SPARQL filter, bbox "
        "re-parse, full sort)\n"
        f"seed_seconds={seed_s:.4f} engine_seconds={engine_s:.4f}\n"
        f"speedup_vs_seed={speedup:.1f}x\n",
    )
    if not SMOKE:
        assert speedup >= FANOUT_MIN_SPEEDUP, (
            f"expected >= {FANOUT_MIN_SPEEDUP}x over the seed path, got "
            f"{speedup:.2f}x (seed {seed_s:.3f}s vs engine {engine_s:.3f}s)"
        )


def test_topk_vs_full_sort(results_dir, write_result):
    """Heap top-k >= 3x over build-all-then-sort on >= 5k candidates."""
    smr = SensorMetadataRepository.from_corpus(generate_corpus(TOPK_SPEC))
    ranker = PageRankRanker(smr)
    ranker.scores()
    full = FullSortEngine(smr, ranker=ranker, cache=None)
    lazy = AdvancedSearchEngine(smr, ranker=ranker, cache=None)
    queries = [full.parse(text) for text in TOPK_QUERIES]

    candidates = full.search(queries[0]).total_candidates
    if not SMOKE:
        assert candidates >= 5000, f"top-k gate needs >= 5k candidates, got {candidates}"
    for query in queries:
        assert _fingerprint(lazy.search(query)) == _fingerprint(full.search(query))

    full_s = _time_workload(full, queries, TOPK_REPEATS)
    lazy_s = _time_workload(lazy, queries, TOPK_REPEATS)
    speedup = full_s / lazy_s if lazy_s > 0 else float("inf")

    with open(f"{results_dir}/parallel_fanout.txt", "a", encoding="utf-8") as out:
        out.write(
            f"# E12 top-k: limited queries over {candidates} candidates "
            f"({len(TOPK_QUERIES)} queries x {TOPK_REPEATS} repeats)\n"
            f"fullsort_seconds={full_s:.4f} topk_seconds={lazy_s:.4f} "
            f"speedup_topk={speedup:.1f}x\n"
        )
    if not SMOKE:
        assert speedup >= TOPK_MIN_SPEEDUP, (
            f"expected >= {TOPK_MIN_SPEEDUP}x from lazy top-k, got "
            f"{speedup:.2f}x (full {full_s:.3f}s vs topk {lazy_s:.3f}s)"
        )
