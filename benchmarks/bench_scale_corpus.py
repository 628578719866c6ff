"""E11 — scalability: the paper runs "over a large-scale real application".

Sweeps corpus size and measures how the core operations scale: bulk
loading, PageRank ranking, advanced search, autocomplete. Writes the
scaling table to ``results/scale_corpus.txt``; the latency benchmarks run
on the largest interactive corpus. The table's ``search_ms`` is the mean
of five runs of one query on an engine without a result cache, so every
run is cold. The ``xlarge`` tier (100k+ pages) gives the ranking kernels
a production-sized graph, and the search SLO its real target: after 30
``MutationStream(seed=1)`` writes (so the unmapped ``last_value``
exists) and one warm-up round, 20 distinct queries of each perfbench
``search_cold`` shape run on an engine with ``cache=None``. Their median
and maximum per shape are appended to the file, and at full scale every
one of them must finish under the 250 ms search SLO — stricter than a
p95. The stream then continues past those writes until it has created
8 pages, every event applied, and the ranker refresh (``scores()``)
after each creation is timed: its median must stay under 500 ms and
every refresh must take the incremental path. Then the stream runs
10,000 more events, every one applied, so the ``last_value`` triples a
SPARQL filter scans number thousands, not tens; after each of 20 more
observations, perfbench ``ingest_mixed``'s SPARQL read of the value just
written (``last_value=<v> limit=50``, ``cache=None``) is timed, and its
median must stay under 10 ms. ``make bench-scale`` runs this module;
``make bench`` skips the three gates, which use no ``benchmark``
fixture, and CI runs them only at smoke scale, ungated (the 100k build
takes about two minutes and 1.9 GB).
"""

import os
import statistics
import sys
import time
from typing import List, NamedTuple

import pytest

from repro.core.engine import AdvancedSearchEngine
from repro.obs import SEARCH_SLO_SECONDS
from repro.smr.repository import SensorMetadataRepository
from repro.wiki.site import PROP
from repro.workloads.generator import CorpusSpec, generate_corpus
from repro.workloads.stream import MutationEvent, MutationStream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402

# REPRO_BENCH_SMOKE=1 shrinks every scale (same keys, so the table and
# the parametrized latency tests keep their shape).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SCALES = (
    {
        "small": CorpusSpec(seed=1, deployments=4, stations=10, sensors=30),
        "medium": CorpusSpec(seed=1, deployments=6, stations=15, sensors=60),
        "large": CorpusSpec(seed=1, deployments=8, stations=20, sensors=90),
    }
    if SMOKE
    else {
        "small": CorpusSpec(seed=1, deployments=10, stations=30, sensors=120),
        "medium": CorpusSpec(seed=1, deployments=20, stations=60, sensors=240),
        "large": CorpusSpec(seed=1, deployments=20, stations=150, sensors=700),
    }
)

#: The 100k+-page tier: the scaling table and the per-shape cold search
#: gate (one load is ~60 s).
XLARGE = (
    CorpusSpec(seed=1, deployments=10, stations=40, sensors=150)
    if SMOKE
    else CorpusSpec(seed=1, deployments=50, stations=2000, sensors=98000)
)

ALL_SCALES = {**SCALES, "xlarge": XLARGE}

#: Distinct cold queries timed per search_cold shape.
COLD_PER_SHAPE = 3 if SMOKE else 20

#: Stream creations whose ranker refresh is timed at xlarge, and the
#: gate on their median.
CREATIONS = 8
CREATION_REFRESH_MS = 500.0

#: Stream events applied at xlarge before the SPARQL read is timed, the
#: observations it is timed after, and the gate on its median.
EVENTS_BEFORE_READS = 500 if SMOKE else 10_000
OBSERVED_READS = 20
SPARQL_READ_MS = 10.0


class Built(NamedTuple):
    """One scale's engine, size, build timings and pending stream writes."""

    engine: AdvancedSearchEngine
    pages: int
    load_seconds: float
    rank_seconds: float
    #: The corpus's first ``MutationStream(seed=1)`` writes, as many as
    #: perfbench's search workloads apply in set-up; not yet applied.
    writes: List[MutationEvent]
    #: The stream those writes came from, to continue it.
    stream: MutationStream


@pytest.fixture(scope="module")
def built():
    """label -> :class:`Built`: every corpus built ONCE.

    The xlarge tier alone costs about a minute to load, so the scaling
    table, the latency benchmarks and the cold-search gate share one
    build instead of regenerating per consumer.
    """
    out = {}
    for label, spec in ALL_SCALES.items():
        corpus = generate_corpus(spec)
        start = time.perf_counter()
        smr = SensorMetadataRepository.from_corpus(corpus)
        load_seconds = time.perf_counter() - start
        engine = AdvancedSearchEngine(smr)
        start = time.perf_counter()
        engine.ranker.scores()
        rank_seconds = time.perf_counter() - start
        stream = MutationStream(corpus, seed=1)
        writes = stream.events(inputs.SEARCH_STREAM_PREFIX)
        out[label] = Built(engine, corpus.page_count, load_seconds, rank_seconds, writes, stream)
    return out


@pytest.fixture(scope="module")
def xlarge(built):
    """The xlarge tier with its set-up stream writes applied (once)."""
    entry = built["xlarge"]
    for event in entry.writes:
        event.apply(entry.engine.smr)
    return entry


@pytest.fixture(scope="module")
def engines(built):
    return {label: entry.engine for label, entry in built.items()}


@pytest.fixture(scope="module", autouse=True)
def scaling_table(built, write_result):
    lines = [f"{'scale':<8}{'pages':>7}{'load_s':>9}{'rank_s':>9}{'search_ms':>11}"]
    for label, entry in built.items():
        engine = AdvancedSearchEngine(entry.engine.smr, ranker=entry.engine.ranker, cache=None)
        query = engine.parse("keyword=wind kind=sensor sort=pagerank limit=20")
        start = time.perf_counter()
        for _ in range(5):
            engine.search(query)
        search_ms = (time.perf_counter() - start) / 5 * 1000
        lines.append(
            f"{label:<8}{entry.pages:>7}{entry.load_seconds:>9.3f}"
            f"{entry.rank_seconds:>9.3f}{search_ms:>11.2f}"
        )
    write_result("scale_corpus.txt", "\n".join(lines) + "\n")


@pytest.mark.parametrize("label", list(SCALES))
def test_scale_search_latency(engines, label, benchmark):
    engine = engines[label]
    query = engine.parse("keyword=wind kind=sensor sort=pagerank limit=20")
    results = benchmark(lambda: engine.search(query))
    assert len(results) > 0


def test_scale_bulkload_large(benchmark):
    corpus = generate_corpus(SCALES["large"])

    def run():
        return SensorMetadataRepository.from_corpus(corpus)

    smr = benchmark.pedantic(run, rounds=2, iterations=1)
    assert smr.page_count == corpus.page_count


def test_scale_rank_large(engines, benchmark):
    engine = engines["large"]

    def run():
        engine.ranker.refresh()
        return engine.ranker.scores()

    scores = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(scores) == engine.smr.page_count


def test_scale_search_stays_interactive(engines):
    """Even at the largest interactive scale, one search stays under 250 ms."""
    engine = engines["large"]
    query = engine.parse("keyword=wind kind=sensor sort=pagerank limit=20")
    start = time.perf_counter()
    engine.search(query)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.25, f"search took {elapsed:.3f}s"


def test_scale_xlarge_is_100k_pages(built):
    """The xlarge tier really is a 100k+-page corpus (smoke keeps the key)."""
    pages = built["xlarge"].pages
    if not SMOKE:
        assert pages >= 100_000, f"xlarge corpus has only {pages} pages"
    else:
        assert pages > 0


def test_xlarge_cold_search_per_shape(xlarge, results_dir):
    """Every cold query of every search_cold shape finishes under the SLO at xlarge."""
    smr = xlarge.engine.smr
    engine = AdvancedSearchEngine(smr, ranker=xlarge.engine.ranker, cache=None)
    shapes = inputs.COLD_SHAPES
    queries = [engine.parse(text) for text in inputs.search_queries(1, 1 + COLD_PER_SHAPE)]
    # The first round warms what a first query pays once: the ranker's
    # refresh after the writes and the RDF export behind SPARQL.
    for query in queries[: len(shapes)]:
        engine.search(query)
    millis = {shape: [] for shape in shapes}
    for i, query in enumerate(queries[len(shapes) :]):
        start = time.perf_counter()
        engine.search(query)
        millis[shapes[i % len(shapes)]].append((time.perf_counter() - start) * 1000)

    slo_ms = SEARCH_SLO_SECONDS * 1000
    lines = [
        "",
        f"# xlarge cold search per search_cold shape ({smr.page_count} pages after "
        f"{len(xlarge.writes)} stream writes; cache=None, {COLD_PER_SHAPE} distinct "
        "seed-1 queries per shape after one warm-up round)",
        f"{'shape':<24}{'median_ms':>10}{'max_ms':>9}",
    ]
    for shape, values in millis.items():
        lines.append(f"{shape:<24}{statistics.median(values):>10.1f}{max(values):>9.1f}")
    with open(f"{results_dir}/scale_corpus.txt", "a", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    if not SMOKE:
        over = {shape: round(max(v), 1) for shape, v in millis.items() if max(v) >= slo_ms}
        assert not over, f"cold queries at or over the {slo_ms:.0f} ms SLO (max ms): {over}"


def test_xlarge_refresh_after_a_creation(xlarge, results_dir):
    """The ranker refresh after each of 8 stream creations at xlarge is incremental,
    with a median under 500 ms."""
    smr, ranker = xlarge.engine.smr, xlarge.engine.ranker
    ranker.scores()
    millis, modes = [], []
    while len(millis) < CREATIONS:
        event = xlarge.stream.next_event()
        event.apply(smr)
        start = time.perf_counter()
        ranker.scores()
        if event.event == "create":
            millis.append((time.perf_counter() - start) * 1000)
            modes.append(ranker.last_refresh_mode)
    lines = [
        "",
        f"# xlarge ranker refresh after each of {CREATIONS} MutationStream(seed=1) creations "
        f"({smr.page_count} pages at the end; every stream event applied)",
        f"median_ms {statistics.median(millis):.1f}  max_ms {max(millis):.1f}",
        "refresh_ms " + " ".join(f"{value:.1f}" for value in millis),
        "modes " + " ".join(modes),
    ]
    with open(f"{results_dir}/scale_corpus.txt", "a", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    if not SMOKE:
        assert set(modes) == {"incremental"}, modes
        median = statistics.median(millis)
        assert median <= CREATION_REFRESH_MS, f"median refresh {median:.1f} ms over the gate"


def test_xlarge_sparql_read_after_observations(xlarge, results_dir):
    """After 10,000 more stream events at xlarge, the read-after-write SPARQL
    filter of perfbench ingest_mixed has a median under 10 ms."""
    smr, ranker = xlarge.engine.smr, xlarge.engine.ranker
    for _ in range(EVENTS_BEFORE_READS):
        xlarge.stream.next_event().apply(smr)
    ranker.scores()
    engine = AdvancedSearchEngine(smr, ranker=ranker, cache=None)
    millis = []
    while len(millis) < OBSERVED_READS:
        event = xlarge.stream.next_event()
        event.apply(smr)
        if event.event != "observe":
            ranker.scores()  # a creation's refresh stays out of the timed read
            continue
        value = dict(event.annotations)["last_value"]
        query = engine.parse(f"last_value={value!r} limit=50")
        start = time.perf_counter()
        titles = engine.search(query).titles
        millis.append((time.perf_counter() - start) * 1000)
        assert event.title in titles, (event.title, value)
    graph = smr.rdf_graph()
    last_values = sum(1 for _ in graph.triples(None, PROP.last_value, None))
    median = statistics.median(millis)
    lines = [
        "",
        f"# xlarge SPARQL read after each of {OBSERVED_READS} observations, after "
        f"{EVENTS_BEFORE_READS} more MutationStream(seed=1) events ({smr.page_count} pages, "
        f"{len(graph)} triples, {last_values} last_value triples; "
        "last_value=<v> limit=50, cache=None)",
        f"median_ms {median:.2f}  max_ms {max(millis):.2f}",
    ]
    with open(f"{results_dir}/scale_corpus.txt", "a", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    if not SMOKE:
        assert median <= SPARQL_READ_MS, f"median SPARQL read {median:.2f} ms over the gate"
