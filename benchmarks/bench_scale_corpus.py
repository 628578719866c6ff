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
p95. ``make bench-scale`` runs this module; ``make bench`` skips the
gate, which uses no ``benchmark`` fixture, and CI runs it only at smoke
scale (the 100k build takes about two minutes and 1.9 GB).
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


class Built(NamedTuple):
    """One scale's engine, size, build timings and pending stream writes."""

    engine: AdvancedSearchEngine
    pages: int
    load_seconds: float
    rank_seconds: float
    #: The corpus's first ``MutationStream(seed=1)`` writes, as many as
    #: perfbench's search workloads apply in set-up; not yet applied.
    writes: List[MutationEvent]


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
        writes = MutationStream(corpus, seed=1).events(inputs.SEARCH_STREAM_PREFIX)
        out[label] = Built(engine, corpus.page_count, load_seconds, rank_seconds, writes)
    return out


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


def test_xlarge_cold_search_per_shape(built, results_dir):
    """Every cold query of every search_cold shape finishes under the SLO at xlarge."""
    entry = built["xlarge"]
    smr = entry.engine.smr
    for event in entry.writes:
        event.apply(smr)
    engine = AdvancedSearchEngine(smr, ranker=entry.engine.ranker, cache=None)
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
        f"{len(entry.writes)} stream writes; cache=None, {COLD_PER_SHAPE} distinct "
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
