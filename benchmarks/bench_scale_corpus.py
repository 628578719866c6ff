"""E11 — scalability: the paper runs "over a large-scale real application".

Sweeps corpus size and measures how the core operations scale: bulk
loading, PageRank ranking, advanced search, autocomplete. Writes the
scaling table to ``results/scale_corpus.txt``; the latency benchmarks run
on the largest interactive corpus. Search should stay interactive (well
under 100 ms here) across the sweep — the property a live demo depends
on. The ``xlarge`` tier (100k+ pages) gives the ranking kernels a
production-sized graph; it appears in the scaling table but not in the
per-query latency benchmarks.
"""

import os
import time

import pytest

from repro.core.engine import AdvancedSearchEngine
from repro.smr.repository import SensorMetadataRepository
from repro.workloads.generator import CorpusSpec, generate_corpus

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

#: The 100k+-page tier: scaling-table only (one load is ~30 s).
XLARGE = (
    CorpusSpec(seed=1, deployments=10, stations=40, sensors=150)
    if SMOKE
    else CorpusSpec(seed=1, deployments=50, stations=2000, sensors=98000)
)

ALL_SCALES = {**SCALES, "xlarge": XLARGE}


@pytest.fixture(scope="module")
def built():
    """label -> (engine, pages, load_s, rank_s): every corpus built ONCE.

    The xlarge tier alone costs ~30 s to load, so the scaling table and
    the latency benchmarks must share one build instead of regenerating
    per consumer (which the pre-xlarge version of this module did).
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
        out[label] = (engine, corpus.page_count, load_seconds, rank_seconds)
    return out


@pytest.fixture(scope="module")
def engines(built):
    return {label: engine for label, (engine, _, _, _) in built.items()}


@pytest.fixture(scope="module", autouse=True)
def scaling_table(built, write_result):
    lines = [f"{'scale':<8}{'pages':>7}{'load_s':>9}{'rank_s':>9}{'search_ms':>11}"]
    for label, (engine, pages, load_seconds, rank_seconds) in built.items():
        query = engine.parse("keyword=wind kind=sensor sort=pagerank limit=20")
        start = time.perf_counter()
        for _ in range(5):
            engine.search(query)
        search_ms = (time.perf_counter() - start) / 5 * 1000
        lines.append(
            f"{label:<8}{pages:>7}{load_seconds:>9.3f}"
            f"{rank_seconds:>9.3f}{search_ms:>11.2f}"
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
    _, pages, _, _ = built["xlarge"]
    if not SMOKE:
        assert pages >= 100_000, f"xlarge corpus has only {pages} pages"
    else:
        assert pages > 0
