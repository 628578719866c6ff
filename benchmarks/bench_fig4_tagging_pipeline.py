"""E5 — Fig. 4: throughput of the dynamic tagging pipeline, stage by stage.

Benchmarks each module of the tagging architecture (Parser import,
Matrix Transformation, Graph, Max Clique, Font Size) and the end-to-end
cloud build, plus the cache's effect on repeat visualizations — the
reason the paper includes a Cache module at all.

One gate guards the Matrix Transformation module: ``build_similarity``
(a vectorized incidence-CSR kernel) must match the legacy pairwise
``cosine_similarity`` loop *bitwise* and run >= 2x faster than it
(outside smoke mode). Results go to ``benchmarks/results/fig4_similarity.txt``.
"""

import os
import time

import numpy as np
import pytest

from repro.tagging import (
    LruTtlCache,
    TagCloudBuilder,
    TagGraph,
    TagStore,
    TaggingSystem,
    bron_kerbosch,
    build_similarity,
    font_sizes,
)
from repro.text.tfidf import cosine_similarity
from repro.workloads import generate_tag_workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

LEGACY_TAGS = 40 if SMOKE else 300
LEGACY_PAGES = 100 if SMOKE else 2_000
MIN_VECTORIZED_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def store():
    built = TagStore()
    built.import_assignments(
        generate_tag_workload(pages=200, topics=5, bridges=3, seed=3).assignments
    )
    return built


@pytest.fixture(scope="module")
def similarity(store):
    return build_similarity(store)


@pytest.fixture(scope="module")
def graph(similarity):
    return TagGraph.from_similarity(similarity)


def test_fig4_parser_import(benchmark):
    workload = generate_tag_workload(pages=200, topics=5, seed=4)

    def run():
        fresh = TagStore()
        return fresh.import_assignments(workload.assignments)

    added = benchmark(run)
    assert added > 0


def test_fig4_matrix_transformation(store, benchmark):
    matrix = benchmark(lambda: build_similarity(store))
    assert matrix.similarities.shape[0] == store.tag_count


def test_fig4_graph_module(similarity, benchmark):
    graph = benchmark(lambda: TagGraph.from_similarity(similarity))
    assert graph.node_count == len(similarity.tags)


def test_fig4_max_clique_module(graph, benchmark):
    cliques = benchmark(lambda: bron_kerbosch(graph))
    assert cliques


def test_fig4_font_size_module(store, graph, benchmark):
    cliques = bron_kerbosch(graph)
    sizes = benchmark(lambda: font_sizes(store.counts(), cliques))
    assert set(sizes) == set(store.counts())


def test_fig4_end_to_end_cloud(store, benchmark):
    cloud = benchmark(lambda: TagCloudBuilder().build(store, top=40))
    assert cloud.entries


def test_fig4_cache_speedup(store, benchmark, write_result):
    system = TaggingSystem(store=store, cache=LruTtlCache(capacity=8))
    system.cloud(top=40)  # prime

    cloud = benchmark(lambda: system.cloud(top=40))
    assert cloud.entries
    stats = system.cache.stats
    write_result(
        "fig4_cache.txt",
        f"cache hits={stats.hits} misses={stats.misses} hit_rate={stats.hit_rate:.2%}\n",
    )
    # With --benchmark-disable (the smoke pass) the build runs once, so
    # "dominated" degenerates to one hit against the priming miss.
    if SMOKE:
        assert stats.hits >= 1
    else:
        assert stats.hits > stats.misses  # cached rebuilds dominated


def _random_store(tags: int, pages: int, seed: int) -> TagStore:
    rng = np.random.default_rng(seed)
    store = TagStore()
    titles = [f"Page:{i:05d}" for i in range(pages)]
    for t in range(tags):
        count = int(rng.integers(3, 40))
        for page_idx in rng.choice(pages, size=count, replace=False):
            store.create(titles[page_idx], f"tag{t:04d}")
    return store


def _legacy_similarity(store: TagStore) -> np.ndarray:
    """The pairwise dict loop the vectorized kernel replaced, kept as the baseline."""
    tags = store.tags()
    vectors = [{page: 1.0 for page in store.pages_of(tag)} for tag in tags]
    n = len(tags)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = cosine_similarity(vectors[i], vectors[j])
    return out


def test_fig4_vectorized_similarity_vs_legacy(write_result):
    """build_similarity: bitwise equal to, and >= 2x over, the pairwise loop."""
    store = _random_store(LEGACY_TAGS, LEGACY_PAGES, seed=17)
    legacy_start = time.perf_counter()
    legacy = _legacy_similarity(store)
    legacy_s = time.perf_counter() - legacy_start
    vec_start = time.perf_counter()
    vectorized = build_similarity(store).similarities
    vec_s = time.perf_counter() - vec_start
    assert np.array_equal(vectorized, legacy), "legacy identity"
    speedup = legacy_s / vec_s if vec_s > 0 else float("inf")
    write_result(
        "fig4_similarity.txt",
        f"# E5 similarity: {store.tag_count} tags x {LEGACY_PAGES} pages, legacy "
        "pairwise loop vs build_similarity (bitwise identical)\n"
        f"similarity_legacy_seconds={legacy_s:.4f} "
        f"similarity_vectorized_seconds={vec_s:.4f} "
        f"similarity_vectorized_speedup={speedup:.1f}x\n",
    )
    if not SMOKE:
        assert speedup >= MIN_VECTORIZED_SPEEDUP, (
            f"expected >= {MIN_VECTORIZED_SPEEDUP}x from the vectorized kernel, "
            f"got {speedup:.2f}x"
        )
