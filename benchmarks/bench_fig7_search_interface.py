"""E7 — Fig. 7: latency of the advanced query interface.

Benchmarks every interaction the query form offers: keyword search,
property filtering through SQL and SPARQL, relaxed (match-degree)
search, map-based browsing, sorting modes, autocomplete, dynamic
drop-downs and recommendations.

Autocomplete is timed on the first read after a write, the case the
form meets while "new metadata pages are continuously created", beside
a repeat read; both land in ``results/fig7_autocomplete.txt``.
"""

import os
import statistics
import time

import pytest

from repro.core.engine import AdvancedSearchEngine
from repro.smr.repository import SensorMetadataRepository
from repro.workloads.stream import MutationStream

# REPRO_BENCH_SMOKE=1: fewer write/read rounds.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
AUTOCOMPLETE_ROUNDS = 5 if SMOKE else 30


def test_fig7_keyword_search(engine, benchmark):
    results = benchmark(lambda: engine.search(engine.parse("keyword=wind limit=20")))
    assert len(results) > 0


def test_fig7_keyword_plus_kind(engine, benchmark):
    results = benchmark(
        lambda: engine.search(engine.parse("keyword=wind kind=sensor limit=20"))
    )
    assert all(r.kind == "sensor" for r in results)


def test_fig7_sql_property_filter(engine, benchmark):
    results = benchmark(
        lambda: engine.search(engine.parse("kind=station elevation_m>=2000 limit=0"))
    )
    assert all(r.get("elevation_m") >= 2000 for r in results)


def test_fig7_sparql_property_filter(engine, benchmark):
    # 'links_to' only exists in the RDF export, never as a column.
    results = benchmark(lambda: engine.search(engine.parse("kind=sensor manufacturer~vais")))
    assert all("vais" in r.get("manufacturer", "").lower() for r in results)


def test_fig7_relaxed_search_with_degrees(engine, benchmark, write_result):
    results = benchmark(
        lambda: engine.search(
            engine.parse(
                "kind=station elevation_m>=2500 status=online relaxed=true limit=0"
            )
        )
    )
    degrees = sorted({r.match_degree for r in results})
    write_result("fig7_match_degrees.txt", f"degrees={degrees} results={len(results)}\n")
    assert len(degrees) >= 2


def test_fig7_map_browsing(engine, benchmark):
    results = benchmark(
        lambda: engine.search(engine.parse("kind=station bbox=46.0,6.8,47.0,10.5 limit=0"))
    )
    assert len(results.located()) == len(results)


def test_fig7_pagerank_sort(engine, benchmark):
    results = benchmark(
        lambda: engine.search(engine.parse("kind=deployment sort=pagerank limit=10"))
    )
    scores = [r.pagerank for r in results]
    assert scores == sorted(scores, reverse=True)


def test_fig7_property_sort(engine, benchmark):
    results = benchmark(
        lambda: engine.search(
            engine.parse("kind=station sort=elevation_m order=desc limit=10")
        )
    )
    values = [r.get("elevation_m") for r in results]
    assert values == sorted(values, reverse=True)


@pytest.fixture(scope="module")
def observed(corpus):
    """An engine of its own, and a supply of sensor observations for it.

    Each observation is one ``register()`` that changes no link, so the
    ranker keeps its scores and only the write itself stands between a
    first read and a repeat read. The shared engine stays unwritten.
    """
    smr = SensorMetadataRepository.from_corpus(corpus)
    engine = AdvancedSearchEngine(smr)
    engine.ranker.scores()
    stream = MutationStream(corpus, seed=1)

    def observe() -> None:
        event = stream.next_event()
        while event.event != "observe":
            event = stream.next_event()
        event.apply(smr)

    return engine, observe


@pytest.fixture(scope="module")
def autocomplete_timings(write_result):
    """Completion -> (first reads after a write, repeat reads) in seconds."""
    timings = {}
    yield timings
    lines = ["completion: median ms of the first read after a write / of a repeat read\n"]
    for name, (first, repeat) in sorted(timings.items()):
        lines.append(
            f"{name}: first {statistics.median(first) * 1e3:.3f} ms (n={len(first)}), "
            f"repeat {statistics.median(repeat) * 1e3:.3f} ms (n={len(repeat)})\n"
        )
    write_result("fig7_autocomplete.txt", "".join(lines))


@pytest.mark.parametrize(
    "method,prefix", [("complete_title", "Station:"), ("complete_property", "s")]
)
def test_fig7_autocomplete_after_write(observed, autocomplete_timings, benchmark, method, prefix):
    engine, observe = observed
    complete = getattr(engine.autocomplete, method)
    first = []

    def read_after_write():
        started = time.perf_counter()
        completions = complete(prefix)
        first.append(time.perf_counter() - started)
        return completions

    completions = benchmark.pedantic(
        read_after_write, setup=observe, rounds=AUTOCOMPLETE_ROUNDS, iterations=1
    )
    repeat = []
    for _ in range(AUTOCOMPLETE_ROUNDS):
        started = time.perf_counter()
        again = complete(prefix)
        repeat.append(time.perf_counter() - started)
    assert completions and again == completions
    autocomplete_timings[f"{method}({prefix!r})"] = (first, repeat)


def test_fig7_dynamic_dropdown(engine, benchmark):
    values = benchmark(lambda: engine.autocomplete.values_for("sensor_type", kind="sensor"))
    assert values


def test_fig7_recommendations(engine, benchmark):
    results = engine.search(engine.parse("keyword=wind kind=sensor limit=10"))
    recommendations = benchmark(lambda: engine.recommend(results, k=5))
    assert recommendations


def test_fig7_filter_via_sql_path(engine, benchmark):
    """The same equality filter, answered by the relational store."""
    from repro.core.query import PropertyFilter

    flt = PropertyFilter("sensor_type", "=", "snow height")
    matches = benchmark(lambda: engine._sql_filter(flt, ["sensor"]))
    assert matches


def test_fig7_filter_via_sparql_path(engine, benchmark, write_result):
    """The same filter through the RDF/SPARQL path — the mapping ablation.

    The Query Management module routes mapped properties to SQL precisely
    because the triple-store path is slower; this pair of benchmarks
    quantifies that design choice.
    """
    from repro.core.query import PropertyFilter

    flt = PropertyFilter("sensor_type", "=", "snow height")
    engine.smr.rdf_graph()  # exclude the one-time export from the timing
    matches = benchmark(lambda: engine._sparql_filter(flt))
    sql_matches = engine._sql_filter(flt, ["sensor"])
    write_result(
        "fig7_sql_vs_sparql.txt",
        f"filter sensor_type='snow height': sql={len(sql_matches)} "
        f"sparql={len(matches)} (must agree)\n",
    )
    assert matches == sql_matches
