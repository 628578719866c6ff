"""Tests of the benchmark itself: determinism, checkers, metric names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.core.engine import AdvancedSearchEngine
from repro.smr.repository import SensorMetadataRepository
from repro.web.app import create_app
from repro.workloads.generator import CorpusSpec, generate_corpus
from repro.workloads.stream import MutationStream

from perfbench import checks, client, hostspeed, inputs, layers, run
from perfbench.spans import Span, SpanRecorder
from perfbench.workloads import WORKLOADS, Sample

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(seed=42))


@pytest.fixture(scope="module")
def app(corpus):
    smr = SensorMetadataRepository.from_corpus(corpus)
    for event in MutationStream(corpus, seed=3).events(60):
        event.apply(smr)
    built = create_app(AdvancedSearchEngine(smr))
    yield built
    built.close()


def search(app, text):
    status, body = client.call(app, "GET", "/api/search", {"q": text})
    return status, body


def corrupt(body, mutate):
    payload = json.loads(body)
    mutate(payload)
    return json.dumps(payload).encode()


# ----------------------------------------------------------------------
# The same seed yields the same operation lists
# ----------------------------------------------------------------------


def test_search_lists_are_seeded_and_distinct():
    assert inputs.search_queries(5, 40) == inputs.search_queries(5, 40)
    assert inputs.search_queries(5, 40) != inputs.search_queries(6, 40)
    lists = inputs.query_lists(5)
    assert lists == inputs.query_lists(5)
    assert len(lists.cold) == inputs.COLD_ROUNDS * len(inputs.COLD_SHAPES)
    assert len(lists.warm) == len(inputs.COLD_SHAPES)
    assert len(lists.hot) < 256
    every = lists.warm + lists.hot + lists.cold
    assert len(set(every)) == len(every)


def test_each_cold_round_holds_one_query_per_shape():
    markers = ("sort=pagerank", "keyword=", "elevation_m>=", "installed_year>=",
               "last_value>", "bbox=", "relaxed=true")
    for index, text in enumerate(inputs.query_lists(9).cold[:70]):
        assert markers[index % len(markers)] in text


def test_ingest_plan_is_seeded(corpus):
    first = inputs.ingest_plan(corpus, 4, count=60)
    assert first == inputs.ingest_plan(corpus, 4, count=60)
    assert first != inputs.ingest_plan(corpus, 5, count=60)
    _, ops = first
    assert [op.shape for op in ops[:6]] == list(inputs.INGEST_SHAPES) * 2


# ----------------------------------------------------------------------
# Each checker rejects a deliberately corrupted response
# ----------------------------------------------------------------------


def _first(payload):
    return payload["results"][0]


SEARCH_CORRUPTIONS = {
    "kind=station elevation_m>=1500 limit=10": [
        lambda p: _first(p).update(kind="sensor"),
        lambda p: _first(p)["annotations"].update(elevation_m=10),
        lambda p: p["results"].extend(p["results"] * 2),
    ],
    "bbox=45.8,6.8,47.0,10.5 limit=10": [
        lambda p: _first(p).update(location={"lat": 0.0, "lon": 0.0}),
        lambda p: _first(p).update(location=None),
    ],
    "keyword=wind sort=pagerank limit=10": [
        lambda p: _first(p).update(relevance=0.0),
        lambda p: p["results"].reverse(),
    ],
    "last_value>-30 limit=10": [
        lambda p: _first(p)["annotations"].pop("last_value"),
    ],
    "relaxed=true accuracy<0.5 sampling_rate_s=60 limit=10": [
        lambda p: _first(p).update(match_degree=0.25),
    ],
}


@pytest.mark.parametrize("text", sorted(SEARCH_CORRUPTIONS))
def test_search_checker_rejects_corrupted_payloads(app, text):
    status, body = search(app, text)
    verdict, payload = checks.check_search(text, status, body)
    assert verdict is None
    assert payload["results"], "the query must return something to corrupt"
    for mutate in SEARCH_CORRUPTIONS[text]:
        assert checks.check_search(text, status, corrupt(body, mutate))[0] is not None
    assert checks.check_search(text, status, body[:-5])[0] is not None
    assert checks.check_search(text, "500 Internal Server Error", body)[0] is not None


def test_every_warm_query_shape_passes_the_checker(app):
    for text in inputs.query_lists(1).warm:
        status, body = search(app, text)
        assert checks.check_search(text, status, body)[0] is None, text


def test_hot_checker_rejects_a_changed_payload(app):
    text = "kind=sensor sort=pagerank limit=5"
    reference = json.loads(search(app, text)[1])
    status, body = search(app, text)
    assert checks.check_hot(status, body, reference) is None
    changed = corrupt(body, lambda p: _first(p).update(pagerank=1.0))
    assert checks.check_hot(status, changed, reference) is not None
    assert checks.check_hot("404 Not Found", body, reference) is not None


def test_read_after_write_checker_requires_the_written_page(app):
    text = "keyword=wind kind=sensor limit=50"
    status, body = search(app, text)
    written = json.loads(body)["results"][0]["title"]
    assert checks.check_read_after_write(text, status, body, written) is None
    dropped = corrupt(body, lambda p: p["results"].pop(0))
    assert checks.check_read_after_write(text, status, dropped, written) is not None


def test_ingest_reads_find_their_writes(corpus):
    smr = SensorMetadataRepository.from_corpus(corpus)
    prefix, ops = inputs.ingest_plan(corpus, 2, count=30)
    for event in prefix:
        event.apply(smr)
    built = create_app(AdvancedSearchEngine(smr))
    try:
        for op in ops:
            op.event.apply(smr)
            status, body = search(built, op.query)
            assert checks.check_read_after_write(op.query, status, body, op.expect) is None
    finally:
        built.close()


# ----------------------------------------------------------------------
# Spans and metric names
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    recorder = SpanRecorder()
    recorder.spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "child", 1.0, 4.0),
        Span(3, 1, "child", 3.0, 6.0),  # overlaps the first child
        Span(4, 1, "child", 9.0, 12.0),  # runs past the parent's end
    ]
    assert recorder.self_seconds()[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrappers_are_removed_after_the_traced_phase():
    original = AdvancedSearchEngine.search
    recorder = SpanRecorder()
    layers.install(recorder)
    assert AdvancedSearchEngine.search is not original
    recorder.uninstall()
    assert AdvancedSearchEngine.search is original
    assert "search" in AdvancedSearchEngine.__dict__


def test_calibration_allocates_no_tracked_objects():
    hostspeed.calibrate()
    gc.disable()
    try:
        before = gc.get_count()
        hostspeed.calibrate()
        hostspeed.steady_calibrate()
        assert gc.get_count() == before
    finally:
        gc.enable()


def test_rescale_scales_only_the_latest_operation():
    sample = Sample(ops=[1.0], reads=[1.0])
    mark = sample.mark()
    sample.ops.append(0.5)
    sample.reads.append(0.25)
    sample.writes.append(0.25)
    sample.rescale(mark, hostspeed.factor(2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S))
    assert sample.ops == [1.0, 0.25]
    assert sample.reads == [1.0, 0.125]
    assert sample.writes == [0.125]
    assert sample.wall == 0.5
    assert sample.scales == [0.5]


def test_metric_names_and_units_match_benchmark_json():
    spec = benchmark_json()
    sample = Sample(ops=[0.01, 0.02, 0.03], reads=[0.01, 0.02, 0.03])
    end_to_end = run.end_to_end(sample, [{"load": 1.0, "rank": 0.5, "warm": 0.5}])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()
    }
    extra = {name: 0.0 for name in layers.EXTRA_METRICS}
    per_layer = layers.layer_metrics(SpanRecorder(), 1, {}, {}, {}, {}, extra)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layers.unit_of(name) for name in per_layer
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_of_benchmark_json(trace):
    done = _cli(ROOT, "--workload", "ingest_mixed", "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark_json()[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert "PYTHONHASHSEED=3" in done.stdout


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _cli(str(tmp_path), "--workload", "search_cold", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "{" not in done.stdout

