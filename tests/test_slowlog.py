"""Tests for the slow-query view of the provenance ring (the ``slowest``
list of ``/debug/provenance``).

The ring is the only per-search store: ``ProvenanceRecorder.slowest(k)``
renders fresh entry dicts for the ``k`` slowest retained records,
slowest first, ties by ``seq``, from one locked snapshot. These cover
the view's ordering and window, thread-safety under concurrent
publishers and readers, and that entries are copies a reader may
mutate. ``obs.get_slow_query_log`` is the ring's getter under the old
log's name.
"""

import threading

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import (
    ProvenanceRecorder,
    QueryProvenance,
    get_slow_query_log,
    set_provenance_recorder,
)


def _record(query, seconds, stage=None):
    """A finished record as the engine publishes it."""
    record = QueryProvenance(query)
    record.seconds = seconds
    if stage is not None:
        record.add_stage(stage, "KindTitleLookup", 0.001, 3, 10)
        record.add_waterfall_step(stage, None, 3)
    return record


class TestCapacityAndEviction:
    def test_retains_the_slowest_in_descending_order(self):
        ring = ProvenanceRecorder(capacity=8)
        for seconds in [0.010, 0.050, 0.020, 0.040, 0.030]:
            ring.record(_record(f"q-{seconds}", seconds))
        assert [e["seconds"] for e in ring.slowest(3)] == [0.050, 0.040, 0.030]
        assert len(ring.slowest()) == 5  # fewer retained than the view's size

    def test_fast_query_is_rejected_when_full(self):
        ring = ProvenanceRecorder(capacity=8)
        ring.record(_record("a", 0.5))
        ring.record(_record("b", 0.4))
        ring.record(_record("too-fast", 0.1))
        assert {e["query"] for e in ring.slowest(2)} == {"a", "b"}

    def test_equal_duration_does_not_displace(self):
        ring = ProvenanceRecorder(capacity=8)
        ring.record(_record("first", 0.2))
        ring.record(_record("tie", 0.2))
        assert [e["query"] for e in ring.slowest(1)] == ["first"]

    def test_ties_order_by_recording_sequence(self):
        ring = ProvenanceRecorder(capacity=8)
        for query, seconds in [("early", 0.2), ("fast", 0.1), ("late", 0.2), ("slow", 0.5)]:
            ring.record(_record(query, seconds))
        assert [e["query"] for e in ring.slowest(3)] == ["slow", "early", "late"]

    def test_recorded_counts_every_retained_query(self):
        ring = ProvenanceRecorder(capacity=2)
        for query, seconds in [("evicted", 0.9), ("a", 0.1), ("b", 0.2)]:
            ring.record(_record(query, seconds))
        assert ring.recorded == 3  # every admission, the evicted one too...
        assert len(ring) == 2      # ...but the view covers the retained window
        assert [e["query"] for e in ring.slowest()] == ["b", "a"]

    def test_disabled_log_is_a_noop(self):
        ring = ProvenanceRecorder(capacity=2, enabled=False)
        ring.record(_record("q", 9.9))
        assert len(ring) == 0 and ring.slowest() == [] and ring.recorded == 0
        ring.enable()
        ring.record(_record("q", 9.9))
        assert [e["query"] for e in ring.slowest()] == ["q"]

    def test_clear_keeps_counters(self):
        ring = ProvenanceRecorder(capacity=4)
        ring.record(_record("q", 0.1))
        ring.clear()
        assert len(ring) == 0 and ring.slowest() == [] and ring.recorded == 1

    def test_invalid_parameters_rejected(self):
        for capacity in (0, -3):
            with pytest.raises(ObservabilityError):
                ProvenanceRecorder(capacity=capacity)
        ring = ProvenanceRecorder(capacity=4)
        ring.record(_record("q", 0.1))
        assert ring.slowest(0) == [] and ring.slowest(-1) == []


class TestThreadSafety:
    def test_concurrent_writers_retain_the_global_slowest(self):
        ring = ProvenanceRecorder(capacity=1000)
        durations = [i / 1000.0 for i in range(1, 401)]  # 1ms .. 400ms

        def write(chunk):
            for seconds in chunk:
                ring.record(_record(f"q-{seconds:.3f}", seconds))

        threads = [threading.Thread(target=write, args=(durations[i::4],)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The view must show the true slowest whatever the interleaving.
        expected = sorted(durations, reverse=True)[:obs.SLOW_VIEW_SIZE]
        assert [e["seconds"] for e in ring.slowest()] == expected
        assert ring.recorded == len(durations)

    def test_concurrent_snapshots_never_observe_torn_state(self):
        ring = ProvenanceRecorder(capacity=64)
        stop = threading.Event()
        failures = []

        def write():
            i = 0
            while not stop.is_set():
                ring.record(_record(f"q{i % 7}", (i % 100) / 100.0, stage=f"s{i}"))
                i += 1

        def read():
            while not stop.is_set():
                try:
                    entries = ring.slowest(8)
                    popular, _ = ring.popularity(7)
                    ring.slowest_queries(5)
                except Exception as exc:  # pragma: no cover - failure reporting
                    failures.append(exc)
                    return
                keys = [(-e["seconds"], e["seq"]) for e in entries]
                if keys != sorted(keys) or any(e["plan"] is None for e in entries):
                    failures.append(entries)
                if sum(count for _, count in popular) > 64:
                    failures.append(popular)

        threads = [threading.Thread(target=write) for _ in range(2)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join()
        stop_timer.cancel()
        assert failures == []


class TestSnapshotIsolation:
    def test_plan_is_copied_at_record_time(self):
        # The ring keeps the published record itself (a record is never
        # mutated once published) and the view copies its plan out of it.
        ring = ProvenanceRecorder(capacity=4)
        record = _record("q", 0.2, stage="kind=station")
        ring.record(record)
        ring.record(_record("later", 0.1, stage="kind=sensor"))
        retained = ring.slowest()[0]["plan"]
        assert [s["constraint"] for s in retained["stages"]] == ["kind=station"]
        assert retained["stages"] == [stage.to_dict() for stage in record.stages]
        assert retained["waterfall"] == record.waterfall
        assert retained["waterfall"][0] is not record.waterfall[0]

    def test_snapshot_is_isolated_from_later_mutation(self):
        ring = ProvenanceRecorder(capacity=4)
        ring.record(_record("q", 0.2, stage="a"))
        first = ring.slowest()
        first[0]["plan"]["stages"].append("tampered")
        first[0]["plan"]["waterfall"][0]["after"] = -1
        first[0]["query"] = "tampered"
        second = ring.slowest()
        assert second[0]["query"] == "q"
        assert [s["constraint"] for s in second[0]["plan"]["stages"]] == ["a"]
        assert second[0]["plan"]["waterfall"][0]["after"] == 3

    def test_entry_metadata_round_trips(self):
        ring = ProvenanceRecorder(capacity=4, clock=lambda: 99.5)
        record = _record("kind=station", 0.3)
        record.trace_id = "abcd1234"
        record.cache = "hit"
        record.result_count = 7
        ring.record(record)
        entry = ring.slowest()[0]
        assert set(entry) == {
            "query", "seconds", "trace_id", "cache", "results", "plan",
            "timestamp", "seq",
        }
        assert (entry["trace_id"], entry["cache"], entry["results"]) == ("abcd1234", "hit", 7)
        assert (entry["timestamp"], entry["seq"]) == (99.5, 1)
        assert entry["plan"] is None  # no stages: a cache hit's record


class TestModuleDefault:
    def test_default_swap_contract(self):
        mine = ProvenanceRecorder(capacity=2)
        previous = set_provenance_recorder(mine)
        try:
            assert get_slow_query_log() is mine is obs.get_provenance_recorder()
        finally:
            set_provenance_recorder(previous)
        assert get_slow_query_log() is previous
