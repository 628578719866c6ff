"""Tests for the slow-query log reservoir (``/debug/slow``).

The satellite checklist: capacity eviction order, thread-safety under
concurrent writers, and snapshot isolation. The log keeps published
:class:`~repro.obs.QueryProvenance` records by reference and renders
fresh entry dicts from them.
"""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    QueryProvenance,
    SlowQueryLog,
    get_slow_query_log,
    set_slow_query_log,
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
        log = SlowQueryLog(capacity=3)
        for seconds in [0.010, 0.050, 0.020, 0.040, 0.030]:
            log.record(_record(f"q-{seconds}", seconds))
        snapshot = log.snapshot()
        assert [entry["seconds"] for entry in snapshot] == [0.050, 0.040, 0.030]
        assert len(log) == 3

    def test_fast_query_is_rejected_when_full(self):
        log = SlowQueryLog(capacity=2)
        assert log.record(_record("a", 0.5)) is True
        assert log.record(_record("b", 0.4)) is True
        assert log.record(_record("too-fast", 0.1)) is False
        assert {e["query"] for e in log.snapshot()} == {"a", "b"}

    def test_equal_duration_does_not_displace(self):
        log = SlowQueryLog(capacity=1)
        log.record(_record("first", 0.2))
        assert log.record(_record("tie", 0.2)) is False
        assert log.snapshot()[0]["query"] == "first"

    def test_ties_order_by_recording_sequence(self):
        log = SlowQueryLog(capacity=4)
        log.record(_record("early", 0.2))
        log.record(_record("late", 0.2))
        queries = [e["query"] for e in log.snapshot()]
        assert queries == ["early", "late"]

    def test_recorded_counts_every_retained_query(self):
        log = SlowQueryLog(capacity=2)
        for i in range(4):
            log.record(_record(f"q{i}", 0.1 * (i + 1)))
        assert log.recorded == 4  # all retained at some point...
        assert len(log) == 2      # ...but only capacity survive

    def test_disabled_log_is_a_noop(self):
        log = SlowQueryLog(capacity=2, enabled=False)
        assert log.record(_record("q", 9.9)) is False
        assert len(log) == 0
        log.enable()
        assert log.record(_record("q", 9.9)) is True

    def test_clear_keeps_counters(self):
        log = SlowQueryLog(capacity=4)
        log.record(_record("q", 0.1))
        log.clear()
        assert len(log) == 0 and log.recorded == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ObservabilityError):
            SlowQueryLog(capacity=0)


class TestThreadSafety:
    def test_concurrent_writers_retain_the_global_slowest(self):
        log = SlowQueryLog(capacity=16)
        durations = [i / 1000.0 for i in range(1, 401)]  # 1ms .. 400ms

        def write(chunk):
            for seconds in chunk:
                log.record(_record(f"q-{seconds:.3f}", seconds))

        chunks = [durations[i::4] for i in range(4)]
        threads = [threading.Thread(target=write, args=(c,)) for c in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot = log.snapshot()
        assert len(snapshot) == 16
        # The reservoir must converge on the true top-16 regardless of
        # the interleaving of writers.
        expected = sorted(durations, reverse=True)[:16]
        assert [e["seconds"] for e in snapshot] == expected

    def test_concurrent_snapshots_never_observe_torn_state(self):
        log = SlowQueryLog(capacity=8)
        stop = threading.Event()
        failures = []

        def write():
            i = 0
            while not stop.is_set():
                log.record(_record(f"q{i}", (i % 100) / 100.0, stage=f"s{i}"))
                i += 1

        def read():
            while not stop.is_set():
                for entry in log.snapshot():
                    if not (set(entry) >= {"query", "seconds", "plan", "seq"}):
                        failures.append(entry)

        writers = [threading.Thread(target=write) for _ in range(2)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for thread in writers + readers:
            thread.join()
        stop_timer.cancel()
        assert failures == []


class TestSnapshotIsolation:
    def test_plan_is_copied_at_record_time(self):
        # The log keeps the published record itself (a record is never
        # mutated once published) and copies its plan out of it: the
        # entry shows the stages and waterfall the record was offered with.
        log = SlowQueryLog(capacity=4)
        record = _record("q", 0.2, stage="kind=station")
        log.record(record)
        log.record(_record("later", 0.1, stage="mutated-after-record"))
        retained = log.snapshot()[0]["plan"]
        assert [s["constraint"] for s in retained["stages"]] == ["kind=station"]
        assert retained["stages"] == [stage.to_dict() for stage in record.stages]
        assert retained["waterfall"] == record.waterfall
        assert retained["waterfall"][0] is not record.waterfall[0]

    def test_snapshot_is_isolated_from_later_mutation(self):
        log = SlowQueryLog(capacity=4)
        log.record(_record("q", 0.2, stage="a"))
        first = log.snapshot()
        first[0]["plan"]["stages"].append("tampered")
        first[0]["plan"]["waterfall"][0]["after"] = -1
        first[0]["query"] = "tampered"
        second = log.snapshot()
        assert second[0]["query"] == "q"
        assert [s["constraint"] for s in second[0]["plan"]["stages"]] == ["a"]
        assert second[0]["plan"]["waterfall"][0]["after"] == 3

    def test_entry_metadata_round_trips(self):
        log = SlowQueryLog(capacity=4, clock=lambda: 99.5)
        record = _record("kind=station", 0.3)
        record.trace_id = "abcd1234"
        record.cache = "miss"
        record.result_count = 7
        log.record(record)
        entry = log.snapshot()[0]
        assert set(entry) == {
            "query", "seconds", "trace_id", "cache", "results", "plan",
            "timestamp", "seq",
        }
        assert entry["trace_id"] == "abcd1234"
        assert entry["cache"] == "miss"
        assert entry["results"] == 7
        assert entry["timestamp"] == 99.5
        assert entry["plan"] is None  # no stages: a cache hit's record


class TestModuleDefault:
    def test_default_swap_contract(self):
        mine = SlowQueryLog(capacity=2)
        previous = set_slow_query_log(mine)
        try:
            assert get_slow_query_log() is mine
        finally:
            set_slow_query_log(previous)
        assert get_slow_query_log() is previous
