"""The continuous mutation stream: determinism and lag bounds."""

import pytest

from repro.core import PageRankRanker
from repro.errors import ReproError
from repro.smr import SensorMetadataRepository
from repro.workloads import (
    CorpusSpec,
    MutationStream,
    StreamDriver,
    generate_corpus,
)

SPEC = CorpusSpec(institutions=2, field_sites=3, deployments=4, stations=10, sensors=40, seed=9)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC)


class TestStreamDeterminism:
    def test_same_seed_same_events(self, corpus):
        a = MutationStream(corpus, seed=11).events(200)
        b = MutationStream(corpus, seed=11).events(200)
        assert a == b

    def test_different_seed_diverges(self, corpus):
        a = MutationStream(corpus, seed=11).events(50)
        b = MutationStream(corpus, seed=12).events(50)
        assert a != b

    def test_event_mix_roughly_weighted(self, corpus):
        events = MutationStream(corpus, seed=3).events(400)
        mix = {"observe": 0, "edit": 0, "create": 0}
        for event in events:
            mix[event.event] += 1
        assert mix["observe"] > mix["edit"] > mix["create"] > 0

    def test_observations_compose_not_reset(self, corpus):
        """Later observations on one sensor keep its base annotations."""
        stream = MutationStream(corpus, seed=1, observe_weight=1.0,
                                edit_weight=0.0, create_weight=0.0)
        events = stream.events(300)
        by_title = {}
        for event in events:
            by_title.setdefault(event.title, []).append(event)
        repeated = next(evs for evs in by_title.values() if len(evs) >= 2)
        last = dict(repeated[-1].annotations)
        assert "last_value" in last and "observed_at" in last
        assert "sensor_type" in last  # base record survived the observation

    def test_invalid_weights_rejected(self, corpus):
        with pytest.raises(ReproError):
            MutationStream(corpus, observe_weight=-1.0)


class TestStreamApplication:
    def test_driver_reports_throughput_and_quiesced_lag(self, corpus):
        single = SensorMetadataRepository.from_corpus(corpus)
        ranker = PageRankRanker(single)
        ranker.scores()  # warm start: lag is measured against a built ranking
        events = MutationStream(corpus, seed=5).events(120)
        report = StreamDriver(refresh_every=30).run(single, events, ranker=ranker)
        assert report.applied == 120
        assert report.events_per_second > 0
        assert report.final_lag == 0  # quiesce refresh caught up
        assert report.lags  # staleness was actually sampled
        # Between refreshes the lag is bounded by the refresh interval:
        # at most refresh_every writes can land before the next refresh.
        assert report.max_lag <= 30

    def test_driver_works_unsharded_too(self, corpus):
        single = SensorMetadataRepository.from_corpus(corpus)
        ranker = PageRankRanker(single)
        ranker.scores()
        events = MutationStream(corpus, seed=5).events(60)
        report = StreamDriver(refresh_every=20).run(single, events, ranker=ranker)
        assert report.applied == 60
        assert report.final_lag == 0
        # One lag sample per refresh (at 20, 40, 60) plus the quiesce.
        assert len(report.lags) == 60 // 20 + 1

    def test_driver_validates_refresh_interval(self):
        with pytest.raises(ReproError):
            StreamDriver(refresh_every=0)
