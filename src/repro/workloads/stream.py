"""A continuous, seeded mutation stream over a loaded repository.

The paper's platform is not a static corpus: sensors report, pages get
edited, deployments grow. This module turns the synthetic corpus into
that write stream — a deterministic sequence of
:class:`MutationEvent`\\ s (sensor observations, page edits, new-sensor
registrations) applied through the
:class:`~repro.smr.repository.SensorMetadataRepository` ``register``
facade. :class:`StreamDriver` races the stream against the incremental
ranker's Gauss–Southwell warm start and samples the staleness lag while
writes land — the live counterpart of the Fig. 3 convergence study.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError
from repro.smr.model import KIND_ORDER, record_class_for
from repro.workloads.generator import SyntheticCorpus

_SENSOR_TYPES = ("temperature", "humidity", "pressure", "wind speed", "snow height")


@dataclass(frozen=True)
class MutationEvent:
    """One write: a full replacement registration of one metadata page.

    ``register`` replaces the page wholesale, so every event carries the
    complete annotation set — applying the same event list to two
    repositories leaves them in identical states regardless of what
    either contained before the stream touched those titles.
    """

    #: "observe" (sensor reading lands), "edit" (description touched) or
    #: "create" (a new sensor page appears).
    event: str
    record_kind: str
    title: str
    annotations: Tuple[Tuple[str, Any], ...]
    links: Tuple[str, ...] = ()
    description: str = ""

    def apply(self, repo: Any) -> None:
        """Apply to any repository speaking the SMR ``register`` facade."""
        repo.register(
            self.record_kind,
            self.title,
            list(self.annotations),
            links=self.links,
            description=self.description,
        )


class MutationStream:
    """Seeded generator of mutation events grounded in a corpus.

    Event mix (by default): 70 % sensor observations (a reading lands as
    unmapped ``last_value`` / ``observed_at`` annotations — properties
    outside the schema mapping, exercising the SPARQL filter path), 25 %
    page edits (description churn), 5 % new sensor registrations linked
    to an existing station. The stream tracks each title's full
    annotation state, so repeated events on one page compose rather than
    reset earlier observations.
    """

    def __init__(
        self,
        corpus: SyntheticCorpus,
        seed: int = 0,
        observe_weight: float = 0.70,
        edit_weight: float = 0.25,
        create_weight: float = 0.05,
    ):
        weights = (observe_weight, edit_weight, create_weight)
        if min(weights) < 0 or sum(weights) <= 0:
            raise ReproError(f"invalid stream weights {weights}")
        self._rng = random.Random(seed)
        self._weights = weights
        self._sequence = 0
        # title -> (kind, full annotation list, links, description); the
        # stream owns the evolving state for every page it has touched.
        self._state: Dict[str, Tuple[str, List[Tuple[str, Any]], Tuple[str, ...], str]] = {}
        extra_links: Dict[str, List[str]] = {}
        for source, target in corpus.page_links:
            extra_links.setdefault(source, []).append(target)
        for kind in KIND_ORDER:
            for record in corpus.records_of(kind):
                typed = record_class_for(kind).from_record(record)
                self._state[typed.title] = (
                    kind,
                    list(typed.annotations()),
                    tuple(extra_links.get(typed.title, ())),
                    "",
                )
        self._sensors = [t for t, s in self._state.items() if s[0] == "sensor"]
        self._stations = [t for t, s in self._state.items() if s[0] == "station"]
        if not self._sensors or not self._stations:
            raise ReproError("mutation stream needs at least one sensor and station")

    def _event_from_state(self, event: str, title: str) -> MutationEvent:
        kind, annotations, links, description = self._state[title]
        return MutationEvent(
            event=event,
            record_kind=kind,
            title=title,
            annotations=tuple(annotations),
            links=links,
            description=description,
        )

    def _observe(self) -> MutationEvent:
        title = self._rng.choice(self._sensors)
        kind, annotations, links, description = self._state[title]
        merged = [(p, v) for p, v in annotations if p not in ("last_value", "observed_at")]
        merged.append(("last_value", round(self._rng.uniform(-25.0, 45.0), 2)))
        merged.append(("observed_at", f"2010-07-{1 + self._sequence % 28:02d}T{self._sequence % 24:02d}:00:00"))
        self._state[title] = (kind, merged, links, description)
        return self._event_from_state("observe", title)

    def _edit(self) -> MutationEvent:
        title = self._rng.choice(sorted(self._state))
        kind, annotations, links, _ = self._state[title]
        description = f"Revision {self._sequence} from the mutation stream."
        self._state[title] = (kind, annotations, links, description)
        return self._event_from_state("edit", title)

    def _create(self) -> MutationEvent:
        station = self._rng.choice(self._stations)
        sensor_type = self._rng.choice(_SENSOR_TYPES)
        title = f"Sensor:STREAM-{self._sequence}"
        annotations: List[Tuple[str, Any]] = [
            ("name", f"Streamed {sensor_type} #{self._sequence}"),
            ("station", station),
            ("sensor_type", sensor_type),
            ("manufacturer", "Streamline Instruments"),
            ("serial", f"ST{self._sequence:06d}"),
            ("sampling_rate_s", self._rng.choice([1, 10, 60, 300])),
            ("accuracy", round(self._rng.uniform(0.05, 2.0), 2)),
            ("installed_year", 2010),
        ]
        self._state[title] = ("sensor", annotations, (station,), "")
        self._sensors.append(title)
        return self._event_from_state("create", title)

    def next_event(self) -> MutationEvent:
        """The next event in the deterministic sequence."""
        self._sequence += 1
        kind = self._rng.choices(
            ("observe", "edit", "create"), weights=self._weights
        )[0]
        if kind == "observe":
            return self._observe()
        if kind == "edit":
            return self._edit()
        return self._create()

    def events(self, count: int) -> List[MutationEvent]:
        """The next ``count`` events (same seed -> same list)."""
        if count < 0:
            raise ReproError(f"event count must be >= 0, got {count}")
        return [self.next_event() for _ in range(count)]


@dataclass
class StreamReport:
    """What one driver run did and how the ranker kept up."""

    applied: int
    seconds: float
    lags: List[int] = field(default_factory=list)
    final_lag: int = 0

    @property
    def events_per_second(self) -> float:
        return self.applied / self.seconds if self.seconds > 0 else 0.0

    @property
    def max_lag(self) -> int:
        return max(self.lags) if self.lags else 0

    @property
    def mean_lag(self) -> float:
        return sum(self.lags) / len(self.lags) if self.lags else 0.0


class StreamDriver:
    """Applies a mutation stream while the ranker chases freshness.

    Every ``refresh_every`` events the driver asks the ranker to refresh
    (the incremental Gauss–Southwell path when the dirty set is small)
    and samples the staleness lag. After the stream drains it quiesces
    with one final refresh, so ``final_lag`` is 0 whenever the ranker
    can keep up at all.
    """

    def __init__(self, refresh_every: int = 50):
        if refresh_every <= 0:
            raise ReproError(f"refresh_every must be positive, got {refresh_every}")
        self.refresh_every = refresh_every

    def run(
        self,
        repo: Any,
        events: Sequence[MutationEvent],
        ranker: Any = None,
    ) -> StreamReport:
        """Apply ``events`` to ``repo``, refreshing ``ranker`` on cadence.

        Staleness lag is sampled *before* each refresh (the accrued
        race deficit) and once more after a final quiescent refresh,
        which must bring the lag back to zero.
        """
        registry = obs.get_registry()
        counter = None
        if registry.enabled:
            counter = registry.counter(
                "workloads_stream_events_total",
                "Mutation-stream events applied, per event type.",
                labels=("type",),
            )
        report = StreamReport(applied=0, seconds=0.0)
        started = time.perf_counter()
        for i, event in enumerate(events, start=1):
            event.apply(repo)
            report.applied += 1
            if counter is not None:
                counter.labels(event.event).inc()
            if ranker is not None and i % self.refresh_every == 0:
                self._sample(ranker, report)
        if ranker is not None:
            self._sample(ranker, report)
            report.final_lag = ranker.record_staleness()
        report.seconds = time.perf_counter() - started
        return report

    @staticmethod
    def _sample(ranker: Any, report: StreamReport) -> None:
        # Record the lag *before* refreshing: this is the staleness the
        # ranker accrued while the stream raced ahead, and it is what the
        # staleness gauges should show. The refresh then catches up.
        report.lags.append(ranker.record_staleness())
        ranker.scores()
