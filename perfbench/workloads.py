"""The three workloads: set-up, timed operations, and their checks.

A workload owns its seeded inputs (built once, untimed), builds a ready
app in :meth:`Workload.setup` (timed as ``setup_s``), and executes its
fixed operation list round by round: :meth:`Workload.next_round` hands
out the next fixed group of operations, whose read shapes keep their
shares constant however many rounds a run completes, and
:meth:`Workload.run_op` times and checks one of them.

All requests go through :func:`perfbench.client.call` (looked up on the
module at call time, so the traced run can wrap it).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import AdvancedSearchEngine
from repro.perf import pool as perf_pool
from repro.perf import procpool
from repro.smr.repository import SensorMetadataRepository
from repro.web.app import create_app
from repro.workloads.stream import MutationStream

from perfbench import checks, client, hostspeed, inputs

#: Failure messages kept verbatim in a run's report (the rest are counted).
MAX_FAILURE_MESSAGES = 5

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Sample:
    """What one measured phase did, operation by operation."""

    #: Operations started, including any that raised.
    attempted: int = 0
    #: Per-operation wall seconds (all requests and writes of the op).
    ops: List[float] = field(default_factory=list)
    #: Per read request (search) wall seconds.
    reads: List[float] = field(default_factory=list)
    #: Per ``register()`` write wall seconds.
    writes: List[float] = field(default_factory=list)
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Checked reads that returned at least one result.
    nonempty: int = 0
    #: Unscaled wall seconds of all operations.
    wall: float = 0.0
    #: Per-operation host-speed scale applied to its timings.
    scales: List[float] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(reason)

    def mark(self) -> Tuple[int, int, int]:
        return len(self.ops), len(self.reads), len(self.writes)

    def rescale(self, mark: Tuple[int, int, int], scale: float) -> None:
        """Scale every timing recorded since ``mark`` (one operation's) by ``scale``."""
        self.wall += sum(self.ops[mark[0] :])
        for values, start in zip((self.ops, self.reads, self.writes), mark):
            values[start:] = [value * scale for value in values[start:]]
        self.scales.append(scale)


@dataclass
class Deployment:
    """A ready app and the objects behind it."""

    smr: SensorMetadataRepository
    engine: AdvancedSearchEngine
    app: Any

    def close(self) -> None:
        self.app.close()


def release_pools() -> None:
    """Stop the program's default worker pools (they restart lazily).

    Called between set-ups so every set-up pays the first-use cost of
    the pools, as a freshly started server would.
    """
    procpool.shutdown_process_pool()
    perf_pool.get_pool().shutdown()


def timed_phase(work: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``work``; return its result and its wall time at reference host speed."""
    before = hostspeed.steady_calibrate()
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    return result, elapsed * hostspeed.factor(before, hostspeed.steady_calibrate())


def timed_search(app: Any, text: str, sample: Sample) -> Tuple[str, bytes]:
    """One search request, recorded as both a read and a whole operation."""
    started = time.perf_counter()
    status, body = client.call(app, "GET", "/api/search", {"q": text})
    elapsed = time.perf_counter() - started
    sample.reads.append(elapsed)
    sample.ops.append(elapsed)
    return status, body


class Workload:
    """Base class: seeded inputs, a timed set-up, and timed rounds."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = inputs.make_corpus(self.name, seed)
        self.lists = inputs.query_lists(seed)
        #: The calibration that closed the previous operation.
        self.calibration: Optional[float] = None

    # -- set-up -----------------------------------------------------------

    def load(self) -> SensorMetadataRepository:
        return SensorMetadataRepository.from_corpus(self.corpus)

    def setup(self) -> Tuple[Deployment, Dict[str, float]]:
        """Build a ready app; return it with per-phase seconds.

        ``load`` is the corpus into the SMR (plus any seeded writes),
        ``rank`` the engine and the first PageRank solve, ``warm`` the
        app plus one request per read shape (RDF export, R-tree, IRI map,
        planner catalog and first pool use). Each phase's time is scaled
        to the reference host speed (:mod:`perfbench.hostspeed`).
        """
        smr, load = timed_phase(self.load)

        def rank() -> AdvancedSearchEngine:
            engine = AdvancedSearchEngine(smr)
            engine.ranker.scores()
            return engine

        engine, rank_s = timed_phase(rank)
        deployment, warm = timed_phase(lambda: self.build_app(smr, engine))
        return deployment, {"load": load, "rank": rank_s, "warm": warm}

    def build_app(self, smr, engine) -> Deployment:
        deployment = Deployment(smr, engine, create_app(engine))
        for text in self.lists.warm:
            status, body = client.call(deployment.app, "GET", "/api/search", {"q": text})
            verdict, _ = checks.check_search(text, status, body)
            if verdict is not None:
                raise RuntimeError(f"warm-up query {text!r} failed: {verdict}")
        return deployment

    def prepare(self, deployment: Deployment) -> None:
        """Untimed work between the last set-up and the first round."""

    # -- measurement ----------------------------------------------------

    def next_round(self, deployment: Deployment) -> Optional[List[Any]]:
        """The next round's operations; ``None`` once the list is exhausted."""
        raise NotImplementedError

    def run_op(self, deployment: Deployment, op: Any, sample: Sample) -> None:
        """Time one operation and check its responses."""
        raise NotImplementedError

    def run_round(self, deployment: Deployment, sample: Sample) -> bool:
        """Run one round; False once the operation list is exhausted.

        An operation that raises is a failed operation; the run goes on.
        A calibration follows every operation, and the operation's timings
        are scaled by the two calibrations around it.
        """
        ops = self.next_round(deployment)
        if ops is None:
            return False
        if self.calibration is None:
            self.calibration = hostspeed.calibrate()
        for op in ops:
            sample.attempted += 1
            mark = sample.mark()
            try:
                self.run_op(deployment, op, sample)
            except Exception as exc:  # noqa: BLE001 — counted as a failure, never fatal
                sample.fail(f"{type(self).__name__} operation raised {exc!r}")
            after = hostspeed.calibrate()
            sample.rescale(mark, hostspeed.factor(self.calibration, after))
            self.calibration = after
        return True

    def read_queries(self) -> List[str]:
        """Search queries for the cache-bypassed obs-overhead comparison."""
        return []


class SearchCold(Workload):
    """Distinct queries of seven shapes; the result cache never hits."""

    name = "search_cold"

    def __init__(self, seed: int):
        super().__init__(seed)
        stream = MutationStream(self.corpus, seed=seed)
        self.prefix = stream.events(inputs.SEARCH_STREAM_PREFIX)
        self.cursor = 0

    def load(self) -> SensorMetadataRepository:
        smr = super().load()
        for event in self.prefix:
            event.apply(smr)
        return smr

    def read_queries(self) -> List[str]:
        return self.lists.hot

    def next_round(self, deployment: Deployment) -> List[str]:
        queries = self.lists.cold
        if self.cursor >= len(queries):
            # List exhausted: start it again with an empty result cache,
            # so every timed query is still a cache miss.
            deployment.engine.cache.clear()
            self.cursor = 0
        size = len(inputs.COLD_SHAPES)
        self.cursor += size
        return queries[self.cursor - size : self.cursor]

    def run_op(self, deployment: Deployment, text: str, sample: Sample) -> None:
        status, body = timed_search(deployment.app, text, sample)
        verdict, payload = checks.check_search(text, status, body)
        if verdict is not None:
            sample.fail(f"{text}: {verdict}")
        elif payload["results"]:
            sample.nonempty += 1


class SearchHot(SearchCold):
    """A small set of popular queries, every timed request a cache hit."""

    name = "search_hot"

    def read_queries(self) -> List[str]:
        return self.lists.cold[: len(self.lists.hot)]

    def prepare(self, deployment: Deployment) -> None:
        # The warm-up pass: the first, uncached payload of each query is
        # the reference every later cache hit must equal.
        self.reference: Dict[str, Any] = {}
        for text in self.lists.hot:
            status, body = client.call(deployment.app, "GET", "/api/search", {"q": text})
            verdict, payload = checks.check_search(text, status, body)
            if verdict is not None:
                raise RuntimeError(f"hot query {text!r} failed on its first run: {verdict}")
            self.reference[text] = payload

    def next_round(self, deployment: Deployment) -> List[str]:
        return self.lists.hot  # one round cycles the whole set

    def run_op(self, deployment: Deployment, text: str, sample: Sample) -> None:
        status, body = timed_search(deployment.app, text, sample)
        verdict = checks.check_hot(status, body, self.reference[text])
        if verdict is not None:
            sample.fail(f"{text}: {verdict}")
        elif self.reference[text]["results"]:
            sample.nonempty += 1


class IngestMixed(Workload):
    """register() writes from a mutation stream, each followed by a read."""

    name = "ingest_mixed"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.prefix, self.plan = inputs.ingest_plan(self.corpus, seed)
        self.cursor = 0

    def load(self) -> SensorMetadataRepository:
        smr = super().load()
        for event in self.prefix:
            event.apply(smr)
        return smr

    def read_queries(self) -> List[str]:
        return self.lists.warm

    def next_round(self, deployment: Deployment) -> Optional[List[inputs.IngestOp]]:
        size = len(inputs.INGEST_SHAPES)
        ops = self.plan[self.cursor : self.cursor + size]
        if len(ops) < size:
            return None
        self.cursor += size
        return ops

    def run_op(self, deployment: Deployment, op: inputs.IngestOp, sample: Sample) -> None:
        started = time.perf_counter()
        op.event.apply(deployment.smr)
        wrote = time.perf_counter()
        status, body = client.call(deployment.app, "GET", "/api/search", {"q": op.query})
        done = time.perf_counter()
        sample.writes.append(wrote - started)
        sample.reads.append(done - wrote)
        sample.ops.append(done - started)
        verdict = checks.check_read_after_write(op.query, status, body, op.expect)
        if verdict is not None:
            sample.fail(f"{op.event.event} {op.event.title} / {op.query}: {verdict}")
        else:
            sample.nonempty += 1


WORKLOADS = {cls.name: cls for cls in (SearchCold, SearchHot, IngestMixed)}


def build(workload: Workload) -> Tuple[Deployment, List[Dict[str, float]]]:
    """Set up repeatedly; keep the last deployment, return every set-up's phases.

    Each earlier deployment is closed and collected, and the default
    pools are stopped, before the next set-up starts.
    """
    phases: List[Dict[str, float]] = []
    deployment: Optional[Deployment] = None
    for _ in range(SETUPS):
        if deployment is not None:
            deployment.close()
            deployment = None
            release_pools()
            gc.collect()
        deployment, phase = workload.setup()
        phases.append(phase)
    workload.prepare(deployment)
    gc.collect()
    return deployment, phases
