"""Declarative SLOs with rolling error budgets and burn-rate alerts.

The demo paper's system is an always-on community service; running one
means deciding — ahead of an incident — what "healthy" is. This module
encodes that decision as data: a small set of **service level
objectives** over the time series :mod:`repro.obs.timeseries` retains,
each with an error budget and multi-window **burn-rate** alerting (the
Google SRE workbook recipe): an alert fires only when the budget is
burning fast over *both* a long and a short window, which keeps a brief
spike from paging while still catching a sustained regression in
minutes.

Three SLI shapes cover the repo's surfaces:

- :class:`AvailabilitySlo` — good/total request ratio from a labelled
  counter (``http_requests_total``; 5xx statuses are the errors);
- :class:`LatencySlo` — the fraction of a histogram's observations over
  a threshold (``http_request_seconds{endpoint=/api/search}`` p95-style
  objectives phrased as "95 % of requests under 0.25 s");
- :class:`FreshnessSlo` — the fraction of gauge samples over a limit
  (``ranking_staleness_generations``: how often the ranker lags the
  write stream — the staleness-lag series the ROADMAP's
  streaming-ingestion item calls for).

Burn rate is ``observed_error_fraction / allowed_error_fraction`` where
the allowed fraction is the budget ``1 - objective``. A burn rate of 1.0
spends exactly the budget over the SLO period; the default windows fire
**fast** at 14.4x (a 99.9 % budget gone in ~2 % of the period) and
**slow** at 6x. :class:`SloEvaluator` runs after every sampler tick,
keeps a bounded alert history, and feeds three surfaces: ``/api/alerts``
(JSON), the ``slo`` probe on ``/healthz`` (a firing fast-burn alert
degrades the service), and the ``/debug/dashboard`` operator page.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.timeseries import HistogramSeries, TimeSeriesStore


class BurnWindow(NamedTuple):
    """One multi-window burn-rate rule.

    ``severity`` names the alert class ("fast" or "slow");
    ``long_seconds`` / ``short_seconds`` are the two windows that must
    *both* exceed ``factor`` times the budget burn for the alert to
    fire; recovery is judged on the short window alone, so alerts
    resolve quickly once the regression stops.
    """

    severity: str
    long_seconds: float
    short_seconds: float
    factor: float


#: Windows scaled for an interactive demo service (sampler ticks every
#: few seconds); production deployments would use 1h/5m and 6h/30m.
DEFAULT_BURN_WINDOWS: tuple = (
    BurnWindow("fast", 60.0, 15.0, 14.4),
    BurnWindow("slow", 300.0, 60.0, 6.0),
)

#: The search latency objective's threshold: 95 % of ``/api/search``
#: requests should finish under it, and a search at or above it emits
#: the engine's ``engine.slow_query`` event.
SEARCH_SLO_SECONDS = 0.25


class SloDefinition:
    """Base class: an objective plus a way to measure error fraction."""

    kind = "abstract"

    def __init__(
        self,
        name: str,
        objective: float,
        description: str = "",
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
    ):
        if not 0.0 < objective < 1.0:
            raise ObservabilityError(
                f"SLO objective must be in (0, 1), got {objective}"
            )
        self.name = name
        self.objective = objective
        self.description = description
        self.windows = tuple(windows)

    @property
    def budget(self) -> float:
        """The allowed error fraction, ``1 - objective``."""
        return 1.0 - self.objective

    def error_fraction(
        self, store: TimeSeriesStore, window: float, now: float
    ) -> Optional[float]:
        """Observed error fraction over the trailing window; None = no data."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Static JSON description (no measurements)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "budget": self.budget,
            "description": self.description,
        }


class AvailabilitySlo(SloDefinition):
    """Good/total ratio from a labelled request counter.

    A request is an error when its ``status_label`` value starts with
    ``error_prefix`` (default: HTTP 5xx). 4xx responses are the caller's
    fault and do not burn the service's budget.
    """

    kind = "availability"

    def __init__(
        self,
        name: str = "availability",
        objective: float = 0.999,
        metric: str = "http_requests_total",
        status_label: str = "status",
        error_prefix: str = "5",
        description: str = "Non-5xx responses over all HTTP responses.",
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
    ):
        super().__init__(name, objective, description, windows)
        self.metric = metric
        self.status_label = status_label
        self.error_prefix = error_prefix

    def error_fraction(
        self, store: TimeSeriesStore, window: float, now: float
    ) -> Optional[float]:
        total = bad = 0.0
        seen = False
        for labels, series in store.series(self.metric):
            if isinstance(series, HistogramSeries):
                continue
            change = series.delta(window, now)
            if change is None:
                continue
            seen = True
            total += change
            if str(labels.get(self.status_label, "")).startswith(self.error_prefix):
                bad += change
        if not seen or total <= 0:
            return None
        return bad / total


class LatencySlo(SloDefinition):
    """Fraction of histogram observations over a latency threshold.

    The objective reads "``objective`` of requests complete under
    ``threshold_seconds``" — e.g. objective 0.95 with a 0.25 s threshold
    is a p95 <= 250 ms target. The error fraction comes from windowed
    bucket deltas: observations in buckets whose upper bound exceeds the
    threshold count against the budget (a threshold between bucket
    bounds is therefore judged conservatively at the next bound down).
    """

    kind = "latency"

    def __init__(
        self,
        name: str,
        objective: float,
        threshold_seconds: float,
        metric: str = "http_request_seconds",
        labels: Optional[Dict[str, str]] = None,
        description: str = "",
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
    ):
        if threshold_seconds <= 0:
            raise ObservabilityError(
                f"latency threshold must be positive, got {threshold_seconds}"
            )
        super().__init__(
            name,
            objective,
            description
            or f"{objective:.0%} of requests under {threshold_seconds * 1000:g} ms.",
            windows,
        )
        self.metric = metric
        self.labels = dict(labels or {})
        self.threshold_seconds = threshold_seconds

    def error_fraction(
        self, store: TimeSeriesStore, window: float, now: float
    ) -> Optional[float]:
        total = slow = 0
        seen = False
        for _, series in store.matching(self.metric, self.labels):
            if not isinstance(series, HistogramSeries):
                continue
            pts = series.points(window, now)
            if len(pts) < 2:
                continue
            seen = True
            deltas = series._interval_delta(pts[0], pts[-1])
            # Intervals 0..good_intervals-1 have upper bounds <= threshold.
            good_intervals = bisect_right(series.bounds, self.threshold_seconds)
            total += sum(deltas)
            slow += sum(deltas[good_intervals:])
        if not seen or total == 0:
            return None
        return slow / total


class FreshnessSlo(SloDefinition):
    """Fraction of gauge samples above a staleness limit.

    Applied to ``ranking_staleness_generations``, the objective reads
    "the ranker reflects every SMR write in at least ``objective`` of
    sampled moments" — the series form of the `/healthz` ranker probe.
    """

    kind = "freshness"

    def __init__(
        self,
        name: str = "ranker_freshness",
        objective: float = 0.90,
        metric: str = "ranking_staleness_generations",
        max_value: float = 0.0,
        labels: Optional[Dict[str, str]] = None,
        description: str = "",
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
    ):
        super().__init__(
            name,
            objective,
            description or f"Staleness lag <= {max_value:g} in {objective:.0%} of samples.",
            windows,
        )
        self.metric = metric
        self.max_value = max_value
        self.labels = dict(labels or {})

    def error_fraction(
        self, store: TimeSeriesStore, window: float, now: float
    ) -> Optional[float]:
        total = stale = 0
        for _, series in store.matching(self.metric, self.labels):
            if isinstance(series, HistogramSeries):
                continue
            for _, value in series.points(window, now):
                total += 1
                if value > self.max_value:
                    stale += 1
        if total == 0:
            return None
        return stale / total


def default_slos() -> List[SloDefinition]:
    """The repo's stock SLO set, matching the demo's operational posture.

    - 99.9 % availability over every HTTP endpoint;
    - 95 % of ``/api/search`` requests under :data:`SEARCH_SLO_SECONDS`
      (250 ms, also the engine's slow-query threshold);
    - ranker staleness lag zero in 90 % of sampled moments.
    """
    return [
        AvailabilitySlo(),
        LatencySlo(
            name="search_latency",
            objective=0.95,
            threshold_seconds=SEARCH_SLO_SECONDS,
            metric="http_request_seconds",
            labels={"endpoint": "/api/search"},
        ),
        FreshnessSlo(),
    ]


class Alert(dict):
    """One alert as a JSON-ready dict (fired, maybe later resolved).

    A plain dict subclass so the evaluator can mutate ``resolved_at`` on
    the instance already sitting in the history ring — history shows the
    full lifecycle without a second record.
    """


class SloEvaluator:
    """Evaluates every SLO after each sampler tick; keeps alert state.

    State machine per ``(slo, severity)``: *firing* when both burn-rate
    windows exceed the rule's factor, *resolved* when the short window
    drops back under it. Fired and resolved transitions append to a
    bounded history ring; :meth:`firing` lists the active alerts for
    `/healthz` and the dashboard.
    """

    def __init__(
        self,
        slos: Optional[Sequence[SloDefinition]] = None,
        history: int = 256,
    ):
        if history <= 0:
            raise ObservabilityError(f"alert history must be positive, got {history}")
        self.slos: List[SloDefinition] = list(slos or [])
        self.enabled = True
        self._active: Dict[tuple, Alert] = {}
        self._history: deque = deque(maxlen=history)
        self._lock = threading.Lock()
        self.evaluations = 0

    def enable(self) -> None:
        """Turn evaluation on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn evaluation off; existing alert state is frozen."""
        self.enabled = False

    # -- evaluation ------------------------------------------------------

    def _burn_rate(
        self, slo: SloDefinition, store: TimeSeriesStore, window: float, now: float
    ) -> Optional[float]:
        fraction = slo.error_fraction(store, window, now)
        if fraction is None:
            return None
        return fraction / slo.budget

    def evaluate(self, store: TimeSeriesStore, now: float) -> List[Alert]:
        """One evaluation pass; returns alerts that *changed* state."""
        if not self.enabled:
            return []
        changed: List[Alert] = []
        with self._lock:
            self.evaluations += 1
            for slo in self.slos:
                for rule in slo.windows:
                    key = (slo.name, rule.severity)
                    burn_long = self._burn_rate(slo, store, rule.long_seconds, now)
                    burn_short = self._burn_rate(slo, store, rule.short_seconds, now)
                    active = self._active.get(key)
                    should_fire = (
                        burn_long is not None
                        and burn_short is not None
                        and burn_long >= rule.factor
                        and burn_short >= rule.factor
                    )
                    if active is None and should_fire:
                        alert = Alert(
                            slo=slo.name,
                            kind=slo.kind,
                            severity=rule.severity,
                            factor=rule.factor,
                            burn_rate_long=burn_long,
                            burn_rate_short=burn_short,
                            long_seconds=rule.long_seconds,
                            short_seconds=rule.short_seconds,
                            objective=slo.objective,
                            fired_at=now,
                            resolved_at=None,
                            message=(
                                f"{slo.name}: error budget burning at "
                                f"{burn_long:.1f}x (>= {rule.factor:g}x) over "
                                f"{rule.long_seconds:g}s and {rule.short_seconds:g}s"
                            ),
                        )
                        self._active[key] = alert
                        self._history.append(alert)
                        changed.append(alert)
                        self._alert_event(alert, fired=True)
                    elif active is not None:
                        # Keep the live burn rates current while firing.
                        if burn_long is not None:
                            active["burn_rate_long"] = burn_long
                        if burn_short is not None:
                            active["burn_rate_short"] = burn_short
                        recovered = (
                            burn_short is not None and burn_short < rule.factor
                        )
                        if recovered:
                            active["resolved_at"] = now
                            del self._active[key]
                            changed.append(active)
                            self._alert_event(active, fired=False)
        return changed

    @staticmethod
    def _alert_event(alert: Alert, fired: bool) -> None:
        from repro.obs.log import get_event_log
        from repro.obs.metrics import get_registry

        log = get_event_log()
        event = "slo.alert_fired" if fired else "slo.alert_resolved"
        emit = log.warning if fired else log.info
        emit(
            event,
            slo=alert["slo"],
            severity=alert["severity"],
            burn_rate=alert["burn_rate_long"],
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "slo_alerts_total",
                "SLO alert transitions per objective, severity and phase.",
                labels=("slo", "severity", "phase"),
            ).labels(
                alert["slo"], alert["severity"], "fired" if fired else "resolved"
            ).inc()

    # -- inspection ------------------------------------------------------

    def firing(self) -> List[Alert]:
        """Currently-active alerts, fast severities first."""
        with self._lock:
            active = list(self._active.values())
        return sorted(active, key=lambda a: (a["severity"] != "fast", a["slo"]))

    def history(self, k: int = 50) -> List[Alert]:
        """The most recent ``k`` alert records, newest first."""
        with self._lock:
            records = list(self._history)
        return records[::-1][:k]

    def snapshot(self, store: TimeSeriesStore, now: float) -> List[Dict[str, Any]]:
        """Per-SLO status: objective, budget, live burn rates per window."""
        out: List[Dict[str, Any]] = []
        for slo in self.slos:
            entry = slo.describe()
            entry["windows"] = []
            for rule in slo.windows:
                key = (slo.name, rule.severity)
                with self._lock:
                    firing = key in self._active
                entry["windows"].append(
                    {
                        "severity": rule.severity,
                        "long_seconds": rule.long_seconds,
                        "short_seconds": rule.short_seconds,
                        "factor": rule.factor,
                        "burn_rate_long": self._burn_rate(
                            slo, store, rule.long_seconds, now
                        ),
                        "burn_rate_short": self._burn_rate(
                            slo, store, rule.short_seconds, now
                        ),
                        "firing": firing,
                    }
                )
            out.append(entry)
        return out
