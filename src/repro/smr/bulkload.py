"""The Bulk-loading Interface (paper, Fig. 6).

"Users can upload huge volume of metadata to the SMR" — here via CSV or
JSON. Records are validated (:mod:`repro.smr.validation`), typed through
the record classes, and registered into every store. Per-record failures
are collected into the report rather than aborting the batch, matching
how a web bulk-loader must behave; ``strict=True`` flips that to
fail-fast.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import BulkLoadError, ReproError
from repro.smr.model import KIND_ORDER, record_class_for
from repro.smr.repository import SensorMetadataRepository
from repro.smr.validation import validate_record
from repro.wiki.wikitext import coerce_annotation_value


@dataclass
class BulkLoadReport:
    """Outcome of one bulk-load run."""

    loaded: int = 0
    errors: List[Tuple[int, str]] = field(default_factory=list)  # (row, message)

    @property
    def attempted(self) -> int:
        return self.loaded + len(self.errors)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        """One-line human summary of the load outcome."""
        return f"loaded {self.loaded}/{self.attempted} records, {len(self.errors)} errors"


def _prepare_record(
    kind: str, record: Dict[str, Any]
) -> Tuple[Optional[Any], Optional[str]]:
    """Validate and type one record: ``(typed, None)`` or ``(None, error)``."""
    issues = validate_record(kind, record)
    if issues:
        return None, "; ".join(issues)
    try:
        return record_class_for(kind).from_record(record), None
    except ReproError as exc:
        return None, str(exc)


class BulkLoader:
    """Feeds batches of records into a repository.

    :meth:`load_records` validates, types and registers each record in
    row order, so strict mode raises at the *first* failing row.
    """

    def __init__(self, smr: SensorMetadataRepository, strict: bool = False):
        self.smr = smr
        self.strict = strict

    # ------------------------------------------------------------------
    # Formats
    # ------------------------------------------------------------------

    def load_csv(self, kind: str, text: str) -> BulkLoadReport:
        """Load CSV with a header row; values are typed heuristically."""
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise BulkLoadError("CSV input has no header row")
        records = []
        for raw in reader:
            record = {
                key: coerce_annotation_value(value) if value is not None else None
                for key, value in raw.items()
                if key is not None
            }
            # Empty strings mean "absent" in CSV exports.
            records.append({k: (None if v == "" else v) for k, v in record.items()})
        obs.get_event_log().debug(
            "bulkload.parse", format="csv", kind=kind, rows=len(records)
        )
        return self.load_records(kind, records)

    def load_json(self, kind: str, text: str) -> BulkLoadReport:
        """Load a JSON array of objects."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BulkLoadError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise BulkLoadError("JSON bulk input must be an array of objects")
        for i, item in enumerate(data, start=1):
            if not isinstance(item, dict):
                raise BulkLoadError(f"record {i} is not an object", row=i)
        obs.get_event_log().debug(
            "bulkload.parse", format="json", kind=kind, rows=len(data)
        )
        return self.load_records(kind, data)

    # ------------------------------------------------------------------
    # Core
    # ------------------------------------------------------------------

    def load_records(self, kind: str, records: Iterable[Dict[str, Any]]) -> BulkLoadReport:
        """Validate and register ``records`` of ``kind``."""
        kind = kind.lower()
        if kind not in KIND_ORDER:
            raise BulkLoadError(f"unknown kind {kind!r}; known: {KIND_ORDER}")
        report = BulkLoadReport()
        start = time.perf_counter()
        with obs.get_tracer().span("bulkload.batch", kind=kind) as span:
            for row_number, record in enumerate(records, start=1):
                typed, error = _prepare_record(kind, record)
                if error is not None:
                    self._fail(report, row_number, error)
                    continue
                try:
                    self.smr.register(kind, typed.title, typed.annotations())
                except ReproError as exc:
                    self._fail(report, row_number, str(exc))
                    continue
                report.loaded += 1
            span.set_attribute("loaded", report.loaded)
            span.set_attribute("errors", len(report.errors))
            # Every registered record bumped the SMR generation, which
            # is what lazily invalidates query-result caches downstream.
            span.set_attribute("generation", self.smr.mutation_count)
        self._record_batch(kind, report, time.perf_counter() - start)
        return report

    def _record_batch(self, kind: str, report: BulkLoadReport, elapsed: float) -> None:
        """Report one finished batch to the default metrics registry."""
        obs.get_event_log().info(
            "bulkload.batch",
            kind=kind,
            loaded=report.loaded,
            errors=len(report.errors),
            seconds=elapsed,
            generation=self.smr.mutation_count,
        )
        registry = obs.get_registry()
        if not registry.enabled:
            return
        records = registry.counter(
            "bulkload_records_total",
            "Bulk-loaded records per kind and outcome.",
            labels=("kind", "status"),
        )
        records.labels(kind, "loaded").inc(report.loaded)
        records.labels(kind, "error").inc(len(report.errors))
        registry.histogram(
            "bulkload_batch_seconds", "Wall-clock seconds per bulk-load batch."
        ).observe(elapsed)
        if elapsed > 0:
            registry.gauge(
                "bulkload_pages_per_second",
                "Throughput of the most recent bulk-load batch.",
            ).set(report.loaded / elapsed)
        registry.gauge(
            "smr_generation",
            "SMR mutation counter after the most recent bulk-load batch; "
            "query caches stamped with older generations are stale.",
        ).set(float(self.smr.mutation_count))

    def load_corpus_dump(self, dump: Dict[str, List[Dict[str, Any]]]) -> BulkLoadReport:
        """Load a multi-kind dump ``{kind: [records...]}`` in dependency order."""
        combined = BulkLoadReport()
        for kind in KIND_ORDER:
            if kind not in dump:
                continue
            partial = self.load_records(kind, dump[kind])
            combined.loaded += partial.loaded
            combined.errors.extend(partial.errors)
        unknown = set(dump) - set(KIND_ORDER)
        if unknown:
            raise BulkLoadError(f"dump contains unknown kinds: {sorted(unknown)}")
        return combined

    def _fail(self, report: BulkLoadReport, row: int, message: str) -> None:
        if self.strict:
            raise BulkLoadError(f"row {row}: {message}", row=row)
        report.errors.append((row, message))
