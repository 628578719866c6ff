"""The Sensor Metadata Repository (SMR) — paper Section II and Fig. 6.

The SMR stores every metadata page three ways at once, exactly like the
production system: as a semantic wiki page (authoring surface), as a row
in a typed relational table (SQL queries), and as RDF triples (SPARQL
queries). :class:`~repro.smr.repository.SensorMetadataRepository` keeps
the three in sync; :mod:`repro.smr.bulkload` is the Bulk-loading
Interface of Fig. 6; :mod:`repro.smr.model` gives typed record classes;
:mod:`repro.smr.validation` is the record validator the loader runs.
:mod:`repro.smr.rwlock` supplies the reentrant reader–writer lock the
facade holds so concurrent searches can read all three stores while
authors and the bulk loader write.
"""

from repro.smr.model import (
    Deployment,
    FieldSite,
    Institution,
    KIND_ORDER,
    Sensor,
    Station,
    record_class_for,
)
from repro.smr.repository import SensorMetadataRepository, default_schema_mapping
from repro.smr.rwlock import ReadWriteLock
from repro.smr.bulkload import BulkLoader, BulkLoadReport
from repro.smr.dump import export_dump, export_json, restore, restore_json
from repro.smr.validation import validate_record

__all__ = [
    "Institution",
    "FieldSite",
    "Deployment",
    "Station",
    "Sensor",
    "KIND_ORDER",
    "record_class_for",
    "ReadWriteLock",
    "SensorMetadataRepository",
    "default_schema_mapping",
    "BulkLoader",
    "BulkLoadReport",
    "export_dump",
    "export_json",
    "restore",
    "restore_json",
    "validate_record",
]
