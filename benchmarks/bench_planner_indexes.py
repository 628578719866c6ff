"""E13 — cost-based planner index probes vs the scan paths.

Two gates guard this PR's tentpole (docs/QUERY_PLANNING.md):

- **B+-tree range probe.** A selective range predicate on a 50k-row
  table must run >= 3x faster through the cost-based planner (which
  prices the B+-tree range probe below the scan) than on an unindexed
  ``Database()`` holding the same rows, where the planner's only path
  is the SeqScan that evaluates the WHERE expression against every row.
- **R-tree bbox probe.** The SMR's R-tree, which every ``register()``
  keeps current, must answer the engine's bounding-box constraints >= 5x
  faster than a linear scan: one ``smr.locations()`` snapshot per box,
  then ``BoundingBox.contains`` against every located page's location.

Both sections assert the compared paths return *identical* rows/titles
first — the speedups are never bought with a behavior change. Results go
to ``benchmarks/results/planner_indexes.txt``.

``REPRO_BENCH_SMOKE=1`` shrinks the table and corpus and keeps only the
identity assertions — the timing gates are meaningless at smoke scale.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.engine import AdvancedSearchEngine
from repro.relational import Database
from repro.smr.repository import SensorMetadataRepository

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

RANGE_ROWS = 2_000 if SMOKE else 50_000
RANGE_REPEATS = 2 if SMOKE else 10
RANGE_MIN_SPEEDUP = 3.0

BBOX_PAGES = 200 if SMOKE else 4_000
BBOX_REPEATS = 5 if SMOKE else 300
BBOX_MIN_SPEEDUP = 5.0

RANGE_QUERY = "SELECT id, v FROM m WHERE v >= 50.0 AND v <= 51.0"
BBOXES = [
    (46.0, 6.0, 47.0, 8.0),  # (south, west, north, east)
    (44.5, 9.0, 45.5, 10.0),
    (48.0, 5.0, 48.2, 11.0),
]


def _time(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return time.perf_counter() - start


def _make_range_dbs(rows: int):
    """Identical 50k-row data; only one database gets the B+-tree."""
    indexed = Database()
    unindexed = Database()
    ddl = "CREATE TABLE m (id INTEGER PRIMARY KEY, v REAL, tag TEXT)"
    indexed.execute(ddl)
    unindexed.execute(ddl)
    indexed.execute("CREATE INDEX idx_v ON m(v) USING btree")
    rng = random.Random(17)
    payload = [
        {"id": i, "v": round(rng.uniform(0.0, 100.0), 4), "tag": f"t{i % 64}"}
        for i in range(rows)
    ]
    indexed.insert_many("m", payload)
    unindexed.insert_many("m", payload)
    return indexed, unindexed


def test_btree_range_vs_seq_scan(write_result):
    """Planner + B+-tree >= 3x over the unindexed full scan."""
    indexed, unindexed = _make_range_dbs(RANGE_ROWS)

    # Identity first: byte-identical rows, including order.
    expected = unindexed.execute(RANGE_QUERY).rows
    assert indexed.execute(RANGE_QUERY).rows == expected
    assert len(expected) > 0, "gate query must actually select rows"
    plan_line = indexed.execute(f"EXPLAIN {RANGE_QUERY}").rows[0][0]
    assert plan_line.startswith("RangeIndexScan"), plan_line
    seq_line = unindexed.execute(f"EXPLAIN {RANGE_QUERY}").rows[0][0]
    assert seq_line.startswith("SeqScan"), seq_line

    seq_s = _time(lambda: unindexed.execute(RANGE_QUERY), RANGE_REPEATS)
    idx_s = _time(lambda: indexed.execute(RANGE_QUERY), RANGE_REPEATS)
    speedup = seq_s / idx_s if idx_s else float("inf")

    lines = [
        "B+-tree range probe vs unindexed sequential scan",
        f"rows={RANGE_ROWS} repeats={RANGE_REPEATS} matches={len(expected)}",
        f"plan: {plan_line}",
        f"seq_scan_s={seq_s:.4f} btree_s={idx_s:.4f} speedup={speedup:.1f}x "
        f"(gate >= {RANGE_MIN_SPEEDUP}x)",
    ]
    if not SMOKE:
        assert speedup >= RANGE_MIN_SPEEDUP, "\n".join(lines)

    bbox_lines = _bbox_section()
    write_result(
        "planner_indexes.txt", "\n".join(lines + [""] + bbox_lines) + "\n"
    )


def _bbox_smr(pages: int) -> SensorMetadataRepository:
    smr = SensorMetadataRepository()
    rng = random.Random(23)
    for i in range(pages):
        smr.register(
            "station",
            f"Station:GRID-{i:05d}",
            [
                ("name", f"GRID-{i:05d}"),
                ("latitude", round(rng.uniform(43.0, 49.0), 4)),
                ("longitude", round(rng.uniform(5.0, 12.0), 4)),
            ],
        )
    return smr


def _bbox_section() -> list:
    """R-tree bbox probe >= 5x over the linear scan."""
    from repro.geo.bbox import BoundingBox

    smr = _bbox_smr(BBOX_PAGES)
    boxes = [BoundingBox(s, w, n, e) for s, w, n, e in BBOXES]

    def probe(box):
        """The engine's bbox constraint: one R-tree probe."""
        return smr.titles_in_box(box.south, box.north, box.west, box.east)

    def scan(box):
        """The linear scan: a box test per located page."""
        return {title for title, location in smr.locations().items() if box.contains(location)}

    # Identity first. Both paths read lookups the writes above already
    # built, so the gate times probes, not builds.
    for box in boxes:
        assert probe(box) == scan(box)

    def run(path):
        for box in boxes:
            path(box)

    scan_s = _time(lambda: run(scan), BBOX_REPEATS)
    probe_s = _time(lambda: run(probe), BBOX_REPEATS)
    speedup = scan_s / probe_s if probe_s else float("inf")

    lines = [
        "R-tree bbox probe vs linear scan",
        f"pages={BBOX_PAGES} boxes={len(boxes)} repeats={BBOX_REPEATS}",
        f"rtree: {AdvancedSearchEngine(smr, cache=None).spatial_index_info()}",
        f"scan_s={scan_s:.4f} rtree_s={probe_s:.4f} speedup={speedup:.1f}x "
        f"(gate >= {BBOX_MIN_SPEEDUP}x)",
    ]
    if not SMOKE:
        assert speedup >= BBOX_MIN_SPEEDUP, "\n".join(lines)
    return lines
