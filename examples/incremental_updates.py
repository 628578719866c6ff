"""Continuous metadata growth: incremental ranking and cloud refreshes.

The paper (Section III): "Pagerank scores need to be updated regularly as
new metadata pages are continuously created." This example simulates that
operation: batches of new stations/sensors stream in; after each batch
the ranking refreshes from the previous solution (warm start) and the tag
cloud rebuilds only when the tag store changed.

Run:  python examples/incremental_updates.py
"""

import random

from repro import build_demo_engine
from repro.tagging import TaggingSystem
from repro.workloads import names


def main() -> None:
    engine = build_demo_engine(seed=5)
    engine.ranker.tol = 1e-10
    tagging = TaggingSystem()
    tagging.sync_from_smr(engine.smr, ["sensor_type", "project"])
    rng = random.Random(99)

    engine.ranker.scores()
    print(
        f"Initial corpus: {engine.smr.page_count} pages; "
        f"cold solve took {engine.ranker.last_refresh_iterations} iterations"
    )

    deployments = engine.smr.titles("deployment")
    for batch in range(1, 4):
        # A batch of new stations + sensors arrives.
        for i in range(8):
            station_title = f"Station:BATCH{batch}-{i:02d}"
            engine.smr.register(
                "station",
                station_title,
                [
                    ("name", f"BATCH{batch}-{i:02d}"),
                    ("deployment", rng.choice(deployments)),
                    ("status", "online"),
                ],
            )
            sensor_type = rng.choice(names.SENSOR_TYPES)
            engine.smr.register(
                "sensor",
                f"Sensor:BATCH{batch}-{i:02d}-{sensor_type.replace(' ', '_')}",
                [
                    ("name", f"{sensor_type} on BATCH{batch}-{i:02d}"),
                    ("station", station_title),
                    ("sensor_type", sensor_type),
                ],
            )
        # Refresh ranking (warm start); autocomplete and recommendations
        # follow the new generation on their next read.
        engine.ranker.refresh()
        engine.ranker.scores()
        tagging.sync_from_smr(engine.smr, ["sensor_type"])
        print(
            f"Batch {batch}: corpus now {engine.smr.page_count} pages; "
            f"warm refresh took {engine.ranker.last_refresh_iterations} iterations"
        )

    print("\nTop pages after growth:")
    for title, score in engine.ranker.top(5):
        print(f"  {score:.5f}  {title}")

    results = engine.search(engine.parse("keyword=batch3 kind=station limit=3"))
    print(f"\nNew pages are searchable immediately: {results.titles}")
    cloud = tagging.cloud(top=15)
    print(f"Tag cloud now covers {len(cloud.entries)} tags, {len(cloud.cliques)} cliques")
    stats = tagging.cache.stats
    print(f"Cloud cache: {stats.hits} hits / {stats.misses} misses")


if __name__ == "__main__":
    main()
