"""End-to-end benchmark of the search and ingest surfaces.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds the app from ``src/``, drives one workload through
the in-process WSGI app and prints one JSON result line. See
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer number is expected to move.
"""
