"""Smoke tests: every example script must run to completion.

Examples are documentation; a bit-rotted example is worse than none.
Each runs in a subprocess with a time limit, from a copy in a temp
directory: the scripts write their artifacts to ``out/`` next to
themselves, so a copy leaves the tracked ``examples/out/`` untouched.
The working directory stays as it is, so a relative ``PYTHONPATH=src``
still resolves.
"""

import os
import shutil
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

# (script, substring expected in stdout, timeout seconds)
CASES = [
    ("quickstart.py", "Top pages by double-link PageRank", 120),
    ("swiss_experiment.py", "Bulk load: loaded", 120),
    ("pagerank_study.py", "Shape check", 300),
    ("tag_cloud_demo.py", "maximal cliques", 120),
    ("incremental_updates.py", "warm refresh", 180),
    ("sparql_tour.py", "CONSTRUCT summary graph", 120),
    ("realtime_dashboard.py", "Artifacts written", 180),
]

#: The files a script writes to ``out/`` next to itself.
ARTIFACTS = {
    "swiss_experiment.py": (
        "stations_map.svg",
        "sensor_types_bar.svg",
        "station_status_pie.svg",
        "relations.dot",
        "relations.svg",
    ),
    "tag_cloud_demo.py": ("tag_cloud.html", "tag_cloud.svg"),
    "realtime_dashboard.py": (
        "realtime_bar.svg",
        "realtime_pie.svg",
        "realtime_line.svg",
        "realtime_map.svg",
    ),
}


@pytest.mark.parametrize("script,expected,timeout", CASES)
def test_example_runs(script, expected, timeout, tmp_path):
    path = tmp_path / script
    shutil.copyfile(os.path.join(EXAMPLES_DIR, script), path)
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert expected in completed.stdout
    for name in ARTIFACTS.get(script, ()):
        assert (tmp_path / "out" / name).is_file(), name
