#!/usr/bin/env python3
"""Write every seed-1 perfbench ``/api/search`` body to one file, one a line.

A byte oracle for changes that must not change what a search answers:
write the file on two checkouts and ``cmp`` them. From the repository
root::

    make search-bodies OUT=bodies.txt

String hashing decides set iteration order, and a property sort keeps
tied candidates in that order, so the run needs ``PYTHONHASHSEED=1``
(the make target sets it; the script refuses to run without it).

Each workload's deployment is built by its own ``Workload.setup``, as a
perfbench run builds it, and every request goes through
``perfbench.client.call``. The bodies, in file order:

- search_cold: its warm-up queries, its cold list (each query once),
  then ``limit=0``, ``offset=3``, ``explain=1`` and ``explain=full``
  variants of the first 70 cold queries;
- search_hot: its warm-up queries and its hot list's uncached first pass;
- ingest_mixed: its warm-up queries and its whole plan, each write
  applied before its read.

The script imports nothing but :mod:`perfbench`, so it runs unchanged on
an older checkout. Each line is ``workload, list, q, other params, status,
body``, tab-separated. Every ``trace_id`` is blanked, and in
``explain=full`` bodies so are ``seconds``, ``timestamp`` and ``seq``
(wall times and the provenance ring's stamps).
"""

from __future__ import annotations

import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import client, workloads  # noqa: E402

SEED = 1
#: Cold queries whose limit=0, offset=3, explain=1 and explain=full
#: variants are written too.
VARIANT_QUERIES = 70

_TRACE_ID = re.compile(rb'"trace_id":(?:"[0-9a-f]*"|null)')
_TIMINGS = re.compile(rb'"(seconds|timestamp|seq)":[-+0-9.eE]+')


def blank(body: bytes, full: bool) -> bytes:
    """``body`` with its trace ids (and, for ``explain=full``, timings) blanked."""
    body = _TRACE_ID.sub(b'"trace_id":""', body)
    if full:
        body = _TIMINGS.sub(rb'"\1":0', body)
    return body


def search_cold(section, sample) -> None:
    workload = workloads.SearchCold(SEED)
    section[:] = ["search_cold", "warm"]
    deployment, _ = workload.setup()
    section[1] = "cold"
    for text in workload.lists.cold:
        workload.run_op(deployment, text, sample)
    section[1] = "variants"
    for text in workload.lists.cold[:VARIANT_QUERIES]:
        for params in (
            {"q": f"{text} limit=0"},
            {"q": f"{text} offset=3"},
            {"q": text, "explain": "1"},
            {"q": text, "explain": "full"},
        ):
            client.call(deployment.app, "GET", "/api/search", params)
    deployment.close()


def search_hot(section, sample) -> None:
    workload = workloads.SearchHot(SEED)
    section[:] = ["search_hot", "warm"]
    deployment, _ = workload.setup()
    section[1] = "hot"
    workload.prepare(deployment)
    deployment.close()


def ingest_mixed(section, sample) -> None:
    workload = workloads.IngestMixed(SEED)
    section[:] = ["ingest_mixed", "warm"]
    deployment, _ = workload.setup()
    section[1] = "ingest"
    for op in workload.plan:
        workload.run_op(deployment, op, sample)
    deployment.close()


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: search_bodies.py OUT", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != str(SEED):
        print(f"search_bodies.py: run with PYTHONHASHSEED={SEED}", file=sys.stderr)
        return 2
    send = client.call
    section = ["", ""]
    written = 0
    started = time.perf_counter()
    with open(argv[1], "wb") as out:

        def recording_call(app, method, path, params=None, body=None):
            nonlocal written
            status, payload = send(app, method, path, params, body)
            if path == "/api/search":
                extra = dict(params or {})
                text = extra.pop("q", "")
                other = "&".join(f"{key}={value}" for key, value in sorted(extra.items()))
                head = "\t".join([*section, text, other, status, ""]).encode("utf-8")
                out.write(head + blank(payload, extra.get("explain") == "full") + b"\n")
                written += 1
            return status, payload

        client.call = recording_call
        sample = workloads.Sample()
        try:
            for run in (search_cold, search_hot, ingest_mixed):
                run(section, sample)
        finally:
            client.call = send
    print(
        f"search_bodies.py: {written} bodies in {time.perf_counter() - started:.1f} s, "
        f"{sample.failed} failed check(s) {sample.failures}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
