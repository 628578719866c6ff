"""Output checks: every timed operation's response is verified here.

Each checker returns ``None`` when the response is correct and a short
reason string when it is not; the runner counts a non-``None`` verdict
(or an exception) as a failed operation. Checkers never touch the
program's state, so they run outside the timed region.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Tuple

from repro.core.query import PropertyFilter, SearchQuery, parse_query

Verdict = Optional[str]


def _satisfies(value: Any, flt: PropertyFilter) -> bool:
    """Whether an annotation value satisfies one property filter."""
    if value is None:
        return False
    wanted = flt.value
    if flt.op == "~":
        return str(wanted).lower() in str(value).lower()
    numeric = (int, float)
    if isinstance(value, numeric) and isinstance(wanted, numeric):
        a, b = float(value), float(wanted)
    else:
        a, b = str(value).lower(), str(wanted).lower()
        if flt.op not in ("=", "!="):
            return False
    return {
        "=": a == b,
        "!=": a != b,
        "<": a < b,
        "<=": a <= b,
        ">": a > b,
        ">=": a >= b,
    }[flt.op]


def _result_error(query: SearchQuery, result: Dict[str, Any]) -> Verdict:
    title = result.get("title")
    if query.kind is not None and result.get("kind") != query.kind:
        return f"{title}: kind {result.get('kind')!r} != {query.kind!r}"
    if query.keyword and not result.get("relevance", 0.0) > 0.0:
        return f"{title}: keyword result without relevance"
    if query.bbox is not None:
        location = result.get("location")
        if location is None:
            return f"{title}: bbox result without a location"
        box = query.bbox
        if not (
            box.south <= location["lat"] <= box.north
            and box.west <= location["lon"] <= box.east
        ):
            return f"{title}: location {location} outside the bbox"
    if query.filters:
        annotations = result.get("annotations") or {}
        satisfied = sum(
            1 for flt in query.filters if _satisfies(annotations.get(flt.prop.lower()), flt)
        )
        if query.relaxed:
            degree = satisfied / len(query.filters)
            if satisfied == 0 or not math.isclose(result.get("match_degree", -1.0), degree):
                return f"{title}: match degree {result.get('match_degree')} != {degree}"
        elif satisfied != len(query.filters):
            return f"{title}: fails {len(query.filters) - satisfied} filter(s)"
    return None


def check_search(text: str, status: str, body: bytes) -> Tuple[Verdict, Optional[Dict[str, Any]]]:
    """Verify one ``/api/search`` response against the query it answers.

    Every returned page must satisfy the query's kind, keyword, filter
    (strict: all; relaxed: the reported match degree) and bbox
    constraints; the page may not exceed the limit or the candidate
    count, and scores must be sorted in the requested direction.
    Returns the verdict and the decoded payload.
    """
    if not status.startswith("200"):
        return f"status {status!r}: {body[:200]!r}", None
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"invalid JSON: {exc}", None
    results = payload.get("results")
    total = payload.get("total_candidates")
    if not isinstance(results, list) or not isinstance(total, int):
        return "payload lacks results/total_candidates", payload
    query = parse_query(text)
    if query.limit is not None and len(results) > query.limit:
        return f"{len(results)} results exceed limit {query.limit}", payload
    if len(results) > total:
        return f"{len(results)} results exceed {total} candidates", payload
    scores = [result.get("score", 0.0) for result in results]
    ordered = sorted(scores, reverse=query.descending)
    if query.sort in ("relevance", "pagerank") and scores != ordered:
        return "results are not sorted by score", payload
    for result in results:
        error = _result_error(query, result)
        if error is not None:
            return error, payload
    return None, payload


def _without_trace_id(payload: Any) -> Any:
    if isinstance(payload, dict):
        return {key: value for key, value in payload.items() if key != "trace_id"}
    return payload


def check_hot(status: str, body: bytes, reference: Dict[str, Any]) -> Verdict:
    """A cached response must equal the first, uncached payload.

    Only the per-request ``trace_id`` may differ.
    """
    if not status.startswith("200"):
        return f"status {status!r}"
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    if _without_trace_id(payload) != _without_trace_id(reference):
        return "cached payload differs from the uncached one"
    return None


def check_read_after_write(text: str, status: str, body: bytes, expect: str) -> Verdict:
    """A read after a write must be valid and return the written page."""
    verdict, payload = check_search(text, status, body)
    if verdict is not None:
        return verdict
    titles = [result["title"] for result in payload["results"]]
    if expect not in titles:
        return f"{expect!r} missing from the read after its write ({len(titles)} results)"
    return None
