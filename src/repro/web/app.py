"""The demo web application: JSON + SVG endpoints over the search engine.

Endpoints (all under ``/api``):

    GET  /api/search?q=<compact query>        ranked results
         (&explain=1 attaches the per-constraint evaluation plan;
          &explain=full runs the pipeline cache-bypassed and attaches
          the full provenance record — constraint waterfall with wall
          times and selectivities — plus a per-result PageRank score
          decomposition into top-k in-link contributions, dangling and
          teleport mass)
    GET  /api/page/{title}                    one page's metadata
    GET  /api/autocomplete/title?prefix=
    GET  /api/autocomplete/property?prefix=
    GET  /api/values?prop=&kind=              dynamic drop-down values
    GET  /api/facets?q=&prop=                 facet counts
    GET  /api/recommend?q=&k=                 recommendations
    GET  /api/pagerank/top?k=                 highest-ranked pages
    GET  /api/tags/cloud?top=                 tag cloud (JSON)
    GET  /api/tags/cloud.svg?top=             tag cloud (SVG)
    POST /api/tags                            {"page": ..., "tag": ...}
    GET  /api/viz/map.svg?q=                  result map
    GET  /api/viz/facets.svg?q=&prop=&chart=  bar|pie facet chart

Observability (outside ``/api``):

    GET  /metrics                             Prometheus text exposition
         (&format=openmetrics or an OpenMetrics Accept header switches
          to OpenMetrics 1.0 with trace-id exemplars on histogram
          buckets — the p99 bucket links to a recorded trace)
    GET  /api/timeseries?metric=&window=      sampled history (JSON):
         points per label set, counter rates, windowed percentiles
    GET  /api/alerts                          SLO status, firing burn-rate
         alerts and the bounded alert history
    GET  /explore?q=                          slow-query explorer (HTML):
         constraint waterfall + link-contribution breakdown
    GET  /explore/waterfall.svg?q=            the waterfall as SVG
    GET  /explore/contributions.svg?q=&title= score breakdown as SVG
    GET  /debug/trace?k=&trace_id=            recent span trees (JSON)
    GET  /debug/logs?level=&trace_id=&k=      structured event log (JSON)
    GET  /debug/profile?k=                    span-path self/cum profile
    GET  /debug/convergence?solver=           solver residual histories
    GET  /debug/plan?sql=|q=                  cost-based plans + catalog
    GET  /debug/slow                          slowest-query reservoir
    GET  /debug/provenance?trace_id=&k=       recent provenance records
    GET  /debug                               index of every operator
         surface with a one-line description
    GET  /debug/dashboard                     live operations dashboard
         (HTML: firing alerts, SLO burn rates, and the sparkline grid
          served by /debug/dashboard.svg — QPS, latency percentiles,
          cache hit ratio, solver iterations,
          ingestion staleness lag, process RSS)
    GET  /healthz                             component health probes
         (including an ``slo`` probe: a firing fast-burn alert reports
          the service degraded even when every component passes)

Every request passes through :class:`MetricsMiddleware`, which mints a
request-scoped **trace id**, attaches it to the root span, every log
record and an ``X-Trace-Id`` header on every response (error responses
included), and records per-endpoint request counters and latency
histograms at the WSGI level. A user-reported slow request is therefore
fully reconstructable offline: its ``X-Trace-Id`` finds the span tree in
``/debug/trace``, the correlated records in ``/debug/logs`` and — when a
ranking solve ran — the residual series in ``/debug/convergence``.

``GET /api/stats`` additionally reports the engine's result-cache
statistics (hits, misses, stale lookups, generation) next to the query
latency percentiles, so cache effectiveness is observable without
scraping ``/metrics``. The ``/debug/*`` surfaces are privilege-gated:
``create_app(..., debug=False)`` turns them into 403s for deployments
where traces and logs must not be public, while ``/healthz`` stays open
for load balancers.

JSON bodies are compact, with keys sorted: every one is encoded by
:func:`repro.web.http.encode_json` (pipe one through
``python -m json.tool`` to read it indented). A plain ``/api/search``
body is encoded once per result set. The bytes are kept, keyed on the
``SearchResults`` object, for as long as the engine's result cache holds
it, and each response splices its own ``trace_id`` in before the closing
brace — byte-equal to encoding the whole payload, since ``trace_id``
sorts last.

Errors surface as JSON with appropriate status codes; the engine's
exception hierarchy maps 1:1 onto 400s. Every count parameter (``k``,
``top``, ``top_k``) goes through one parser: a negative count is a 400,
and 0 asks for an empty list.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Dict, Optional
from urllib.parse import quote
from wsgiref.simple_server import make_server

from repro import obs
from repro.core.engine import AdvancedSearchEngine
from repro.core.results import SearchResults
from repro.errors import QueryError, ReproError
from repro.tagging.interface import TaggingSystem
from repro.viz.bar import BarChart
from repro.viz.maprender import MapMarker, MapRenderer
from repro.viz.pie import PieChart
from repro.viz.sparkline import SparklineGrid, SparklinePanel
from repro.viz.tagcloud import render_tag_cloud_svg
from repro.viz.waterfall import WaterfallChart
from repro.web.http import (
    JSON_CONTENT_TYPE,
    HtmlResponse,
    JsonResponse,
    Request,
    Response,
    Router,
    SvgResponse,
    TextResponse,
    encode_json,
)

_INDEX_HTML = """<!doctype html>
<html><head><title>Sensor Metadata Search (ICDE'11 reproduction)</title></head>
<body>
<h1>Advanced Sensor Metadata Search</h1>
<p><a href="/search">Interactive search page</a></p>
<p>JSON/SVG API endpoints:</p>
<ul>
  <li><a href="/api/stats">/api/stats</a></li>
  <li><a href="/api/suggest?q=wnd">/api/suggest?q=</a></li>
  <li><a href="/api/search?q=kind%3Dstation">/api/search?q=&lt;query&gt;</a></li>
  <li>/api/page/{title}</li>
  <li><a href="/api/autocomplete/title?prefix=Station">/api/autocomplete/title?prefix=</a></li>
  <li><a href="/api/autocomplete/property?prefix=s">/api/autocomplete/property?prefix=</a></li>
  <li><a href="/api/values?prop=status&kind=station">/api/values?prop=&amp;kind=</a></li>
  <li><a href="/api/facets?q=kind%3Dsensor&prop=sensor_type">/api/facets?q=&amp;prop=</a></li>
  <li><a href="/api/recommend?q=kind%3Dsensor">/api/recommend?q=&amp;k=</a></li>
  <li>/api/related/{title}?k=</li>
  <li>/api/snippet/{title}?q=</li>
  <li><a href="/api/pagerank/top?k=10">/api/pagerank/top?k=</a></li>
  <li><a href="/api/tags/cloud">/api/tags/cloud</a> |
      <a href="/api/tags/cloud.svg">/api/tags/cloud.svg</a> |
      POST /api/tags</li>
  <li><a href="/api/viz/map.svg?q=kind%3Dstation">/api/viz/map.svg?q=</a></li>
  <li><a href="/api/viz/facets.svg?q=kind%3Dstation&prop=status&chart=pie">/api/viz/facets.svg?q=&amp;prop=&amp;chart=bar|pie</a></li>
  <li><a href="/metrics">/metrics</a> (Prometheus;
      <a href="/metrics?format=openmetrics">?format=openmetrics</a> adds exemplars) |
      <a href="/healthz">/healthz</a> (component health)</li>
  <li><a href="/api/timeseries?metric=http_requests_total">/api/timeseries?metric=&amp;window=</a> (sampled history) |
      <a href="/api/alerts">/api/alerts</a> (SLO burn-rate alerts)</li>
  <li><a href="/explore?q=kind%3Dsensor">/explore?q=</a> (query provenance explorer)</li>
  <li><a href="/debug">/debug</a> (operator surface index) |
      <a href="/debug/dashboard">/debug/dashboard</a> (live dashboard)</li>
  <li><a href="/debug/trace">/debug/trace</a> (recent spans) |
      <a href="/debug/logs">/debug/logs</a> (event log) |
      <a href="/debug/profile">/debug/profile</a> (span profile) |
      <a href="/debug/convergence">/debug/convergence</a> (solver residuals) |
      <a href="/debug/plan?q=kind%3Dstation">/debug/plan?sql=|q=</a> (query plans) |
      <a href="/debug/slow">/debug/slow</a> (slowest queries) |
      <a href="/debug/provenance">/debug/provenance</a> (provenance ring)</li>
</ul>
<p>Query syntax: <code>keyword=wind kind=sensor elevation_m&gt;=2000 sort=pagerank
order=desc limit=20 offset=20 relaxed=true bbox=46,6.8,47,10.5</code></p>
</body></html>
"""


#: Default trailing window the dashboard plots (ten minutes of ticks).
_DASHBOARD_WINDOW_SECONDS = 600.0

#: Every operator surface, for the ``/debug`` index page. Paths may carry
#: illustrative query strings; descriptions are one line each.
_DEBUG_SURFACES = [
    ("/debug/dashboard",
     "Live operations dashboard: sparkline grid, SLO burn rates, firing alerts."),
    ("/api/alerts", "SLO status, firing alerts and alert history (JSON)."),
    ("/api/timeseries?metric=http_requests_total",
     "Sampled metric history: points, rates, windowed percentiles (JSON)."),
    ("/explore?q=kind%3Dsensor",
     "Slow-query explorer: constraint waterfall + score provenance (HTML)."),
    ("/debug/trace", "Recent span trees, filterable by trace_id (JSON)."),
    ("/debug/logs", "Structured event log: level=, trace_id=, component=, k= (JSON)."),
    ("/debug/profile", "Span-path self/cumulative time profile (JSON)."),
    ("/debug/convergence", "PageRank solver residual histories (JSON)."),
    ("/debug/plan?q=kind%3Dstation",
     "Cost-based query plans and catalog statistics: sql= or q= (JSON)."),
    ("/debug/slow", "Slowest-query reservoir with trace ids and plan snapshots (JSON)."),
    ("/debug/provenance", "Recent query-provenance records (JSON)."),
    ("/metrics", "Prometheus/OpenMetrics exposition (text)."),
    ("/healthz", "Component + SLO health probes (JSON; open, ungated)."),
    ("/api/stats", "Corpus, cache and latency statistics snapshot (JSON)."),
]


def _sampler_status(sampler) -> Dict[str, Any]:
    """The sampler's self-description, shared by several JSON payloads."""
    return {
        "running": sampler.running,
        "interval_seconds": sampler.interval,
        "ticks": sampler.ticks,
        "last_tick_at": sampler.last_tick_at,
        "last_scrape_seconds": sampler.last_scrape_seconds,
        "series": len(sampler.store),
        "dropped_series": sampler.store.dropped_series,
        "probe_errors": sampler.probe_errors,
    }


def _fmt_burn(value) -> str:
    return "n/a" if value is None else f"{value:.2f}x"


def _dashboard_panels(sampler, window: float, now=None) -> list:
    """Assemble the dashboard's sparkline panels from the sampler's store.

    Panels read only the :class:`~repro.obs.timeseries.TimeSeriesStore` —
    the dashboard shows what the sampler retained, never a fresh scrape —
    so rendering is cheap and agrees with ``/api/timeseries``. A metric
    the store has not seen yet renders as that panel's "no data" state
    instead of failing.
    """
    store = sampler.store
    evaluator = sampler.evaluator
    firing = (
        {alert["slo"] for alert in evaluator.firing()}
        if evaluator is not None
        else set()
    )
    # Percentiles are over a short trailing window per tick; a handful of
    # sampler intervals keeps them responsive without being jittery.
    quantile_window = max(30.0, sampler.interval * 6)

    def quantile_points(name: str, q: float) -> list:
        series = store.get(name)
        if not isinstance(series, obs.HistogramSeries):
            return []
        return series.quantile_series(q, quantile_window, window, now)

    panels = [
        SparklinePanel(
            "HTTP requests /s",
            store.summed_rate_series("http_requests_total", window, now),
            unit="/s",
            alerting="availability" in firing,
        ),
        SparklinePanel(
            "query latency p50", quantile_points("engine_query_seconds", 0.5), unit="s"
        ),
        SparklinePanel(
            "query latency p95",
            quantile_points("engine_query_seconds", 0.95),
            unit="s",
            threshold=0.25,
            alerting="search_latency" in firing,
        ),
        SparklinePanel(
            "query latency p99", quantile_points("engine_query_seconds", 0.99), unit="s"
        ),
    ]

    # Cache hit ratio: per-tick hit rate over per-tick lookup rate. The
    # summed-rate series are merged by timestamp, so one division per
    # tick reconstructs the family-level ratio.
    hits = dict(store.summed_rate_series("perf_cache_hits_total", window, now))
    lookups = dict(hits)
    for name in ("perf_cache_misses_total", "perf_cache_stale_total"):
        for t, r in store.summed_rate_series(name, window, now):
            lookups[t] = lookups.get(t, 0.0) + r
    panels.append(
        SparklinePanel(
            "cache hit ratio",
            [
                (t, hits.get(t, 0.0) / total)
                for t, total in sorted(lookups.items())
                if total > 0
            ],
        )
    )
    panels.append(
        SparklinePanel(
            "solver iterations",
            store.summed_points("pagerank_convergence_last_iterations", window, now),
        )
    )
    panels.append(
        SparklinePanel(
            "ranker staleness lag",
            store.summed_points("ranking_staleness_generations", window, now),
            alerting="ranker_freshness" in firing,
        )
    )
    panels.append(
        SparklinePanel(
            "resident memory",
            store.summed_points("process_resident_memory_bytes", window, now),
            unit="B",
        )
    )
    return panels


def _html_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _result_payload(result) -> Dict[str, Any]:
    return {
        "title": result.title,
        "kind": result.kind,
        "score": result.score,
        "relevance": result.relevance,
        "pagerank": result.pagerank,
        "match_degree": result.match_degree,
        "annotations": result.annotations,
        "location": (
            {"lat": result.location.lat, "lon": result.location.lon}
            if result.location
            else None
        ),
    }


def _search_payload(results: SearchResults) -> Dict[str, Any]:
    """The ``/api/search`` body of one result set, before its ``trace_id``."""
    return {
        "query": results.query_description,
        "total_candidates": results.total_candidates,
        "results": [_result_payload(r) for r in results],
    }


def _count(request: Request, name: str, default: Optional[int]) -> Optional[int]:
    """The count parameter ``name`` (``k``, ``top``, ``top_k``), or ``default``.

    A negative count raises :class:`~repro.errors.QueryError` (a 400);
    0 is a valid count that asks for an empty list.
    """
    raw = request.params.get(name)
    if not raw:
        return default
    value = int(raw)
    if value < 0:
        raise QueryError(f"{name} must be non-negative, got {value}")
    return value


def _slowest_distinct(slowlog, k: int) -> list:
    """The ``k`` slowest distinct queries the slow log holds, worst first."""
    slowest: Dict[str, float] = {}
    for entry in slowlog.snapshot():
        slowest.setdefault(entry["query"], entry["seconds"])
    return [{"query": q, "seconds": s} for q, s in list(slowest.items())[:k]]


def create_app(
    engine: AdvancedSearchEngine,
    tagging: Optional[TaggingSystem] = None,
    observations=None,
    debug: bool = True,
    sampler=None,
    start_sampler: bool = False,
):
    """Build the WSGI application over ``engine``.

    ``tagging`` defaults to an empty tagging system; ``observations`` is
    an optional :class:`~repro.observations.store.ObservationStore` —
    when given, the ``/api/observations/...`` endpoints serve live data.
    ``debug=False`` answers ``/debug`` and every path under ``/debug/``
    (logs, traces, profile, plans, dashboard, routed or not) with a 403
    before routing, for deployments where that detail must not be
    public; ``/metrics`` and ``/healthz`` stay open as they carry only
    aggregates and statuses.

    ``sampler`` is the :class:`~repro.obs.timeseries.MetricsSampler`
    feeding ``/api/timeseries``, ``/api/alerts`` and the dashboard
    (default: the process-wide :func:`repro.obs.get_sampler`). Its
    background thread is **not** started unless ``start_sampler=True`` —
    tests build apps constantly and must not leak threads; production
    entrypoints (:func:`serve`) opt in. The app exposes the sampler as
    ``app.sampler`` and an ``app.close()`` that stops the thread only if
    this call started it.
    """
    tagging = tagging or TaggingSystem()
    router = Router()

    sampler = sampler if sampler is not None else obs.get_sampler()
    # Plain /api/search bodies, encoded once per result set. Keyed on the
    # result object, an entry lives exactly as long as the engine's result
    # cache (or the request) holds that object.
    search_bodies: "weakref.WeakKeyDictionary[SearchResults, bytes]" = (
        weakref.WeakKeyDictionary()
    )

    def _engine_probe(registry) -> None:
        # Refresh pull-style gauges just before each scrape: the ranker's
        # staleness lag is computed from generation stamps, not pushed by
        # events, so without this the series would never update.
        engine.ranker.record_staleness()

    # Keyed registration: repeated create_app() calls replace this probe
    # on the shared default sampler instead of stacking duplicates.
    sampler.set_probe("engine", _engine_probe)

    @router.get("/api/observations/{sensor}")
    def observation_stats(request: Request, sensor: str) -> Response:
        if observations is None:
            return JsonResponse(
                {"error": "no observation store configured"}, status="404 Not Found"
            )
        window = int(request.params.get("window", "288"))
        stats = observations.window_stats(sensor, window=window)
        latest = observations.latest(sensor)
        return JsonResponse(
            {
                "sensor": sensor,
                "window": window,
                "count": stats.count,
                "min": stats.minimum,
                "max": stats.maximum,
                "mean": stats.mean,
                "last": stats.last,
                "latest_tick": latest[0] if latest else None,
                "stale": observations.is_stale(sensor),
            }
        )

    @router.get("/api/observations/{sensor}/series.svg")
    def observation_series(request: Request, sensor: str) -> Response:
        if observations is None:
            return JsonResponse(
                {"error": "no observation store configured"}, status="404 Not Found"
            )
        from repro.viz.line import LineChart

        bucket = int(request.params.get("bucket", "12"))
        chart = LineChart(title=sensor, x_label="tick", y_label="value")
        chart.add_series("readings", observations.series(sensor).downsample(bucket))
        return SvgResponse(chart.to_svg())

    def _search(request: Request):
        text = request.params.get("q", "")
        return engine.search(engine.parse(text))

    @router.get("/")
    def index(request: Request) -> Response:
        return HtmlResponse(_INDEX_HTML)

    @router.get("/search")
    def search_page(request: Request) -> Response:
        """The human-facing search form + results page (Fig. 7 analog)."""
        text = request.params.get("q", "")
        body = [
            "<!doctype html><html><head><title>Metadata search</title></head><body>",
            "<h1>Advanced metadata search</h1>",
            '<form method="get" action="/search">',
            f'<input name="q" size="70" value="{_html_escape(text)}" '
            'placeholder="keyword=wind kind=sensor sort=pagerank"/>',
            '<button type="submit">Search</button></form>',
        ]
        if text.strip():
            try:
                query = engine.parse(text)
                results = engine.search(query)
            except ReproError as exc:
                body.append(f"<p><strong>Error:</strong> {_html_escape(str(exc))}</p>")
            else:
                body.append(
                    f"<p>{len(results)} of {results.total_candidates} candidates</p>"
                )
                if not results and " " not in text and "=" not in text:
                    suggestions = engine.did_you_mean(text)
                    if suggestions:
                        links = ", ".join(
                            f'<a href="/search?q={_html_escape(s)}">{_html_escape(s)}</a>'
                            for s in suggestions
                        )
                        body.append(f"<p>Did you mean: {links}?</p>")
                body.append("<ol>")
                for result in results:
                    snippet_html = ""
                    if query.keyword:
                        fragment = engine.snippet(result.title, query.keyword)
                        rendered = _html_escape(fragment.text).replace(
                            "**", "<b>", 1
                        )
                        # crude but adequate: alternate open/close markers
                        while "**" in rendered:
                            rendered = rendered.replace("**", "</b>", 1)
                            rendered = rendered.replace("**", "<b>", 1)
                        snippet_html = f"<br/><small>{rendered}</small>"
                    body.append(
                        f"<li><b>{_html_escape(result.title)}</b> "
                        f"({result.kind}, match {result.match_degree:.0%}, "
                        f"pagerank {result.pagerank:.4f}){snippet_html}</li>"
                    )
                body.append("</ol>")
        body.append("</body></html>")
        return HtmlResponse("".join(body))

    @router.get("/api/related/{title}")
    def related(request: Request, title: str) -> Response:
        k = _count(request, "k", 5)
        pages = engine.related_pages(title, k=k)
        return JsonResponse(
            {"related": [{"title": t, "score": s} for t, s in pages]}
        )

    @router.get("/api/snippet/{title}")
    def snippet(request: Request, title: str) -> Response:
        query = request.params.get("q", "")
        result = engine.snippet(title, query)
        return JsonResponse(
            {
                "snippet": result.text,
                "matches": result.matches,
                "distinct_terms": result.distinct_terms,
            }
        )

    def _search_response(results: SearchResults) -> Response:
        """The plain search body: the result set's bytes plus a trace id.

        Sorted keys put ``trace_id`` last, so splicing it in before the
        stored closing brace gives exactly ``encode_json`` of the whole
        payload; the bytes before it are shared by every cache hit.
        """
        body = search_bodies.get(results)
        if body is None:
            body = search_bodies[results] = encode_json(_search_payload(results))
        trace_id = encode_json(obs.current_trace_id())
        return Response(
            b"".join((body[:-1], b',"trace_id":', trace_id, b"}")),
            "200 OK",
            JSON_CONTENT_TYPE,
        )

    @router.get("/api/search")
    def search(request: Request) -> Response:
        query = engine.parse(request.params.get("q", ""))
        explain = request.params.get("explain", "")
        if explain == "full":
            # Full provenance: bypass the result cache so the waterfall
            # reflects a real pipeline run, and decompose each returned
            # page's PageRank into its fixed-point terms.
            results, provenance = engine.search_explained(query)
            payload = _search_payload(results)
            top_k = _count(request, "top_k", 5)
            payload["provenance"] = provenance.to_dict()
            for entry in payload["results"]:
                entry["score_explanation"] = engine.ranker.explain(
                    entry["title"], top_k=top_k
                )
        else:
            results = engine.search(query)
            if explain not in ("1", "true", "yes"):
                return _search_response(results)
            payload = _search_payload(results)
            payload["plan"] = engine.explain_search(query)
        # The same id lands in the X-Trace-Id header; it is also in the
        # body so API clients that log payloads can quote it back when
        # reporting a slow or wrong result.
        payload["trace_id"] = obs.current_trace_id()
        return JsonResponse(payload)

    @router.get("/api/page/{title}")
    def page(request: Request, title: str) -> Response:
        kind = engine.smr.kind_of(title)
        return JsonResponse(
            {
                "title": engine.smr.wiki.get(title).title,
                "kind": kind,
                "annotations": dict(engine.smr.annotations(title)),
                "pagerank": engine.ranker.score(engine.smr.wiki.get(title).title),
                "revisions": engine.smr.wiki.get(title).revision_count,
            }
        )

    @router.get("/api/autocomplete/title")
    def autocomplete_title(request: Request) -> Response:
        prefix = request.params.get("prefix", "")
        return JsonResponse({"completions": engine.autocomplete.complete_title(prefix)})

    @router.get("/api/autocomplete/property")
    def autocomplete_property(request: Request) -> Response:
        prefix = request.params.get("prefix", "")
        return JsonResponse({"completions": engine.autocomplete.complete_property(prefix)})

    @router.get("/api/values")
    def values(request: Request) -> Response:
        prop = request.params.get("prop", "")
        kind = request.params.get("kind") or None
        pairs = engine.autocomplete.values_for(prop, kind=kind)
        return JsonResponse({"values": [{"value": v, "count": c} for v, c in pairs]})

    @router.get("/api/facets")
    def facets(request: Request) -> Response:
        results = _search(request)
        prop = request.params.get("prop", "")
        pairs = engine.facets(results, prop)
        return JsonResponse({"facets": [{"value": v, "count": c} for v, c in pairs]})

    @router.get("/api/recommend")
    def recommend(request: Request) -> Response:
        results = _search(request)
        k = _count(request, "k", 5)
        recommendations = engine.recommend(results, k=k)
        return JsonResponse(
            {
                "recommendations": [
                    {"title": rec.title, "score": rec.score, "reasons": rec.reasons}
                    for rec in recommendations
                ]
            }
        )

    @router.get("/api/stats")
    def stats(request: Request) -> Response:
        from repro.core.stats import corpus_statistics

        report = corpus_statistics(engine.smr, top_values_for=("project", "institution"))
        registry = obs.get_registry()
        latency = registry.histogram(
            "engine_query_seconds", "Advanced-search latency in seconds."
        )
        requests_family = registry.get("http_requests_total")

        def _percentiles(histogram) -> Dict[str, Any]:
            """p50/p95/p99 with each percentile's exemplar trace id.

            The exemplar is the recorded request sitting in the same
            bucket the percentile interpolates in — so a bad p99 links
            straight to one concrete trace in ``/debug/trace``.
            """
            entry: Dict[str, Any] = {"count": histogram.count}
            for q, name in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                entry[f"{name}_seconds"] = histogram.quantile(q)
                exemplar = histogram.exemplar_for_quantile(q)
                entry[f"{name}_trace_id"] = (
                    exemplar["trace_id"] if exemplar else None
                )
            return entry

        endpoint_latency: Dict[str, Any] = {}
        http_family = registry.get("http_request_seconds")
        if http_family is not None:
            for label_values, child in http_family.samples():
                endpoint_latency[label_values[0]] = _percentiles(child)
        query_latency = _percentiles(latency)
        query_latency["mean_seconds"] = (
            latency.sum / latency.count if latency.count else 0.0
        )
        return JsonResponse(
            {
                "page_count": report.page_count,
                "pages_per_kind": report.pages_per_kind,
                "property_coverage": report.property_coverage,
                "web_links": report.web_links.__dict__,
                "semantic_links": report.semantic_links.__dict__,
                "top_values": report.top_values,
                "query_latency": query_latency,
                "endpoint_latency": endpoint_latency,
                "http_requests_total": (
                    requests_family.total() if requests_family else 0.0
                ),
                "query_cache": engine.cache_info(),
                "catalog": engine.smr.db.catalog_stats(),
                "spatial_index": engine.spatial_index_info(),
                "slow_queries": _slowest_distinct(obs.get_slow_query_log(), 5),
                "trace_id": obs.current_trace_id(),
            }
        )

    @router.get("/metrics")
    def metrics(request: Request) -> Response:
        """Metric exposition with format negotiation.

        Default is Prometheus 0.0.4 text; ``?format=openmetrics`` or an
        ``Accept`` header naming ``application/openmetrics-text``
        switches to OpenMetrics 1.0, whose histogram bucket lines carry
        trace-id exemplars when exemplar collection is enabled.
        """
        wants_openmetrics = (
            request.params.get("format") == "openmetrics"
            or "application/openmetrics-text" in request.header("Accept")
        )
        if wants_openmetrics:
            body = obs.render_openmetrics(obs.get_registry())
            return Response(
                body.encode("utf-8"), "200 OK", obs.OPENMETRICS_CONTENT_TYPE
            )
        body = obs.render_prometheus(obs.get_registry())
        return TextResponse(body, content_type=obs.PROMETHEUS_CONTENT_TYPE)

    @router.get("/debug/trace")
    def debug_trace(request: Request) -> Response:
        k = _count(request, "k", 20)
        trace_id = request.params.get("trace_id") or None
        return JsonResponse(
            {"traces": obs.get_tracer().recent(k, trace_id=trace_id)}
        )

    @router.get("/debug/logs")
    def debug_logs(request: Request) -> Response:
        records = obs.get_event_log().records(
            level=request.params.get("level") or None,
            trace_id=request.params.get("trace_id") or None,
            component=request.params.get("component") or None,
            k=_count(request, "k", 100),
        )
        return JsonResponse({"count": len(records), "records": records})

    @router.get("/debug/profile")
    def debug_profile(request: Request) -> Response:
        k = _count(request, "k", 256)
        rows = obs.profile_tracer(obs.get_tracer(), k=k)
        return JsonResponse({"traces_considered": k, "rows": rows})

    @router.get("/debug/convergence")
    def debug_convergence(request: Request) -> Response:
        recorder = obs.get_convergence_recorder()
        solver = request.params.get("solver") or None
        if solver is not None:
            return JsonResponse({"solver": solver, "runs": recorder.runs(solver)})
        return JsonResponse(recorder.snapshot())

    @router.get("/debug/plan")
    def debug_plan(request: Request) -> Response:
        """Planner introspection: EXPLAIN for raw SQL or a search query.

        ``sql=SELECT ...`` returns the cost-based relational plan;
        ``q=<compact query>`` returns the engine's per-constraint
        evaluation strategy (the same payload ``explain=1`` attaches to
        ``/api/search``, without running the search).
        """
        sql = request.params.get("sql")
        query_text = request.params.get("q")
        if sql is None and query_text is None:
            return JsonResponse(
                {"error": "pass sql=SELECT ... or q=<compact query>"},
                status="400 Bad Request",
            )
        payload: Dict[str, Any] = {}
        if sql is not None:
            payload["sql"] = sql
            payload["sql_plan"] = [
                row[0] for row in engine.smr.sql(f"EXPLAIN {sql}")
            ]
        if query_text is not None:
            payload["search_plan"] = engine.explain_search(
                engine.parse(query_text)
            )
        payload["catalog"] = engine.smr.db.catalog_stats()
        return JsonResponse(payload)

    @router.get("/debug/slow")
    def debug_slow(request: Request) -> Response:
        """The slow-query reservoir: the worst-latency searches seen.

        Each entry carries the query, its wall time, the trace id to
        pivot into ``/debug/trace`` / ``/debug/logs``, the cache verdict
        and the constraint-waterfall plan from the query's record —
        enough to diagnose a past slow query without reproducing it.
        """
        slowlog = obs.get_slow_query_log()
        entries = slowlog.snapshot()
        return JsonResponse(
            {
                "enabled": slowlog.enabled,
                "capacity": slowlog.capacity,
                # Retention is by rank alone; the key keeps the payload's shape.
                "threshold_seconds": 0.0,
                "recorded": slowlog.recorded,
                "count": len(entries),
                "entries": entries,
            }
        )

    @router.get("/debug/provenance")
    def debug_provenance(request: Request) -> Response:
        """Recent query-provenance records, filterable by trace id."""
        recorder = obs.get_provenance_recorder()
        records = recorder.records(
            trace_id=request.params.get("trace_id") or None,
            k=_count(request, "k", 20),
        )
        return JsonResponse(
            {"enabled": recorder.enabled, "count": len(records), "records": records}
        )

    @router.get("/api/timeseries")
    def api_timeseries(request: Request) -> Response:
        """Sampled history for one metric: points, rates, percentiles.

        Counter/gauge series return their raw points plus reset-aware
        ``delta`` and ``rate_per_second`` over the window; histogram
        series return per-tick (count, sum) points plus windowed
        p50/p95/p99 — the quantiles of only the observations that landed
        inside the window, not cumulative-since-start.
        """
        store = sampler.store
        metric = request.params.get("metric")
        if not metric:
            return JsonResponse(
                {
                    "error": "pass metric=<name> (see `metrics` for what is sampled)",
                    "metrics": store.names(),
                    "sampler": _sampler_status(sampler),
                },
                status="400 Bad Request",
            )
        window = float(request.params.get("window", "300"))
        entries = store.series(metric)
        if not entries:
            return JsonResponse(
                {
                    "error": f"no sampled series for metric {metric!r}",
                    "metrics": store.names(),
                },
                status="404 Not Found",
            )
        payload = []
        for labels, series in entries:
            if isinstance(series, obs.HistogramSeries):
                payload.append(
                    {
                        "labels": labels,
                        "kind": "histogram",
                        "rate_per_second": series.rate(window),
                        "window_mean_seconds": series.window_mean(window),
                        "percentiles": {
                            "p50": series.window_quantile(0.5, window),
                            "p95": series.window_quantile(0.95, window),
                            "p99": series.window_quantile(0.99, window),
                        },
                        "points": [
                            {"t": p[0], "count": p[3], "sum": p[2]}
                            for p in series.points(window)
                        ],
                    }
                )
            else:
                latest = series.latest()
                payload.append(
                    {
                        "labels": labels,
                        "kind": series.kind,
                        "latest": latest[1] if latest else None,
                        "delta": series.delta(window),
                        "rate_per_second": series.rate(window),
                        "points": [[t, v] for t, v in series.points(window)],
                    }
                )
        return JsonResponse(
            {"metric": metric, "window_seconds": window, "series": payload}
        )

    @router.get("/api/alerts")
    def api_alerts(request: Request) -> Response:
        """SLO state: firing alerts, bounded history, live burn rates."""
        evaluator = sampler.evaluator
        if evaluator is None:
            return JsonResponse(
                {
                    "enabled": False,
                    "firing": [],
                    "history": [],
                    "slos": [],
                    "sampler": _sampler_status(sampler),
                }
            )
        k = _count(request, "k", 50)
        return JsonResponse(
            {
                "enabled": evaluator.enabled,
                "firing": evaluator.firing(),
                "history": evaluator.history(k),
                "slos": evaluator.snapshot(sampler.store, time.time()),
                "sampler": _sampler_status(sampler),
            }
        )

    @router.get("/debug")
    def debug_index(request: Request) -> Response:
        """Index of every operator surface with a one-line description."""
        body = [
            "<!doctype html><html><head><title>Operator surfaces</title></head><body>",
            "<h1>Operator surfaces</h1>",
            "<p>Everything the demo exposes for debugging and operating "
            "the service, in one place.</p>",
            "<ul>",
        ]
        for path, description in _DEBUG_SURFACES:
            body.append(
                f'<li><a href="{_html_escape(path)}">'
                f"{_html_escape(path.split('?')[0])}</a> — "
                f"{_html_escape(description)}</li>"
            )
        body.append("</ul></body></html>")
        return HtmlResponse("".join(body))

    @router.get("/debug/dashboard.svg")
    def debug_dashboard_svg(request: Request) -> Response:
        """The dashboard's sparkline grid as a standalone SVG document."""
        window = float(
            request.params.get("window", str(_DASHBOARD_WINDOW_SECONDS))
        )
        firing = (
            sampler.evaluator.firing() if sampler.evaluator is not None else []
        )
        subtitle = (
            f"sampler {'running' if sampler.running else 'stopped'} | "
            f"interval {sampler.interval:g}s | ticks {sampler.ticks} | "
            f"{len(sampler.store)} series | {len(firing)} firing alert(s)"
        )
        grid = SparklineGrid(
            _dashboard_panels(sampler, window),
            columns=3,
            title="Operations dashboard",
            subtitle=subtitle,
        )
        return SvgResponse(grid.to_svg())

    @router.get("/debug/dashboard")
    def debug_dashboard(request: Request) -> Response:
        """The operator dashboard: alerts + SLO table + sparkline grid.

        Auto-refreshes every 10 s; the grid itself is the sibling
        ``/debug/dashboard.svg`` so it can be embedded or validated
        standalone.
        """
        evaluator = sampler.evaluator
        firing = evaluator.firing() if evaluator is not None else []
        body = [
            "<!doctype html><html><head><title>Operations dashboard</title>",
            '<meta http-equiv="refresh" content="10"/></head><body>',
            "<h1>Operations dashboard</h1>",
            f"<p>sampler: <b>{'running' if sampler.running else 'stopped'}</b>, "
            f"interval {sampler.interval:g}s, ticks {sampler.ticks}, "
            f"{len(sampler.store)} series retained. See "
            '<a href="/api/alerts">/api/alerts</a>, '
            '<a href="/api/timeseries?metric=http_requests_total">/api/timeseries</a>, '
            '<a href="/debug">/debug</a>.</p>',
        ]
        if firing:
            body.append('<h2 style="color:#c0392b">Firing alerts</h2><ul>')
            for alert in firing:
                body.append(
                    f'<li style="color:#c0392b"><b>'
                    f"{_html_escape(str(alert['severity']))}</b> "
                    f"{_html_escape(str(alert['message']))}</li>"
                )
            body.append("</ul>")
        else:
            body.append("<p>No firing alerts.</p>")
        body.append('<img src="/debug/dashboard.svg" alt="sparkline grid"/>')
        if evaluator is not None:
            body.append(
                "<h2>Service level objectives</h2>"
                "<table border='1' cellpadding='4'>"
                "<tr><th>slo</th><th>objective</th><th>window</th>"
                "<th>burn rate (long / short)</th><th>state</th></tr>"
            )
            for entry in evaluator.snapshot(sampler.store, time.time()):
                for rule in entry["windows"]:
                    style = ' style="color:#c0392b"' if rule["firing"] else ""
                    body.append(
                        f"<tr{style}><td>{_html_escape(entry['name'])}</td>"
                        f"<td>{entry['objective']:.1%}</td>"
                        f"<td>{rule['severity']} "
                        f"({rule['long_seconds']:g}s/{rule['short_seconds']:g}s "
                        f"@ {rule['factor']:g}x)</td>"
                        f"<td>{_fmt_burn(rule['burn_rate_long'])} / "
                        f"{_fmt_burn(rule['burn_rate_short'])}</td>"
                        f"<td>{'FIRING' if rule['firing'] else 'ok'}</td></tr>"
                    )
            body.append("</table>")
        body.append("</body></html>")
        return HtmlResponse("".join(body))

    def _explained(request: Request):
        """Shared ``/explore`` helper: run the query with provenance."""
        text = request.params.get("q", "")
        query = engine.parse(text)
        return engine.search_explained(query)

    def _waterfall_steps(provenance) -> list:
        """Waterfall steps with each stage's wall time merged in."""
        seconds_of = {stage.name: stage.seconds for stage in provenance.stages}
        steps = []
        for step in provenance.waterfall:
            merged = dict(step)
            merged["seconds"] = seconds_of.get(step["constraint"])
            steps.append(merged)
        return steps

    @router.get("/explore")
    def explore(request: Request) -> Response:
        """The slow-query explorer: provenance rendered for humans.

        For a query, shows the constraint waterfall (per-constraint
        strategy, wall time, selectivity, and the candidates each
        intersection step kept) and, for the top results, the PageRank
        score decomposition — which in-links carry the score, over which
        link structure, plus teleport/dangling mass. The SVGs are served
        by the ``/explore/*.svg`` siblings so they can also be embedded
        elsewhere.
        """
        text = request.params.get("q", "")
        body = [
            "<!doctype html><html><head><title>Query explorer</title></head><body>",
            "<h1>Query provenance explorer</h1>",
            '<form method="get" action="/explore">',
            f'<input name="q" size="70" value="{_html_escape(text)}" '
            'placeholder="keyword=wind kind=sensor sort=pagerank"/>',
            '<button type="submit">Explain</button></form>',
        ]
        if text.strip():
            try:
                results, provenance = _explained(request)
            except ReproError as exc:
                body.append(f"<p><strong>Error:</strong> {_html_escape(str(exc))}</p>")
            else:
                quoted = quote(text, safe="")
                body.append(
                    f"<p>{len(results)} of {results.total_candidates} candidates in "
                    f"{provenance.seconds * 1000:.2f} ms "
                    f"(trace <code>{_html_escape(str(provenance.trace_id))}</code>)</p>"
                )
                body.append("<h2>Constraint waterfall</h2>")
                body.append(
                    f'<img src="/explore/waterfall.svg?q={quoted}" '
                    'alt="constraint waterfall"/>'
                )
                body.append(
                    "<table border='1' cellpadding='4'>"
                    "<tr><th>constraint</th><th>strategy</th><th>matched</th>"
                    "<th>selectivity</th><th>ms</th></tr>"
                )
                for stage in provenance.stages:
                    body.append(
                        f"<tr><td>{_html_escape(stage.name)}</td>"
                        f"<td>{stage.strategy}</td><td>{stage.matched}</td>"
                        f"<td>{stage.selectivity:.1%}</td>"
                        f"<td>{stage.seconds * 1000:.2f}</td></tr>"
                    )
                body.append("</table>")
                if results:
                    top_title = results.results[0].title
                    body.append("<h2>Score provenance (top result)</h2>")
                    body.append(
                        f'<img src="/explore/contributions.svg?q={quoted}" '
                        'alt="score contributions"/>'
                    )
                    explanation = engine.ranker.explain(top_title)
                    body.append(
                        f"<p><b>{_html_escape(top_title)}</b>: score "
                        f"{explanation['score']:.6f} = teleport "
                        f"{explanation['teleport']:.6f} + dangling "
                        f"{explanation['dangling']:.6f} + "
                        f"{explanation['in_links']} in-link contributions</p>"
                    )
        body.append("</body></html>")
        return HtmlResponse("".join(body))

    @router.get("/explore/waterfall.svg")
    def explore_waterfall(request: Request) -> Response:
        _, provenance = _explained(request)
        chart = WaterfallChart(
            _waterfall_steps(provenance),
            title=f"Constraint waterfall: {provenance.query}",
        )
        return SvgResponse(chart.to_svg())

    @router.get("/explore/contributions.svg")
    def explore_contributions(request: Request) -> Response:
        """Bar chart of one page's score decomposition.

        ``title=`` picks the page (default: the query's top result);
        bars are the top-k in-link contributions (labelled with their
        source page and link structure) plus the teleport, dangling and
        remainder mass — the parts sum to the page's PageRank score.
        """
        title = request.params.get("title")
        if title is None:
            results, _ = _explained(request)
            if not results:
                return JsonResponse(
                    {"error": "query returned no results to explain"},
                    status="404 Not Found",
                )
            title = results.results[0].title
        top_k = _count(request, "top_k", 8)
        explanation = engine.ranker.explain(title, top_k=top_k)
        data = [
            (f"{entry['source']} [{entry['via']}]", entry["value"])
            for entry in explanation["contributions"]
        ]
        data.append(("(remainder)", explanation["remainder"]))
        data.append(("(dangling)", explanation["dangling"]))
        data.append(("(teleport)", explanation["teleport"]))
        chart = BarChart(
            data, title=f"Score provenance: {title} ({explanation['score']:.6f})"
        )
        return SvgResponse(chart.to_svg())

    @router.get("/healthz")
    def healthz(request: Request) -> Response:
        """Component health probes for load balancers and operators.

        Each probe reports ``ok``/``degraded``/``error``; a stale ranker
        (SMR moved on since the last refresh) is *degraded* because the
        next scoring call self-heals it, while an unreachable store is an
        *error* and flips the whole response to 503.
        """
        checks: Dict[str, Dict[str, Any]] = {}

        def probe(name, fn):
            try:
                checks[name] = fn()
            except Exception as exc:  # noqa: BLE001 — health must not raise
                obs.count_error(name)  # the probed component
                checks[name] = {"status": "error", "error": str(exc)}

        def smr_probe() -> Dict[str, Any]:
            return {
                "status": "ok",
                "pages": engine.smr.page_count,
                "generation": engine.smr.mutation_count,
            }

        def relational_probe() -> Dict[str, Any]:
            tables = engine.smr.db.table_names
            if not tables:
                return {"status": "error", "error": "no relational tables"}
            # A real (trivial) query proves the SQL engine end to end.
            engine.smr.sql(f"SELECT title FROM {tables[0]} LIMIT 1")
            return {"status": "ok", "tables": len(tables)}

        def rdf_probe() -> Dict[str, Any]:
            return {"status": "ok", "triples": len(engine.smr.rdf_graph())}

        def ranker_probe() -> Dict[str, Any]:
            freshness = engine.ranker.freshness()
            freshness["status"] = "ok" if freshness["fresh"] else "degraded"
            return freshness

        def cache_probe() -> Dict[str, Any]:
            info = engine.cache_info()
            info["status"] = "ok" if info.get("enabled") else "degraded"
            return info

        def indexes_probe() -> Dict[str, Any]:
            # Every register() updates the R-tree, so it never lags.
            info = engine.spatial_index_info()
            info["status"] = "ok"
            return info

        def slo_probe() -> Dict[str, Any]:
            evaluator = sampler.evaluator
            if evaluator is None or not evaluator.enabled:
                return {"status": "ok", "enabled": False}
            firing = evaluator.firing()
            fast = [a["slo"] for a in firing if a["severity"] == "fast"]
            return {
                # A firing fast-burn alert means the error budget is
                # draining at page-now speed: the service is degraded
                # even when every component probe below still passes.
                "status": "degraded" if fast else "ok",
                "enabled": True,
                "slos": len(evaluator.slos),
                "firing": len(firing),
                "fast_burn": fast,
                "sampler_running": sampler.running,
            }

        probe("smr", smr_probe)
        probe("relational", relational_probe)
        probe("rdf", rdf_probe)
        probe("ranker", ranker_probe)
        probe("cache", cache_probe)
        probe("indexes", indexes_probe)
        probe("slo", slo_probe)
        statuses = {check["status"] for check in checks.values()}
        overall = (
            "error" if "error" in statuses
            else "degraded" if "degraded" in statuses
            else "ok"
        )
        status_line = "503 Service Unavailable" if overall == "error" else "200 OK"
        return JsonResponse({"status": overall, "checks": checks}, status=status_line)

    @router.get("/api/suggest")
    def suggest_endpoint(request: Request) -> Response:
        keyword = request.params.get("q", "")
        return JsonResponse({"suggestions": engine.did_you_mean(keyword)})

    @router.get("/api/queries/popular")
    def popular_queries(request: Request) -> Response:
        k = _count(request, "k", 10)
        return JsonResponse(
            {
                "popular": [
                    {"query": q, "count": c} for q, c in engine.query_log.popular(k)
                ],
                "zero_results": engine.query_log.zero_result_queries(k),
            }
        )

    @router.get("/api/pagerank/top")
    def pagerank_top(request: Request) -> Response:
        k = _count(request, "k", 10)
        return JsonResponse(
            {"pages": [{"title": t, "score": s} for t, s in engine.ranker.top(k)]}
        )

    @router.get("/api/tags/cloud")
    def tag_cloud(request: Request) -> Response:
        cloud = tagging.cloud(top=_count(request, "top", None))
        return JsonResponse(
            {
                "tags": [
                    {
                        "tag": e.tag,
                        "count": e.count,
                        "size": e.size,
                        "cliques": e.clique_ids,
                    }
                    for e in cloud.entries
                ],
                "clique_count": len(cloud.cliques),
            }
        )

    @router.get("/api/tags/cloud.svg")
    def tag_cloud_svg(request: Request) -> Response:
        cloud = tagging.cloud(top=_count(request, "top", None))
        return SvgResponse(render_tag_cloud_svg(cloud))

    @router.post("/api/tags")
    def create_tag(request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict) or "page" not in payload or "tag" not in payload:
            return JsonResponse(
                {"error": "body must be {\"page\": ..., \"tag\": ...}"},
                status="400 Bad Request",
            )
        created = tagging.create_tag(str(payload["page"]), str(payload["tag"]))
        return JsonResponse({"created": created}, status="201 Created" if created else "200 OK")

    @router.get("/api/viz/map.svg")
    def viz_map(request: Request) -> Response:
        results = _search(request)
        markers = [
            MapMarker(r.location, r.title, r.match_degree) for r in results.located()
        ]
        return SvgResponse(MapRenderer().render(markers, title=results.query_description))

    @router.get("/api/viz/facets.svg")
    def viz_facets(request: Request) -> Response:
        results = _search(request)
        prop = request.params.get("prop", "")
        chart = request.params.get("chart", "bar")
        pairs = engine.facets(results, prop)
        if chart == "pie":
            return SvgResponse(PieChart(pairs, title=f"{prop} facets").to_svg())
        return SvgResponse(BarChart(pairs, title=f"{prop} facets").to_svg())

    def application(environ, start_response):
        request = Request(environ)
        try:
            if not debug and (request.path + "/").startswith("/debug/"):
                response = JsonResponse(
                    {"error": "debug endpoints are disabled on this deployment"},
                    status="403 Forbidden",
                )
            else:
                response = router.dispatch(request)
        except ReproError as exc:
            response = JsonResponse(
                {"error": str(exc), "type": type(exc).__name__}, status="400 Bad Request"
            )
        except (ValueError, KeyError) as exc:
            response = JsonResponse({"error": str(exc)}, status="400 Bad Request")
        except Exception as exc:  # noqa: BLE001 — uniform 500 envelope
            # Without this, an unexpected bug would propagate to the WSGI
            # server's own 500 page — which bypasses the middleware's
            # X-Trace-Id stamping. Every response, crashes included, must
            # carry the trace id; it is the handle users quote back.
            obs.count_error("http.unhandled_error")
            obs.get_event_log().error(
                "http.unhandled_error",
                path=request.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = JsonResponse(
                {
                    "error": "internal server error",
                    "type": type(exc).__name__,
                    "trace_id": obs.current_trace_id(),
                },
                status="500 Internal Server Error",
            )
        start_response(response.status, response.headers)
        return [response.body]

    app = MetricsMiddleware(application, router)
    app.sampler = sampler
    owns_thread = bool(start_sampler) and sampler.start()

    def close() -> None:
        """Stop the sampler thread iff this app started it (idempotent)."""
        nonlocal owns_thread
        if owns_thread:
            sampler.stop()
            owns_thread = False

    app.close = close
    return app


class MetricsMiddleware:
    """WSGI middleware recording per-endpoint request counts and latency.

    Endpoints are labelled by the router's route *template* (e.g.
    ``/api/page/{title}``), never the raw path, so label cardinality is
    bounded by the route table. Each request also opens an ``http.request``
    span, making the engine/tagging spans it triggers children of the
    HTTP request in ``/debug/trace``.

    The middleware is where request-scoped **trace correlation** starts:
    it mints one trace id per request, binds it for the request's thread
    (so the root span, every :class:`~repro.obs.log.EventLog` record and
    every convergence run the request triggers carry it), and stamps it
    onto the response as ``X-Trace-Id`` — on *every* response, error
    responses and the observability-disabled fast path included, because
    the header is the handle users quote back when reporting a problem.
    """

    def __init__(self, app, router: Router):
        self.app = app
        self.router = router

    def __call__(self, environ, start_response):
        registry = obs.get_registry()
        tracer = obs.get_tracer()
        event_log = obs.get_event_log()
        trace_id = obs.mint_trace_id()
        captured: Dict[str, str] = {"status": "500"}

        def stamping_start_response(status, headers, exc_info=None):
            captured["status"] = status.split(" ", 1)[0]
            headers = list(headers) + [("X-Trace-Id", trace_id)]
            if exc_info:
                return start_response(status, headers, exc_info)
            return start_response(status, headers)

        if not registry.enabled and not tracer.enabled and not event_log.enabled:
            # Everything is off: skip spans/metrics/logs entirely (the
            # <1 %-disabled overhead gate) but still stamp the header.
            return self.app(environ, stamping_start_response)
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        endpoint = self.router.endpoint_of(method, path)
        start = time.perf_counter()
        obs.bind_trace_id(trace_id)
        try:
            event_log.debug(
                "http.request.start", method=method, path=path, endpoint=endpoint
            )
            with tracer.span("http.request", method=method, endpoint=endpoint) as span:
                body = self.app(environ, stamping_start_response)
                span.set_attribute("status", captured["status"])
            elapsed = time.perf_counter() - start
            event_log.info(
                "http.request.end",
                method=method,
                endpoint=endpoint,
                status=captured["status"],
                seconds=elapsed,
            )
            # Record latency while the trace id is still bound: the
            # histogram's exemplar reads the *current* trace id, and an
            # exemplar without one cannot link a percentile to its trace.
            if registry.enabled:
                registry.counter(
                    "http_requests_total",
                    "HTTP requests served per endpoint, method and status.",
                    labels=("endpoint", "method", "status"),
                ).labels(endpoint, method, captured["status"]).inc()
                registry.histogram(
                    "http_request_seconds",
                    "HTTP request latency per endpoint.",
                    labels=("endpoint",),
                ).labels(endpoint).observe(elapsed)
        finally:
            obs.unbind_trace_id()
        return body


def serve(app, host: str = "127.0.0.1", port: int = 8000) -> None:
    """Serve the app with wsgiref (blocking; demo use only).

    Turns on histogram exemplar collection for the served process, so
    ``/metrics?format=openmetrics`` bucket lines and the ``/api/stats``
    percentiles link to concrete trace ids out of the box (the library
    default stays off for embedders that never scrape exemplars). Also
    starts the app's metrics sampler so ``/api/timeseries`` and
    ``/debug/dashboard`` have history from the first request on.
    """
    obs.get_registry().enable_exemplars()
    sampler = getattr(app, "sampler", None)
    if sampler is not None:
        sampler.start()
    with make_server(host, port, app) as server:
        print(f"serving on http://{host}:{port}")
        server.serve_forever()
