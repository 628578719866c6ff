"""Documentation gate (run standalone via ``make docs-check``).

Part of tier-1: every ``repro`` package must carry a substantive,
paper-anchored module docstring, the two architecture documents must
exist and be linked from the README, and no relative markdown link in
README/docs may point at a missing file. Prose that drifts from the tree
fails the build instead of rotting quietly.
"""

import importlib
import os
import pkgutil
import re

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every package docstring must tie the code back to the source paper.
PAPER_ANCHOR = re.compile(r"Section|Fig\.|Eq\.|paper|ICDE|demo")

#: Inline markdown links ``[text](target)``; external schemes are skipped.
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s#]+)[^)]*\)")

#: The documents this repo promises (and links) at minimum.
REQUIRED_DOCS = [
    "docs/ARCHITECTURE.md",
    "docs/PERFORMANCE.md",
    "docs/OBSERVABILITY.md",
    "docs/QUERY_PLANNING.md",
]

#: Sections a document promises (heading text, verbatim). A doc that
#: exists but lost a promised section is as stale as a missing doc.
REQUIRED_SECTIONS = {
    "docs/OBSERVABILITY.md": ["Time series, SLOs and the dashboard"],
}

#: Modules whose docstrings must state their operating invariants, and a
#: phrase each docstring must contain (evidence the invariant is written
#: down, not just that a docstring exists).
INVARIANT_DOCSTRINGS = {
    "repro.text.inverted_index": ["Write-through", "Re-add replaces"],
    "repro.smr.repository": [
        "Write-through",
        "export_rdf",
        "canonical title",
        "Write-through search lookups",
    ],
    "repro.relational.planner": ["NULL", "Superset"],
    "repro.relational.executor": ["flat tuples", "once per statement", "No per-statement state"],
    "repro.core.ranking": ["link_generation", "mutation_count", "bit for bit"],
    "repro.pagerank.incremental": ["every dirty row", "falls back"],
    "repro.obs.provenance": ["never mutated once published"],
    "repro.core.autocomplete": ["generation"],
    "repro.core.recommend": ["generation"],
}


def _markdown_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return files


#: Names of the deleted worker pools and sharded engine: searches and
#: kernels run serially, so no document may still describe them.
DELETED_PARALLELISM = re.compile(
    r'ProcessWorkerPool|parallel_map|kind="cpu"|REPRO_POOL_SIZE|REPRO_PROCPOOL|ShardedSearchEngine'
)

#: The deleted alert fan-out, slow-query knob and disabled fast path:
#: one record per search feeds every query view, so no document may
#: still describe them.
DELETED_OBS = re.compile(
    r"repro\.obs\.notify|NotificationHub|WebhookStubNotifier|slow_query_seconds"
    r"|one flag check per component"
)

#: The deleted index structures and switches: one index structure per
#: predicate shape and one access-path chooser, so no document may still
#: describe them.
DELETED_RELATIONAL = re.compile(
    r"ExtendibleHashIndex|SortedIndex|USING sorted|planner=False|topk=False"
    r"|extendible[\s-]hash",
    re.IGNORECASE,
)

#: The deleted engine memos: the SMR keeps the IRI map, the locations
#: and the R-tree current on every write, so no document may still
#: describe a memo the engine rebuilds.
DELETED_ENGINE_MEMOS = re.compile(
    r"_iri_title_map|_spatial_index_for|_cached_location|generation-stamped\s+R-tree",
    re.IGNORECASE,
)

#: The deleted second cache, second scorer and manual refreshes: every
#: derived view is stamped with the generation it was built from, and
#: BM25 over OR semantics is the only ranking, so no document may still
#: describe them.
DELETED_CACHES = re.compile(
    r"LruTtlCache|TfidfVectorizer|tagging_cache_|LRU\+TTL|TTL\+LRU"
    r"|autocomplete\.refresh|recommender\.refresh"
    r"|(?i:require_all|tf-?idf)"
)

#: The deleted second search paths: one constraint list that search and
#: explain both read, one scorer, and the R-tree as the only bbox path,
#: so no document may still describe them.
DELETED_ENGINE_PATHS = re.compile(
    r"spatial_index=False|BBoxScan|_evaluate_constraints|_filter_strategy|_titles_in_bbox"
)

#: The deleted prefix trie: title and property completion read the
#: wiki's kept sorted titles and property counts, so no document may
#: still describe a trie behind autocomplete.
DELETED_AUTOCOMPLETE = re.compile(
    r"\bTrie\b|repro\.text\.trie|(?i:(?:autocomplete|title|property)\s+tries?\b)"
)

#: The deleted per-query stores, counters and request lines: the
#: provenance ring is the only per-search record, and the ``http.request``
#: span holds what the request lines said, so no document may still
#: describe them.
DELETED_QUERY_SINKS = re.compile(
    r"SlowQueryLog|repro\.obs\.slowlog|\bQueryLog\b|set_slow_query_log"
    r"|http\.request\.(?:start|end)|engine_queries_total|engine_zero_result_queries_total"
)

#: Claims that once were true and must never reappear: (file, regex,
#: what replaced them). Docs drift is a build failure, not a shrug.
STALE_CLAIMS = [
    (
        "ROADMAP.md",
        re.compile(r"keyword constraints currently walk pages", re.IGNORECASE),
        "keyword constraints run InvertedIndexScan now",
    ),
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_PARALLELISM,
        "serial is the only execution path; the worker pools and repro.shard are gone",
    )
    for path in _markdown_files()
] + [
    (
        "docs/PERFORMANCE.md",
        re.compile(r"of which about 3\.7\s+ms\s+rebuilds\s+both\s+link\s+graphs"),
        "the ranker rebuilds its link graphs only when WikiSite.link_generation moves",
    ),
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_OBS,
        "one record per search feeds every query view; repro.obs.notify, the "
        "slow_query_seconds knob and the disabled fast path are gone",
    )
    for path in _markdown_files()
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_RELATIONAL,
        "USING hash is the flat HashIndex and the B+-tree the one ordered index; "
        "the cost-based planner is the only access-path chooser and a limited "
        "score sort always takes the heap top-k",
    )
    for path in _markdown_files()
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_ENGINE_MEMOS,
        "register() keeps the IRI map, the locations and the R-tree current in "
        "the SMR; the engine rebuilds no memo",
    )
    for path in _markdown_files()
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_CACHES,
        "the tag-cloud cache is a GenerationalLruCache, the drop-down values "
        "rebuild on the first read after the generation moves, and BM25 is the "
        "only keyword scorer",
    )
    for path in _markdown_files()
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_ENGINE_PATHS,
        "search and explain_search read one constraint list, and every bbox "
        "probes the R-tree",
    )
    for path in _markdown_files()
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_AUTOCOMPLETE,
        "title and property completion read WikiSite.titles_with_prefix and the "
        "kept property counts; the Trie is gone",
    )
    for path in _markdown_files()
] + [
    (
        os.path.relpath(path, REPO_ROOT),
        DELETED_QUERY_SINKS,
        "the provenance ring is the only per-search store: /debug/slow, the "
        "/api/stats slow queries and /api/queries/popular read it, the histograms' "
        "counts replace the two counters, and the http.request span replaces the "
        "request lines",
    )
    for path in _markdown_files()
]


def _claim_ids(claims):
    """Each claim's file, with ``#2``, ``#3``... on later claims about one file."""
    seen = {}
    ids = []
    for path, _, _ in claims:
        seen[path] = seen.get(path, 0) + 1
        ids.append(path if seen[path] == 1 else f"{path}#{seen[path]}")
    return ids


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _packages())
def test_package_has_paper_anchored_docstring(name):
    doc = importlib.import_module(name).__doc__
    assert doc and len(doc.strip()) >= 80, (
        f"{name}/__init__.py needs a substantive module docstring "
        f"(one paragraph, >= 80 chars)"
    )
    assert PAPER_ANCHOR.search(doc), (
        f"{name}'s docstring must anchor the package to the paper "
        f"(mention a Section/Fig./Eq. or the paper/demo itself)"
    )


def _relative_links(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        yield target


@pytest.mark.parametrize(
    "path", _markdown_files(), ids=lambda p: os.path.relpath(p, REPO_ROOT)
)
def test_markdown_relative_links_resolve(path):
    broken = []
    for target in _relative_links(path):
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            broken.append(target)
    assert not broken, (
        f"{os.path.relpath(path, REPO_ROOT)} links to missing files: {broken}"
    )


def test_required_docs_exist_and_are_linked_from_readme():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for doc in REQUIRED_DOCS:
        assert os.path.exists(os.path.join(REPO_ROOT, doc)), f"missing {doc}"
        assert doc in readme, f"README.md must link to {doc}"


@pytest.mark.parametrize(
    "rel_path,sections",
    sorted(REQUIRED_SECTIONS.items()),
    ids=sorted(REQUIRED_SECTIONS),
)
def test_required_sections_present(rel_path, sections):
    path = os.path.join(REPO_ROOT, rel_path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [section for section in sections if section not in text]
    assert not missing, f"{rel_path} must contain the section(s) {missing}"


@pytest.mark.parametrize("name", sorted(INVARIANT_DOCSTRINGS))
def test_module_docstring_states_invariants(name):
    doc = importlib.import_module(name).__doc__ or ""
    missing = [
        phrase for phrase in INVARIANT_DOCSTRINGS[name] if phrase not in doc
    ]
    assert not missing, (
        f"{name}'s module docstring must state its invariants; "
        f"missing the phrase(s) {missing}"
    )


@pytest.mark.parametrize("rel_path,pattern,fix", STALE_CLAIMS, ids=_claim_ids(STALE_CLAIMS))
def test_docs_carry_no_stale_claims(rel_path, pattern, fix):
    path = os.path.join(REPO_ROOT, rel_path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    match = pattern.search(text)
    assert match is None, (
        f"stale doc: {rel_path} still claims {match.group(0)!r} — {fix}"
    )


def test_docs_reference_real_benchmark_results():
    """The PERFORMANCE.md numbers table cites files that must exist."""
    path = os.path.join(REPO_ROOT, "docs", "PERFORMANCE.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    cited = set(re.findall(r"`([a-z0-9_]+\.txt)`", text))
    assert cited, "PERFORMANCE.md should cite its result files"
    missing = [
        name
        for name in sorted(cited)
        if not os.path.exists(os.path.join(REPO_ROOT, "benchmarks", "results", name))
    ]
    assert not missing, f"PERFORMANCE.md cites missing result files: {missing}"
