# Convenience entry points; everything runs on PYTHONPATH=src so no
# install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-dev doctest docs-check bench bench-smoke bench-cache bench-planner bench-scale bench-tagging obs-check search-bodies search-bodies-cmp

## Tier-1: the full unit/integration suite (includes docs-check).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## The suites around the SMR's lock, its write-through lookups and the
## result cache's lock, in development mode (-X dev) with a leaked
## resource (ResourceWarning) turned into an error.
TEST_DEV_FILES := tests/test_smr.py tests/test_core_engine.py tests/test_concurrency.py \
	tests/test_planner.py tests/test_web.py tests/test_perf_cache.py
test-dev:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -X dev -W error::ResourceWarning -m pytest $(TEST_DEV_FILES) -q

## The docstring examples under src/ (the Database quick-start among them).
doctest:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest --doctest-modules src/repro -q

## Documentation gate: package + invariant docstrings, markdown
## cross-links, required docs, stale-claim scan. On failure pytest names
## the missing or stale doc file in the assertion message.
docs-check:
	@PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_docs_check.py -q || \
		{ echo "docs-check FAILED: a doc file is missing, unlinked, or stale — the failing test names it (look for 'missing docs/...' or 'stale doc: ...' above)."; exit 1; }

## All benchmarks (one module per paper figure); writes benchmarks/results/.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

## Fast CI pass over every benchmark module: tiny corpora, identity and
## accounting assertions kept, timing gates skipped. Rewrites
## benchmarks/results/ with smoke-scale numbers — run `make bench`
## afterwards if you need the committed full-scale results back.
bench-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

## The docs/PERFORMANCE.md headline numbers: caching + warm starts.
bench-cache:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_cache_warmstart.py -q

## The docs/QUERY_PLANNING.md gates: B+-tree range >= 3x over the
## unindexed scan, engine R-tree bbox probe >= 5x over the linear scan.
bench-planner:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_planner_indexes.py -q --benchmark-disable

## The scaling table and the xlarge gates: 20 distinct cold queries of
## each perfbench search_cold shape on 100k+ pages, every one under the
## 250 ms search SLO, then the ranker refresh after each of 8 stream
## creations, incremental with a median under 500 ms, then, after 10,000
## more stream events, the ingest_mixed SPARQL read after each of 20
## observations, with a median under 10 ms. Not in CI: the 100k build
## takes about two minutes and 1.9 GB (bench-smoke runs the module at
## smoke scale, ungated).
bench-scale:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_scale_corpus.py -q --benchmark-disable

## The Fig. 4 gates bench-smoke skips or weakens: the vectorized
## similarity kernel bitwise equal to the pairwise loop and >= 2x faster,
## and cached cloud builds outnumbering misses. Benchmarking stays on:
## with --benchmark-disable the cache test sees one hit against one miss.
bench-tagging:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_fig4_tagging_pipeline.py -q

## Observability gate: unit tests + web surfaces + time series/SLOs +
## dashboard SVG well-formedness + the overhead budget (which now also
## covers the sampler thread and SLO evaluation in its enabled mode).
obs-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_obs.py tests/test_obs_log.py tests/test_provenance.py tests/test_slowlog.py tests/test_timeseries.py tests/test_slo.py tests/test_web.py tests/test_svg_wellformed.py -q
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q

## Byte oracle for the search path: every seed-1 perfbench /api/search
## body (warm-ups, cold, hot and ingest lists, and limit=0, offset=3,
## explain=1 and explain=full variants of 70 cold queries), one a line,
## trace ids and explain=full timings blanked. Write it on two checkouts
## and cmp the files.
search-bodies:
	@test -n "$(OUT)" || { echo "usage: make search-bodies OUT=<file>"; exit 2; }
	PYTHONHASHSEED=1 $(PYTHON) benchmarks/search_bodies.py $(OUT)

## The byte oracle of BASE against the working tree's: BASE is checked out
## into a temporary git worktree (removed afterwards), both sides write
## their bodies with this tree's script, and the first differing line's
## workload, list and query are printed.
search-bodies-cmp:
	@test -n "$(BASE)" || { echo "usage: make search-bodies-cmp BASE=<rev>"; exit 2; }
	$(PYTHON) benchmarks/search_bodies_cmp.py $(BASE)
