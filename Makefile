# Convenience entry points; everything runs on PYTHONPATH=src so no
# install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test docs-check bench bench-smoke bench-cache bench-planner obs-check

## Tier-1: the full unit/integration suite (includes docs-check).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

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
## planner-off scan, engine R-tree bbox probe >= 5x over the seed scan.
bench-planner:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_planner_indexes.py -q --benchmark-disable

## Observability gate: unit tests + web surfaces + time series/SLOs +
## dashboard SVG well-formedness + the overhead budget (which now also
## covers the sampler thread and SLO evaluation in its enabled mode).
obs-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_obs.py tests/test_obs_log.py tests/test_provenance.py tests/test_slowlog.py tests/test_timeseries.py tests/test_slo.py tests/test_web.py tests/test_svg_wellformed.py -q
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q
