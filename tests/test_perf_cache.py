"""Tests for the query-result cache (repro.perf) and its engine wiring.

The load-bearing case is the stale-cache regression at the bottom: an
SMR page edit must change what subsequent searches return — a cached
pre-edit result may never survive a mutation.
"""

import pytest

from repro import obs
from repro.core import AccessPolicy, AdvancedSearchEngine, User
from repro.core.query import parse_query
from repro.errors import ReproError
from repro.perf import GenerationalLruCache, result_cache_key
from repro.smr import SensorMetadataRepository


# ----------------------------------------------------------------------
# GenerationalLruCache unit behavior
# ----------------------------------------------------------------------


@pytest.fixture
def registry():
    """A fresh metrics registry for one test; the old one comes back after."""
    fresh = obs.MetricsRegistry()
    previous = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(previous)


class TestGenerationalLruCache:
    def test_miss_then_hit(self):
        cache = GenerationalLruCache(capacity=4)
        assert cache.get("k", 0) is None
        cache.put("k", 0, "value")
        assert cache.get("k", 0) == "value"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_stale_generation_counts_separately_and_evicts(self):
        cache = GenerationalLruCache(capacity=4)
        cache.put("k", 0, "old")
        assert cache.get("k", 1) is None  # generation moved on
        assert cache.stats.stale == 1
        assert cache.stats.misses == 0
        assert len(cache) == 0  # lazily dropped
        assert cache.get("k", 1) is None  # now a plain miss
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = GenerationalLruCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.get("a", 0)  # refresh a; b is now least recently used
        cache.put("c", 0, 3)
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.get("c", 0) == 3
        assert cache.stats.evictions == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = GenerationalLruCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.put("a", 0, 10)
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.get("a", 0) == 10

    def test_put_of_a_new_generation_drops_dead_entries(self):
        cache = GenerationalLruCache(capacity=4)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.put("a", 1, 10)
        assert len(cache) == 1
        assert cache.lookup("b", 1) == (None, "miss")  # dropped, not stale
        assert cache.stats.evictions == 0
        assert cache.get("a", 1) == 10

    def test_a_put_that_raced_a_write_is_never_served(self):
        """The racing order: a reader stamped before a write puts last.

        Its put drops the live entry (a lost hit) and its own value stays
        stamped with the dead generation, so no lookup at the live
        generation returns it.
        """
        cache = GenerationalLruCache(capacity=4)
        cache.put("k1", 2, "fresh")
        cache.put("k2", 1, "raced")
        assert cache.stats.evictions == 0
        assert cache.lookup("k1", 2) == (None, "miss")
        assert cache.lookup("k2", 2) == (None, "stale")
        cache.put("k2", 2, "recomputed")
        assert cache.get("k2", 2) == "recomputed"

    def test_entries_gauge_follows_every_change(self, registry):
        cache = GenerationalLruCache(capacity=4, name="gauged")

        def gauge():
            return registry.get("perf_cache_entries").labels("gauged").value

        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert gauge() == 2.0  # put
        assert cache.get("a", 1) is None
        assert gauge() == 1.0  # stale drop on lookup
        cache.put("c", 1, 3)
        assert gauge() == 1.0  # new generation drops "b"
        cache.put("d", 1, 4)
        cache.clear()
        assert gauge() == 0.0  # clear

    def test_clear_keeps_statistics(self):
        cache = GenerationalLruCache(capacity=2)
        cache.put("a", 0, 1)
        cache.get("a", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            GenerationalLruCache(capacity=0)

    def test_hit_rate(self):
        cache = GenerationalLruCache(capacity=2)
        assert cache.stats.hit_rate == 0.0
        cache.put("a", 0, 1)
        cache.get("a", 0)
        cache.get("missing", 0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_unhashable_key_raises_cleanly(self):
        cache = GenerationalLruCache(capacity=2)
        with pytest.raises(TypeError):
            cache.put(["list", "key"], 0, 1)
        with pytest.raises(TypeError):
            cache.get(["list", "key"], 0)
        assert len(cache) == 0
        cache.put("a", 0, 1)  # the lock was released: still usable
        assert cache.get("a", 0) == 1


# ----------------------------------------------------------------------
# Cache-key normalization
# ----------------------------------------------------------------------


class TestResultCacheKey:
    def test_keyword_whitespace_and_case_normalize(self):
        anonymous = User("anon", AccessPolicy.allow_all())
        a = result_cache_key(parse_query("keyword=Wind Speed"), anonymous)
        b = result_cache_key(parse_query("keyword=wind   speed"), anonymous)
        assert a == b

    def test_filter_order_is_insensitive(self):
        anonymous = User("anon", AccessPolicy.allow_all())
        a = result_cache_key(
            parse_query("kind=station elevation_m>=2000 status=online"), anonymous
        )
        b = result_cache_key(
            parse_query("kind=station status=online elevation_m>=2000"), anonymous
        )
        assert a == b

    def test_pagination_and_sort_stay_distinct(self):
        anonymous = User("anon", AccessPolicy.allow_all())
        base = result_cache_key(parse_query("kind=station limit=5"), anonymous)
        assert base != result_cache_key(parse_query("kind=station limit=6"), anonymous)
        assert base != result_cache_key(
            parse_query("kind=station limit=5 offset=5"), anonymous
        )
        assert base != result_cache_key(
            parse_query("kind=station limit=5 sort=elevation_m"), anonymous
        )

    def test_privileges_separate_users(self):
        query = parse_query("keyword=wind")
        unrestricted = User("root", AccessPolicy.allow_all())
        restricted = User("guest", AccessPolicy.restrict_to(["station"]))
        assert result_cache_key(query, unrestricted) != result_cache_key(
            query, restricted
        )
        same_rights = User("guest2", AccessPolicy.restrict_to(["station"]))
        assert result_cache_key(query, restricted) == result_cache_key(
            query, same_rights
        )


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


def _make_smr() -> SensorMetadataRepository:
    smr = SensorMetadataRepository()
    smr.register(
        "station",
        "Station:CACHE-001",
        [("name", "CACHE-001"), ("elevation_m", 2100), ("status", "online")],
    )
    smr.register(
        "station",
        "Station:CACHE-002",
        [("name", "CACHE-002"), ("elevation_m", 1500), ("status", "offline")],
    )
    return smr


class TestEngineCacheWiring:
    def test_repeated_search_hits_cache(self):
        engine = AdvancedSearchEngine(_make_smr())
        query = engine.parse("kind=station elevation_m>=2000")
        first = engine.search(query)
        second = engine.search(query)
        assert second is first  # the cached object is served
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_cache_disabled_with_none(self):
        engine = AdvancedSearchEngine(_make_smr(), cache=None)
        query = engine.parse("kind=station")
        first = engine.search(query)
        second = engine.search(query)
        assert second is not first
        assert engine.cache_info() == {"enabled": False}

    def test_cache_info_shape(self):
        engine = AdvancedSearchEngine(_make_smr())
        engine.search(engine.parse("kind=station"))
        info = engine.cache_info()
        assert info["enabled"] is True
        assert info["entries"] == 1
        assert info["capacity"] == 256
        assert isinstance(info["generation"], list)
        assert 0.0 <= info["hit_rate"] <= 1.0

    def test_users_with_different_privileges_do_not_share(self):
        engine = AdvancedSearchEngine(_make_smr())
        query = engine.parse("keyword=cache")
        unrestricted = engine.search(query, User("root", AccessPolicy.allow_all()))
        restricted = engine.search(
            query, User("guest", AccessPolicy.restrict_to(["sensor"]))
        )
        assert unrestricted.total_candidates > 0
        assert restricted.total_candidates == 0
        assert engine.cache_info()["misses"] == 2  # two entries, no sharing

    def test_ranker_refresh_invalidates_cached_results(self):
        engine = AdvancedSearchEngine(_make_smr())
        query = engine.parse("kind=station")
        first = engine.search(query)
        engine.ranker.refresh()  # scores may change; cached results embed them
        second = engine.search(query)
        assert second is not first
        assert engine.cache_info()["stale"] == 1


# ----------------------------------------------------------------------
# The stale-cache regression: edits must be visible immediately
# ----------------------------------------------------------------------


class TestStaleCacheRegression:
    def test_page_edit_changes_subsequent_search_results(self):
        smr = _make_smr()
        engine = AdvancedSearchEngine(smr)
        query = engine.parse("kind=station elevation_m>=2000")
        before = engine.search(query)
        assert before.titles == ["Station:CACHE-001"]
        # Warm the cache, then edit a page so it newly matches the query.
        engine.search(query)
        smr.register(
            "station",
            "Station:CACHE-002",
            [("name", "CACHE-002"), ("elevation_m", 2600), ("status", "online")],
        )
        after = engine.search(query)
        assert sorted(after.titles) == ["Station:CACHE-001", "Station:CACHE-002"]
        assert engine.cache_info()["stale"] == 1

    def test_new_page_visible_immediately(self):
        smr = _make_smr()
        engine = AdvancedSearchEngine(smr)
        query = engine.parse("keyword=freshpage")
        assert engine.search(query).total_candidates == 0
        smr.register("station", "Station:FRESHPAGE", [("name", "freshpage")])
        assert engine.search(query).total_candidates == 1

    def test_edit_landing_mid_search_does_not_pin_stale_results(self):
        """The generation is captured before the pipeline runs.

        A write that lands between the generation read and the cache put
        stamps the entry with the pre-write generation, so the next
        lookup treats it as stale instead of serving it.
        """
        smr = _make_smr()
        engine = AdvancedSearchEngine(smr)
        query = engine.parse("kind=station")
        generation = engine.ranker.generation
        results = engine.search(query)
        smr.register("station", "Station:MIDFLIGHT", [("name", "midflight")])
        # Simulate the racing put: stamped with the pre-write generation.
        key = result_cache_key(query, User("anon", AccessPolicy.allow_all()))
        engine.cache.put(key, generation, results)
        fresh = engine.search(query)
        assert "Station:MIDFLIGHT" in fresh.titles
