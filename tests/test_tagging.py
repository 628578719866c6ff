"""Tests for the dynamic tagging system (paper Section IV)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TaggingError
from repro.tagging import (
    TagCloudBuilder,
    TagGraph,
    TagStore,
    TaggingSystem,
    bron_kerbosch,
    build_similarity,
    degeneracy_order,
    font_sizes,
)
from repro.tagging.cliques import cliques_by_tag
from repro.workloads.tags import generate_tag_workload


class TestTagStore:
    def test_create_and_lookup(self):
        store = TagStore()
        assert store.create("Page:1", "Snow")
        assert not store.create("Page:1", "snow  ")  # normalized duplicate
        assert store.tags_of("Page:1") == ["snow"]
        assert store.pages_of("SNOW") == ["Page:1"]

    def test_remove(self):
        store = TagStore()
        store.create("Page:1", "a")
        assert store.remove("Page:1", "a")
        assert not store.remove("Page:1", "a")
        assert store.tag_count == 0

    def test_empty_tag_rejected(self):
        store = TagStore()
        with pytest.raises(TaggingError):
            store.create("Page:1", "   ")
        with pytest.raises(TaggingError):
            store.create("", "tag")

    def test_counts_and_top(self):
        store = TagStore()
        for page in ("P1", "P2", "P3"):
            store.create(page, "popular")
        store.create("P1", "rare")
        assert store.counts() == {"popular": 3, "rare": 1}
        assert store.top_tags(1) == [("popular", 3)]

    def test_version_bumps_on_mutation(self):
        store = TagStore()
        v0 = store.version
        store.create("P", "t")
        assert store.version == v0 + 1
        store.remove("P", "t")
        assert store.version == v0 + 2

    def test_import_from_smr(self):
        from repro.smr import SensorMetadataRepository

        smr = SensorMetadataRepository()
        smr.register(
            "sensor",
            "Sensor:S",
            [("sensor_type", "wind speed"), ("sampling_rate_s", 60), ("manufacturer", "Vaisala")],
        )
        store = TagStore()
        added = store.import_from_smr(smr, ["sensor_type", "manufacturer", "sampling_rate_s"])
        # Numeric values are not topics; only the two strings become tags.
        assert added == 2
        assert store.tags() == ["vaisala", "wind speed"]


class TestSimilarity:
    def test_cooccurring_tags_linked(self):
        store = TagStore()
        for i in range(4):
            store.create(f"P{i}", "x")
            store.create(f"P{i}", "y")
        store.create("Q", "z")
        matrix = build_similarity(store)
        assert matrix.similarity("x", "y") == pytest.approx(1.0)
        assert matrix.linked("x", "y")
        assert matrix.similarity("x", "z") == 0.0
        assert not matrix.linked("x", "z")

    def test_threshold_is_exclusive(self):
        store = TagStore()
        # a on {P1,P2}, b on {P1,P3}: cosine = 1/2 exactly.
        store.create("P1", "a")
        store.create("P2", "a")
        store.create("P1", "b")
        store.create("P3", "b")
        matrix = build_similarity(store, threshold=0.5)
        assert matrix.similarity("a", "b") == pytest.approx(0.5)
        assert not matrix.linked("a", "b")  # "above 50%" is strict

    def test_bad_threshold(self):
        with pytest.raises(TaggingError):
            build_similarity(TagStore(), threshold=1.5)

    def test_unknown_tag_lookup(self):
        matrix = build_similarity(TagStore())
        with pytest.raises(TaggingError):
            matrix.similarity("a", "b")


class TestTagGraph:
    def test_edges_and_degrees(self):
        graph = TagGraph(["a", "b", "c"])
        graph.add_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert graph.degree("a") == 1
        assert graph.degree("c") == 0
        assert graph.edge_count == 1
        assert graph.edges() == [("a", "b")]

    def test_self_loop_rejected(self):
        graph = TagGraph(["a"])
        with pytest.raises(TaggingError):
            graph.add_edge("a", "a")

    def test_unknown_node(self):
        with pytest.raises(TaggingError):
            TagGraph().neighbors("ghost")

    def test_subgraph(self):
        graph = TagGraph(["a", "b", "c"])
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        sub = graph.subgraph(["a", "b"])
        assert sub.nodes == ["a", "b"]
        assert sub.edge_count == 1

    def test_connected_components(self):
        graph = TagGraph(["a", "b", "c", "d", "e"])
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("d", "e")
        components = graph.connected_components()
        assert components[0] == {"a", "b", "c"}
        assert components[1] == {"d", "e"}


class TestBronKerbosch:
    def test_triangle_plus_edge(self):
        graph = TagGraph(["a", "b", "c", "d"])
        for x, y in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]:
            graph.add_edge(x, y)
        cliques = bron_kerbosch(graph)
        assert frozenset({"a", "b", "c"}) in cliques
        assert frozenset({"c", "d"}) in cliques
        assert len(cliques) == 2

    def test_isolated_nodes_are_singletons(self):
        graph = TagGraph(["a", "b"])
        cliques = bron_kerbosch(graph)
        assert sorted(cliques, key=sorted) == [frozenset({"a"}), frozenset({"b"})]

    def test_complete_graph_single_clique(self):
        graph = TagGraph(["a", "b", "c", "d"])
        for i, x in enumerate("abcd"):
            for y in "abcd"[i + 1 :]:
                graph.add_edge(x, y)
        cliques = bron_kerbosch(graph)
        assert cliques == [frozenset({"a", "b", "c", "d"})]

    def test_bridge_node_in_two_cliques(self):
        """The paper's Fig. 5 scenario: 'apple' belongs to two cliques."""
        graph = TagGraph(["apple", "banana", "cherry", "mac", "iphone"])
        for x, y in [
            ("apple", "banana"),
            ("apple", "cherry"),
            ("banana", "cherry"),
            ("apple", "mac"),
            ("apple", "iphone"),
            ("mac", "iphone"),
        ]:
            graph.add_edge(x, y)
        cliques = bron_kerbosch(graph)
        membership = cliques_by_tag(cliques)
        assert len(membership["apple"]) == 2
        assert len(membership["banana"]) == 1

    def test_degeneracy_order_deterministic(self):
        graph = TagGraph(["a", "b", "c"])
        graph.add_edge("a", "b")
        assert degeneracy_order(graph) == degeneracy_order(graph)

    def test_empty_graph(self):
        assert bron_kerbosch(TagGraph()) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cliques_are_maximal_and_cover(self, edges):
        graph = TagGraph(str(i) for i in range(10))
        for x, y in edges:
            graph.add_edge(str(x), str(y))
        cliques = bron_kerbosch(graph)
        nodes_covered = set().union(*cliques) if cliques else set()
        assert nodes_covered == set(graph.nodes)
        for clique in cliques:
            # Every pair inside a clique is adjacent.
            members = sorted(clique)
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    assert graph.has_edge(x, y)
            # No vertex outside extends the clique (maximality).
            for outsider in set(graph.nodes) - clique:
                assert not all(graph.has_edge(outsider, member) for member in clique)


class TestFontSizes:
    def test_equation_six_by_hand(self):
        # Tags: hot (count 10, in 2 cliques, max order 3), cold (count 2),
        # mild (count 5, 1 clique of order 2). C = 3 cliques, fmax = 7.
        counts = {"hot": 10, "cold": 2, "mild": 5}
        cliques = [
            frozenset({"hot", "mild"}),
            frozenset({"hot", "x", "y"}),
            frozenset({"cold"}),
        ]
        # Cover requirement: x, y are not in counts, which is fine.
        sizes = font_sizes(counts, cliques, max_font=7)
        # cold: t_i == t_min -> size 1.
        assert sizes["cold"] == 1
        # hot: ceil(2*3/3 + 7*(10-2)/(10-2)) = ceil(2 + 7) = 9.
        assert sizes["hot"] == 9
        # mild: ceil(1*2/3 + 7*3/8) = ceil(0.666 + 2.625) = 4.
        assert sizes["mild"] == math.ceil(2 / 3 + 7 * 3 / 8)

    def test_uniform_counts_all_size_one(self):
        counts = {"a": 3, "b": 3}
        cliques = [frozenset({"a", "b"})]
        assert font_sizes(counts, cliques) == {"a": 1, "b": 1}

    def test_empty_counts(self):
        assert font_sizes({}, []) == {}

    def test_missing_clique_cover_rejected(self):
        with pytest.raises(TaggingError):
            font_sizes({"a": 2, "b": 1}, [frozenset({"b"})])

    def test_no_cliques_rejected(self):
        with pytest.raises(TaggingError):
            font_sizes({"a": 1}, [])

    def test_bad_max_font(self):
        with pytest.raises(TaggingError):
            font_sizes({"a": 1}, [frozenset({"a"})], max_font=0)


class TestCloudBuilder:
    def test_fig5_apple_example(self):
        store = TagStore()
        for i in range(6):
            page = f"Fruit:{i}"
            for tag in ("apple", "banana", "cherry"):
                store.create(page, tag)
        for i in range(6):
            page = f"Tech:{i}"
            for tag in ("apple", "mac", "iphone"):
                store.create(page, tag)
        cloud = TagCloudBuilder().build(store)
        assert sorted(map(sorted, cloud.cliques)) == [
            ["apple", "banana", "cherry"],
            ["apple", "iphone", "mac"],
        ]
        apple = cloud.entry("apple")
        assert apple.bridges_cliques
        assert cloud.bridge_tags() == ["apple"]
        # Apple is twice as frequent and in both cliques: largest font.
        assert apple.size == max(entry.size for entry in cloud.entries)

    def test_top_and_min_count_selection(self):
        store = TagStore()
        for i in range(5):
            store.create(f"P{i}", "common")
        store.create("P0", "rare")
        cloud = TagCloudBuilder().build(store, min_count=2)
        assert cloud.tags == ["common"]
        cloud_top = TagCloudBuilder().build(store, top=1)
        assert cloud_top.tags == ["common"]

    def test_empty_store(self):
        cloud = TagCloudBuilder().build(TagStore())
        assert cloud.entries == [] and cloud.cliques == []

    def test_unknown_entry_lookup(self):
        cloud = TagCloudBuilder().build(TagStore())
        with pytest.raises(TaggingError):
            cloud.entry("ghost")

    def test_entries_sorted_by_count(self):
        workload = generate_tag_workload(pages=60, topics=3, seed=11)
        store = TagStore()
        store.import_assignments(workload.assignments)
        cloud = TagCloudBuilder().build(store)
        counts = [entry.count for entry in cloud.entries]
        assert counts == sorted(counts, reverse=True)


class TestTaggingSystem:
    def test_commands(self):
        system = TaggingSystem()
        assert system.create_tag("Page:1", "alpha")
        assert system.tags_of("Page:1") == ["alpha"]
        assert system.remove_tag("Page:1", "alpha")

    def test_cloud_caching_and_invalidation(self):
        system = TaggingSystem()
        system.create_tag("P1", "x")
        first = system.cloud()
        second = system.cloud()
        assert first is second  # cache hit returns the same object
        system.create_tag("P2", "y")
        third = system.cloud()
        assert third is not first

    def test_trends(self):
        system = TaggingSystem()
        for page in ("P1", "P2"):
            system.create_tag(page, "busy")
        system.create_tag("P1", "quiet")
        assert system.trends(1) == [("busy", 2)]

    def test_sync_from_smr(self):
        from repro.smr import SensorMetadataRepository

        smr = SensorMetadataRepository()
        smr.register("deployment", "Deployment:D", [("project", "SnowFlux")])
        system = TaggingSystem()
        assert system.sync_from_smr(smr, ["project"]) == 1
        assert system.store.tags() == ["snowflux"]
