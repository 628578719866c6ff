"""Tests for the semantic-wiki substrate."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RdfError, SmrError, WikiError
from repro.pagerank.webgraph import LinkGraph
from repro.rdf.namespace import RDF
from repro.rdf.term import IRI, Literal
from repro.relational.types import DataType
from repro.wiki import (
    ParsedWikitext,
    PropertyMapping,
    SchemaMapping,
    WikiSite,
    parse_wikitext,
    render_annotations,
)
from repro.wiki.page import Page
from repro.wiki.site import PROP, WIKI, title_to_iri


class TestPage:
    def test_create_and_edit(self):
        page = Page("Station:WAN-001", "first", author="alice")
        assert page.text == "first"
        page.edit("second", author="bob", comment="fix")
        assert page.text == "second"
        assert page.revision_count == 2
        assert page.revision(1).author == "alice"
        assert page.revision(2).comment == "fix"

    def test_namespace_split(self):
        page = Page("Sensor:ABC", "")
        assert page.namespace == "Sensor"
        assert page.local_title == "ABC"
        assert Page("NoNamespace", "").namespace == "Main"

    def test_invalid_titles(self):
        for bad in ("", " padded ", ":leading", "trailing:"):
            with pytest.raises(WikiError):
                Page(bad, "")

    def test_revision_bounds(self):
        page = Page("T", "x")
        with pytest.raises(WikiError):
            page.revision(0)
        with pytest.raises(WikiError):
            page.revision(2)


class TestWikitext:
    def test_plain_links(self):
        parsed = parse_wikitext("See [[Station:WAN-001]] and [[Davos|the site]].")
        assert parsed.links == ["Station:WAN-001", "Davos"]
        assert parsed.plain_text == "See Station:WAN-001 and the site."

    def test_annotations(self):
        parsed = parse_wikitext("[[elevation_m::2400]] [[status::online]] [[ratio::2.5]]")
        assert ("elevation_m", 2400) in parsed.annotations
        assert ("status", "online") in parsed.annotations
        assert ("ratio", 2.5) in parsed.annotations

    def test_annotation_creates_link_for_strings_only(self):
        parsed = parse_wikitext("[[station::Station:X]] [[elev::2400]]")
        assert parsed.links == ["Station:X"]

    def test_boolean_values(self):
        parsed = parse_wikitext("[[online::true]] [[heated::False]]")
        assert parsed.annotation_values("online") == [True]
        assert parsed.annotation_values("heated") == [False]

    def test_categories(self):
        parsed = parse_wikitext("[[Category:Weather stations]] body [[category:Alpine]]")
        assert parsed.categories == ["Weather stations", "Alpine"]
        assert parsed.plain_text == "body"

    def test_annotation_with_label(self):
        parsed = parse_wikitext("[[station::Station:X|the station]]")
        assert parsed.annotations == [("station", "Station:X")]
        assert parsed.plain_text == "the station"

    def test_empty_and_whitespace(self):
        assert parse_wikitext("").plain_text == ""
        assert parse_wikitext("   ").annotations == []

    def test_malformed_markup_is_text(self):
        parsed = parse_wikitext("[[unclosed and ]]stray")
        assert parsed.plain_text.endswith("stray")

    def test_render_roundtrip(self):
        annotations = [("a", 1), ("b", "two"), ("c", True)]
        text = render_annotations(annotations, links=["Other Page"])
        parsed = parse_wikitext(text)
        assert parsed.annotations == annotations
        assert "Other Page" in parsed.links


@pytest.fixture
def site():
    wiki = WikiSite()
    wiki.save("Station:A", "[[deployment::Deployment:D]] [[elev::100]] [[Station:B]]")
    wiki.save("Station:B", "[[deployment::Deployment:D]] [[Category:Stations]]")
    wiki.save("Deployment:D", "[[institution::EPFL]] [[Station:A]] [[Station:B]]")
    return wiki


class TestWikiSite:
    def test_save_and_get(self, site):
        assert site.page_count == 3
        assert site.get("station:a").title == "Station:A"
        assert site.has("STATION:B")

    def test_missing_page(self, site):
        with pytest.raises(WikiError):
            site.get("Nope")
        with pytest.raises(WikiError):
            site.parsed("Nope")
        with pytest.raises(WikiError):
            site.delete("Nope")

    def test_edit_adds_revision(self, site):
        site.save("Station:A", "new text")
        assert site.get("Station:A").revision_count == 2
        assert site.parsed("Station:A").annotations == []

    def test_delete(self, site):
        site.delete("Station:B")
        assert not site.has("Station:B")
        assert site.page_count == 2

    def test_titles_sorted(self, site):
        assert site.titles() == ["Deployment:D", "Station:A", "Station:B"]

    def test_namespace_listing(self, site):
        assert site.titles_in_namespace("station") == ["Station:A", "Station:B"]

    def test_categories(self, site):
        assert site.pages_in_category("Stations") == ["Station:B"]
        assert site.categories() == {"Stations": ["Station:B"]}

    def test_link_graph(self, site):
        graph = site.link_graph()
        index = site.page_index()
        a, b, d = index["station:a"], index["station:b"], index["deployment:d"]
        # Station:A links to B (plain) and D (via annotation value).
        assert graph.out_links(a) == frozenset({b, d})
        assert graph.out_links(d) == frozenset({a, b})

    def test_semantic_graph_only_annotation_links(self, site):
        graph = site.semantic_graph()
        index = site.page_index()
        a, b, d = index["station:a"], index["station:b"], index["deployment:d"]
        assert graph.out_links(a) == frozenset({d})
        assert graph.out_links(b) == frozenset({d})
        assert graph.out_links(d) == frozenset()  # EPFL is not a page

    def test_property_names_and_values(self, site):
        assert site.property_names() == ["deployment", "elev", "institution"]
        assert site.property_values("deployment") == ["Deployment:D", "Deployment:D"]

    def test_export_rdf(self, site):
        graph = site.export_rdf()
        a = title_to_iri("Station:A")
        d = title_to_iri("Deployment:D")
        assert (a, RDF.type, WIKI.term("Station")) in graph
        # Page-valued annotation becomes an IRI link, not a literal.
        assert (a, PROP.deployment, d) in graph
        assert (a, PROP.elev, Literal(100)) in graph
        # Non-page value stays a literal.
        assert (d, PROP.institution, Literal("EPFL")) in graph
        # Category becomes a type triple.
        b = title_to_iri("Station:B")
        assert (b, RDF.type, WIKI.term("Category_Stations")) in graph
        # Plain links are exported too.
        assert (d, PROP.links_to, a) in graph

    def test_spaced_namespace_exports_with_underscores(self, site):
        site.save("Field Site:Davos", "[[Station:A]]")
        graph = site.export_rdf()
        assert (title_to_iri("Field Site:Davos"), RDF.type, WIKI.term("Field_Site")) in graph

    def test_title_sharing_a_subject_iri_is_refused(self, site):
        site.save("Station:Alp One", "[[elev::1]]")
        generation = site.link_generation
        with pytest.raises(WikiError, match="subject IRI"):
            site.save("Station:Alp_One", "[[elev::2]]")
        assert not site.has("Station:Alp_One")
        assert site.link_generation == generation
        site.save("station:alp one", "[[elev::3]]")  # an edit of the holder
        assert site.get("Station:Alp One").revision_count == 2
        site.delete("Station:Alp One")
        site.save("Station:Alp_One", "[[elev::4]]")  # the IRI is free again
        assert site.get("Station:Alp_One").title == "Station:Alp_One"

    def test_refresh_page_rdf_leaves_the_graph_as_it_was_when_export_fails(
        self, site, monkeypatch
    ):
        graph = site.export_rdf()
        before = set(graph.triples())
        site.save("Station:A", "[[elev::200]] [[Station:C]]")
        page_rdf = WikiSite.page_rdf

        def failing(self, title):
            if title == "Station:A":
                raise RdfError("export failed")
            return page_rdf(self, title)

        monkeypatch.setattr(WikiSite, "page_rdf", failing)
        with pytest.raises(RdfError):
            site.refresh_page_rdf(graph, "Station:A")
        assert set(graph.triples()) == before
        # A creation re-exports its backlinks too: none is written unless all build.
        monkeypatch.setattr(WikiSite, "page_rdf", page_rdf)
        site.refresh_page_rdf(graph, "Station:A")
        before = set(graph.triples())
        site.save("Station:C", "[[elev::300]]")
        monkeypatch.setattr(WikiSite, "page_rdf", failing)
        with pytest.raises(RdfError):
            site.refresh_page_rdf(graph, "Station:C")
        assert set(graph.triples()) == before


# ----------------------------------------------------------------------
# The reference walk: the link structures from every page's parse
# ----------------------------------------------------------------------


def _key(title):
    return title.strip().lower()


def walked_link_graph(site) -> LinkGraph:
    """``site.link_graph()`` by a walk over every page's parsed links."""
    index = {_key(title): i for i, title in enumerate(site.titles())}
    graph = LinkGraph(len(index))
    for title in site.titles():
        src = index[_key(title)]
        for target in site.parsed(title).links:
            dst = index.get(_key(target))
            if dst is not None and dst != src:
                graph.add_edge(src, dst)
    return graph


def walked_semantic_graph(site) -> LinkGraph:
    """``site.semantic_graph()`` by a walk over every page's annotations."""
    index = {_key(title): i for i, title in enumerate(site.titles())}
    graph = LinkGraph(len(index))
    for title in site.titles():
        src = index[_key(title)]
        for _, value in site.parsed(title).annotations:
            if not isinstance(value, str):
                continue
            dst = index.get(_key(value))
            if dst is not None and dst != src:
                graph.add_edge(src, dst)
    return graph


def walked_backlinks(site):
    """name key -> keys of the pages whose parsed links name it."""
    backlinks = {}
    for title in site.titles():
        for target in site.parsed(title).links:
            backlinks.setdefault(_key(target), set()).add(_key(title))
    return backlinks


def _structure(site):
    return (
        site.titles(),
        list(walked_link_graph(site).edges()),
        list(walked_semantic_graph(site).edges()),
    )


class TestLinkGeneration:
    """``link_generation`` moves exactly when the titles or a link graph may."""

    @pytest.mark.parametrize(
        "title,text",
        [
            # A literal-only edit.
            ("Station:A", "[[deployment::Deployment:D]] [[elev::250]] [[Station:B]]"),
            # A description edit.
            ("Station:A", "Moved. [[deployment::Deployment:D]] [[elev::100]] [[Station:B]]"),
            # A change of a link, and of a value, naming a missing page.
            ("Deployment:D", "[[institution::ETH]] [[Station:A]] [[Station:B]] [[Nowhere]]"),
            # A self-link.
            ("Station:B", "[[deployment::Deployment:D]] [[Category:Stations]] [[Station:B]]"),
            # Re-registering a title in another letter case.
            ("station:a", "[[deployment::Deployment:D]] [[elev::100]] [[Station:B]]"),
        ],
        ids=["literal", "description", "missing-target", "self-link", "letter-case"],
    )
    def test_stays_put(self, site, title, text):
        before, structure = site.link_generation, _structure(site)
        site.save(title, text)
        assert site.link_generation == before
        assert _structure(site) == structure

    @pytest.mark.parametrize(
        "change",
        [
            lambda site: site.save("Station:C", "[[elev::1]]"),
            lambda site: site.delete("Station:B"),
            # Adding, then removing, a link to an existing page.
            lambda site: site.save("Station:B", "[[deployment::Deployment:D]] [[Station:A]]"),
            lambda site: site.save("Station:A", "[[deployment::Deployment:D]] [[elev::100]]"),
            # Moving a page-valued annotation to another page.
            lambda site: site.save("Station:B", "[[deployment::Station:A]]"),
            # A plain link turned into an annotation: same web row, new semantic row.
            lambda site: site.save(
                "Station:A", "[[deployment::Deployment:D]] [[elev::100]] [[peer::Station:B]]"
            ),
        ],
        ids=["create", "delete", "add-link", "remove-link", "move-annotation", "link-to-annotation"],
    )
    def test_moves(self, site, change):
        before, structure = site.link_generation, _structure(site)
        change(site)
        assert site.link_generation > before
        assert _structure(site) != structure

    def test_link_targets_are_the_graph_rows(self, site):
        site.save("Station:B", "[[deployment::Deployment:D]] [[Station:B]] [[Nowhere]] [[station:a]]")
        index = site.page_index()
        web, semantic = site.link_graph(), site.semantic_graph()
        for title in site.titles():
            links, annotations = site.link_targets(title)
            row = index[title.lower()]
            assert {index[key] for key in links} == web.out_links(row)
            assert {index[key] for key in annotations} == semantic.out_links(row)


#: Spellings a write sequence uses: four pages (one under a spaced
#: namespace) in several letter cases, a padded spelling (refused as a new
#: title), the underscore spelling of the spaced page (refused while that
#: page holds the IRI), a name that never becomes a page, a title with
#: a tab (refused), and non-ASCII titles: two spellings of one page, one
#: whose lower case is longer than itself (İ) and one holding the greatest
#: code point.
_SPELLINGS = [
    "Station:A",
    "station:a",
    "Station:B",
    "STATION:B",
    "Deployment:D",
    "Field Site:F",
    "field site:f",
    "Field_Site:F",
    " Station:A ",
    "Nowhere:N",
    "Bad\tTab:T",
    "Station:Ärz",
    "STATION:äRZ",
    "İstasyon:I",
    "Station:\U0010ffffz",
]
_spelling = st.integers(0, len(_SPELLINGS) - 1)
#: Title prefixes: a prefix of a spelling, in its case or upper case, or
#: a few characters where case and code-point order are delicate.
_prefix = st.one_of(
    st.tuples(st.sampled_from(_SPELLINGS), st.integers(0, 12), st.booleans()).map(
        lambda drawn: drawn[0][: drawn[1]].upper() if drawn[2] else drawn[0][: drawn[1]]
    ),
    st.text(alphabet="sS:tTäÄİi\u0307\U0010ffffz", max_size=3),
)
_write = st.one_of(
    st.tuples(
        st.just("save"),
        _spelling,
        st.lists(_spelling, max_size=3),  # plain links
        st.lists(_spelling, max_size=3),  # page-valued annotations
        st.integers(0, 3),  # a literal, and the prose
        st.booleans(),  # a property name with a tab: refused
    ),
    st.tuples(st.just("delete"), _spelling),
)


def _text(links, values, n, bad_property):
    parts = [f"Note {n}."]
    parts += [f"[[refers::{_SPELLINGS[i]}]]" for i in values]
    parts += [f"[[{_SPELLINGS[i]}]]" for i in links]
    parts.append(f"[[{'Elev' if n % 2 else 'elev'}::{n}]]")  # one property, two spellings
    if bad_property:
        parts.append("[[bad\tprop::1]]")
    return " ".join(parts)


def _kept(site):
    """The kept targets, backlink index and property counts, as plain values."""
    backlinks = {
        name: {held} if isinstance(held, str) else set(held)
        for name, held in site._backlinks.items()
    }
    return dict(site._targets), backlinks, site.link_generation, site.property_counts()


class TestKeptLinkStructures:
    """The kept targets, backlinks, graphs, property counts and title
    prefixes equal a walk after every write."""

    @staticmethod
    def _check(site, prefixes):
        pages = {_key(title) for title in site.titles()}
        for title in site.titles():
            key, parsed = _key(title), site.parsed(title)
            web = sorted({_key(t) for t in parsed.links} & pages - {key})
            semantic = {_key(v) for _, v in parsed.annotations if isinstance(v, str)}
            assert site.link_targets(title) == (
                tuple(web),
                tuple(sorted(semantic & pages - {key})),
            )
        walked = walked_backlinks(site)
        assert _kept(site)[1] == walked
        for held in site._backlinks.values():
            assert isinstance(held, str) or len(held) > 1  # one source: the bare key
        order = {_key(title): i for i, title in enumerate(site.titles())}
        for name, sources in walked.items():
            expected = sorted(sources, key=order.__getitem__)
            assert [_key(title) for title in site.backlinks(name)] == expected
        assert list(site.link_graph().edges()) == list(walked_link_graph(site).edges())
        assert list(site.semantic_graph().edges()) == list(walked_semantic_graph(site).edges())
        usage = Counter(
            prop.lower() for title in site.titles() for prop, _ in site.parsed(title).annotations
        )
        assert site.property_counts() == dict(usage)
        assert site.property_names() == sorted(usage)
        for prefix in prefixes:
            lowered = prefix.lower()
            walked_titles = [title for title in site.titles() if title.lower().startswith(lowered)]
            assert site.titles_with_prefix(prefix) == walked_titles, prefix

    @given(steps=st.lists(_write, min_size=1, max_size=12), prefixes=st.lists(_prefix, max_size=4))
    @settings(max_examples=150, deadline=None)
    @example(
        steps=[
            ("save", 0, [9, 2], [4], 0, False),  # names B, D and a missing page
            ("save", 3, [1, 3], [], 1, False),  # B: a case variant and a self-link
            ("save", 8, [], [], 2, False),  # the padded spelling of A: an edit
            ("save", 4, [], [], 0, False),  # D created: A now links to it
            ("save", 7, [5], [], 0, False),  # F's underscore spelling, before F
            ("save", 5, [], [7], 1, False),  # F: its IRI is taken
            ("delete", 2),  # B goes; A's targets lose it
            ("save", 2, [0], [0], 3, False),  # B again
            ("save", 0, [], [], 1, True),  # refused: a property with a tab
            ("save", 10, [0], [], 0, False),  # refused: a title with a tab
            ("save", 12, [11], [13], 1, False),  # äRZ: a self-link, a value naming İstasyon
            ("save", 13, [], [], 0, False),  # İstasyon created: that value now names it
            ("save", 14, [], [], 2, False),  # a title holding the greatest code point
            ("save", 11, [], [], 3, False),  # Ärz: an edit of äRZ
        ],
        prefixes=["", "STATION:Ä", "i", "İ", "station:\U0010ffff", "\U0010ffff"],
    )
    def test_kept_structures_match_a_walk_after_every_write(self, steps, prefixes):
        site = WikiSite()
        site.save("Station:Seed", "[[Station:A]] [[refers::deployment:d]]")
        graph = site.export_rdf()
        for step in steps:
            title = _SPELLINGS[step[1]]
            if step[0] == "delete":
                if not site.has(title):
                    continue
                site.delete(title)
                graph = site.export_rdf()  # a delete has no in-place RDF refresh
            else:
                before = _kept(site)
                try:
                    site.save(title, _text(*step[2:]))
                except WikiError:
                    assert _kept(site) == before
                else:
                    site.refresh_page_rdf(graph, title)
            self._check(site, prefixes)
            assert set(graph.triples()) == set(site.export_rdf().triples())


class TestKeptTitleOrder:
    """The kept title order and the adjacency arrays equal a sort and a walk."""

    @staticmethod
    def _check(site):
        titles = sorted((page.title for page in site._pages.values()), key=str.lower)
        assert site.titles() == titles
        assert site.page_index() == {title.lower(): i for i, title in enumerate(titles)}
        for ours, walked in zip(
            site.link_adjacency(), (walked_link_graph(site), walked_semantic_graph(site))
        ):
            theirs = walked.adjacency()
            for name in ("indptr", "indices", "data"):
                assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), name

    @given(steps=st.lists(_write, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    @example(
        steps=[
            ("save", 2, [0, 4], [4], 0, False),  # B before A: inserted first
            ("save", 0, [2], [], 1, False),  # A goes in front of B
            ("save", 1, [3], [], 2, False),  # A again, in another case: an edit
            ("save", 5, [0], [0], 0, False),  # a spaced namespace sorts among them
            ("delete", 0),  # the first title goes
            ("save", 8, [], [], 0, False),  # refused: a padded new title
            ("save", 7, [], [], 0, False),  # refused: F's IRI is taken
        ]
    )
    def test_order_and_adjacency_follow_every_write(self, steps):
        site = WikiSite()
        self._check(site)
        for step in steps:
            title = _SPELLINGS[step[1]]
            if step[0] == "delete":
                if site.has(title):
                    site.delete(title)
            else:
                try:
                    site.save(title, _text(*step[2:]))
                except WikiError:
                    pass
            self._check(site)


class TestSchemaMapping:
    @pytest.fixture
    def mapping(self):
        m = SchemaMapping()
        m.declare(
            "station",
            [
                PropertyMapping("name", "name", DataType.TEXT),
                PropertyMapping("elevation_m", "elevation_m", DataType.INTEGER),
                PropertyMapping("online", "online", DataType.BOOLEAN),
            ],
        )
        return m

    def test_table_schema(self, mapping):
        schema = mapping.table_schema("station")
        assert schema.primary_key == "title"
        assert schema.column_names == ["title", "name", "elevation_m", "online"]

    def test_duplicate_kind(self, mapping):
        with pytest.raises(SmrError):
            mapping.declare("station", [])

    def test_reserved_column(self):
        m = SchemaMapping()
        with pytest.raises(SmrError):
            m.declare("x", [PropertyMapping("title", "title", DataType.TEXT)])

    def test_unknown_kind(self, mapping):
        with pytest.raises(SmrError):
            mapping.table_schema("nope")

    def test_row_from_annotations(self, mapping):
        row = mapping.row_from_annotations(
            "station",
            "Station:A",
            [("name", "A"), ("elevation_m", "2400"), ("online", "yes"), ("junk", 1)],
        )
        assert row == {
            "title": "Station:A",
            "name": "A",
            "elevation_m": 2400,
            "online": True,
        }

    def test_coercion_failures_become_null(self, mapping):
        row = mapping.row_from_annotations(
            "station", "S", [("elevation_m", "not-a-number")]
        )
        assert row["elevation_m"] is None

    def test_bidirectional_lookup(self, mapping):
        assert mapping.column_for_property("station", "ELEVATION_M") == "elevation_m"
        assert mapping.property_for_column("station", "elevation_m") == "elevation_m"
        assert mapping.column_for_property("station", "nope") is None
