"""The wiki itself: page store, link structures, categories, RDF export.

This is where the paper's *double linking structure* is born: ordinary
``[[links]]`` populate :meth:`WikiSite.link_graph` and semantic
``[[prop::page]]`` annotations populate :meth:`WikiSite.semantic_graph`.
Both return :class:`~repro.pagerank.webgraph.LinkGraph` objects over the
same page ordering, ready for
:class:`~repro.pagerank.doublelink.DoubleLinkGraph`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import WikiError
from repro.pagerank.webgraph import LinkGraph
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, Namespace
from repro.rdf.term import IRI, Literal
from repro.wiki.page import Page
from repro.wiki.wikitext import ParsedWikitext, parse_wikitext

# The vocabulary used when exporting pages to RDF.
WIKI = Namespace("http://repro.example.org/wiki/")
PROP = Namespace("http://repro.example.org/property/")


def title_to_iri(title: str) -> IRI:
    """Deterministically map a page title to its RDF identifier."""
    return WIKI.term(title.replace(" ", "_"))


def property_to_iri(name: str) -> IRI:
    """Deterministically map a property name to its RDF predicate IRI."""
    return PROP.term(name.strip().lower().replace(" ", "_"))


class WikiSite:
    """An in-memory semantic wiki."""

    def __init__(self):
        self._pages: Dict[str, Page] = {}  # canonical (lower) title -> Page
        self._parsed: Dict[str, ParsedWikitext] = {}

    # ------------------------------------------------------------------
    # Page management
    # ------------------------------------------------------------------

    @staticmethod
    def _key(title: str) -> str:
        return title.strip().lower()

    def save(self, title: str, text: str, author: str = "", comment: str = "") -> Page:
        """Create the page or append a revision to it."""
        key = self._key(title)
        page = self._pages.get(key)
        if page is None:
            page = Page(title, text, author=author, comment=comment)
            self._pages[key] = page
        else:
            page.edit(text, author=author, comment=comment)
        self._parsed[key] = parse_wikitext(text)
        return page

    def get(self, title: str) -> Page:
        """The page titled ``title`` (case-insensitive); raises if missing."""
        page = self._pages.get(self._key(title))
        if page is None:
            raise WikiError(f"no page titled {title!r}")
        return page

    def has(self, title: str) -> bool:
        """True when a page titled ``title`` exists (case-insensitive)."""
        return self._key(title) in self._pages

    def delete(self, title: str) -> None:
        """Remove a page entirely; raises if missing."""
        key = self._key(title)
        if key not in self._pages:
            raise WikiError(f"no page titled {title!r}")
        del self._pages[key]
        del self._parsed[key]

    def parsed(self, title: str) -> ParsedWikitext:
        """The parsed current revision of ``title``."""
        parsed = self._parsed.get(self._key(title))
        if parsed is None:
            raise WikiError(f"no page titled {title!r}")
        return parsed

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def titles(self) -> List[str]:
        """All page titles, sorted case-insensitively (stable ordering)."""
        return sorted((page.title for page in self._pages.values()), key=str.lower)

    def pages(self) -> Iterator[Page]:
        """Iterate pages in title order."""
        for title in self.titles():
            yield self._pages[self._key(title)]

    def titles_in_namespace(self, namespace: str) -> List[str]:
        """Titles whose namespace matches (case-insensitive)."""
        wanted = namespace.lower()
        return [t for t in self.titles() if self._pages[self._key(t)].namespace.lower() == wanted]

    # ------------------------------------------------------------------
    # Categories
    # ------------------------------------------------------------------

    def categories(self) -> Dict[str, List[str]]:
        """category name -> sorted member titles."""
        members: Dict[str, List[str]] = {}
        for title in self.titles():
            for category in self.parsed(title).categories:
                members.setdefault(category, []).append(title)
        return members

    def pages_in_category(self, category: str) -> List[str]:
        """Titles tagged with ``[[Category:...]]`` matching ``category``."""
        wanted = category.lower()
        return [
            title
            for title in self.titles()
            if any(c.lower() == wanted for c in self.parsed(title).categories)
        ]

    # ------------------------------------------------------------------
    # Link structures (the paper's Section III input)
    # ------------------------------------------------------------------

    def page_index(self) -> Dict[str, int]:
        """title-key -> dense index, aligned with :meth:`titles`."""
        return {self._key(title): i for i, title in enumerate(self.titles())}

    def link_graph(self) -> LinkGraph:
        """Ordinary web-page links between existing pages."""
        index = self.page_index()
        graph = LinkGraph(len(index))
        for title in self.titles():
            src = index[self._key(title)]
            for target in self.parsed(title).links:
                dst = index.get(self._key(target))
                if dst is not None and dst != src:
                    graph.add_edge(src, dst)
        return graph

    def semantic_graph(self) -> LinkGraph:
        """Links induced by page-valued semantic annotations."""
        index = self.page_index()
        graph = LinkGraph(len(index))
        for title in self.titles():
            src = index[self._key(title)]
            for _, value in self.parsed(title).annotations:
                if not isinstance(value, str):
                    continue
                dst = index.get(self._key(value))
                if dst is not None and dst != src:
                    graph.add_edge(src, dst)
        return graph

    # ------------------------------------------------------------------
    # Annotations and RDF export
    # ------------------------------------------------------------------

    def annotations(self, title: str) -> List[Tuple[str, Any]]:
        """The (attribute, value) pairs of ``title``'s current revision."""
        return list(self.parsed(title).annotations)

    def property_names(self) -> List[str]:
        """Every semantic property used anywhere, lower-case sorted."""
        names = {
            prop.lower()
            for title in self.titles()
            for prop, _ in self.parsed(title).annotations
        }
        return sorted(names)

    def property_values(self, prop: str) -> List[Any]:
        """Every value of ``prop`` across the wiki (duplicates kept)."""
        wanted = prop.lower()
        values = []
        for title in self.titles():
            values.extend(self.parsed(title).annotation_values(wanted))
        return values

    def export_rdf(self) -> Graph:
        """Export the wiki's semantics as an RDF graph.

        Every page becomes an IRI, typed by its namespace; annotations
        become property triples whose objects are page IRIs (when the
        value names an existing page) or typed literals; categories map
        to ``rdf:type`` triples on a Category IRI.
        """
        graph = Graph()
        for title in self.titles():
            self.export_page_rdf(graph, title)
        return graph

    def export_page_rdf(self, graph: Graph, title: str) -> None:
        """Append one page's triples to ``graph`` (see :meth:`export_rdf`)."""
        subject = title_to_iri(title)
        page = self._pages[self._key(title)]
        graph.add(subject, RDF.type, WIKI.term(page.namespace))
        graph.add(subject, PROP.title, Literal(title))
        parsed = self.parsed(title)
        for prop, value in parsed.annotations:
            predicate = property_to_iri(prop)
            if isinstance(value, str) and self.has(value):
                graph.add(subject, predicate, title_to_iri(self.get(value).title))
            else:
                graph.add(subject, predicate, Literal(value))
        for category in parsed.categories:
            graph.add(subject, RDF.type, WIKI.term(f"Category_{category.replace(' ', '_')}"))
        for target in parsed.links:
            if self.has(target):
                graph.add(subject, PROP.links_to, title_to_iri(self.get(target).title))

    def __repr__(self) -> str:
        return f"WikiSite(pages={self.page_count})"
