"""The wiki itself: page store, link structures, categories, RDF export.

This is where the paper's *double linking structure* is born: ordinary
``[[links]]`` populate :meth:`WikiSite.link_graph` and semantic
``[[prop::page]]`` annotations populate :meth:`WikiSite.semantic_graph`.
Both return :class:`~repro.pagerank.webgraph.LinkGraph` objects over the
same page ordering, ready for
:class:`~repro.pagerank.doublelink.DoubleLinkGraph`.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

# The export mints IRI local names from titles, namespaces, property and
# category names by turning each space into "_"; any other whitespace
# would make an invalid IRI.
_UNEXPORTABLE_WHITESPACE = re.compile(r"[^\S ]")


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
        self._title_of_iri: Dict[str, str] = {}  # subject IRI value -> title
        self._link_generation = 0

    # ------------------------------------------------------------------
    # Page management
    # ------------------------------------------------------------------

    @staticmethod
    def _key(title: str) -> str:
        return title.strip().lower()

    def save(
        self,
        title: str,
        text: str,
        author: str = "",
        comment: str = "",
        parsed: Optional[ParsedWikitext] = None,
    ) -> Page:
        """Create the page or append a revision to it.

        A page whose title, property or category names hold whitespace
        other than spaces has no RDF export, and a new page whose subject
        IRI another page holds (the titles differ only by space versus
        underscore) would share its subject. Both are refused with
        :class:`WikiError` before anything is stored, so
        :meth:`export_rdf` never fails on a saved page and gives each
        page its own subject.

        A creation bumps :attr:`link_generation`, and so does an edit
        that changes the page's :meth:`link_targets`. A caller that has
        already parsed ``text`` passes the result as ``parsed``, so one
        save parses the text once.
        """
        key = self._key(title)
        page = self._pages.get(key)
        if parsed is None:
            parsed = parse_wikitext(text)
        names = [prop for prop, _ in parsed.annotations] + parsed.categories
        if page is None:
            names.append(title)
        for name in names:
            if _UNEXPORTABLE_WHITESPACE.search(name):
                raise WikiError(
                    f"cannot save {title!r}: {name!r} holds whitespace other than spaces"
                )
        if page is None:
            iri = title_to_iri(title).value
            holder = self._title_of_iri.get(iri)
            if holder is not None:
                raise WikiError(f"cannot save {title!r}: its subject IRI is {holder!r}'s")
            page = Page(title, text, author=author, comment=comment)
            self._pages[key] = page
            self._title_of_iri[iri] = title
            self._link_generation += 1
        else:
            if self._resolved_targets(key, self._parsed[key]) != self._resolved_targets(key, parsed):
                self._link_generation += 1
            page.edit(text, author=author, comment=comment)
        self._parsed[key] = parsed
        return page

    def link_targets(self, title: str) -> Tuple[Set[str], Set[str]]:
        """Keys of the other existing pages ``title`` links to, and annotates with.

        These are the page's rows of :meth:`link_graph` and
        :meth:`semantic_graph`, by title key: a self-link, or a link or
        value naming a missing page, is in neither.
        """
        return self._resolved_targets(self._key(title), self.parsed(title))

    def _resolved_targets(self, key: str, parsed: ParsedWikitext) -> Tuple[Set[str], Set[str]]:
        """:meth:`link_targets` of the page keyed ``key``, were ``parsed`` its text."""
        pages = self._pages
        web = {target for target in map(self._key, parsed.links) if target in pages}
        semantic = {
            target
            for target in (self._key(v) for _, v in parsed.annotations if isinstance(v, str))
            if target in pages
        }
        web.discard(key)
        semantic.discard(key)
        return web, semantic

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
        page = self._pages.pop(key)
        del self._parsed[key]
        del self._title_of_iri[title_to_iri(page.title).value]
        self._link_generation += 1

    def titles_of_iris(self, iris: Iterable[Any]) -> Set[str]:
        """Titles of the pages whose subject IRI value is among ``iris``."""
        lookup = self._title_of_iri.get
        return {title for title in map(lookup, iris) if title is not None}

    def parsed(self, title: str) -> ParsedWikitext:
        """The parsed current revision of ``title``."""
        parsed = self._parsed.get(self._key(title))
        if parsed is None:
            raise WikiError(f"no page titled {title!r}")
        return parsed

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def link_generation(self) -> int:
        """A counter that moves whenever the titles or a link graph may change.

        It covers :meth:`titles`, :meth:`link_graph` and
        :meth:`semantic_graph`. :meth:`save` bumps it on a creation and on an edit that changes
        which existing pages the page links to or annotates with;
        :meth:`delete` bumps it. An edit of literals or prose, or of a
        link to a missing page, leaves it, so a cache stamped with it
        outlives such writes. A title never changes after creation, and
        the graphs index pages by title order.
        """
        return self._link_generation

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

        Every page becomes an IRI, typed by its namespace (a space in any
        name becomes ``_`` in its IRI); annotations become property
        triples whose objects are page IRIs (when the value names an
        existing page) or typed literals; categories map to ``rdf:type``
        triples on a Category IRI.
        """
        graph = Graph()
        for title in self.titles():
            self.export_page_rdf(graph, title)
        return graph

    def export_page_rdf(self, graph: Graph, title: str) -> None:
        """Append one page's triples to ``graph`` (see :meth:`export_rdf`)."""
        subject = title_to_iri(title)
        page = self._pages[self._key(title)]
        graph.add(subject, RDF.type, WIKI.term(page.namespace.replace(" ", "_")))
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

    def refresh_page_rdf(self, graph: Graph, title: str) -> None:
        """Update ``graph`` in place for one save of ``title``.

        ``graph`` must equal :meth:`export_rdf` of the wiki as it was
        before the save; afterwards it equals :meth:`export_rdf` of the
        wiki now. The saved page is exported again, and so is every page
        whose triples the save changed:

        - A page that did not exist before (its ``prop:title`` is not in
          ``graph``) turns every annotation value or link naming it from
          a literal into its IRI, with a ``links_to`` triple. Those pages
          are found in one pass over the parsed link lists, which hold
          string annotation values too. An edit changes no other page:
          titles, and with them IRIs and namespaces, never change.

        The new triples are built in a scratch graph before ``graph``
        changes, so an exception leaves ``graph`` as it was.
        """
        title = self.get(title).title
        stale = {title}
        if (title_to_iri(title), PROP.title, Literal(title)) not in graph:
            key = self._key(title)
            stale.update(
                self._pages[other].title
                for other, parsed in self._parsed.items()
                for target in parsed.links
                if self._key(target) == key
            )
        fresh = Graph()
        for stale_title in stale:
            self.export_page_rdf(fresh, stale_title)
        for stale_title in stale:
            graph.remove(title_to_iri(stale_title), None, None)
        graph.merge(fresh)

    def __repr__(self) -> str:
        return f"WikiSite(pages={self.page_count})"
