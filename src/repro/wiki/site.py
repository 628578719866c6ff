"""The wiki itself: page store, link structures, categories, RDF export.

This is where the paper's *double linking structure* is born: ordinary
``[[links]]`` populate :meth:`WikiSite.link_graph` and semantic
``[[prop::page]]`` annotations populate :meth:`WikiSite.semantic_graph`.
Both return :class:`~repro.pagerank.webgraph.LinkGraph` objects over the
same page ordering, ready for
:class:`~repro.pagerank.doublelink.DoubleLinkGraph`. Both are built from
:meth:`WikiSite.link_adjacency`, the one map from the kept targets to
page positions, which gives the ranker the two structures as CSR
adjacency matrices without a graph object.

Invariant — **link targets and backlinks kept by every write.**
:meth:`WikiSite.save` and :meth:`WikiSite.delete` keep each page's
resolved :meth:`~WikiSite.link_targets` and a backlink index (name key
-> the pages whose parsed links name it, missing pages included) equal
to a walk over every page's parse. A creation re-resolves only the pages
that name it, and the link graphs, the RDF refresh after a creation and
the recommender read the kept structures instead of walking the wiki.
A refused save changes neither. The sorted page keys, with the titles in
the same order, are kept by the same writes, so :meth:`WikiSite.titles`
is a list copy, no link-structure build sorts every title, and
:meth:`WikiSite.titles_with_prefix` is two bisects. The same writes keep
the number of annotations using each property name, after every refusal
check, so :meth:`WikiSite.property_counts` and
:meth:`WikiSite.property_names` walk no page.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import WikiError
from repro.linalg import CsrMatrix
from repro.pagerank.webgraph import LinkGraph
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, Namespace
from repro.rdf.term import IRI, Literal, Term
from repro.wiki.page import Page
from repro.wiki.wikitext import ParsedWikitext, parse_wikitext

# The vocabulary used when exporting pages to RDF.
WIKI = Namespace("http://repro.example.org/wiki/")
PROP = Namespace("http://repro.example.org/property/")

# The export mints IRI local names from titles, namespaces, property and
# category names by turning each space into "_"; any other whitespace
# would make an invalid IRI.
_UNEXPORTABLE_WHITESPACE = re.compile(r"[^\S ]")


#: A page's resolved link targets: the sorted keys of the other existing
#: pages its links name, and of those its string annotation values name.
LinkTargets = Tuple[Tuple[str, ...], Tuple[str, ...]]

_NO_TARGETS: LinkTargets = ((), ())

#: The greatest code point, which no character sorts after.
_LAST_CHAR = chr(sys.maxunicode)


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
        self._targets: Dict[str, LinkTargets] = {}  # page key -> link_targets
        # Name key -> the key of the one page whose links name it, or the
        # set of them once there are two. Page keys are interned, so each
        # is one string object however many targets and sources hold it.
        self._backlinks: Dict[str, Union[str, Set[str]]] = {}
        # The page keys in sorted order, and the titles in the same order.
        self._keys: List[str] = []
        self._titles: List[str] = []
        # Lower-case property name -> annotations using it, in every page.
        self._property_counts: Dict[str, int] = {}
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

        A creation bumps :attr:`link_generation` and re-resolves the
        targets of the pages that name the new page, found in the
        backlink index. An edit resolves its new parse once and bumps
        :attr:`link_generation` when the targets differ from the kept
        ones. A caller that has already parsed ``text`` passes the result
        as ``parsed``, so one save parses the text once.
        """
        key = sys.intern(self._key(title))
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
        named = _named_keys(parsed)
        if page is None:
            iri = title_to_iri(title).value
            holder = self._title_of_iri.get(iri)
            if holder is not None:
                raise WikiError(f"cannot save {title!r}: its subject IRI is {holder!r}'s")
            page = Page(title, text, author=author, comment=comment)
            self._pages[key] = page
            at = bisect_left(self._keys, key)
            self._keys.insert(at, key)
            self._titles.insert(at, title)
            self._parsed[key] = parsed
            self._title_of_iri[iri] = title
            self._count_properties(parsed, 1)
            self._add_backlinks(key, named)
            self._targets[key] = self._resolve(key, named, parsed)
            for source in self._sources(key):
                if source != key:
                    self._targets[source] = self._reresolve(source)
            self._link_generation += 1
            return page
        targets = self._resolve(key, named, parsed)
        if targets != self._targets[key]:
            self._targets[key] = targets
            self._link_generation += 1
        self._count_properties(self._parsed[key], -1)
        self._count_properties(parsed, 1)
        old = _named_keys(self._parsed[key])
        self._drop_backlinks(key, old - named)
        self._add_backlinks(key, named - old)
        page.edit(text, author=author, comment=comment)
        self._parsed[key] = parsed
        return page

    def _count_properties(self, parsed: ParsedWikitext, step: int) -> None:
        """Add ``step`` per annotation of ``parsed`` to its property's count."""
        counts = self._property_counts
        for prop, _ in parsed.annotations:
            name = prop.lower()
            count = counts.get(name, 0) + step
            if count:
                counts[name] = count
            else:
                del counts[name]

    def link_targets(self, title: str) -> LinkTargets:
        """Keys of the other existing pages ``title`` links to, and annotates with.

        These are the page's rows of :meth:`link_graph` and
        :meth:`semantic_graph`, by title key, each sorted: a self-link,
        or a link or value naming a missing page, is in neither. The
        second tuple is a subset of the first, since the parsed links
        hold the string annotation values.
        """
        targets = self._targets.get(self._key(title))
        if targets is None:
            raise WikiError(f"no page titled {title!r}")
        return targets

    def backlinks(self, title: str) -> List[str]:
        """Titles of the pages whose links or string annotation values name ``title``.

        ``title`` need not exist. The titles sort as :meth:`titles`
        sorts, and a page that links to itself is among its own
        backlinks.
        """
        pages = self._pages
        return [pages[source].title for source in sorted(self._sources(self._key(title)))]

    def _resolve(self, key: str, named: Set[str], parsed: ParsedWikitext) -> LinkTargets:
        """:meth:`link_targets` of the page keyed ``key``, were ``parsed`` its text.

        ``named`` is :func:`_named_keys` of ``parsed``.
        """
        pages = self._pages
        web = tuple(sorted(sys.intern(name) for name in named if name in pages and name != key))
        if not web:
            return _NO_TARGETS
        values = {v.strip().lower() for _, v in parsed.annotations if isinstance(v, str)}
        semantic = tuple(name for name in web if name in values)
        return web, web if len(semantic) == len(web) else semantic

    def _reresolve(self, key: str) -> LinkTargets:
        """:meth:`_resolve` of an existing page's current parse."""
        parsed = self._parsed[key]
        return self._resolve(key, _named_keys(parsed), parsed)

    def _sources(self, name: str) -> Iterable[str]:
        """Keys of the pages whose parsed links name the key ``name``."""
        held = self._backlinks.get(name, ())
        return (held,) if isinstance(held, str) else held

    def _add_backlinks(self, source: str, names: Iterable[str]) -> None:
        backlinks = self._backlinks
        for name in names:
            held = backlinks.get(name)
            if held is None:
                backlinks[name] = source
            elif isinstance(held, str):
                backlinks[name] = {held, source}
            else:
                held.add(source)

    def _drop_backlinks(self, source: str, names: Iterable[str]) -> None:
        backlinks = self._backlinks
        for name in names:
            held = backlinks[name]
            if isinstance(held, str):
                del backlinks[name]
                continue
            held.discard(source)
            if len(held) == 1:
                backlinks[name] = next(iter(held))

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
        at = bisect_left(self._keys, key)
        del self._keys[at], self._titles[at]
        parsed = self._parsed.pop(key)
        self._count_properties(parsed, -1)
        self._drop_backlinks(key, _named_keys(parsed))
        del self._targets[key]
        del self._title_of_iri[title_to_iri(page.title).value]
        for source in self._sources(key):
            self._targets[source] = self._reresolve(source)
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

        It covers :meth:`titles`, :meth:`link_graph`,
        :meth:`semantic_graph` and :meth:`link_adjacency`. :meth:`save`
        bumps it on a creation and on an edit that changes
        which existing pages the page links to or annotates with;
        :meth:`delete` bumps it. An edit of literals or prose, or of a
        link to a missing page, leaves it, so a cache stamped with it
        outlives such writes. A title never changes after creation, and
        the graphs index pages by title order.
        """
        return self._link_generation

    def titles(self) -> List[str]:
        """All page titles, sorted case-insensitively (stable ordering).

        A title carries no outer whitespace, so its key is its lower case,
        and the kept sorted keys give this order without a sort.
        """
        return list(self._titles)

    def titles_with_prefix(self, prefix: str) -> List[str]:
        """The titles whose lower case starts with ``prefix.lower()``, in :meth:`titles` order.

        The kept sorted keys hold such titles in one run, found with two
        bisects: it starts at ``prefix.lower()`` and ends before the prefix
        with its last character incremented, which every key starting with
        the prefix sorts below. A trailing :data:`_LAST_CHAR` has no
        successor, so it is dropped first; a prefix of nothing else
        matches every key.
        """
        keys, lowered = self._keys, prefix.lower()
        start = bisect_left(keys, lowered)
        head = lowered.rstrip(_LAST_CHAR)
        end = bisect_left(keys, head[:-1] + chr(ord(head[-1]) + 1)) if head else len(keys)
        return self._titles[start:end]

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
        return dict(zip(self._keys, range(len(self._keys))))

    def link_graph(self) -> LinkGraph:
        """Ordinary web-page links between existing pages."""
        return _graph(self.link_adjacency()[0])

    def semantic_graph(self) -> LinkGraph:
        """Links induced by page-valued semantic annotations."""
        return _graph(self.link_adjacency()[1])

    def link_adjacency(self) -> Tuple[CsrMatrix, CsrMatrix]:
        """The 0/1 adjacency of :meth:`link_graph`, then of :meth:`semantic_graph`.

        Read from the kept targets in :meth:`titles` order with
        ``np.fromiter``: no :class:`LinkGraph` is built and no Python
        function runs per edge. A row's targets are sorted keys, so its
        column indices ascend, and the arrays equal those of
        ``LinkGraph.adjacency()`` of either graph.
        """
        index = self.page_index()
        rows = list(map(self._targets.__getitem__, self._keys))
        return (
            _adjacency(index, list(map(itemgetter(0), rows))),
            _adjacency(index, list(map(itemgetter(1), rows))),
        )

    # ------------------------------------------------------------------
    # Annotations and RDF export
    # ------------------------------------------------------------------

    def annotations(self, title: str) -> List[Tuple[str, Any]]:
        """The (attribute, value) pairs of ``title``'s current revision."""
        return list(self.parsed(title).annotations)

    def property_counts(self) -> Dict[str, int]:
        """Lower-case property name -> the annotations using it, over every page."""
        return dict(self._property_counts)

    def property_names(self) -> List[str]:
        """Every semantic property used anywhere, lower-case sorted."""
        return sorted(self._property_counts)

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
            subject = title_to_iri(title)
            for predicate, obj in self.page_rdf(title):
                graph.add(subject, predicate, obj)
        return graph

    def page_rdf(self, title: str) -> List[Tuple[IRI, Term]]:
        """The ``(predicate, object)`` pairs of one page's triples.

        They come in the order :meth:`export_rdf` adds the triples, and a
        pair may repeat; the subject is ``title_to_iri(title)``.
        """
        page = self._pages[self._key(title)]
        pairs: List[Tuple[IRI, Term]] = [
            (RDF.type, WIKI.term(page.namespace.replace(" ", "_"))),
            (PROP.title, Literal(title)),
        ]
        parsed = self.parsed(title)
        for prop, value in parsed.annotations:
            predicate = property_to_iri(prop)
            if isinstance(value, str) and self.has(value):
                pairs.append((predicate, title_to_iri(self.get(value).title)))
            else:
                pairs.append((predicate, Literal(value)))
        for category in parsed.categories:
            pairs.append((RDF.type, WIKI.term(f"Category_{category.replace(' ', '_')}")))
        for target in parsed.links:
            if self.has(target):
                pairs.append((PROP.links_to, title_to_iri(self.get(target).title)))
        return pairs

    def refresh_page_rdf(self, graph: Graph, title: str) -> None:
        """Update ``graph`` in place for one save of ``title``.

        ``graph`` must equal :meth:`export_rdf` of the wiki as it was
        before the save; afterwards it equals :meth:`export_rdf` of the
        wiki now. The saved page is exported again, and so is every page
        whose triples the save changed:

        - A page that did not exist before (its ``prop:title`` is not in
          ``graph``) turns every annotation value or link naming it from
          a literal into its IRI, with a ``links_to`` triple. Those pages
          are its :meth:`backlinks`. An edit changes no other page:
          titles, and with them IRIs and namespaces, never change.

        Each stale page's pairs (:meth:`page_rdf`) are built before
        ``graph`` changes, so an exception leaves ``graph`` as it was.
        Then only the triples that changed are written: those ``graph``
        holds and the pairs lack are removed, those the pairs hold and
        ``graph`` lacks are added. An observation that changes one value
        costs one removal and one addition, not a rewrite of the page.
        """
        title = self.get(title).title
        stale = {title}
        if (title_to_iri(title), PROP.title, Literal(title)) not in graph:
            stale.update(self.backlinks(title))
        fresh = {title_to_iri(stale_title): self.page_rdf(stale_title) for stale_title in stale}
        for subject, pairs in fresh.items():
            held = {(predicate, obj) for _, predicate, obj in graph.triples(subject)}
            for predicate, obj in held.difference(pairs):
                graph.remove(subject, predicate, obj)
            for predicate, obj in pairs:
                if (predicate, obj) not in held:
                    graph.add(subject, predicate, obj)  # a repeated pair adds nothing

    def __repr__(self) -> str:
        return f"WikiSite(pages={self.page_count})"


def _adjacency(index: Dict[str, int], rows: List[Tuple[str, ...]]) -> CsrMatrix:
    """The 0/1 CSR matrix whose row ``i`` holds ``index`` of the keys ``rows[i]``."""
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(
        map(index.__getitem__, chain.from_iterable(rows)), dtype=np.int64, count=nnz
    )
    return CsrMatrix(n, n, indptr, indices, np.ones(nnz))


def _graph(adjacency: CsrMatrix) -> LinkGraph:
    """The :class:`LinkGraph` whose links are the entries of ``adjacency``."""
    edges = zip(adjacency.row_index().tolist(), adjacency.indices.tolist())
    return LinkGraph(adjacency.nrows, edges)


def _named_keys(parsed: ParsedWikitext) -> Set[str]:
    """The keys of the names in ``parsed.links``, which holds string annotation values."""
    return {name.strip().lower() for name in parsed.links}
