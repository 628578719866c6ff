"""The Sensor Metadata Repository facade.

One ``register()`` call writes a metadata record to all three stores the
paper describes — the semantic wiki (authoring + link structures), the
relational database (SQL) and the RDF graph (SPARQL) — plus the keyword
index that backs basic search. The advanced search engine in
:mod:`repro.core` is built entirely on this facade.

Invariants:

- **One canonical title.** A page is keyed case-insensitively; its
  canonical title is the spelling it was first registered under
  (``wiki.get(title).title``). Its SQL row, the row's replacement, its
  keyword-index document and its RDF subject all use that title, so
  re-registering ``"station:a"`` over ``"Station:A"`` updates the one
  page in every store.
- **Write-through RDF.** The first :meth:`SensorMetadataRepository.
  rdf_graph` call builds the graph with ``WikiSite.export_rdf()``; a
  repository that never runs SPARQL never builds it. From then on every
  ``register()`` updates the graph in place, under the write lock it
  already holds, through ``WikiSite.refresh_page_rdf``. The graph equals
  a fresh ``export_rdf()`` whenever no write is in progress, so a read
  after a write never re-exports the wiki and its cost does not grow
  with the corpus. A page the export cannot name is refused by
  ``WikiSite.save``, the first step of the write, so a refused
  ``register()`` leaves every store as it was.
- **Write-through search lookups.** Under the same write lock,
  ``register()`` keeps the engine's kind -> titles and title -> location
  lookups and one R-tree over the located pages equal to a fresh
  derivation from the wiki, so no read rebuilds them; ``WikiSite.save``
  keeps its IRI value -> title map, refusing a new page whose subject
  IRI another page holds, so each IRI names one title. A location is
  :func:`parse_location` of the page's annotations, taken from the
  write's one wikitext parse before the write section, so a parse that
  raises refuses the write with every store as it was. An R-tree entry
  moves only when its page's location changed.
- **Row replacement by primary key.** The old row is dropped through the
  table's primary-key hash index, not by a scanning ``DELETE``.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError, SmrError
from repro.geo.point import GeoPoint
from repro.rdf.graph import Graph
from repro.rdf.sparql import SparqlEngine, SparqlResult
from repro.relational.database import Database, ResultSet
from repro.relational.indexes import RTreeIndex
from repro.relational.types import DataType
from repro.smr.model import KIND_ORDER, record_class_for
from repro.smr.rwlock import ReadWriteLock
from repro.text.inverted_index import InvertedIndex
from repro.wiki.schema_map import PropertyMapping, SchemaMapping
from repro.wiki.site import WikiSite
from repro.wiki.wikitext import parse_wikitext, render_annotations


def default_schema_mapping() -> SchemaMapping:
    """The RDF->relational mapping for the five standard kinds."""
    mapping = SchemaMapping()
    mapping.declare(
        "institution",
        [
            PropertyMapping("name", "name", DataType.TEXT),
            PropertyMapping("country", "country", DataType.TEXT),
            PropertyMapping("contact", "contact", DataType.TEXT),
        ],
    )
    mapping.declare(
        "field_site",
        [
            PropertyMapping("name", "name", DataType.TEXT),
            PropertyMapping("latitude", "latitude", DataType.REAL),
            PropertyMapping("longitude", "longitude", DataType.REAL),
            PropertyMapping("elevation_m", "elevation_m", DataType.INTEGER),
        ],
    )
    mapping.declare(
        "deployment",
        [
            PropertyMapping("name", "name", DataType.TEXT),
            PropertyMapping("field_site", "field_site", DataType.TEXT),
            PropertyMapping("institution", "institution", DataType.TEXT),
            PropertyMapping("project", "project", DataType.TEXT),
            PropertyMapping("start_year", "start_year", DataType.INTEGER),
            PropertyMapping("status", "status", DataType.TEXT),
        ],
    )
    mapping.declare(
        "station",
        [
            PropertyMapping("name", "name", DataType.TEXT),
            PropertyMapping("deployment", "deployment", DataType.TEXT),
            PropertyMapping("latitude", "latitude", DataType.REAL),
            PropertyMapping("longitude", "longitude", DataType.REAL),
            PropertyMapping("elevation_m", "elevation_m", DataType.INTEGER),
            PropertyMapping("status", "status", DataType.TEXT),
        ],
    )
    mapping.declare(
        "sensor",
        [
            PropertyMapping("name", "name", DataType.TEXT),
            PropertyMapping("station", "station", DataType.TEXT),
            PropertyMapping("sensor_type", "sensor_type", DataType.TEXT),
            PropertyMapping("manufacturer", "manufacturer", DataType.TEXT),
            PropertyMapping("serial", "serial", DataType.TEXT),
            PropertyMapping("sampling_rate_s", "sampling_rate_s", DataType.INTEGER),
            PropertyMapping("accuracy", "accuracy", DataType.REAL),
            PropertyMapping("installed_year", "installed_year", DataType.INTEGER),
        ],
    )
    return mapping


def parse_location(annotations: Sequence[Tuple[str, Any]]) -> Optional[GeoPoint]:
    """The point a page's ``latitude`` and ``longitude`` annotations give.

    Property names match case-insensitively, and a later pair overrides
    an earlier one. A page is unlocated (None) unless both values are
    numbers; ``register()`` does not validate coordinates, so a value
    out of range, or too large for a float, leaves it unlocated too.
    """
    pairs = {prop.lower(): value for prop, value in annotations}
    lat = pairs.get("latitude")
    lon = pairs.get("longitude")
    if isinstance(lat, (int, float)) and isinstance(lon, (int, float)):
        try:
            return GeoPoint(float(lat), float(lon))
        except (OverflowError, ReproError):
            return None
    return None


class SensorMetadataRepository:
    """Keeps the wiki, the relational DB and the RDF export in sync.

    All facade methods are guarded by :attr:`lock`, a reentrant
    reader–writer lock (:class:`repro.smr.rwlock.ReadWriteLock`): the
    query surfaces take the shared read side — so concurrent searches
    can evaluate SQL, SPARQL, keyword and spatial predicates side by
    side — while :meth:`register` takes the exclusive
    write side, keeping the three stores' updates atomic with respect to
    every reader. Code that bypasses the facade (e.g. reading
    ``self.wiki`` directly from another thread) must take
    ``smr.lock.read()`` itself.
    """

    def __init__(self, mapping: Optional[SchemaMapping] = None):
        self.mapping = mapping or default_schema_mapping()
        self.wiki = WikiSite()
        self.db = Database()
        self.text_index = InvertedIndex()
        self.lock = ReadWriteLock()
        self._kind_of: Dict[str, str] = {}  # title-key -> kind
        # The write-through search lookups (module docstring).
        self._titles_of_kind: Dict[str, Set[str]] = {kind: set() for kind in self.mapping.kinds}
        self._locations: Dict[str, GeoPoint] = {}  # located pages only
        self._spatial = RTreeIndex("spatial", columns=("latitude", "longitude"))
        self._rdf: Optional[Graph] = None  # built by the first rdf_graph() call
        self._rdf_build_lock = threading.Lock()
        self._mutations = 0
        for kind in self.mapping.kinds:
            self.db.create_table(self.mapping.table_schema(kind))

    # ------------------------------------------------------------------
    # Registration (keeps all stores consistent)
    # ------------------------------------------------------------------

    def register(
        self,
        kind: str,
        title: str,
        annotations: Sequence[Tuple[str, Any]],
        links: Sequence[str] = (),
        description: str = "",
        author: str = "",
    ) -> None:
        """Create or update one metadata page in every store.

        A non-finite float value (``inf``, ``nan``) is refused with
        :class:`~repro.errors.SmrError` naming its property, before any
        store changes: JSON cannot carry one, and the wikitext typer
        keeps such spellings as strings.
        """
        kind = kind.lower()
        if kind not in self.mapping.kinds:
            raise SmrError(f"unknown kind {kind!r}; declared: {self.mapping.kinds}")
        for prop, value in annotations:
            if isinstance(value, float) and not math.isfinite(value):
                raise SmrError(f"property {prop!r} holds the non-finite number {value!r}")
        text = render_annotations(list(annotations), list(links))
        if description:
            text = f"{description}\n{text}"
        # Row construction (validation, typing), the wikitext parse and the
        # location it gives happen outside the write section; only the
        # multi-store commit below is exclusive.
        row = self.mapping.row_from_annotations(kind, title, list(annotations))
        parsed = parse_wikitext(text)
        location = parse_location(parsed.annotations)
        key = title.strip().lower()
        with self.lock.write():
            title = self.wiki.save(title, text, author=author, parsed=parsed).title
            row["title"] = title
            old_kind = self._kind_of.get(key)
            if old_kind is not None:
                # Drop the old row (from the old kind's table if it changed).
                self.db.table(old_kind).delete_by_key(title)
            self.db.table(kind).insert(row)
            self._kind_of[key] = kind
            self._update_lookups(title, old_kind, kind, location)
            searchable = " ".join(
                [title, description] + [str(value) for _, value in annotations]
            )
            self.text_index.add(title, searchable)
            if self._rdf is not None:
                self.wiki.refresh_page_rdf(self._rdf, title)
            self._mutations += 1

    def _update_lookups(
        self, title: str, old_kind: Optional[str], kind: str, location: Optional[GeoPoint]
    ) -> None:
        """Bring the search lookups up to one save of ``title`` (write lock held)."""
        if old_kind != kind:
            if old_kind is not None:
                self._titles_of_kind[old_kind].discard(title)
            self._titles_of_kind[kind].add(title)
        old = self._locations.pop(title, None)
        if location is not None:
            self._locations[title] = location
        if old != location:
            if old is not None:
                self._spatial.delete((old.lat, old.lon), title)
            if location is not None:
                self._spatial.insert((location.lat, location.lon), title)

    def register_record(self, kind: str, record: Dict[str, Any], links: Sequence[str] = ()) -> None:
        """Register from a plain dict using the typed record classes."""
        typed = record_class_for(kind).from_record(record)
        self.register(kind, typed.title, typed.annotations(), links=links)

    @classmethod
    def from_corpus(cls, corpus) -> "SensorMetadataRepository":
        """Load a :class:`~repro.workloads.generator.SyntheticCorpus`."""
        smr = cls()
        extra_links: Dict[str, List[str]] = {}
        for source, target in corpus.page_links:
            extra_links.setdefault(source, []).append(target)
        for kind in KIND_ORDER:
            for record in corpus.records_of(kind):
                smr.register_record(kind, record, links=extra_links.get(record["title"], ()))
        return smr

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return self.wiki.page_count

    @property
    def mutation_count(self) -> int:
        """Monotone write counter — the repository's cache *generation*.

        Every :meth:`register` (page creation or edit, including each
        bulk-loaded record) increments it. Read-side caches such as
        :class:`repro.perf.cache.GenerationalLruCache` and the ranker's
        score cache stamp their entries with this value and treat any
        change as an invalidation, so writers never flush anything
        eagerly. Direct writes to ``self.wiki`` bypass the counter — go
        through the repository facade.
        """
        return self._mutations

    def kind_of(self, title: str) -> str:
        """The metadata kind of ``title``; raises for unknown pages."""
        with self.lock.read():
            kind = self._kind_of.get(title.strip().lower())
        if kind is None:
            raise SmrError(f"no metadata page titled {title!r}")
        return kind

    def kind_map(self) -> Dict[str, str]:
        """One read-locked copy of title-key -> kind, for every page.

        A search reads kinds through :meth:`titles_of_kinds` and
        :meth:`page_details` instead; this copy serves the benchmarks'
        replica of the earlier engine and perfbench's ``core.snapshot``
        span.
        """
        with self.lock.read():
            return dict(self._kind_of)

    def titles(self, kind: Optional[str] = None) -> List[str]:
        """All page titles, optionally restricted to one kind, sorted case-insensitively."""
        with self.lock.read():
            if kind is None:
                return self.wiki.titles()
            return sorted(self._titles_of_kind.get(kind.lower(), ()), key=str.lower)

    def titles_of_kind(self, kind: str) -> Set[str]:
        """The titles of one kind as a set: :meth:`titles` without the sort."""
        with self.lock.read():
            return set(self._titles_of_kind.get(kind.lower(), ()))

    def titles_of_iris(self, iris: Iterable[Any]) -> Set[str]:
        """Titles of the pages whose subject IRI value is among ``iris``."""
        with self.lock.read():
            return self.wiki.titles_of_iris(iris)

    def titles_of_kinds(self, kinds: Iterable[str], among: Iterable[str]) -> List[str]:
        """The titles of ``among`` whose page is of one of ``kinds``, in order.

        Reads the kinds' title sets under one read lock, so each title
        costs a set membership test, not a kind lookup.
        """
        with self.lock.read():
            sets = [self._titles_of_kind[kind] for kind in kinds if kind in self._titles_of_kind]
            return [title for title in among if any(title in members for members in sets)]

    def page_details(
        self, titles: Iterable[str]
    ) -> List[Tuple[str, List[Tuple[str, Any]], Optional[GeoPoint]]]:
        """``(kind, annotations, location)`` of each title, under one read lock.

        The annotations are :meth:`annotations` of the page and the
        location their :func:`parse_location`; one lock section for the
        whole list means each entry is one revision of its page.
        """
        with self.lock.read():
            details = []
            for title in titles:
                title = self.wiki.get(title).title
                details.append(
                    (
                        self._kind_of[title.strip().lower()],
                        self.wiki.annotations(title),
                        self._locations.get(title),
                    )
                )
            return details

    def locations(self) -> Dict[str, GeoPoint]:
        """A snapshot of title -> location over every located page."""
        with self.lock.read():
            return dict(self._locations)

    def titles_in_box(self, south: float, north: float, west: float, east: float) -> Set[str]:
        """Titles of the located pages inside the box, bounds inclusive (R-tree probe)."""
        with self.lock.read():
            return self._spatial.box(south, north, west, east)

    def spatial_index_statistics(self) -> Tuple[int, Dict[str, Any]]:
        """The R-tree's statistics and the :attr:`mutation_count` they describe."""
        with self.lock.read():
            return self._mutations, self._spatial.statistics()

    def annotations(self, title: str) -> List[Tuple[str, Any]]:
        """The (attribute, value) pairs of ``title``'s current revision."""
        with self.lock.read():
            return self.wiki.annotations(title)

    # ------------------------------------------------------------------
    # Query surfaces (the "combination of SQL and SPARQL")
    # ------------------------------------------------------------------

    def sql(self, query: str) -> ResultSet:
        """Run SQL against the relational half."""
        with self.lock.read():
            return self.db.execute(query)

    def rdf_graph(self) -> Graph:
        """The RDF graph of the wiki, kept current by every :meth:`register`.

        The first call builds it with ``WikiSite.export_rdf()``; after
        that each write updates it in place (write-through), so it always
        equals a fresh export. The returned graph is live, not a copy: a
        caller that iterates it outside :meth:`sparql` must hold
        ``smr.lock.read()`` while it does, or a concurrent write may
        change it mid-iteration.
        """
        with self.lock.read():
            if self._rdf is None:
                # Readers share the read side, so two may race to build;
                # the first one wins, and every caller gets the graph
                # that writes will keep current.
                with self._rdf_build_lock:
                    if self._rdf is None:
                        self._rdf = self.wiki.export_rdf()
            return self._rdf

    def sparql(self, query: str) -> SparqlResult:
        """Run SPARQL against the RDF half."""
        with self.lock.read():  # reentrant with rdf_graph()'s read section
            return SparqlEngine(self.rdf_graph()).query(query)

    def keyword_search(self, query: str) -> Dict[str, float]:
        """Basic keyword search (the baseline the paper extends): title -> BM25 score."""
        with self.lock.read():
            return self.text_index.search(query)

    def __repr__(self) -> str:
        return f"SensorMetadataRepository(pages={self.page_count})"
