"""The Sensor Metadata Repository facade.

One ``register()`` call writes a metadata record to all three stores the
paper describes — the semantic wiki (authoring + link structures), the
relational database (SQL) and, lazily, the RDF graph (SPARQL) — plus the
keyword index that backs basic search. The advanced search engine in
:mod:`repro.core` is built entirely on this facade.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SmrError
from repro.rdf.graph import Graph
from repro.rdf.sparql import SparqlEngine, SparqlResult
from repro.relational.database import Database, ResultSet
from repro.relational.types import DataType
from repro.smr.model import KIND_ORDER, record_class_for
from repro.smr.rwlock import ReadWriteLock
from repro.text.inverted_index import InvertedIndex
from repro.wiki.schema_map import PropertyMapping, SchemaMapping
from repro.wiki.site import WikiSite
from repro.wiki.wikitext import render_annotations


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
        self._rdf_cache: Optional[Graph] = None
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
        """Create or update one metadata page in every store."""
        kind = kind.lower()
        if kind not in self.mapping.kinds:
            raise SmrError(f"unknown kind {kind!r}; declared: {self.mapping.kinds}")
        text = render_annotations(list(annotations), list(links))
        if description:
            text = f"{description}\n{text}"
        # Row construction (validation, typing) happens outside the write
        # section; only the multi-store commit below is exclusive.
        row = self.mapping.row_from_annotations(kind, title, list(annotations))
        key = title.strip().lower()
        with self.lock.write():
            replacing = key in self._kind_of
            self.wiki.save(title, text, author=author)
            table = self.db.table(kind)
            if replacing:
                # Drop the old row (and old-kind row if the kind changed).
                old_kind = self._kind_of[key]
                self.db.execute(
                    f"DELETE FROM {old_kind} WHERE title = '{_sql_quote(title)}'"
                )
            table.insert(row)
            self._kind_of[key] = kind
            searchable = " ".join(
                [title, description] + [str(value) for _, value in annotations]
            )
            self.text_index.add(title, searchable)
            self._rdf_cache = None
            self._mutations += 1

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
        """One read-locked snapshot of title-key -> kind.

        The engine's candidate loop consults the kind of thousands of
        titles per query; one snapshot costs a single lock section and a
        dict copy instead of one :meth:`kind_of` lock round-trip per
        candidate (which profiled at ~75% of a top-k query).
        """
        with self.lock.read():
            return dict(self._kind_of)

    def titles(self, kind: Optional[str] = None) -> List[str]:
        """All page titles, optionally restricted to one kind."""
        with self.lock.read():
            if kind is None:
                return self.wiki.titles()
            wanted = kind.lower()
            return [
                t for t in self.wiki.titles() if self._kind_of[t.strip().lower()] == wanted
            ]

    def annotations(self, title: str) -> List[Tuple[str, Any]]:
        """The (attribute, value) pairs of ``title``'s current revision."""
        with self.lock.read():
            return self.wiki.annotations(title)

    def property_names(self) -> List[str]:
        """Every semantic property used anywhere, sorted."""
        with self.lock.read():
            return self.wiki.property_names()

    # ------------------------------------------------------------------
    # Query surfaces (the "combination of SQL and SPARQL")
    # ------------------------------------------------------------------

    def sql(self, query: str) -> ResultSet:
        """Run SQL against the relational half."""
        with self.lock.read():
            return self.db.execute(query)

    def rdf_graph(self) -> Graph:
        """The (cached) RDF export of the wiki."""
        with self.lock.read():
            if self._rdf_cache is None:
                # Concurrent readers may export twice; the last assignment
                # wins and both graphs are equivalent (export is pure).
                self._rdf_cache = self.wiki.export_rdf()
            return self._rdf_cache

    def sparql(self, query: str) -> SparqlResult:
        """Run SPARQL against the RDF half."""
        with self.lock.read():  # reentrant with rdf_graph()'s read section
            return SparqlEngine(self.rdf_graph()).query(query)

    def keyword_search(self, query: str, limit: Optional[int] = None):
        """Basic ranked keyword search (the baseline the paper extends)."""
        with self.lock.read():
            return self.text_index.search(query, limit=limit)

    def __repr__(self) -> str:
        return f"SensorMetadataRepository(pages={self.page_count})"


def _sql_quote(value: str) -> str:
    return value.replace("'", "''")
