"""An indexed in-memory triple store.

Triples are kept in three permutation indexes (SPO, POS, OSP) so any
single-wildcard pattern resolves through a dictionary walk instead of a
full scan — the same layout production stores use.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.errors import RdfError
from repro.rdf.term import IRI, BlankNode, Literal, Term, require_term

Triple = Tuple[Term, Term, Term]
Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]

_Index = Dict[Term, Dict[Term, Set[Term]]]


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: _Index, a: Term, b: Term, c: Term) -> None:
    second = index.get(a)
    if not second:
        return
    third = second.get(b)
    if not third:
        return
    third.discard(c)
    if not third:
        del second[b]
        if not second:
            del index[a]


class Graph:
    """A set of RDF triples with pattern matching.

    ``None`` acts as a wildcard in :meth:`triples` patterns.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._count = 0
        self._blank_counter = 0
        for s, p, o in triples:
            self.add(s, p, o)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        return o in self._spo.get(s, {}).get(p, set())

    def new_blank_node(self) -> BlankNode:
        """Mint a graph-unique blank node."""
        self._blank_counter += 1
        return BlankNode(f"b{self._blank_counter}")

    def add(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Insert a triple; returns False if it was already present."""
        require_term(subject, "subject")
        require_term(predicate, "predicate")
        require_term(obj, "object")
        if (subject, predicate, obj) in self:
            return False
        _index_add(self._spo, subject, predicate, obj)
        _index_add(self._pos, predicate, obj, subject)
        _index_add(self._osp, obj, subject, predicate)
        self._count += 1
        return True

    def remove(self, subject: Optional[Term], predicate: Optional[Term], obj: Optional[Term]) -> int:
        """Remove every triple matching the (wildcardable) pattern."""
        matches = list(self.triples(subject, predicate, obj))
        for s, p, o in matches:
            _index_remove(self._spo, s, p, o)
            _index_remove(self._pos, p, o, s)
            _index_remove(self._osp, o, s, p)
        self._count -= len(matches)
        return len(matches)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern (None = wildcard)."""
        if subject is not None:
            by_pred = self._spo.get(subject, {})
            if predicate is not None:
                for o in by_pred.get(predicate, ()):  # S P ?
                    if obj is None or o == obj:
                        yield subject, predicate, o
            else:
                for p, objects in by_pred.items():  # S ? ?
                    for o in objects:
                        if obj is None or o == obj:
                            yield subject, p, o
            return
        if predicate is not None:
            by_obj = self._pos.get(predicate, {})
            if obj is not None:
                for s in by_obj.get(obj, ()):  # ? P O
                    yield s, predicate, obj
            else:
                for o, subjects in by_obj.items():  # ? P ?
                    for s in subjects:
                        yield s, predicate, o
            return
        if obj is not None:
            for s, preds in self._osp.get(obj, {}).items():  # ? ? O
                for p in preds:
                    yield s, p, obj
            return
        for s, by_pred in self._spo.items():  # ? ? ?
            for p, objects in by_pred.items():
                for o in objects:
                    yield s, p, o

    def subjects_by_object(self, predicate: Term) -> Iterable[Tuple[Term, Set[Term]]]:
        """Each object of ``predicate`` with the subjects that have it.

        The POS index's groups, in the order :meth:`triples` yields
        ``(None, predicate, None)``: a caller can test an object once for
        all of its subjects. The sets are the index's own; do not change
        them, and do not change the graph while iterating.
        """
        return self._pos.get(predicate, {}).items()

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def subjects(self, predicate: Optional[Term] = None, obj: Optional[Term] = None):
        """Distinct subjects matching the pattern, deterministically sorted."""
        return sorted({s for s, _, _ in self.triples(None, predicate, obj)}, key=_term_key)

    def predicates(self, subject: Optional[Term] = None):
        """Distinct predicates matching the pattern, deterministically sorted."""
        return sorted({p for _, p, _ in self.triples(subject, None, None)}, key=_term_key)

    def objects(self, subject: Optional[Term] = None, predicate: Optional[Term] = None):
        """Distinct objects matching the pattern, deterministically sorted."""
        return sorted({o for _, _, o in self.triples(subject, predicate, None)}, key=_term_key)

    def value(self, subject: Term, predicate: Term) -> Optional[Term]:
        """The single object of (subject, predicate), or None; raises on >1."""
        objects = self.objects(subject, predicate)
        if not objects:
            return None
        if len(objects) > 1:
            raise RdfError(
                f"value() found {len(objects)} objects for {subject}/{predicate}; use objects()"
            )
        return objects[0]

    def merge(self, other: "Graph") -> int:
        """Add every triple of ``other``; returns how many were new."""
        added = 0
        for triple in other.triples():
            if self.add(*triple):
                added += 1
        return added

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __repr__(self) -> str:
        return f"Graph(triples={self._count})"


def _term_key(term: Term) -> tuple:
    # Sort IRIs, then blank nodes, then literals — deterministically.
    if isinstance(term, IRI):
        return (0, term.value)
    if isinstance(term, BlankNode):
        return (1, term.node_id)
    if isinstance(term, Literal):
        return (2, str(term.datatype or ""), str(term.value))
    return (3, repr(term))  # pragma: no cover
