"""Ranked keyword search over documents (the "basic search" the paper
extends).

Documents are added as ``(doc_id, text)``; tokens are stemmed and
stopword-filtered before indexing. Queries run through the same pipeline,
then every document containing any query term (OR semantics) is scored
with Okapi BM25, the one ranking: short metadata pages benefit from its
length normalization.

Invariants the rest of the system leans on:

- **Write-through freshness, not generation stamping.** The index is
  mutated inside the same :meth:`repro.smr.SensorMetadataRepository.
  register` call that bumps the SMR generation, *before* the write
  returns — so unlike the query-result cache (which stamps entries and
  invalidates lazily), an ``InvertedIndexScan`` can never observe a page
  the SMR doesn't have, or miss one it does. There is no rebuild step to
  forget.
- **Re-add replaces.** ``add`` on an existing ``doc_id`` removes the old
  postings first; re-registering a page never double-counts terms, and
  ``remove`` drops emptied postings lists so ``term_count`` reflects
  live terms only.
- **Removal costs the document, not the vocabulary.** Each document
  keeps its distinct terms, so ``remove`` (and with it every re-add)
  touches only those postings lists. The stored terms are the interned
  posting keys themselves, so the map holds tuples of references, not
  copies of the strings.
- **Symmetric analysis.** Queries pass through the exact tokenize →
  stopword → Porter-stem pipeline documents were indexed under
  (:func:`analyze` both ways); a term that indexes differently than it
  queries can't exist.
- **Deterministic ranking.** Ties in score break on ``doc_id``, so equal
  corpora return identical hit orderings across runs and backends — the
  property the engine's result cache and the differential tests rely on.
- **Linear scoring.** The total token count is kept write-through by
  ``add`` and ``remove``, and a query computes the average document
  length and each term's idf once, so scoring costs O(hits × query
  terms), independent of corpus size. Every corpus statistic (document
  count, document frequency, token total) is an integer, so the scores
  equal a from-scratch recount bitwise.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.text.stemmer import porter_stem
from repro.text.stopwords import is_stopword
from repro.text.tokenize import tokenize

_BM25_K1 = 1.5
_BM25_B = 0.75


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: the document id and its relevance score."""

    doc_id: str
    score: float


def analyze(text: str) -> List[str]:
    """Tokenize, drop stopwords, stem — the shared indexing pipeline."""
    return [porter_stem(token) for token in tokenize(text) if not is_stopword(token)]


def bm25_idf(df: int, n: int) -> float:
    """BM25 idf for a term with document frequency ``df`` in ``n`` docs.

    BM25+ style floor keeps idf positive even for very common terms.
    """
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0


def bm25_term_score(tf: int, idf: float, length: int, avg_len: float) -> float:
    """One term's Okapi BM25 contribution for a document of ``length`` tokens."""
    denom = tf + _BM25_K1 * (1 - _BM25_B + _BM25_B * length / max(avg_len, 1e-9))
    return idf * tf * (_BM25_K1 + 1) / denom


class InvertedIndex:
    """An in-memory inverted index with BM25 scoring."""

    def __init__(self):
        # term -> doc_id -> term frequency
        self._postings: Dict[str, Dict[str, int]] = {}
        self._doc_lengths: Dict[str, int] = {}
        # doc_id -> its distinct terms, the interned posting keys themselves
        self._doc_terms: Dict[str, Tuple[str, ...]] = {}
        self._total_tokens = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def add(self, doc_id: str, text: str) -> None:
        """Index ``text`` under ``doc_id``; re-adding replaces the document."""
        if doc_id in self._doc_lengths:
            self.remove(doc_id)
        terms = analyze(text)
        self._doc_lengths[doc_id] = len(terms)
        self._total_tokens += len(terms)
        counts = Counter(terms)
        distinct = tuple(sys.intern(term) for term in counts)
        for term, tf in zip(distinct, counts.values()):
            self._postings.setdefault(term, {})[doc_id] = tf
        self._doc_terms[doc_id] = distinct

    def remove(self, doc_id: str) -> None:
        """Drop a document from the index (no-op if absent)."""
        if doc_id not in self._doc_lengths:
            return
        self._total_tokens -= self._doc_lengths.pop(doc_id)
        for term in self._doc_terms.pop(doc_id):
            postings = self._postings[term]
            del postings[doc_id]
            if not postings:
                del self._postings[term]

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def term_count(self) -> int:
        return len(self._postings)

    @property
    def total_token_count(self) -> int:
        """Sum of indexed document lengths (the BM25 average's numerator)."""
        return self._total_tokens

    def document_frequency(self, term: str) -> int:
        """Documents containing ``term`` (after analysis of the term)."""
        analyzed = analyze(term)
        if not analyzed:
            return 0
        return len(self._postings.get(analyzed[0], {}))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, query: str, limit: Optional[int] = None) -> List[SearchHit]:
        """Return the documents containing any query term, best BM25 first."""
        terms = analyze(query)
        if not terms:
            return []
        postings = [self._postings.get(term, {}) for term in terms]
        candidates = set().union(*postings)
        if not candidates:
            return []
        n = len(self._doc_lengths)
        avg_len = self._total_tokens / max(1, n)
        idfs = [bm25_idf(len(docs), n) for docs in postings]
        hits = []
        for doc_id in candidates:
            length = self._doc_lengths[doc_id]
            score = 0.0
            for docs, idf in zip(postings, idfs):
                tf = docs.get(doc_id, 0)
                if tf == 0:
                    continue
                score += bm25_term_score(tf, idf, length, avg_len)
            hits.append(SearchHit(doc_id, score))
        hits.sort(key=lambda hit: (-hit.score, hit.doc_id))
        return hits[:limit] if limit is not None else hits
