"""Ranked keyword search over documents (the "basic search" the paper
extends).

Documents are added as ``(doc_id, text)``; tokens are stemmed and
stopword-filtered before indexing. Queries run through the same pipeline,
then every document containing any query term (OR semantics) is scored
with Okapi BM25, the one ranking: short metadata pages benefit from its
length normalization. A search answers one ``{doc_id: score}`` map, whose
keys are the match set and whose values are the relevance the engine
ranks by.

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
- **Dense numbers, scored as arrays.** A document's first ``add`` gives
  it the next dense number; numbers are never reused, and a re-add or a
  removal keeps it. Postings map numbers to term frequencies. Document
  lengths and ids live in arrays indexed by number, which ``add`` grows
  by doubling (in the SMR, under its write lock) and ``remove`` keeps
  current. A query reads each term's postings into arrays of numbers
  and term frequencies, gathers the lengths by number and applies
  :func:`bm25_term_score` to the arrays; a document's score sums its
  terms' contributions from 0.0 in query-term order (``np.bincount``
  adds in input order), and one gather maps the hit numbers back to ids.
  The per-posting work is C-level array work, and the per-hit work one
  map entry.
- **Unordered hits.** The map has no ranking order: the engine breaks
  score ties on ``(score, title)``, so two equal corpora rank the same
  hits the same way whatever order the map lists them in.
- **Linear scoring.** The total token count is kept write-through by
  ``add`` and ``remove``, and a query computes the average document
  length and each term's idf once, as Python floats, so scoring costs
  O(postings of the query terms), independent of corpus size. Every
  corpus statistic (document count, document frequency, token total) is
  an integer, and the array expressions are the scalar ones evaluated
  element by element in the same order, so every score equals a
  from-scratch scalar recount bitwise.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.text.stemmer import porter_stem
from repro.text.stopwords import is_stopword
from repro.text.tokenize import tokenize

_BM25_K1 = 1.5
_BM25_B = 0.75


def analyze(text: str) -> List[str]:
    """Tokenize, drop stopwords, stem — the shared indexing pipeline."""
    return [porter_stem(token) for token in tokenize(text) if not is_stopword(token)]


def bm25_idf(df: int, n: int) -> float:
    """BM25 idf for a term with document frequency ``df`` in ``n`` docs.

    BM25+ style floor keeps idf positive even for very common terms.
    """
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0


def bm25_term_score(tf, idf: float, length, avg_len: float):
    """One term's Okapi BM25 contribution for a document of ``length`` tokens.

    ``tf`` and ``length`` are numbers or equal-length float64 arrays;
    arrays run the same operations in the same order, element by element,
    so each element is the IEEE double the scalar call gives.
    """
    denom = tf + _BM25_K1 * (1 - _BM25_B + _BM25_B * length / max(avg_len, 1e-9))
    return idf * tf * (_BM25_K1 + 1) / denom


class InvertedIndex:
    """An in-memory inverted index with BM25 scoring."""

    def __init__(self):
        # term -> document number -> term frequency
        self._postings: Dict[str, Dict[int, int]] = {}
        # doc_id -> its distinct terms, the interned posting keys themselves
        self._doc_terms: Dict[str, Tuple[str, ...]] = {}
        # doc_id -> dense number; append-only, so a re-add keeps its number
        self._numbers: Dict[str, int] = {}
        # number -> doc_id and number -> document length, grown by doubling
        self._doc_ids = np.empty(16, dtype=object)
        self._lengths = np.zeros(16)
        self._total_tokens = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def add(self, doc_id: str, text: str) -> None:
        """Index ``text`` under ``doc_id``; re-adding replaces the document."""
        if doc_id in self._doc_terms:
            self.remove(doc_id)
        terms = analyze(text)
        number = self._number(doc_id)  # may grow the arrays: read them after
        self._lengths[number] = len(terms)
        self._total_tokens += len(terms)
        counts = Counter(terms)
        distinct = tuple(sys.intern(term) for term in counts)
        for term, tf in zip(distinct, counts.values()):
            self._postings.setdefault(term, {})[number] = tf
        self._doc_terms[doc_id] = distinct

    def _number(self, doc_id: str) -> int:
        """``doc_id``'s dense number, assigning the next one on first sight."""
        number = self._numbers.get(doc_id)
        if number is None:
            number = self._numbers[doc_id] = len(self._numbers)
            if number == len(self._lengths):
                self._doc_ids = np.concatenate([self._doc_ids, np.empty_like(self._doc_ids)])
                self._lengths = np.concatenate([self._lengths, np.zeros_like(self._lengths)])
            self._doc_ids[number] = doc_id
        return number

    def remove(self, doc_id: str) -> None:
        """Drop a document from the index (no-op if absent)."""
        terms = self._doc_terms.pop(doc_id, None)
        if terms is None:
            return
        number = self._numbers[doc_id]
        self._total_tokens -= int(self._lengths[number])
        self._lengths[number] = 0.0
        for term in terms:
            postings = self._postings[term]
            del postings[number]
            if not postings:
                del self._postings[term]

    @property
    def document_count(self) -> int:
        return len(self._doc_terms)

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

    def search(self, query: str) -> Dict[str, float]:
        """Map every document containing any query term to its BM25 score."""
        postings = [self._postings[term] for term in analyze(query) if term in self._postings]
        if not postings:
            return {}
        n = len(self._doc_terms)
        avg_len = self._total_tokens / max(1, n)
        numbers, contributions = [], []
        for docs in postings:
            size = len(docs)
            hit_numbers = np.fromiter(docs, np.intp, size)
            tf = np.fromiter(docs.values(), np.float64, size)
            idf = bm25_idf(size, n)
            numbers.append(hit_numbers)
            contributions.append(bm25_term_score(tf, idf, self._lengths[hit_numbers], avg_len))
        if len(postings) == 1:
            (hits,), (scores,) = numbers, contributions
        else:
            # bincount adds each bin's weights from 0.0 in input order, the
            # terms' order, as the scalar sum does.
            every = np.concatenate(numbers)
            hits = np.flatnonzero(np.bincount(every))
            scores = np.bincount(every, np.concatenate(contributions))[hits]
        return dict(zip(self._doc_ids[hits].tolist(), scores.tolist()))
