"""Text and information-retrieval substrate.

The advanced search interface needs keyword search over page text and
metadata values (Fig. 7). This package supplies those pieces:

- :mod:`repro.text.tokenize` — tokenizer and n-gram helpers;
- :mod:`repro.text.stopwords` — the English stopword list;
- :mod:`repro.text.stemmer` — a from-scratch Porter stemmer;
- :mod:`repro.text.inverted_index` — ranked keyword search, Okapi BM25
  over OR semantics.

The cosine similarity between tag vectors (Section IV) lives with its
one user, :mod:`repro.tagging.similarity`.
"""

from repro.text.tokenize import tokenize, normalize_token
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.stemmer import porter_stem
from repro.text.fuzzy import levenshtein, suggest
from repro.text.inverted_index import InvertedIndex
from repro.text.snippet import Snippet, best_snippet

__all__ = [
    "tokenize",
    "normalize_token",
    "STOPWORDS",
    "is_stopword",
    "porter_stem",
    "InvertedIndex",
    "Snippet",
    "best_snippet",
    "levenshtein",
    "suggest",
]
