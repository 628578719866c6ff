"""The advanced metadata search system — the paper's contribution.

Everything the demo shows sits in this package:

- :mod:`repro.core.query` — the advanced query model (keyword, property
  filters, sort by / order by, kind, map bounding box) plus the compact
  query-string syntax the examples use;
- :mod:`repro.core.privileges` — users and access policies ("takes
  user's inputs for queries within their privileges");
- :mod:`repro.core.ranking` — the double-link PageRank ranking metric;
- :mod:`repro.core.engine` — the Query Interface + Query Management
  modules: candidate retrieval through SQL *and* SPARQL, match-degree
  scoring, ranking, faceting;
- :mod:`repro.core.recommend` — the recommendation mechanism combining
  query inputs with high-PageRank properties;
- :mod:`repro.core.autocomplete` — autocomplete and the dynamic
  drop-downs of Fig. 7;
- :mod:`repro.core.facets` — facet counts over result sets.
"""

from repro.core.query import PropertyFilter, SearchQuery, parse_query
from repro.core.privileges import AccessPolicy, User
from repro.core.results import SearchResult, SearchResults
from repro.core.ranking import PageRankRanker
from repro.core.engine import AdvancedSearchEngine
from repro.core.recommend import Recommendation, Recommender
from repro.core.autocomplete import AutocompleteService
from repro.core.facets import facet_counts
from repro.core.stats import CorpusStatistics, corpus_statistics

__all__ = [
    "PropertyFilter",
    "SearchQuery",
    "parse_query",
    "AccessPolicy",
    "User",
    "SearchResult",
    "SearchResults",
    "PageRankRanker",
    "AdvancedSearchEngine",
    "Recommendation",
    "Recommender",
    "AutocompleteService",
    "facet_counts",
    "CorpusStatistics",
    "corpus_statistics",
]
