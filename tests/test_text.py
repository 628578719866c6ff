"""Tests for the text/IR substrate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.text import (
    InvertedIndex,
    TfidfVectorizer,
    Trie,
    cosine_similarity,
    is_stopword,
    porter_stem,
    tokenize,
)
from repro.text.inverted_index import analyze
from repro.text.tokenize import ngrams

#: Index words: stems that collide ("measurement"/"measurements"), a
#: stopword, and plain terms, so analysis runs on both sides of a query.
ORACLE_WORDS = ["wind", "snow", "davos", "measurement", "measurements", "station", "the"]


def _oracle_search(docs, query, scoring, require_all):
    """Rank ``docs`` (doc_id -> analyzed terms) for ``query`` from the definition.

    N, every document frequency and the average length are recounted
    from scratch. Scores are Okapi BM25 (k1 = 1.5, b = 0.75, idf
    ``log(1 + (N - df + 0.5) / (df + 0.5))``) or length-normalized TF-IDF
    over the same idf; ties break on the document id.
    """
    terms = analyze(query)
    n = len(docs)
    avg_len = sum(len(tokens) for tokens in docs.values()) / max(1, n)
    match = all if require_all else any
    hits = []
    for doc_id, tokens in docs.items():
        if not terms or not match(term in tokens for term in terms):
            continue
        score = 0.0
        for term in terms:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            if scoring == "bm25":
                score += idf * tf * (1.5 + 1) / (
                    tf + 1.5 * (1 - 0.75 + 0.75 * len(tokens) / max(avg_len, 1e-9))
                )
            else:
                score += (tf / max(1, len(tokens))) * idf
        hits.append((doc_id, score))
    hits.sort(key=lambda hit: (-hit[1], hit[0]))
    return hits


class TestTokenize:
    def test_basic(self):
        assert tokenize("Wind speed at WAN-007!") == ["wind", "speed", "at", "wan", "007"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []

    def test_unicode_ignored_gracefully(self):
        assert tokenize("température 20°C") == ["temp", "rature", "20", "c"]

    def test_ngrams(self):
        assert ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]
        assert ngrams(["a"], 2) == []

    def test_ngrams_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)


class TestStopwords:
    def test_common_words(self):
        assert is_stopword("the")
        assert is_stopword("and")

    def test_domain_words_kept(self):
        assert not is_stopword("station")
        assert not is_stopword("sensor")
        assert not is_stopword("data")


class TestPorterStemmer:
    # Known pairs from Porter's paper and common usage.
    @pytest.mark.parametrize(
        "word,stem",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
            ("sensors", "sensor"),
            ("measurements", "measur"),
        ],
    )
    def test_known_pairs(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_unchanged(self):
        assert porter_stem("at") == "at"
        assert porter_stem("io") == "io"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_stems_or_shrinking(self, word):
        """The stem is never longer than the word and stemming terminates."""
        stem = porter_stem(word)
        assert len(stem) <= len(word) + 1  # step1b may append an 'e'
        assert stem  # never empties a word


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = {"a": 1.0, "b": 2.0}
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_vector(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0

    def test_symmetry(self):
        a, b = {"x": 1.0, "y": 3.0}, {"x": 2.0, "z": 1.0}
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))

    @given(
        st.dictionaries(st.sampled_from("abcde"), st.floats(0.1, 10), min_size=1),
        st.dictionaries(st.sampled_from("abcde"), st.floats(0.1, 10), min_size=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_for_nonnegative(self, a, b):
        sim = cosine_similarity(a, b)
        assert -1e-9 <= sim <= 1 + 1e-9


class TestTfidfVectorizer:
    def test_fit_transform(self):
        docs = [["wind", "speed"], ["wind", "wind", "snow"], ["snow"]]
        vectors = TfidfVectorizer().fit_transform(docs)
        assert len(vectors) == 3
        # "wind" appears in 2/3 documents; "speed" in 1 -> higher idf.
        v0 = vectors[0]
        assert v0["speed"] > v0["wind"]

    def test_unknown_terms_dropped(self):
        vec = TfidfVectorizer().fit([["a", "b"]])
        assert vec.transform(["a", "zzz"]) == {"a": pytest.approx(vec.idf("a") * 0.5)}

    def test_unfitted_raises(self):
        with pytest.raises(ReproError):
            TfidfVectorizer().transform(["a"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ReproError):
            TfidfVectorizer().fit([])

    def test_empty_document(self):
        vec = TfidfVectorizer().fit([["a"]])
        assert vec.transform([]) == {}

    def test_vocabulary_sorted(self):
        vec = TfidfVectorizer().fit([["b", "a", "c"]])
        assert vec.vocabulary == ["a", "b", "c"]


class TestInvertedIndex:
    @pytest.fixture
    def index(self):
        idx = InvertedIndex()
        idx.add("p1", "Wind speed sensor at Wannengrat station")
        idx.add("p2", "Snow height measurements at Davos")
        idx.add("p3", "Wind direction and wind speed at Davos station")
        return idx

    def test_counts(self, index):
        assert index.document_count == 3
        assert index.term_count > 5

    def test_basic_search(self, index):
        hits = index.search("wind")
        assert {h.doc_id for h in hits} == {"p1", "p3"}

    def test_stemmed_match(self, index):
        # "measurement" matches the indexed "measurements".
        hits = index.search("measurement")
        assert [h.doc_id for h in hits] == ["p2"]

    def test_repeated_term_scores_higher(self, index):
        hits = index.search("wind")
        # p3 mentions wind twice.
        assert hits[0].doc_id == "p3"

    def test_require_all(self, index):
        hits = index.search("wind davos", require_all=True)
        assert [h.doc_id for h in hits] == ["p3"]

    def test_or_semantics_default(self, index):
        hits = index.search("wind davos")
        assert {h.doc_id for h in hits} == {"p1", "p2", "p3"}

    def test_limit(self, index):
        assert len(index.search("wind davos", limit=2)) == 2

    def test_stopwords_ignored(self, index):
        assert index.search("the and of") == []

    def test_remove(self, index):
        index.remove("p3")
        assert {h.doc_id for h in index.search("wind")} == {"p1"}
        index.remove("does-not-exist")  # no-op

    def test_readd_replaces(self, index):
        index.add("p1", "completely different text about glaciers")
        assert index.search("glacier")[0].doc_id == "p1"
        assert all(h.doc_id != "p1" for h in index.search("wannengrat"))

    def test_tfidf_scoring(self, index):
        hits = index.search("wind", scoring="tfidf")
        assert hits and hits[0].doc_id == "p3"

    def test_unknown_scoring_rejected(self, index):
        with pytest.raises(ReproError):
            index.search("wind", scoring="pagerank")

    def test_deterministic_tie_break(self):
        idx = InvertedIndex()
        idx.add("b", "alpha")
        idx.add("a", "alpha")
        hits = idx.search("alpha")
        assert [h.doc_id for h in hits] == ["a", "b"]

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["d0", "d1", "d2", "d3", "d4"]),
                # None removes the document; a word list (re-)adds it.
                st.none() | st.lists(st.sampled_from(ORACLE_WORDS), max_size=8),
            ),
            max_size=30,
        ),
        query=st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=4),
        scoring=st.sampled_from(["bm25", "tfidf"]),
        require_all=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_search_matches_from_definition_oracle(self, ops, query, scoring, require_all):
        idx = InvertedIndex()
        docs = {}
        for doc_id, words in ops:
            if words is None:
                idx.remove(doc_id)
                docs.pop(doc_id, None)
            else:
                text = " ".join(words)
                idx.add(doc_id, text)
                docs[doc_id] = analyze(text)
        assert idx.document_count == len(docs)
        assert idx.total_token_count == sum(len(tokens) for tokens in docs.values())
        text = " ".join(query)
        hits = idx.search(text, scoring=scoring, require_all=require_all)
        assert [(h.doc_id, h.score) for h in hits] == _oracle_search(
            docs, text, scoring, require_all
        )


class TestTrie:
    def test_insert_and_contains(self):
        trie = Trie()
        trie.insert("Wannengrat")
        assert "wannengrat" in trie
        assert "wannen" not in trie
        assert len(trie) == 1

    def test_complete_by_weight(self):
        trie = Trie()
        trie.insert("wind speed", weight=5)
        trie.insert("wind direction", weight=10)
        trie.insert("window", weight=1)
        assert trie.complete("wind") == ["wind direction", "wind speed", "window"]

    def test_complete_limit(self):
        trie = Trie()
        for word in ("aa", "ab", "ac"):
            trie.insert(word)
        assert len(trie.complete("a", limit=2)) == 2

    def test_complete_missing_prefix(self):
        assert Trie().complete("zzz") == []

    def test_reinsert_accumulates_weight(self):
        trie = Trie()
        trie.insert("davos", weight=1)
        trie.insert("davos", weight=4)
        trie.insert("davo", weight=3)
        assert trie.complete("dav") == ["davos", "davo"]
        assert len(trie) == 2

    def test_words_sorted(self):
        trie = Trie()
        for word in ("beta", "alpha", "gamma"):
            trie.insert(word)
        assert trie.words() == ["alpha", "beta", "gamma"]

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_every_inserted_word_completable(self, words):
        trie = Trie()
        for word in words:
            trie.insert(word)
        for word in words:
            assert word in trie.complete(word, limit=len(words) + 1) or word in trie
