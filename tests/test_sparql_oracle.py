"""Property-based SPARQL testing against a brute-force oracle.

Random small graphs and random basic graph patterns are evaluated both by
the engine (indexed, most-bound-first backtracking) and by a naive oracle
that enumerates every assignment of variables to graph terms. Any
disagreement is an evaluator bug.

FILTERs are checked the same way. The engine compiles each FILTER once
per query into a closure over the group's variable slots and tests it
inside the pattern scan. The tree walker it replaced survives here,
verbatim in behaviour, as ``reference_eval``/``reference_filter``: the
engine's solutions must equal, as a multiset, the oracle's assignments
that every FILTER passes under the walker.
"""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SparqlSyntaxError
from repro.rdf import Graph, IRI, Literal, Namespace, Variable
from repro.rdf.sparql import (
    FBinary,
    FCall,
    FIri,
    FLiteral,
    FNot,
    FVar,
    GroupPattern,
    SparqlEngine,
)

EX = Namespace("http://o/")

#: ``EX.p0`` is a predicate too, so ``?a ?a ?b`` can match.
_SUBJECTS = [EX.s0, EX.s1, EX.s2, EX.p0]
_PREDICATES = [EX.p0, EX.p1]
_OBJECTS = [EX.s0, EX.s1, Literal(1), Literal("x")]
_VARS = [Variable("a"), Variable("b"), Variable("c")]


def brute_force_solutions(graph, patterns):
    """Every consistent variable assignment, as dicts, by exhaustive enumeration."""
    variables = sorted(
        {t for pattern in patterns for t in pattern if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    universe = set()
    for s, p, o in graph.triples():
        universe.update((s, p, o))
    universe = sorted(universe, key=lambda t: t.n3())
    solutions = []
    for combo in itertools.product(universe, repeat=len(variables)):
        binding = dict(zip(variables, combo))

        def resolve(term):
            return binding.get(term, term) if isinstance(term, Variable) else term

        if all(
            (resolve(s), resolve(p), resolve(o)) in graph for s, p, o in patterns
        ):
            solutions.append(binding)
    return solutions


def brute_force_bgp(graph, patterns):
    """All consistent variable assignments, as sorted-variable n3 tuples."""
    return {
        tuple(binding[v].n3() for v in sorted(binding, key=lambda v: v.name))
        for binding in brute_force_solutions(graph, patterns)
    }


# ----------------------------------------------------------------------
# The reference: the FILTER tree walker the compiler replaced
# ----------------------------------------------------------------------


class _ReferenceError(Exception):
    """Expression evaluation error -> FILTER is false."""


def reference_filter(expr, bindings):
    try:
        return bool(reference_eval(expr, bindings))
    except _ReferenceError:
        return False  # SPARQL: evaluation error -> filter rejects


def reference_eval(expr, bindings):
    if isinstance(expr, FLiteral):
        return expr.value
    if isinstance(expr, FIri):
        return expr.iri
    if isinstance(expr, FVar):
        term = bindings.get(expr.var)
        if term is None:
            raise _ReferenceError(f"unbound variable {expr.var}")
        if isinstance(term, Literal):
            return term.value
        return term
    if isinstance(expr, FNot):
        value = reference_eval(expr.operand, bindings)
        if not isinstance(value, bool):
            raise _ReferenceError("! needs a boolean")
        return not value
    if isinstance(expr, FCall):
        return _reference_call(expr, bindings)
    if isinstance(expr, FBinary):
        return _reference_binary(expr, bindings)
    raise _ReferenceError(f"unknown filter node {expr!r}")


def _reference_call(expr, bindings):
    if expr.name == "bound":
        if len(expr.args) != 1 or not isinstance(expr.args[0], FVar):
            raise SparqlSyntaxError("BOUND() takes exactly one variable")
        return expr.args[0].var in bindings
    if expr.name == "str":
        if len(expr.args) != 1:
            raise SparqlSyntaxError("STR() takes exactly one argument")
        value = reference_eval(expr.args[0], bindings)
        return value.value if isinstance(value, IRI) else str(value)
    if expr.name == "regex":
        if len(expr.args) not in (2, 3):
            raise SparqlSyntaxError("REGEX() takes two or three arguments")
        text = reference_eval(expr.args[0], bindings)
        pattern = reference_eval(expr.args[1], bindings)
        flags = 0
        if len(expr.args) == 3:
            flag_text = reference_eval(expr.args[2], bindings)
            if "i" in str(flag_text):
                flags |= re.IGNORECASE
        if not isinstance(text, str) or not isinstance(pattern, str):
            raise _ReferenceError("REGEX needs string arguments")
        try:
            return re.search(pattern, text, flags) is not None
        except re.error as exc:
            raise _ReferenceError(f"bad regex: {exc}") from exc
    raise SparqlSyntaxError(f"unknown function {expr.name!r}")


def _reference_binary(expr, bindings):
    op = expr.op
    if op == "&&":
        return _reference_bool(expr.left, bindings) and _reference_bool(expr.right, bindings)
    if op == "||":
        # SPARQL: || succeeds if either side is true, even if the other errors.
        try:
            if _reference_bool(expr.left, bindings):
                return True
        except _ReferenceError:
            return _reference_bool(expr.right, bindings)
        return _reference_bool(expr.right, bindings)
    left = reference_eval(expr.left, bindings)
    right = reference_eval(expr.right, bindings)
    if op in ("=", "!="):
        equal = left == right
        return equal if op == "=" else not equal
    if op in ("<", "<=", ">", ">="):
        if isinstance(left, bool) or isinstance(right, bool):
            raise _ReferenceError("cannot order booleans")
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            pass
        elif isinstance(left, str) and isinstance(right, str):
            pass
        else:
            raise _ReferenceError(f"cannot compare {left!r} and {right!r}")
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op in ("+", "-", "*", "/"):
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise _ReferenceError("arithmetic needs numbers")
        if op == "/" and right == 0:
            raise _ReferenceError("division by zero")
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return left / right
        except OverflowError as exc:
            # SPARQL 1.1 §17.3: an evaluation error makes the FILTER false.
            raise _ReferenceError(f"arithmetic overflow: {exc}") from exc
    raise SparqlSyntaxError(f"unknown operator {op!r}")


def _reference_bool(expr, bindings):
    value = reference_eval(expr, bindings)
    if not isinstance(value, bool):
        raise _ReferenceError(f"expected boolean, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

triple_strategy = st.tuples(
    st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)
)

pattern_term = st.one_of(
    st.sampled_from(_VARS),
    st.sampled_from(_SUBJECTS),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_OBJECTS),
)

pattern_strategy = st.tuples(
    st.one_of(st.sampled_from(_VARS), st.sampled_from(_SUBJECTS)),
    st.one_of(st.sampled_from(_VARS), st.sampled_from(_PREDICATES)),
    pattern_term,
)

#: Literal values that mix int, float, bool and str: zeros for division,
#: equal numbers of different types, an int too large for a float (its
#: float arithmetic overflows), a string that is not a valid regex.
_VALUES = [
    -2, 0, 1, 3, -1.5, 0.0, 1.0, 2.5, 10**400, True, False, "x", "ab", "A", "", "1", "(",
]
_MIXED_OBJECTS = _SUBJECTS + [Literal(value) for value in _VALUES]
#: ``?d`` appears in no pattern: a FILTER naming it runs on full solutions.
_FILTER_VARS = _VARS + [Variable("d")]
_REGEX_PATTERNS = ["x", "^a", "A", "b$", "1|x", "", "[", "s0"]

mixed_triple = st.tuples(
    st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_MIXED_OBJECTS)
)
mixed_pattern = st.tuples(
    st.one_of(st.sampled_from(_VARS), st.sampled_from(_SUBJECTS)),
    st.one_of(st.sampled_from(_VARS), st.sampled_from(_PREDICATES)),
    st.one_of(st.sampled_from(_VARS), st.sampled_from(_MIXED_OBJECTS)),
)

_variable = st.sampled_from(_FILTER_VARS).map(FVar)
_constant = st.sampled_from(_VALUES).map(FLiteral)
_leaf = st.one_of(_variable, _constant, st.sampled_from(_SUBJECTS).map(FIri))
_COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]
_OPERATORS = _COMPARISONS + ["+", "-", "*", "/", "&&", "||"]


def _compound(children):
    regex_pattern = st.one_of(st.sampled_from(_REGEX_PATTERNS).map(FLiteral), children)
    regex_flags = st.one_of(st.sampled_from(["i", "", "s"]).map(FLiteral), children)
    return st.one_of(
        st.builds(FBinary, st.sampled_from(_OPERATORS), children, children),
        st.builds(FNot, children),
        _variable.map(lambda var: FCall("bound", (var,))),
        st.builds(lambda text, pattern: FCall("regex", (text, pattern)), children, regex_pattern),
        st.builds(
            lambda text, pattern, flags: FCall("regex", (text, pattern, flags)),
            children,
            regex_pattern,
            regex_flags,
        ),
        children.map(lambda operand: FCall("str", (operand,))),
    )


#: A FILTER: ``?var op constant`` (the engine's shape), or any tree.
filter_strategy = st.one_of(
    st.builds(FBinary, st.sampled_from(_COMPARISONS), _variable, _constant),
    st.recursive(_leaf, _compound, max_leaves=6),
)


class TestBgpOracle:
    @given(
        st.lists(triple_strategy, max_size=12),
        st.lists(pattern_strategy, min_size=1, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    @example(  # one variable as subject and predicate
        triples=[(EX.p0, EX.p0, EX.s1), (EX.s0, EX.p0, EX.s1)],
        patterns=[(Variable("a"), Variable("a"), Variable("b"))],
    )
    def test_engine_matches_brute_force(self, triples, patterns):
        graph = Graph()
        for s, p, o in triples:
            graph.add(s, p, o)
        engine = SparqlEngine(graph)
        group = GroupPattern(triples=list(patterns))
        variables = sorted(
            {t for pat in patterns for t in pat if isinstance(t, Variable)},
            key=lambda v: v.name,
        )
        engine_solutions = {
            tuple(sol[v].n3() for v in variables)
            for sol in engine.solutions(group)
            if all(v in sol for v in variables)
        }
        oracle = brute_force_bgp(graph, patterns)
        assert engine_solutions == oracle


class TestFilterOracle:
    @given(
        st.lists(mixed_triple, max_size=12),
        st.lists(mixed_pattern, min_size=1, max_size=3),
        st.lists(filter_strategy, min_size=1, max_size=2),
    )
    @settings(max_examples=400, deadline=None)
    @example(
        triples=[(EX.s0, EX.p0, Literal(2.5)), (EX.s1, EX.p0, Literal("x"))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[FNot(FCall("bound", (FVar(Variable("d")),)))],
    )
    @example(
        triples=[(EX.s0, EX.p0, Literal(0)), (EX.s1, EX.p0, Literal(True))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[
            FBinary(
                "||",
                FBinary("=", FBinary("/", FLiteral(1), FVar(Variable("b"))), FLiteral(1.0)),
                FBinary("=", FVar(Variable("a")), FIri(EX.s0)),
            )
        ],
    )
    @example(  # a pattern that does not compile errors, and || reads the other side
        triples=[(EX.s0, EX.p0, Literal("x")), (EX.s1, EX.p0, Literal("("))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[
            FBinary(
                "||",
                FCall("regex", (FVar(Variable("b")), FLiteral("["))),
                FCall("regex", (FLiteral("a("), FVar(Variable("b")))),
            )
        ],
    )
    @example(  # one object, two subjects: the object's test admits both
        triples=[(EX.s0, EX.p0, Literal(2.5)), (EX.s1, EX.p0, Literal(2.5))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[FBinary(">", FVar(Variable("b")), FLiteral(1))],
    )
    @example(  # a boolean never orders, even against a number it equals
        triples=[(EX.s0, EX.p0, Literal(True)), (EX.s1, EX.p0, Literal(0))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[FBinary("<", FVar(Variable("b")), FLiteral(3))],
    )
    @example(
        triples=[(EX.s0, EX.p0, Literal(True)), (EX.s0, EX.p1, Literal(0))],
        patterns=[(Variable("a"), EX.p0, Variable("b")), (Variable("a"), EX.p1, Variable("c"))],
        filters=[FBinary(">", FVar(Variable("b")), FVar(Variable("c")))],
    )
    @example(  # && needs booleans: a truthy number errors
        triples=[(EX.s0, EX.p0, Literal(1)), (EX.s1, EX.p0, Literal(True))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[FBinary("&&", FVar(Variable("b")), FLiteral(True))],
    )
    @example(  # an int too large for a float: its division overflows, which fails
        triples=[(EX.s0, EX.p0, Literal(10**400)), (EX.s1, EX.p0, Literal(3))],
        patterns=[(Variable("a"), EX.p0, Variable("b"))],
        filters=[FBinary(">", FBinary("/", FVar(Variable("b")), FLiteral(3)), FLiteral(0))],
    )
    def test_filtered_bgp_matches_brute_force_and_the_walker(self, triples, patterns, filters):
        graph = Graph()
        for s, p, o in triples:
            graph.add(s, p, o)
        engine = SparqlEngine(graph)
        group = GroupPattern(triples=list(patterns), filters=list(filters))
        variables = sorted(
            {t for pat in patterns for t in pat if isinstance(t, Variable)},
            key=lambda v: v.name,
        )
        solutions = list(engine.solutions(group))
        assert all(set(solution) == set(variables) for solution in solutions)
        got = Counter(tuple(sol[v].n3() for v in variables) for sol in solutions)
        expected = Counter(
            tuple(binding[v].n3() for v in variables)
            for binding in brute_force_solutions(graph, patterns)
            if all(reference_filter(expr, binding) for expr in filters)
        )
        assert got == expected


@pytest.fixture
def engine():
    graph = Graph()
    graph.add(EX.s1, EX.name, Literal("WAN-001"))
    graph.add(EX.s1, EX.elev, Literal(2400))
    graph.add(EX.s2, EX.name, Literal("DAV-002"))
    graph.add(EX.s2, EX.elev, Literal(1560))
    graph.add(EX.s3, EX.name, Literal("ROT-003"))
    return SparqlEngine(graph)


_PREFIX = "PREFIX ex: <http://o/> "


class TestFiltersInNestedGroups:
    def test_filter_inside_optional_keeps_the_outer_solution(self, engine):
        result = engine.query(
            _PREFIX + "SELECT ?n ?e WHERE { ?s ex:name ?n . "
            "OPTIONAL { ?s ex:elev ?e . FILTER(?e > 2000) } } ORDER BY ?n"
        )
        assert result.as_tuples() == [
            (Literal("DAV-002"), None),
            (Literal("ROT-003"), None),
            (Literal("WAN-001"), Literal(2400)),
        ]

    def test_filter_inside_optional_reads_an_outer_variable(self, engine):
        result = engine.query(
            _PREFIX + "SELECT ?n ?e WHERE { ?s ex:name ?n . "
            'OPTIONAL { ?s ex:elev ?e . FILTER(REGEX(?n, "^dav", "i")) } } ORDER BY ?n'
        )
        assert result.as_tuples() == [
            (Literal("DAV-002"), Literal(1560)),
            (Literal("ROT-003"), None),
            (Literal("WAN-001"), None),
        ]

    def test_filter_inside_optional_on_a_variable_it_never_binds(self, engine):
        result = engine.query(
            _PREFIX + "SELECT ?n ?e WHERE { ?s ex:name ?n . "
            "OPTIONAL { ?s ex:elev ?e . FILTER(!BOUND(?x)) } } ORDER BY ?n"
        )
        assert result.as_tuples() == [
            (Literal("DAV-002"), Literal(1560)),
            (Literal("ROT-003"), None),
            (Literal("WAN-001"), Literal(2400)),
        ]

    def test_filter_inside_union_alternatives(self, engine):
        result = engine.query(
            _PREFIX + "SELECT ?s WHERE { "
            "{ ?s ex:elev ?e . FILTER(?e < 2000) } UNION "
            '{ ?s ex:name ?n . FILTER(REGEX(?n, "^R") || ?n = "WAN-001") } }'
        )
        assert result.column("s") == [EX.s2, EX.s1, EX.s3]

    def test_filter_inside_union_reads_the_outer_solution(self, engine):
        result = engine.query(
            _PREFIX + "SELECT ?s ?v WHERE { ?s ex:name ?n . "
            "{ ?s ex:elev ?v . FILTER(?n != \"WAN-001\") } UNION "
            "{ ?s ex:name ?v . FILTER(?n = \"ROT-003\") } } ORDER BY ?s"
        )
        assert result.as_tuples() == [(EX.s2, Literal(1560)), (EX.s3, Literal("ROT-003"))]


class TestFilterErrorsAtCompileTime:
    """An error the query text alone decides raises whatever the data."""

    @pytest.mark.parametrize(
        "where",
        [
            "FILTER(REGEX(?s))",  # a one-argument REGEX
            "FILTER(BOUND(1))",
            "FILTER(BOUND(?s, ?p))",
            "FILTER(STR(?s, ?o))",
            # Where no solution ever reaches the FILTER.
            "?s ?p ?o . FILTER(?o = 1 || REGEX(?o))",
            "?s ?p ?o . OPTIONAL { ?o ?q ?r . FILTER(BOUND(?r + 1)) }",
            "{ ?s ?p ?o } UNION { ?o ?p ?s . FILTER(!STR(?o, ?s)) }",
        ],
    )
    def test_raises_over_an_empty_graph(self, where):
        engine = SparqlEngine(Graph())
        with pytest.raises(SparqlSyntaxError):
            engine.query(f"SELECT * WHERE {{ {where} }}")
        with pytest.raises(SparqlSyntaxError):
            engine.ask(f"ASK {{ {where} }}")
        with pytest.raises(SparqlSyntaxError):
            engine.construct(f"CONSTRUCT {{ ?s ?p ?o }} WHERE {{ {where} }}")
