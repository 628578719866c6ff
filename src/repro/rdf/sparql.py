"""A SPARQL SELECT engine (the subset the metadata search system issues).

Supported::

    PREFIX pre: <iri>
    SELECT [DISTINCT] (?var... | *)
    WHERE {
        triple patterns .          # terms: IRI, CURIE, 'a', literal, ?var
        OPTIONAL { ... }           # left-join semantics, may nest
        FILTER ( expression )      # comparisons, && || !, arithmetic,
                                   # BOUND(?v), REGEX(?v, "pat"), STR(?v)
    }
    [ORDER BY [DESC(?v)|?v] ...] [LIMIT n] [OFFSET m]

Evaluation follows the standard: a basic graph pattern is solved by
backtracking with a most-bound-first pattern ordering; FILTER errors
(unbound variable, type mismatch) make the filter false; OPTIONAL keeps
the solution when the optional part has no match.

Each query is compiled before any triple is read. Every group's
variables get slots in a list, and every FILTER becomes one closure
over those slots, so an error that depends only on the query text (a
function's arity, BOUND of anything but a variable) raises
:class:`SparqlSyntaxError` then, whatever the data. A group's FILTER
constrains its basic graph pattern's solutions, before its UNION and
OPTIONAL parts extend them. It runs inside the pattern scan, right after
the first pattern that binds all of its variables (or before the first
pattern, when the bindings the group is entered with already do): each
scanned triple's terms go into their slots, the FILTER reads them there,
and only a complete match that passed becomes a bindings dict. A FILTER
naming a variable its group never binds runs on the full solutions,
where that variable is unbound.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import SparqlSyntaxError
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, NamespaceManager
from repro.rdf.term import IRI, BlankNode, Literal, PatternTerm, Term, Variable

Bindings = Dict[Variable, Term]
TriplePattern = Tuple[PatternTerm, PatternTerm, PatternTerm]


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


class _FilterError(Exception):
    """Internal: expression evaluation error -> FILTER is false."""


@dataclass
class GroupPattern:
    triples: List[TriplePattern] = field(default_factory=list)
    filters: List["FilterExpr"] = field(default_factory=list)
    optionals: List["GroupPattern"] = field(default_factory=list)
    # Each entry is one `{A} UNION {B} UNION ...` block: a list of
    # alternative groups, at least one of which must match.
    unions: List[List["GroupPattern"]] = field(default_factory=list)


@dataclass(frozen=True)
class SelectQuery:
    variables: Tuple[Variable, ...]  # empty tuple means SELECT *
    where: GroupPattern = field(default_factory=GroupPattern)
    distinct: bool = False
    order_by: Tuple[Tuple[Variable, bool], ...] = ()  # (var, descending)
    limit: Optional[int] = None
    offset: int = 0


@dataclass(frozen=True)
class AskQuery:
    """``ASK { ... }`` — does at least one solution exist?"""

    where: GroupPattern = field(default_factory=GroupPattern)


@dataclass(frozen=True)
class ConstructQuery:
    """``CONSTRUCT { template } WHERE { ... }`` — build a new graph."""

    template: Tuple[TriplePattern, ...]
    where: GroupPattern = field(default_factory=GroupPattern)


# FILTER expression nodes ------------------------------------------------


@dataclass(frozen=True)
class FilterExpr:
    """Base marker for filter expression nodes."""


@dataclass(frozen=True)
class FLiteral(FilterExpr):
    value: Any


@dataclass(frozen=True)
class FVar(FilterExpr):
    var: Variable


@dataclass(frozen=True)
class FIri(FilterExpr):
    iri: IRI


@dataclass(frozen=True)
class FBinary(FilterExpr):
    op: str
    left: FilterExpr
    right: FilterExpr


@dataclass(frozen=True)
class FNot(FilterExpr):
    operand: FilterExpr


@dataclass(frozen=True)
class FCall(FilterExpr):
    name: str  # 'bound' | 'regex' | 'str'
    args: Tuple[FilterExpr, ...]


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^>\s]*>)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*(?::[A-Za-z0-9_.-]*)?)
  | (?P<op>&&|\|\||!=|<=|>=|[{}().,=<>!*/+-])
    """,
    re.VERBOSE,
)


def _parse_number(token: str) -> Any:
    """A number token's value: a float with a fraction or exponent (SPARQL's
    DECIMAL and DOUBLE), else an int."""
    return float(token) if any(mark in token for mark in ".eE") else int(token)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SparqlSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
    tokens.append(("eof", ""))
    return tokens


_KEYWORDS = {
    "prefix", "select", "distinct", "where", "optional", "filter",
    "order", "by", "asc", "desc", "limit", "offset", "a",
}


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self._tokens = tokens
        self._pos = 0
        self._ns = NamespaceManager()
        self._path_counter = 0

    def _peek(self) -> Tuple[str, str]:
        return self._tokens[self._pos]

    def _advance(self) -> Tuple[str, str]:
        token = self._tokens[self._pos]
        if token[0] != "eof":
            self._pos += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        kind, value = self._peek()
        if kind == "name" and value.lower() == word:
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            kind, value = self._peek()
            raise SparqlSyntaxError(f"expected {word.upper()}, found {value or kind!r}")

    def _accept_op(self, op: str) -> bool:
        kind, value = self._peek()
        if kind == "op" and value == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            kind, value = self._peek()
            raise SparqlSyntaxError(f"expected {op!r}, found {value or kind!r}")

    # --- query ---------------------------------------------------------

    def parse_query(self):
        while self._accept_keyword("prefix"):
            self._parse_prefix()
        if self._accept_keyword("ask"):
            # WHERE is optional before the group, as in the spec.
            self._accept_keyword("where")
            where = self._parse_group()
            self._expect_eof()
            return AskQuery(where)
        if self._accept_keyword("construct"):
            template_group = self._parse_group()
            if template_group.filters or template_group.optionals or template_group.unions:
                raise SparqlSyntaxError("CONSTRUCT template must contain only triples")
            self._expect_keyword("where")
            where = self._parse_group()
            self._expect_eof()
            return ConstructQuery(tuple(template_group.triples), where)
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        variables: List[Variable] = []
        if self._accept_op("*"):
            pass
        else:
            while self._peek()[0] == "var":
                variables.append(Variable(self._advance()[1][1:]))
            if not variables:
                raise SparqlSyntaxError("SELECT needs variables or '*'")
        self._expect_keyword("where")
        where = self._parse_group()
        order_by: List[Tuple[Variable, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            while True:
                item = self._parse_order_item()
                if item is None:
                    break
                order_by.append(item)
            if not order_by:
                raise SparqlSyntaxError("ORDER BY needs at least one variable")
        limit = None
        offset = 0
        # LIMIT/OFFSET may appear in either order, as in SPARQL 1.1.
        for _ in range(2):
            if self._accept_keyword("limit"):
                limit = self._parse_int("LIMIT")
            elif self._accept_keyword("offset"):
                offset = self._parse_int("OFFSET")
        self._expect_eof()
        return SelectQuery(
            variables=tuple(variables),
            where=where,
            distinct=distinct,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def _expect_eof(self) -> None:
        kind, value = self._peek()
        if kind != "eof":
            raise SparqlSyntaxError(f"unexpected trailing input {value!r}")

    def _parse_int(self, clause: str) -> int:
        kind, value = self._advance()
        number = _parse_number(value) if kind == "number" else None
        if not isinstance(number, int):
            raise SparqlSyntaxError(f"{clause} requires an integer, got {value!r}")
        return number

    def _parse_order_item(self) -> Optional[Tuple[Variable, bool]]:
        kind, value = self._peek()
        if kind == "name" and value.lower() in ("asc", "desc"):
            descending = value.lower() == "desc"
            self._advance()
            self._expect_op("(")
            var_kind, var_value = self._advance()
            if var_kind != "var":
                raise SparqlSyntaxError("ORDER BY ASC/DESC needs a variable")
            self._expect_op(")")
            return Variable(var_value[1:]), descending
        if kind == "var":
            self._advance()
            return Variable(value[1:]), False
        return None

    def _parse_prefix(self) -> None:
        kind, value = self._advance()
        if kind != "name" or not value.endswith(":"):
            raise SparqlSyntaxError(f"PREFIX needs 'name:', got {value!r}")
        prefix = value[:-1]
        kind, iri = self._advance()
        if kind != "iri":
            raise SparqlSyntaxError("PREFIX needs an <iri>")
        self._ns.bind(prefix, iri[1:-1])

    # --- group patterns --------------------------------------------------

    def _parse_group(self) -> GroupPattern:
        self._expect_op("{")
        group = GroupPattern()
        while True:
            kind, value = self._peek()
            if kind == "op" and value == "}":
                self._advance()
                return group
            if kind == "name" and value.lower() == "optional":
                self._advance()
                group.optionals.append(self._parse_group())
                self._accept_op(".")
                continue
            if kind == "name" and value.lower() == "filter":
                self._advance()
                self._expect_op("(")
                group.filters.append(self._parse_filter_or())
                self._expect_op(")")
                self._accept_op(".")
                continue
            if kind == "op" and value == "{":
                alternatives = [self._parse_group()]
                while self._accept_keyword("union"):
                    alternatives.append(self._parse_group())
                if len(alternatives) < 2:
                    raise SparqlSyntaxError("a braced group must be followed by UNION")
                group.unions.append(alternatives)
                self._accept_op(".")
                continue
            group.triples.extend(self._parse_triple_lines())

    def _parse_triple_lines(self) -> List[TriplePattern]:
        subject = self._parse_pattern_term(role="subject")
        patterns: List[TriplePattern] = []
        while True:
            # A predicate may be a sequence path p1/p2/...; collect steps.
            steps = [self._parse_pattern_term(role="predicate")]
            while self._accept_op("/"):
                steps.append(self._parse_pattern_term(role="predicate"))
            while True:
                obj = self._parse_pattern_term(role="object")
                patterns.extend(self._expand_path(subject, steps, obj))
                if self._accept_op(","):
                    continue
                break
            kind, value = self._peek()
            if kind == "op" and value == ";":  # not produced by lexer; keep simple
                self._advance()
                continue
            self._accept_op(".")
            return patterns

    def _expand_path(
        self, subject: PatternTerm, steps: List[PatternTerm], obj: PatternTerm
    ) -> List[TriplePattern]:
        """Rewrite ``s p1/p2/.../pn o`` into n chained patterns.

        Intermediate hops get fresh ``?_pathK`` variables, which never
        collide with user variables (user names cannot start with '_'
        followed by our counter scheme unless deliberately constructed).
        """
        patterns: List[TriplePattern] = []
        current = subject
        for step in steps[:-1]:
            self._path_counter += 1
            hop = Variable(f"_path{self._path_counter}")
            patterns.append((current, step, hop))
            current = hop
        patterns.append((current, steps[-1], obj))
        return patterns

    def _parse_pattern_term(self, role: str) -> PatternTerm:
        kind, value = self._advance()
        if kind == "var":
            return Variable(value[1:])
        if kind == "iri":
            return IRI(value[1:-1])
        if kind == "string":
            return self._string_literal(value)
        if kind == "number":
            return Literal(_parse_number(value))
        if kind == "name":
            lowered = value.lower()
            if lowered == "a" and role == "predicate":
                return RDF.type
            if lowered in ("true", "false"):
                return Literal(lowered == "true")
            if ":" in value:
                return self._ns.expand(value)
        raise SparqlSyntaxError(f"cannot use {value!r} as a {role}")

    @staticmethod
    def _string_literal(token: str) -> Literal:
        body = token[1:-1]
        body = (
            body.replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\\t", "\t")
            .replace("\x00", "\\")
        )
        return Literal(body)

    # --- filter expressions ----------------------------------------------

    def _parse_filter_or(self) -> FilterExpr:
        left = self._parse_filter_and()
        while self._accept_op("||"):
            left = FBinary("||", left, self._parse_filter_and())
        return left

    def _parse_filter_and(self) -> FilterExpr:
        left = self._parse_filter_cmp()
        while self._accept_op("&&"):
            left = FBinary("&&", left, self._parse_filter_cmp())
        return left

    def _parse_filter_cmp(self) -> FilterExpr:
        left = self._parse_filter_add()
        kind, value = self._peek()
        if kind == "op" and value in ("=", "!=", "<", "<=", ">", ">="):
            self._advance()
            return FBinary(value, left, self._parse_filter_add())
        return left

    def _parse_filter_add(self) -> FilterExpr:
        left = self._parse_filter_mul()
        while True:
            kind, value = self._peek()
            if kind == "number" and value[0] in "+-":
                # The lexer reads a sign into the number, which is right
                # where an operand is expected (``-3 < ?v``). Here an
                # operator is, so ``?v+1`` is ``?v + 1`` as in SPARQL's
                # AdditiveExpression: the sign becomes the operator.
                self._tokens[self._pos] = (kind, value[1:])
                left = FBinary(value[0], left, self._parse_filter_mul())
            elif kind == "op" and value in ("+", "-"):
                self._advance()
                left = FBinary(value, left, self._parse_filter_mul())
            else:
                return left

    def _parse_filter_mul(self) -> FilterExpr:
        left = self._parse_filter_unary()
        while True:
            kind, value = self._peek()
            if kind == "op" and value in ("*", "/"):
                self._advance()
                left = FBinary(value, left, self._parse_filter_unary())
            else:
                return left

    def _parse_filter_unary(self) -> FilterExpr:
        if self._accept_op("!"):
            return FNot(self._parse_filter_unary())
        if self._accept_op("-"):
            return FBinary("-", FLiteral(0), self._parse_filter_unary())
        return self._parse_filter_primary()

    def _parse_filter_primary(self) -> FilterExpr:
        kind, value = self._advance()
        if kind == "var":
            return FVar(Variable(value[1:]))
        if kind == "number":
            return FLiteral(_parse_number(value))
        if kind == "string":
            return FLiteral(self._string_literal(value).value)
        if kind == "iri":
            return FIri(IRI(value[1:-1]))
        if kind == "op" and value == "(":
            inner = self._parse_filter_or()
            self._expect_op(")")
            return inner
        if kind == "name":
            lowered = value.lower()
            if lowered in ("true", "false"):
                return FLiteral(lowered == "true")
            if lowered in ("bound", "regex", "str"):
                self._expect_op("(")
                args = [self._parse_filter_or()]
                while self._accept_op(","):
                    args.append(self._parse_filter_or())
                self._expect_op(")")
                return FCall(lowered, tuple(args))
            if ":" in value:
                return FIri(self._ns.expand(value))
        raise SparqlSyntaxError(f"unexpected token {value!r} in FILTER")


def parse_sparql(text: str) -> SelectQuery:
    """Parse a SPARQL SELECT query; raises :class:`SparqlSyntaxError`."""
    return _Parser(_tokenize(text)).parse_query()


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


class SparqlResult:
    """Ordered solutions: a variable list and one bindings dict per row."""

    def __init__(self, variables: List[Variable], rows: List[Bindings]):
        self.variables = variables
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Bindings]:
        return iter(self.rows)

    def column(self, name: str) -> List[Optional[Term]]:
        """Every binding of ``?name`` in row order (None where unbound)."""
        var = Variable(name)
        return [row.get(var) for row in self.rows]

    def as_tuples(self) -> List[Tuple[Optional[Term], ...]]:
        """Rows as tuples ordered like :attr:`variables` (None = unbound)."""
        return [tuple(row.get(var) for var in self.variables) for row in self.rows]


class SparqlEngine:
    """Evaluates parsed queries against a :class:`Graph`."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def query(self, text: str) -> SparqlResult:
        """Run a SELECT query; use :meth:`ask`/:meth:`construct` otherwise."""
        parsed = parse_sparql(text)
        if not isinstance(parsed, SelectQuery):
            raise SparqlSyntaxError(
                f"query() handles SELECT; got {type(parsed).__name__} — "
                "use ask() or construct()"
            )
        return self.run(parsed)

    def ask(self, text: str) -> bool:
        """Run an ASK query: True iff the pattern has a solution."""
        parsed = parse_sparql(text)
        if not isinstance(parsed, AskQuery):
            raise SparqlSyntaxError(f"ask() needs an ASK query, got {type(parsed).__name__}")
        for _ in self.solutions(parsed.where):
            return True
        return False

    def construct(self, text: str) -> Graph:
        """Run a CONSTRUCT query: instantiate the template per solution.

        Template triples with unbound variables or role-invalid terms
        (e.g. a literal subject) are skipped for that solution, per spec.
        """
        parsed = parse_sparql(text)
        if not isinstance(parsed, ConstructQuery):
            raise SparqlSyntaxError(
                f"construct() needs a CONSTRUCT query, got {type(parsed).__name__}"
            )
        result = Graph()
        for solution in self.solutions(parsed.where):
            for pattern in parsed.template:
                terms = [_resolve(term, solution) for term in pattern]
                if any(isinstance(term, Variable) for term in terms):
                    continue
                subject, predicate, obj = terms
                if not isinstance(subject, (IRI, BlankNode)) or not isinstance(predicate, IRI):
                    continue
                result.add(subject, predicate, obj)
        return result

    def run(self, query: SelectQuery) -> SparqlResult:
        """Evaluate an already-parsed SELECT query."""
        solutions = list(self.solutions(query.where))
        if query.variables:
            variables = list(query.variables)
        else:
            seen: Dict[Variable, None] = {}
            for solution in solutions:
                for var in solution:
                    if not var.name.startswith("_path"):  # path-internal hops
                        seen.setdefault(var)
            variables = sorted(seen, key=lambda v: v.name)
        projected = [
            {var: sol[var] for var in variables if var in sol} for sol in solutions
        ]
        if query.distinct:
            unique: List[Bindings] = []
            seen_keys = set()
            for row in projected:
                key = tuple(sorted((v.name, row[v].n3()) for v in row))
                if key not in seen_keys:
                    seen_keys.add(key)
                    unique.append(row)
            projected = unique
        for var, descending in reversed(query.order_by):
            projected.sort(key=lambda row: _order_key(row.get(var)), reverse=descending)
        projected = projected[query.offset :]
        if query.limit is not None:
            projected = projected[: query.limit]
        return SparqlResult(variables, projected)

    def solutions(self, where: GroupPattern) -> Iterator[Bindings]:
        """Every solution of ``where``, in order, one bindings dict each.

        The group and every group nested in it are compiled first, so an
        error that depends only on the query text raises here, before
        any triple is read.
        """
        return self._eval_group(_Group(where), {})

    # --- pattern evaluation ----------------------------------------------

    def _eval_group(self, group: _Group, bindings: Bindings) -> Iterator[Bindings]:
        plan = group.plan(bindings)
        values: Slots = [None] * len(group.slots)
        for var, slot in plan.inputs:
            values[slot] = bindings[var]
        if plan.entry_test is not None and not plan.entry_test(values):
            return
        for solution in self._match(plan, 0, values, bindings):
            for unioned in self._eval_unions(group.unions, solution):
                yield from self._eval_optionals(group.optionals, unioned)

    def _eval_unions(self, unions: List[List[_Group]], solution: Bindings) -> Iterator[Bindings]:
        if not unions:
            yield solution
            return
        head, tail = unions[0], unions[1:]
        for alternative in head:
            for extended in self._eval_group(alternative, solution):
                yield from self._eval_unions(tail, extended)

    def _eval_optionals(self, optionals: List[_Group], solution: Bindings) -> Iterator[Bindings]:
        if not optionals:
            yield solution
            return
        head, tail = optionals[0], optionals[1:]
        extended = list(self._eval_group(head, solution))
        if extended:
            for ext in extended:
                yield from self._eval_optionals(tail, ext)
        else:
            yield from self._eval_optionals(tail, solution)

    def _match(
        self, plan: _Plan, index: int, values: Slots, bindings: Bindings
    ) -> Iterator[Bindings]:
        """Bind ``plan.steps[index:]`` by backtracking over ``values``.

        Only a triple that passes its step's test reaches the next step,
        and only a complete match becomes a dict.
        """
        if index == len(plan.steps):
            yield plan.solution(bindings, values)
            return
        for _ in self._scan(plan.steps[index], values):
            yield from self._match(plan, index + 1, values, bindings)

    def _scan(self, step: _Step, values: Slots) -> Iterator[None]:
        """Yield once per triple matching ``step`` that passes its test.

        Each scanned triple writes its terms into their slots, where the
        test reads them, and they stay there until the next triple.
        """
        query = list(step.template)
        for position, slot in step.reads:
            query[position] = values[slot]
        test = step.test
        if step.by_object:
            # The test reads no subject: run it once per object, and
            # touch only a passing object's subjects.
            (_, subject_slot), (_, object_slot) = step.writes
            for obj, subjects in self.graph.subjects_by_object(query[1]):
                values[object_slot] = obj
                if test is None or test(values):
                    for subject in subjects:
                        values[subject_slot] = subject
                        yield
            return
        repeats, writes = step.repeats, step.writes
        for triple in self.graph.triples(*query):
            if repeats and any(triple[a] != triple[b] for a, b in repeats):
                continue
            for position, slot in writes:
                values[slot] = triple[position]
            if test is None or test(values):
                yield


# ----------------------------------------------------------------------
# Compilation: slots, FILTER closures and per-group plans
# ----------------------------------------------------------------------

#: A group's slot list: one term per variable, None while unbound.
Slots = List[Optional[Term]]
#: A compiled FILTER (sub)expression: slots in, value out. It raises
#: :class:`_FilterError` where SPARQL evaluation errors.
_Value = Callable[[Slots], Any]
#: A compiled FILTER: slots in, pass or fail out; an error fails.
_Test = Callable[[Slots], bool]

_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _filter_variables(expr: FilterExpr) -> Set[Variable]:
    """Every variable ``expr`` names, BOUND's argument included."""
    if isinstance(expr, FVar):
        return {expr.var}
    if isinstance(expr, FBinary):
        return _filter_variables(expr.left) | _filter_variables(expr.right)
    if isinstance(expr, FNot):
        return _filter_variables(expr.operand)
    if isinstance(expr, FCall):
        return set().union(*map(_filter_variables, expr.args))
    return set()


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _FilterCompiler:
    """Turns FILTER expressions into closures over one group's slots.

    The closures keep the semantics SPARQL gives an expression: ``=`` and
    ``!=`` compare any two values; ``<``-style comparisons need two
    numbers or two strings (booleans never order); arithmetic needs two
    numbers (booleans count as numbers) and errors on division by zero;
    ``!``, ``&&`` and ``||`` need booleans; ``||`` is true when its left
    side is, and otherwise, even when the left side errors, takes its
    right side's value; an unbound variable or a bad regex errors. An
    error that depends only on the text — a function's arity, BOUND of
    anything but a variable — raises :class:`SparqlSyntaxError` here, at
    compile time.
    """

    def __init__(self, slots: Dict[Variable, int]):
        self._slots = slots

    def test(self, expr: FilterExpr) -> _Test:
        """The FILTER ``expr``: true iff its value is truthy; an error is false."""
        if (
            isinstance(expr, FBinary)
            and expr.op in _COMPARATORS
            and isinstance(expr.left, FVar)
            and isinstance(expr.right, FLiteral)
            and (expr.op in ("=", "!=") or _is_number(expr.right.value))
        ):
            return _variable_test(expr.op, self._slots[expr.left.var], expr.right.value)
        value = self.value(expr)

        def test(values: Slots) -> bool:
            try:
                return bool(value(values))
            except _FilterError:
                return False

        return test

    def value(self, expr: FilterExpr) -> _Value:
        if isinstance(expr, FLiteral):
            constant = expr.value
            return lambda values: constant
        if isinstance(expr, FIri):
            iri = expr.iri
            return lambda values: iri
        if isinstance(expr, FVar):
            return _variable(expr.var, self._slots[expr.var])
        if isinstance(expr, FNot):
            operand = self.value(expr.operand)

            def negate(values: Slots) -> bool:
                value = operand(values)
                if not isinstance(value, bool):
                    raise _FilterError("! needs a boolean")
                return not value

            return negate
        if isinstance(expr, FCall):
            return self._call(expr)
        if isinstance(expr, FBinary):
            return self._binary(expr)
        raise SparqlSyntaxError(f"unknown filter node {expr!r}")

    def _boolean(self, expr: FilterExpr) -> _Value:
        """``expr`` as an operand of ``&&``/``||``: anything but a boolean errors."""
        operand = self.value(expr)

        def boolean(values: Slots) -> bool:
            value = operand(values)
            if not isinstance(value, bool):
                raise _FilterError(f"expected boolean, got {value!r}")
            return value

        return boolean

    def _call(self, expr: FCall) -> _Value:
        args = expr.args
        if expr.name == "bound":
            if len(args) != 1 or not isinstance(args[0], FVar):
                raise SparqlSyntaxError("BOUND() takes exactly one variable")
            slot = self._slots[args[0].var]
            return lambda values: values[slot] is not None
        if expr.name == "str":
            if len(args) != 1:
                raise SparqlSyntaxError("STR() takes exactly one argument")
            operand = self.value(args[0])

            def string(values: Slots) -> str:
                value = operand(values)
                return value.value if isinstance(value, IRI) else str(value)

            return string
        if expr.name == "regex":
            if len(args) not in (2, 3):
                raise SparqlSyntaxError("REGEX() takes two or three arguments")
            return self._regex(args)
        raise SparqlSyntaxError(f"unknown function {expr.name!r}")

    def _regex(self, args: Tuple[FilterExpr, ...]) -> _Value:
        text_of, pattern_of = self.value(args[0]), self.value(args[1])
        flags_of = self.value(args[2]) if len(args) == 3 else None

        def regex(values: Slots) -> bool:
            text, pattern = text_of(values), pattern_of(values)
            flags = 0
            if flags_of is not None and "i" in str(flags_of(values)):
                flags = re.IGNORECASE
            if not isinstance(text, str) or not isinstance(pattern, str):
                raise _FilterError("REGEX needs string arguments")
            try:
                return re.search(pattern, text, flags) is not None
            except re.error as exc:
                raise _FilterError(f"bad regex: {exc}") from exc

        return regex

    def _binary(self, expr: FBinary) -> _Value:
        op = expr.op
        if op == "&&":
            left, right = self._boolean(expr.left), self._boolean(expr.right)
            return lambda values: left(values) and right(values)
        if op == "||":
            left, right = self._boolean(expr.left), self._boolean(expr.right)

            def either(values: Slots) -> bool:
                try:
                    if left(values):
                        return True
                except _FilterError:
                    pass
                return right(values)

            return either
        left, right = self.value(expr.left), self.value(expr.right)
        if op in ("=", "!="):
            compare = _COMPARATORS[op]
            return lambda values: compare(left(values), right(values))
        if op in _COMPARATORS:
            compare = _COMPARATORS[op]

            def ordered(values: Slots) -> bool:
                a, b = left(values), right(values)
                if isinstance(a, bool) or isinstance(b, bool):
                    raise _FilterError("cannot order booleans")
                if not (
                    isinstance(a, (int, float)) and isinstance(b, (int, float))
                    or isinstance(a, str) and isinstance(b, str)
                ):
                    raise _FilterError(f"cannot compare {a!r} and {b!r}")
                return compare(a, b)

            return ordered
        if op in _ARITHMETIC:
            apply = _ARITHMETIC[op]
            divides = op == "/"

            def arithmetic(values: Slots) -> Any:
                a, b = left(values), right(values)
                if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                    raise _FilterError("arithmetic needs numbers")
                if divides and b == 0:
                    raise _FilterError("division by zero")
                try:
                    return apply(a, b)
                except OverflowError as exc:
                    raise _FilterError(f"arithmetic overflow: {exc}") from exc

            return arithmetic
        raise SparqlSyntaxError(f"unknown operator {op!r}")


def _variable(var: Variable, slot: int) -> _Value:
    def variable(values: Slots) -> Any:
        term = values[slot]
        if term is None:
            raise _FilterError(f"unbound variable {var}")
        return term.value if isinstance(term, Literal) else term

    return variable


def _variable_test(op: str, slot: int, constant: Any) -> _Test:
    """The FILTER ``?var op constant`` as one closure, for an equality or a
    number: the shapes the engine sends for ``=``, ``!=`` and numeric
    comparisons."""
    compare = _COMPARATORS[op]
    if op in ("=", "!="):

        def equality(values: Slots) -> bool:
            term = values[slot]
            if term is None:
                return False
            return compare(term.value if isinstance(term, Literal) else term, constant)

        return equality

    def numeric(values: Slots) -> bool:
        term = values[slot]
        if term is None:
            return False
        value = term.value if isinstance(term, Literal) else term
        return _is_number(value) and compare(value, constant)

    return numeric


def _all_of(tests: List[_Test]) -> Optional[_Test]:
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]
    return lambda values: all(test(values) for test in tests)


class _Step(NamedTuple):
    """One triple pattern of a plan, resolved against the slots bound before it."""

    #: The pattern's constants; None where a variable stands.
    template: Tuple[Optional[Term], ...]
    #: ``(position, slot)`` of each variable bound before this step.
    reads: Tuple[Tuple[int, int], ...]
    #: ``(position, slot)`` of each variable this step binds.
    writes: Tuple[Tuple[int, int], ...]
    #: ``(position, earlier position)`` of a variable this step names twice.
    repeats: Tuple[Tuple[int, int], ...]
    #: The FILTERs whose variables are all bound once this step matches.
    test: Optional[_Test]
    #: ``?s p ?o`` with ``p`` known, two new variables, and a test that
    #: reads no subject: scanned as each object with its subjects.
    by_object: bool


class _Plan:
    """A group's patterns ordered for one set of variables bound on entry.

    Patterns run most-bound-first. Each FILTER runs right after the
    first step that binds all of its variables (before the first step
    when the entry bindings already do), so a failing triple is dropped
    before the next step scans. A FILTER naming a variable that neither
    the entry bindings nor the patterns bind runs after the last step,
    on the group's full solutions, where that variable is unbound. A
    step ``?s p ?o`` whose FILTERs never read ``?s`` scans the graph as
    each object with its subjects, so each object is tested once.
    """

    def __init__(self, group: _Group, bound: FrozenSet[Variable]):
        slots = group.slots
        self.inputs = [(var, slots[var]) for var in bound]
        ordered = sorted(group.triples, key=lambda p: _unbound_count(p, bound))
        known = set(bound)
        bound_after = [frozenset(known)]  # [0]: on entry; [i + 1]: after step i
        for pattern in ordered:
            known.update(term for term in pattern if isinstance(term, Variable))
            bound_after.append(frozenset(known))
        tests: List[List[_Test]] = [[] for _ in bound_after]
        read: List[Set[Variable]] = [set() for _ in bound_after]
        for names, test in group.filters:
            stage = next((i for i, b in enumerate(bound_after) if names <= b), len(ordered))
            tests[stage].append(test)
            read[stage] |= names
        self.entry_test = _all_of(tests[0])
        self.outputs: List[Tuple[Variable, int]] = []
        self.steps: List[_Step] = []
        for pattern, before, test, names in zip(ordered, bound_after, tests[1:], read[1:]):
            template: List[Optional[Term]] = []
            reads, writes, repeats = [], [], []
            first: Dict[Variable, int] = {}
            for position, term in enumerate(pattern):
                if not isinstance(term, Variable):
                    template.append(term)
                    continue
                template.append(None)
                if term in before:
                    reads.append((position, slots[term]))
                elif term in first:
                    repeats.append((position, first[term]))
                else:
                    first[term] = position
                    writes.append((position, slots[term]))
            self.outputs.extend((var, slots[var]) for var in first)
            # No repeat, so the predicate of ``?s ?s ?o`` is not taken as known.
            by_object = (
                [position for position, _ in writes] == [0, 2]
                and not repeats
                and pattern[0] not in names
            )
            self.steps.append(
                _Step(
                    tuple(template),
                    tuple(reads),
                    tuple(writes),
                    tuple(repeats),
                    _all_of(test),
                    by_object,
                )
            )

    def solution(self, bindings: Bindings, values: Slots) -> Bindings:
        solution = dict(bindings)
        for var, slot in self.outputs:
            solution[var] = values[slot]
        return solution


class _Group:
    """A :class:`GroupPattern` compiled for one query.

    Its variables get slots, its FILTERs become tests over those slots
    (raising any error the text alone decides), and its nested groups
    compile too. A plan is built the first time the group is entered
    with a given set of bound variables, then reused.
    """

    def __init__(self, group: GroupPattern):
        variables: Dict[Variable, None] = {}
        for pattern in group.triples:
            for term in pattern:
                if isinstance(term, Variable):
                    variables.setdefault(term)
        named = [_filter_variables(expr) for expr in group.filters]
        for var in sorted(set().union(*named)):
            variables.setdefault(var)
        self.slots = {var: slot for slot, var in enumerate(variables)}
        compiler = _FilterCompiler(self.slots)
        self.filters = [
            (frozenset(names), compiler.test(expr)) for names, expr in zip(named, group.filters)
        ]
        self.triples = list(group.triples)
        self.optionals = [_Group(optional) for optional in group.optionals]
        self.unions = [[_Group(alternative) for alternative in union] for union in group.unions]
        self._plans: Dict[FrozenSet[Variable], _Plan] = {}

    def plan(self, bindings: Bindings) -> _Plan:
        bound = frozenset(var for var in self.slots if var in bindings)
        plan = self._plans.get(bound)
        if plan is None:
            plan = self._plans[bound] = _Plan(self, bound)
        return plan


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _resolve(term: PatternTerm, bindings: Bindings) -> PatternTerm:
    if isinstance(term, Variable):
        return bindings.get(term, term)
    return term


def _unbound_count(pattern: TriplePattern, bound: FrozenSet[Variable]) -> int:
    return sum(1 for term in pattern if isinstance(term, Variable) and term not in bound)


def _order_key(term: Optional[Term]) -> tuple:
    if term is None:
        return (0, "", 0.0)
    if isinstance(term, Literal):
        if isinstance(term.value, bool):
            return (1, "", float(term.value))
        if isinstance(term.value, (int, float)):
            return (2, "", float(term.value))
        return (3, str(term.value), 0.0)
    if isinstance(term, IRI):
        return (4, term.value, 0.0)
    if isinstance(term, BlankNode):
        return (5, term.node_id, 0.0)
    return (6, repr(term), 0.0)  # pragma: no cover
