"""The SQL expression compiler against the tree-walking reference.

``compile_expr`` replaced a tree walker that resolved every column name
on every row. The walker survives here, verbatim in behaviour, as
``_reference_evaluate``: Hypothesis builds expression trees over every
node type and checks that the compiled closure returns the walker's value
or raises a ``RelationalError`` with the walker's message. Its one change
since: ``%`` takes the dividend's sign, as SQL engines do, where it had
followed Python.
"""

import math
import re
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.relational.expr as expr_module
from repro.errors import RelationalError
from repro.relational import Database
from repro.relational.expr import (
    Aggregate,
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
    compile_expr,
)

# ----------------------------------------------------------------------
# The reference: the tree walker the compiler replaced
# ----------------------------------------------------------------------


class _ReferenceRowContext:
    """``alias -> (columns, row)`` bindings, resolved by name on every call."""

    def __init__(self):
        self._bindings: Dict[str, Tuple[List[str], Tuple[Any, ...]]] = {}
        self.aggregates: Dict[str, Any] = {}

    def bind(self, alias: str, columns: List[str], row: Tuple[Any, ...]):
        self._bindings[alias.lower()] = (columns, row)
        return self

    def resolve(self, name: str, table: Optional[str]) -> Any:
        name = name.lower()
        if table is not None:
            table = table.lower()
            if table not in self._bindings:
                raise RelationalError(f"unknown table alias {table!r}")
            columns, row = self._bindings[table]
            if name not in columns:
                raise RelationalError(f"table {table!r} has no column {name!r}")
            return row[columns.index(name)]
        matches = [
            (alias, columns, row)
            for alias, (columns, row) in self._bindings.items()
            if name in columns
        ]
        if not matches:
            raise RelationalError(f"unknown column {name!r}")
        if len(matches) > 1:
            aliases = sorted(alias for alias, _, _ in matches)
            raise RelationalError(f"column {name!r} is ambiguous across {aliases}")
        _, columns, row = matches[0]
        return row[columns.index(name)]


def _bad_arg(func: str, value: Any):
    raise RelationalError(f"{func}() cannot be applied to {value!r}")


_SCALAR_FUNCS = {
    "lower": lambda s: s.lower() if isinstance(s, str) else _bad_arg("LOWER", s),
    "upper": lambda s: s.upper() if isinstance(s, str) else _bad_arg("UPPER", s),
    "length": lambda s: len(s) if isinstance(s, str) else _bad_arg("LENGTH", s),
    "abs": lambda v: abs(v) if isinstance(v, (int, float)) else _bad_arg("ABS", v),
    "round": lambda v: round(v) if isinstance(v, (int, float)) else _bad_arg("ROUND", v),
}


def _like_to_regex(pattern: str):
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op in ("!=", "<>"):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise RelationalError(f"cannot compare {left!r} {op} {right!r}") from None
    raise RelationalError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if not isinstance(left, (int, float)) or isinstance(left, bool):
        raise RelationalError(f"arithmetic needs numbers, got {left!r}")
    if not isinstance(right, (int, float)) or isinstance(right, bool):
        raise RelationalError(f"arithmetic needs numbers, got {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        return left / right
    if op == "%":
        if right == 0:
            return None
        if isinstance(left, float) or isinstance(right, float):
            return math.fmod(left, right)
        # Truncated division: the quotient rounds toward zero.
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        return left - right * quotient
    raise RelationalError(f"unknown arithmetic operator {op!r}")


def _concat(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if not isinstance(left, str) or not isinstance(right, str):
        raise RelationalError(f"|| needs strings, got {left!r} and {right!r}")
    return left + right


def _kleene_and(left, right):
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left, right):
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _as_bool(value: Any, op: str) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise RelationalError(f"{op} needs boolean operands, got {value!r}")


def _reference_binary(expr: BinaryOp, ctx: _ReferenceRowContext) -> Any:
    op = expr.op
    if op == "AND":
        left = _as_bool(_reference_evaluate(expr.left, ctx), "AND")
        if left is False:
            return False
        return _kleene_and(left, _as_bool(_reference_evaluate(expr.right, ctx), "AND"))
    if op == "OR":
        left = _as_bool(_reference_evaluate(expr.left, ctx), "OR")
        if left is True:
            return True
        return _kleene_or(left, _as_bool(_reference_evaluate(expr.right, ctx), "OR"))
    left = _reference_evaluate(expr.left, ctx)
    right = _reference_evaluate(expr.right, ctx)
    if op in ("=", "!=", "<>", "<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op in ("+", "-", "*", "/", "%"):
        return _arith(op, left, right)
    if op == "||":
        return _concat(left, right)
    raise RelationalError(f"unknown binary operator {op!r}")


def _reference_evaluate(expr: Expr, ctx: _ReferenceRowContext) -> Any:
    """The tree walker: resolves every name by string on every call."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return ctx.resolve(expr.name, expr.table)
    if isinstance(expr, Star):
        raise RelationalError("'*' is only valid in COUNT(*) or the SELECT list")
    if isinstance(expr, Aggregate):
        key = expr.key()
        if key not in ctx.aggregates:
            raise RelationalError(
                f"aggregate {key} used outside GROUP BY evaluation (or in WHERE)"
            )
        return ctx.aggregates[key]
    if isinstance(expr, BinaryOp):
        return _reference_binary(expr, ctx)
    if isinstance(expr, UnaryOp):
        value = _reference_evaluate(expr.operand, ctx)
        if expr.op == "NOT":
            if value is None:
                return None
            if not isinstance(value, bool):
                raise RelationalError(f"NOT needs a boolean, got {value!r}")
            return not value
        if expr.op == "-":
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise RelationalError(f"unary minus needs a number, got {value!r}")
            return -value
        raise RelationalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, FuncCall):
        name = expr.name.lower()
        if name == "coalesce":
            if not expr.args:
                raise RelationalError("COALESCE() needs at least one argument")
            for arg in expr.args:
                value = _reference_evaluate(arg, ctx)
                if value is not None:
                    return value
            return None
        if name == "nullif":
            if len(expr.args) != 2:
                raise RelationalError("NULLIF() takes exactly two arguments")
            first = _reference_evaluate(expr.args[0], ctx)
            second = _reference_evaluate(expr.args[1], ctx)
            return None if first == second else first
        func = _SCALAR_FUNCS.get(name)
        if func is None:
            raise RelationalError(f"unknown function {expr.name!r}")
        args = [_reference_evaluate(arg, ctx) for arg in expr.args]
        if len(args) != 1:
            raise RelationalError(f"{expr.name}() takes exactly one argument")
        if args[0] is None:
            return None
        return func(args[0])
    if isinstance(expr, CaseExpr):
        for condition, result in expr.branches:
            if _reference_evaluate(condition, ctx) is True:
                return _reference_evaluate(result, ctx)
        if expr.default is not None:
            return _reference_evaluate(expr.default, ctx)
        return None
    if isinstance(expr, InSubquery):
        raise RelationalError(
            "IN (SELECT ...) reached the row evaluator unresolved; "
            "subqueries are only supported in WHERE/HAVING of executed statements"
        )
    if isinstance(expr, InList):
        value = _reference_evaluate(expr.operand, ctx)
        if value is None:
            return None
        found = False
        saw_null = False
        for item in expr.items:
            candidate = _reference_evaluate(item, ctx)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                found = True
                break
        if found:
            return not expr.negated
        if saw_null:
            return None
        return expr.negated
    if isinstance(expr, Like):
        value = _reference_evaluate(expr.operand, ctx)
        pattern = _reference_evaluate(expr.pattern, ctx)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise RelationalError("LIKE needs string operands")
        matched = bool(_like_to_regex(pattern).match(value))
        return matched != expr.negated
    if isinstance(expr, IsNull):
        value = _reference_evaluate(expr.operand, ctx)
        return (value is None) != expr.negated
    if isinstance(expr, Between):
        value = _reference_evaluate(expr.operand, ctx)
        low = _reference_evaluate(expr.low, ctx)
        high = _reference_evaluate(expr.high, ctx)
        result = _kleene_and(_compare(">=", value, low), _compare("<=", value, high))
        if result is None:
            return None
        return result != expr.negated
    raise RelationalError(f"cannot evaluate expression node {type(expr).__name__}")


# ----------------------------------------------------------------------
# Expression trees over a two-alias layout
# ----------------------------------------------------------------------

#: ``a`` is ambiguous across both aliases; ``c`` lives only in ``u``.
LAYOUT = [("t", ["a", "b", "s"]), ("u", ["a", "c"])]
#: The aggregate whose value is appended after the layout's columns.
PRESENT_AGGREGATE = Aggregate("COUNT", Star())

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0, 0.0]),  # divisors that must yield NULL
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "x", "ab", "Ab", "a_c", "xyz", "%"]),
)

resolvable = st.sampled_from(
    [
        ColumnRef("b"),
        ColumnRef("B"),  # names resolve case-insensitively
        ColumnRef("c"),
        ColumnRef("s"),
        ColumnRef("a", "t"),
        ColumnRef("a", "u"),
    ]
)

unresolvable = st.sampled_from(
    [
        ColumnRef("a"),  # ambiguous across t and u
        ColumnRef("c", "t"),  # t has no column c
        ColumnRef("a", "v"),  # unknown alias
        ColumnRef("zz"),  # unknown column
        Star(),
        Aggregate("SUM", ColumnRef("b")),  # no slot for it
    ]
)

# one_of draws its branches evenly: the repeats keep most leaves valid,
# so most trees evaluate to a value rather than an error.
leaves = st.one_of(
    values.map(Literal),
    values.map(Literal),
    resolvable,
    resolvable,
    st.just(PRESENT_AGGREGATE),
    unresolvable,
)

like_patterns = st.sampled_from(["%", "a%", "%b", "_b", "a_c", "x", "%%", ""]).map(Literal)


def _extend(children):
    functions = st.sampled_from(
        ["coalesce", "COALESCE", "nullif", "lower", "upper", "length", "abs", "round", "nosuch"]
    )
    small = st.lists(children, min_size=0, max_size=3).map(tuple)

    def binary(*ops):
        return st.builds(BinaryOp, st.sampled_from(ops), children, children)

    return st.one_of(
        binary("AND", "OR"),
        binary("=", "!=", "<>", "<", "<=", ">", ">="),
        binary("+", "-", "*", "/", "%"),
        binary("||", "^"),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-", "~"]), children),
        st.builds(FuncCall, functions, small),
        st.builds(
            CaseExpr,
            st.lists(st.tuples(children, children), min_size=1, max_size=2).map(tuple),
            st.one_of(st.none(), children),
        ),
        st.builds(
            InList,
            children,
            st.lists(st.one_of(children, st.just(Literal(None))), max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(Like, children, st.one_of(like_patterns, children), st.booleans()),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(InSubquery, children, st.none(), st.booleans()),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


def _reference_context(row: tuple, aggregates: Dict[str, Any]) -> _ReferenceRowContext:
    """The walker's context for one row of ``LAYOUT``."""
    ctx = _ReferenceRowContext()
    offset = 0
    for alias, columns in LAYOUT:
        ctx.bind(alias, columns, row[offset : offset + len(columns)])
        offset += len(columns)
    ctx.aggregates = aggregates
    return ctx


def _outcome(thunk):
    """``("value", type, value)``, or ``("error", message)`` for a RelationalError."""
    try:
        value = thunk()
    except RelationalError as exc:
        return ("error", str(exc))
    return ("value", type(value), value)


class TestCompilerMatchesReference:
    @given(
        expressions,
        st.tuples(values, values, values),
        st.tuples(values, values),
        values,
    )
    @settings(max_examples=800, deadline=None)
    @example(BinaryOp("AND", Literal(False), ColumnRef("zz")), (1, 2, "x"), (3, 4), 5)
    @example(BinaryOp("AND", Literal(1), Literal(True)), (1, 2, "x"), (3, 4), 5)
    @example(BinaryOp("/", ColumnRef("b"), Literal(0)), (1, 2, "x"), (3, 4), 5)
    @example(BinaryOp("%", Literal(7.5), ColumnRef("c")), (1, 2, "x"), (3, 0.0), 5)
    def test_two_alias_layout(self, expr, row_t, row_u, aggregate):
        row = row_t + row_u
        ctx = _reference_context(row, {PRESENT_AGGREGATE.key(): aggregate})
        compiled = compile_expr(expr, LAYOUT, [PRESENT_AGGREGATE.key()])
        expected = _outcome(lambda: _reference_evaluate(expr, ctx))
        assert _outcome(lambda: compiled(row + (aggregate,))) == expected, expr

    def test_every_binary_operator_over_every_value_pair(self):
        """Exhaustive over a small domain, through both the general path
        (two literals) and the column-vs-literal fast path."""
        domain = [None, True, False, 0, 1, -2, 0.0, 1.5, "", "ab", "A%"]
        ops = ["AND", "OR", "=", "!=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"]
        for op in ops:
            for left in domain:
                for right in domain:
                    row = (None, left, None, None, None)
                    ctx = _reference_context(row, {})
                    for expr in (
                        BinaryOp(op, Literal(left), Literal(right)),
                        BinaryOp(op, ColumnRef("b"), Literal(right)),
                    ):
                        expected = _outcome(lambda: _reference_evaluate(expr, ctx))
                        compiled = compile_expr(expr, LAYOUT)
                        assert _outcome(lambda: compiled(row)) == expected, expr

    @given(expressions)
    @settings(max_examples=200, deadline=None)
    def test_empty_layout(self, expr):
        """INSERT values and SELECT without FROM compile with no table."""
        expected = _outcome(lambda: _reference_evaluate(expr, _ReferenceRowContext()))
        assert _outcome(lambda: compile_expr(expr, [])(())) == expected, expr


class TestCompiledStatements:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT)")
        return db

    def test_unresolvable_names_raise_only_when_a_row_arrives(self, db):
        assert db.execute("SELECT zz FROM t WHERE qq = 1").rows == []
        assert db.execute("SELECT COUNT(*) FROM t WHERE qq = 1").rows == [(0,)]
        db.execute("INSERT INTO t (id, tag) VALUES (1, 'x')")
        with pytest.raises(RelationalError, match="unknown column 'qq'"):
            db.execute("SELECT zz FROM t WHERE qq = 1")

    def test_empty_global_group_has_no_table(self, db):
        with pytest.raises(RelationalError, match="unknown column 'tag'"):
            db.execute("SELECT tag, COUNT(*) FROM t")
        db.execute("INSERT INTO t (id, tag) VALUES (1, 'x')")
        assert db.execute("SELECT tag, COUNT(*) FROM t").rows == [("x", 1)]

    def test_literal_like_pattern_compiles_once(self, db, monkeypatch):
        for i in range(20):
            db.execute(f"INSERT INTO t (id, tag) VALUES ({i}, 'tag{i}')")
        calls = []
        original = expr_module.like_to_regex

        def counting(pattern):
            calls.append(pattern)
            return original(pattern)

        monkeypatch.setattr(expr_module, "like_to_regex", counting)
        rows = db.execute("SELECT id FROM t WHERE tag LIKE '%1%'").rows
        assert rows == [(1,), (10,), (11,), (12,), (13,), (14,), (15,), (16,), (17,), (18,), (19,)]
        assert calls == ["%1%"]

    def test_join_on_a_missing_inner_column_is_a_relational_error(self, db):
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        assert db.execute("SELECT t.id FROM t JOIN u ON t.id = u.zz").rows == []
        db.execute("INSERT INTO t (id, tag) VALUES (1, 'x')")
        db.execute("INSERT INTO u (id) VALUES (1)")
        with pytest.raises(RelationalError, match="table 'u' has no column 'zz'"):
            db.execute("SELECT t.id FROM t JOIN u ON t.id = u.zz")

    def test_remainder_takes_the_dividends_sign(self, db):
        row = db.execute("SELECT -3 % 2, 3 % -2, -7 % -3, 7 % 3, -7.5 % 2, 7 % 2.5, 5 % 0").rows
        assert row == [(-1, 1, -1, 1, -1.5, 2.0, None)]
        assert [type(value) for value in row[0][:4]] == [int] * 4

    def test_order_by_leaves_no_state_on_the_executor(self, db):
        db.execute("INSERT INTO t (id, tag) VALUES (1, 'b'), (2, 'a')")
        executor = db._executor
        before = dict(vars(executor))
        assert db.execute("SELECT id FROM t ORDER BY tag").rows == [(2,), (1,)]
        assert vars(executor) == before
