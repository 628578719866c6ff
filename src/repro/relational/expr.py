"""Expression AST and its compiler, shared by the SQL engine.

:func:`compile_expr` turns an expression into a closure over a flat row
tuple once per statement, with every column name resolved to a tuple
position at compile time. Evaluation follows SQL semantics: three-valued
logic (comparisons against NULL yield NULL; AND/OR use Kleene truth
tables), NULL-propagating arithmetic, and ``LIKE`` with ``%``/``_``
wildcards. Aggregates are AST nodes too but are *not* computed here — the
executor computes them per group and appends the values to the group's
row, where the compiled aggregate reads its slot.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RelationalError


class Expr:
    """Base class for expression nodes."""

    def key(self) -> str:
        """A canonical string form, used to match aggregates across clauses."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def key(self) -> str:
        return f"lit:{self.value!r}"


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def key(self) -> str:
        return f"col:{self.table or ''}.{self.name}"


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — only valid inside COUNT(*) and the SELECT list."""

    table: Optional[str] = None

    def key(self) -> str:
        return f"star:{self.table or ''}"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def key(self) -> str:
        return f"({self.left.key()} {self.op} {self.right.key()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT' or '-'
    operand: Expr

    def key(self) -> str:
        return f"({self.op} {self.operand.key()})"


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: Tuple[Expr, ...]

    def key(self) -> str:
        inner = ", ".join(arg.key() for arg in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Aggregate(Expr):
    func: str  # COUNT, SUM, AVG, MIN, MAX
    arg: Expr  # Star only for COUNT
    distinct: bool = False

    def key(self) -> str:
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{self.arg.key()})"


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def key(self) -> str:
        inner = ", ".join(item.key() for item in self.items)
        return f"({self.operand.key()} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN cond THEN value ... [ELSE default] END``.

    Only the searched form (conditions, no operand) is supported — the
    simple form desugars to it at parse time.
    """

    branches: Tuple[Tuple[Expr, Expr], ...]  # (condition, result) pairs
    default: Optional[Expr] = None

    def key(self) -> str:
        parts = " ".join(
            f"WHEN {cond.key()} THEN {result.key()}" for cond, result in self.branches
        )
        tail = f" ELSE {self.default.key()}" if self.default is not None else ""
        return f"(CASE {parts}{tail} END)"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``.

    Carries the parsed subquery statement; the executor materializes the
    subquery's first column once (uncorrelated) and rewrites this node to
    an :class:`InList` before compiling — the compiler never sees it.
    """

    operand: Expr
    subquery: object  # a SelectStmt; typed loosely to avoid an import cycle
    negated: bool = False

    def key(self) -> str:
        return f"({self.operand.key()} {'NOT ' if self.negated else ''}IN <subquery>)"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def key(self) -> str:
        return f"({self.operand.key()} {'NOT ' if self.negated else ''}LIKE {self.pattern.key()})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def key(self) -> str:
        return f"({self.operand.key()} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def key(self) -> str:
        return (
            f"({self.operand.key()} {'NOT ' if self.negated else ''}BETWEEN "
            f"{self.low.key()} AND {self.high.key()})"
        )


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------

#: A statement's ``(alias, column names)`` bindings in FROM/JOIN order. A
#: row of the layout is the bindings' row tuples concatenated.
Layout = Sequence[Tuple[str, Sequence[str]]]

#: A compiled expression: row tuple in, SQL value out (NULL is ``None``).
Compiled = Callable[[tuple], Any]

_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _sql_remainder(a, b):
    """``a % b`` with the dividend's sign; ``b`` is a non-zero number."""
    if isinstance(a, int) and isinstance(b, int):
        remainder = abs(a) % abs(b)
        return -remainder if a < 0 else remainder
    return math.fmod(a, b)


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": _sql_remainder,
}

_SCALAR_FUNCS = {
    "lower": lambda s: s.lower() if isinstance(s, str) else _bad_arg("LOWER", s),
    "upper": lambda s: s.upper() if isinstance(s, str) else _bad_arg("UPPER", s),
    "length": lambda s: len(s) if isinstance(s, str) else _bad_arg("LENGTH", s),
    "abs": lambda v: abs(v) if isinstance(v, (int, float)) else _bad_arg("ABS", v),
    "round": lambda v: round(v) if isinstance(v, (int, float)) else _bad_arg("ROUND", v),
}


def _bad_arg(func: str, value: Any):
    raise RelationalError(f"{func}() cannot be applied to {value!r}")


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


def compile_expr(expr: Expr, layout: Layout, aggregates: Sequence[str] = ()) -> Compiled:
    """Compile ``expr`` once into a closure over one row of ``layout``.

    Every column reference resolves to a tuple position here, not per
    row. A name that cannot resolve (unknown column or alias, or a column
    ambiguous across aliases) compiles to a closure that raises the same
    :class:`RelationalError` when a row reaches it, so a statement over
    no rows raises nothing. ``aggregates`` lists the keys of aggregate
    values appended, in order, after the layout's columns; any other
    aggregate raises when evaluated.

    Semantics are SQL's: comparisons against NULL yield NULL, AND/OR use
    Kleene truth tables and short-circuit, arithmetic propagates NULL and
    division by zero yields NULL. ``%`` is the remainder of truncated
    division, so it takes the dividend's sign (``-3 % 2`` is -1, as in
    SQLite, PostgreSQL and MySQL): exact for two integers, ``math.fmod``
    when either operand is REAL.
    """
    return _Compiler(layout, aggregates).compile(expr)


def compile_row(
    exprs: Sequence[Expr], layout: Layout, aggregates: Sequence[str] = ()
) -> Compiled:
    """One closure building the tuple of ``exprs``' values from a row.

    A projection of plain columns slices the row directly, with no
    closure call per value.
    """
    compiler = _Compiler(layout, aggregates)
    positions = [compiler.position(expr) for expr in exprs]
    if len(positions) == 1 and positions[0] is not None:
        (position,) = positions
        return lambda row: (row[position],)
    if len(positions) > 1 and None not in positions:
        return operator.itemgetter(*positions)
    fns = [compiler.compile(expr) for expr in exprs]
    return lambda row: tuple([fn(row) for fn in fns])


def _raising(message: str, operands: Sequence[Compiled] = ()) -> Compiled:
    """A closure that evaluates ``operands`` (their errors come first),
    then raises ``message``."""

    def fail(row):
        for operand in operands:
            operand(row)
        raise RelationalError(message)

    return fail


def _compare_error(left: Any, op: str, right: Any) -> RelationalError:
    return RelationalError(f"cannot compare {left!r} {op} {right!r}")


def _bool_error(op: str, value: Any) -> RelationalError:
    return RelationalError(f"{op} needs boolean operands, got {value!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Compiler:
    """Resolves names against one layout and builds the closures."""

    def __init__(self, layout: Layout, aggregates: Sequence[str]):
        # A later binding of the same alias replaces an earlier one, as a
        # self-join without aliases rebinds the table's name.
        self._bindings: Dict[str, Tuple[List[str], int]] = {}
        width = 0
        for alias, columns in layout:
            self._bindings[alias.lower()] = (list(columns), width)
            width += len(columns)
        self._aggregates = {key: width + i for i, key in enumerate(aggregates)}

    def locate(self, name: str, table: Optional[str]) -> int:
        """The row position of (possibly qualified) column ``name``."""
        name = name.lower()
        if table is not None:
            table = table.lower()
            if table not in self._bindings:
                raise RelationalError(f"unknown table alias {table!r}")
            columns, offset = self._bindings[table]
            if name not in columns:
                raise RelationalError(f"table {table!r} has no column {name!r}")
            return offset + columns.index(name)
        matches = [
            (alias, columns, offset)
            for alias, (columns, offset) in self._bindings.items()
            if name in columns
        ]
        if not matches:
            raise RelationalError(f"unknown column {name!r}")
        if len(matches) > 1:
            aliases = sorted(alias for alias, _, _ in matches)
            raise RelationalError(f"column {name!r} is ambiguous across {aliases}")
        _, columns, offset = matches[0]
        return offset + columns.index(name)

    def position(self, node: Expr) -> Optional[int]:
        """The slot a resolvable column reference reads, else None."""
        if isinstance(node, ColumnRef):
            try:
                return self.locate(node.name, node.table)
            except RelationalError:
                return None
        return None

    def compile(self, node: Expr) -> Compiled:
        if isinstance(node, Literal):
            value = node.value
            return lambda row: value
        if isinstance(node, ColumnRef):
            try:
                return operator.itemgetter(self.locate(node.name, node.table))
            except RelationalError as exc:
                return _raising(str(exc))
        if isinstance(node, Star):
            return _raising("'*' is only valid in COUNT(*) or the SELECT list")
        if isinstance(node, Aggregate):
            key = node.key()
            if key in self._aggregates:
                return operator.itemgetter(self._aggregates[key])
            return _raising(f"aggregate {key} used outside GROUP BY evaluation (or in WHERE)")
        if isinstance(node, BinaryOp):
            return self._binary(node)
        if isinstance(node, UnaryOp):
            return self._unary(node)
        if isinstance(node, FuncCall):
            return self._function(node)
        if isinstance(node, CaseExpr):
            return self._case(node)
        if isinstance(node, InSubquery):
            return _raising(
                "IN (SELECT ...) reached the row evaluator unresolved; "
                "subqueries are only supported in WHERE/HAVING of executed statements"
            )
        if isinstance(node, InList):
            return self._in_list(node)
        if isinstance(node, Like):
            return self._like(node)
        if isinstance(node, IsNull):
            operand = self.compile(node.operand)
            negated = node.negated
            return lambda row: (operand(row) is None) != negated
        if isinstance(node, Between):
            return self._between(node)
        return _raising(f"cannot evaluate expression node {type(node).__name__}")

    # -- operators ------------------------------------------------------

    def _binary(self, node: BinaryOp) -> Compiled:
        op = node.op
        if op in ("AND", "OR"):
            return _logical(op, self.compile(node.left), self.compile(node.right))
        if op in _COMPARATORS:
            position = self.position(node.left)
            if (
                position is not None
                and isinstance(node.right, Literal)
                and node.right.value is not None
            ):
                return _column_vs_literal(op, position, node.right.value)
            return _comparison(op, self.compile(node.left), self.compile(node.right))
        left, right = self.compile(node.left), self.compile(node.right)
        if op in _ARITHMETIC:
            return _arithmetic(op, left, right)
        if op == "||":
            return _concat(left, right)
        return _raising(f"unknown binary operator {op!r}", (left, right))

    def _unary(self, node: UnaryOp) -> Compiled:
        operand = self.compile(node.operand)
        op = node.op
        if op == "NOT":

            def negate(row):
                value = operand(row)
                if value is None:
                    return None
                if value is True or value is False:
                    return not value
                raise RelationalError(f"NOT needs a boolean, got {value!r}")

            return negate
        if op == "-":

            def minus(row):
                value = operand(row)
                if value is None:
                    return None
                if not _is_number(value):
                    raise RelationalError(f"unary minus needs a number, got {value!r}")
                return -value

            return minus
        return _raising(f"unknown unary operator {op!r}", (operand,))

    def _function(self, node: FuncCall) -> Compiled:
        name = node.name.lower()
        if name == "coalesce":
            if not node.args:
                return _raising("COALESCE() needs at least one argument")
            args = [self.compile(arg) for arg in node.args]

            def coalesce(row):
                for arg in args:
                    value = arg(row)
                    if value is not None:
                        return value
                return None

            return coalesce
        if name == "nullif":
            if len(node.args) != 2:
                return _raising("NULLIF() takes exactly two arguments")
            first, second = (self.compile(arg) for arg in node.args)

            def nullif(row):
                value = first(row)
                return None if value == second(row) else value

            return nullif
        func = _SCALAR_FUNCS.get(name)
        if func is None:
            return _raising(f"unknown function {node.name!r}")
        args = [self.compile(arg) for arg in node.args]
        if len(args) != 1:
            return _raising(f"{node.name}() takes exactly one argument", args)
        (arg,) = args

        def scalar(row):
            value = arg(row)
            return None if value is None else func(value)

        return scalar

    def _case(self, node: CaseExpr) -> Compiled:
        branches = [(self.compile(cond), self.compile(result)) for cond, result in node.branches]
        default = self.compile(node.default or Literal(None))

        def case(row):
            for condition, result in branches:
                if condition(row) is True:
                    return result(row)
            return default(row)

        return case

    def _in_list(self, node: InList) -> Compiled:
        operand = self.compile(node.operand)
        items = [self.compile(item) for item in node.items]
        negated = node.negated

        def in_list(row):
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            return None if saw_null else negated

        return in_list

    def _like(self, node: Like) -> Compiled:
        operand = self.compile(node.operand)
        negated = node.negated
        if isinstance(node.pattern, Literal) and isinstance(node.pattern.value, str):
            match = like_to_regex(node.pattern.value).match

            def like_literal(row):
                value = operand(row)
                if value is None:
                    return None
                if not isinstance(value, str):
                    raise RelationalError("LIKE needs string operands")
                return (match(value) is not None) != negated

            return like_literal
        pattern = self.compile(node.pattern)

        def like(row):
            value, text = operand(row), pattern(row)
            if value is None or text is None:
                return None
            if not isinstance(value, str) or not isinstance(text, str):
                raise RelationalError("LIKE needs string operands")
            return (like_to_regex(text).match(value) is not None) != negated

        return like

    def _between(self, node: Between) -> Compiled:
        operand, low, high = (self.compile(part) for part in (node.operand, node.low, node.high))
        negated = node.negated

        def between(row):
            value, lower, upper = operand(row), low(row), high(row)
            if value is None:
                return None
            above = _compare(operator.ge, ">=", value, lower)
            below = _compare(operator.le, "<=", value, upper)
            if above is False or below is False:
                return negated
            if above is None or below is None:
                return None
            return not negated

        return between


def _compare(cmp, op: str, left: Any, right: Any) -> Optional[bool]:
    if left is None or right is None:
        return None
    try:
        return cmp(left, right)
    except TypeError:
        raise _compare_error(left, op, right) from None


def _column_vs_literal(op: str, position: int, value: Any) -> Compiled:
    """``column op literal``: read the slot, check NULL, compare — the
    shape of every property filter the search engine sends."""
    cmp = _COMPARATORS[op]

    def compare(row):
        current = row[position]
        if current is None:
            return None
        try:
            return cmp(current, value)
        except TypeError:
            raise _compare_error(current, op, value) from None

    return compare


def _comparison(op: str, left: Compiled, right: Compiled) -> Compiled:
    cmp = _COMPARATORS[op]

    def compare(row):
        return _compare(cmp, op, left(row), right(row))

    return compare


def _logical(op: str, left: Compiled, right: Compiled) -> Compiled:
    """Kleene AND/OR. ``decisive`` (FALSE for AND, TRUE for OR) settles the
    result alone, so the right side runs only when the left is not it."""
    decisive = op == "OR"
    neutral = not decisive

    def combine(row):
        first = left(row)
        if first is decisive:
            return decisive  # short-circuit
        if first is not neutral and first is not None:
            raise _bool_error(op, first)
        second = right(row)
        if second is decisive:
            return decisive
        if second is neutral:
            return first
        if second is None:
            return None
        raise _bool_error(op, second)

    return combine


def _arithmetic(op: str, left: Compiled, right: Compiled) -> Compiled:
    apply = _ARITHMETIC[op]
    divides = op in ("/", "%")

    def arithmetic(row):
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        if not _is_number(a):
            raise RelationalError(f"arithmetic needs numbers, got {a!r}")
        if not _is_number(b):
            raise RelationalError(f"arithmetic needs numbers, got {b!r}")
        if divides and b == 0:
            return None  # SQL engines return NULL on division by zero
        return apply(a, b)

    return arithmetic


def _concat(left: Compiled, right: Compiled) -> Compiled:
    def concat(row):
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        if not isinstance(a, str) or not isinstance(b, str):
            raise RelationalError(f"|| needs strings, got {a!r} and {b!r}")
        return a + b

    return concat


# ----------------------------------------------------------------------
# Analysis helpers used by the planner/executor
# ----------------------------------------------------------------------


def collect_aggregates(expr: Expr) -> List[Aggregate]:
    """Return every Aggregate node inside ``expr`` (depth-first)."""
    found: List[Aggregate] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Aggregate):
            found.append(node)
            return  # nested aggregates are invalid; parser rejects them
        for child in _children(node):
            walk(child)

    walk(expr)
    return found


def _children(node: Expr) -> List[Expr]:
    if isinstance(node, BinaryOp):
        return [node.left, node.right]
    if isinstance(node, UnaryOp):
        return [node.operand]
    if isinstance(node, FuncCall):
        return list(node.args)
    if isinstance(node, Aggregate):
        return [] if isinstance(node.arg, Star) else [node.arg]
    if isinstance(node, InList):
        return [node.operand, *node.items]
    if isinstance(node, InSubquery):
        return [node.operand]  # the subquery is resolved separately
    if isinstance(node, CaseExpr):
        children = [child for pair in node.branches for child in pair]
        if node.default is not None:
            children.append(node.default)
        return children
    if isinstance(node, Like):
        return [node.operand, node.pattern]
    if isinstance(node, IsNull):
        return [node.operand]
    if isinstance(node, Between):
        return [node.operand, node.low, node.high]
    return []


def rewrite(expr: Expr, transform) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``transform`` to every node.

    ``transform`` receives a node whose children are already rewritten
    and returns a (possibly new) node. Used by the executor to replace
    :class:`InSubquery` nodes with materialized :class:`InList` values.
    """
    if isinstance(expr, BinaryOp):
        expr = BinaryOp(expr.op, rewrite(expr.left, transform), rewrite(expr.right, transform))
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, rewrite(expr.operand, transform))
    elif isinstance(expr, FuncCall):
        expr = FuncCall(expr.name, tuple(rewrite(arg, transform) for arg in expr.args))
    elif isinstance(expr, Aggregate):
        if not isinstance(expr.arg, Star):
            expr = Aggregate(expr.func, rewrite(expr.arg, transform), expr.distinct)
    elif isinstance(expr, InList):
        expr = InList(
            rewrite(expr.operand, transform),
            tuple(rewrite(item, transform) for item in expr.items),
            expr.negated,
        )
    elif isinstance(expr, InSubquery):
        expr = InSubquery(rewrite(expr.operand, transform), expr.subquery, expr.negated)
    elif isinstance(expr, CaseExpr):
        expr = CaseExpr(
            tuple(
                (rewrite(cond, transform), rewrite(result, transform))
                for cond, result in expr.branches
            ),
            rewrite(expr.default, transform) if expr.default is not None else None,
        )
    elif isinstance(expr, Like):
        expr = Like(rewrite(expr.operand, transform), rewrite(expr.pattern, transform), expr.negated)
    elif isinstance(expr, IsNull):
        expr = IsNull(rewrite(expr.operand, transform), expr.negated)
    elif isinstance(expr, Between):
        expr = Between(
            rewrite(expr.operand, transform),
            rewrite(expr.low, transform),
            rewrite(expr.high, transform),
            expr.negated,
        )
    return transform(expr)
