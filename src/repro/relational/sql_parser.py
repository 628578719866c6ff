"""Recursive-descent parser for the SQL subset.

Grammar (roughly)::

    statement   := select | insert | update | delete | create_table
                 | create_index | drop_table
    select      := SELECT [DISTINCT] items FROM table_ref {join}
                   [WHERE expr] [GROUP BY exprs [HAVING expr]]
                   [ORDER BY expr [ASC|DESC] {, ...}]
                   [LIMIT n [OFFSET m]]
    join        := [INNER|LEFT] JOIN table_ref ON expr
    expr        := or_expr with standard precedence:
                   OR < AND < NOT < comparison/IN/LIKE/IS/BETWEEN
                   < add/sub/|| < mul/div/mod < unary < primary

Produces the statement dataclasses consumed by the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SqlSyntaxError
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
    collect_aggregates,
)
from repro.relational.schema import Column
from repro.relational.sql_lexer import Token, is_real, tokenize_sql
from repro.relational.types import DataType

_AGG_FUNCS = {"count", "sum", "avg", "min", "max"}


# ----------------------------------------------------------------------
# Statement dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str  # defaults to the table name


@dataclass(frozen=True)
class Join:
    table: TableRef
    on: Expr
    kind: str  # 'inner' or 'left'


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class SelectStmt:
    items: Tuple[SelectItem, ...]
    table: Optional[TableRef]
    joins: Tuple[Join, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[Tuple[Expr, bool], ...] = ()  # (expr, descending)
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False


@dataclass(frozen=True)
class InsertStmt:
    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class UpdateStmt:
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class CreateTableStmt:
    name: str
    columns: Tuple[Column, ...]


@dataclass(frozen=True)
class CreateIndexStmt:
    name: str
    table: str
    columns: Tuple[str, ...]
    kind: str = "hash"  # CREATE INDEX ... USING (hash | btree | rtree)


@dataclass(frozen=True)
class DropTableStmt:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN SELECT ...`` — returns the plan instead of rows."""

    select: "SelectStmt"


@dataclass(frozen=True)
class BeginStmt:
    """``BEGIN [TRANSACTION]``."""


@dataclass(frozen=True)
class CommitStmt:
    """``COMMIT``."""


@dataclass(frozen=True)
class RollbackStmt:
    """``ROLLBACK``."""


@dataclass(frozen=True)
class AlterTableStmt:
    """``ALTER TABLE t ADD COLUMN col TYPE``."""

    table: str
    column: Column


Statement = object  # union of the dataclasses above


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # --- token helpers -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, value):
            wanted = value or kind
            raise SqlSyntaxError(
                f"expected {wanted!r} but found {token.value or token.kind!r} "
                f"at position {token.position}"
            )
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind == "ident":
            return self._advance().value
        raise SqlSyntaxError(
            f"expected identifier, found {token.value or token.kind!r} "
            f"at position {token.position}"
        )

    # --- statements -----------------------------------------------------

    def parse_statement(self):
        token = self._peek()
        if token.kind != "keyword":
            raise SqlSyntaxError(f"expected a statement, found {token.value!r}")
        handlers = {
            "select": self._parse_select,
            "insert": self._parse_insert,
            "update": self._parse_update,
            "delete": self._parse_delete,
            "create": self._parse_create,
            "drop": self._parse_drop,
            "explain": self._parse_explain,
            "begin": self._parse_begin,
            "commit": self._parse_commit,
            "rollback": self._parse_rollback,
            "alter": self._parse_alter,
        }
        handler = handlers.get(token.value)
        if handler is None:
            raise SqlSyntaxError(f"unsupported statement {token.value!r}")
        statement = handler()
        self._accept("punct", ";")
        self._expect("eof")
        return statement

    def _parse_select(self) -> SelectStmt:
        self._expect("keyword", "select")
        distinct = bool(self._accept("keyword", "distinct"))
        items = [self._parse_select_item()]
        while self._accept("punct", ","):
            items.append(self._parse_select_item())
        table = None
        joins: List[Join] = []
        if self._accept("keyword", "from"):
            table = self._parse_table_ref()
            while self._check("keyword", "join") or self._check("keyword", "inner") or self._check(
                "keyword", "left"
            ):
                joins.append(self._parse_join())
        where = self._parse_optional_where()
        group_by: List[Expr] = []
        having = None
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by.append(self._parse_expr())
            while self._accept("punct", ","):
                group_by.append(self._parse_expr())
            if self._accept("keyword", "having"):
                having = self._parse_expr()
        order_by: List[Tuple[Expr, bool]] = []
        if self._accept("keyword", "order"):
            self._expect("keyword", "by")
            order_by.append(self._parse_order_item())
            while self._accept("punct", ","):
                order_by.append(self._parse_order_item())
        limit = None
        offset = 0
        if self._accept("keyword", "limit"):
            limit = self._parse_nonnegative_int("LIMIT")
            if self._accept("keyword", "offset"):
                offset = self._parse_nonnegative_int("OFFSET")
        self._validate_aggregate_placement(where)
        return SelectStmt(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    @staticmethod
    def _validate_aggregate_placement(where: Optional[Expr]) -> None:
        if where is not None and collect_aggregates(where):
            raise SqlSyntaxError("aggregates are not allowed in WHERE; use HAVING")

    def _parse_order_item(self) -> Tuple[Expr, bool]:
        expr = self._parse_expr()
        descending = False
        if self._accept("keyword", "desc"):
            descending = True
        else:
            self._accept("keyword", "asc")
        return expr, descending

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self._expect("number")
        if is_real(token.value):
            raise SqlSyntaxError(f"{clause} requires an integer, got {token.value}")
        return int(token.value)

    def _parse_select_item(self) -> SelectItem:
        if self._check("op", "*"):
            self._advance()
            return SelectItem(Star())
        expr = self._parse_expr()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect_ident()
        elif self._check("ident"):
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = name
        if self._accept("keyword", "as"):
            alias = self._expect_ident()
        elif self._check("ident"):
            alias = self._advance().value
        return TableRef(name, alias)

    def _parse_join(self) -> Join:
        kind = "inner"
        if self._accept("keyword", "left"):
            kind = "left"
        else:
            self._accept("keyword", "inner")
        self._expect("keyword", "join")
        table = self._parse_table_ref()
        self._expect("keyword", "on")
        on = self._parse_expr()
        return Join(table, on, kind)

    def _parse_optional_where(self) -> Optional[Expr]:
        if self._accept("keyword", "where"):
            return self._parse_expr()
        return None

    def _parse_insert(self) -> InsertStmt:
        self._expect("keyword", "insert")
        self._expect("keyword", "into")
        table = self._expect_ident()
        self._expect("punct", "(")
        columns = [self._expect_ident()]
        while self._accept("punct", ","):
            columns.append(self._expect_ident())
        self._expect("punct", ")")
        self._expect("keyword", "values")
        rows = [self._parse_value_tuple(len(columns))]
        while self._accept("punct", ","):
            rows.append(self._parse_value_tuple(len(columns)))
        return InsertStmt(table, tuple(columns), tuple(rows))

    def _parse_value_tuple(self, arity: int) -> Tuple[Expr, ...]:
        self._expect("punct", "(")
        values = [self._parse_expr()]
        while self._accept("punct", ","):
            values.append(self._parse_expr())
        self._expect("punct", ")")
        if len(values) != arity:
            raise SqlSyntaxError(
                f"INSERT row has {len(values)} values but {arity} columns were named"
            )
        return tuple(values)

    def _parse_update(self) -> UpdateStmt:
        self._expect("keyword", "update")
        table = self._expect_ident()
        self._expect("keyword", "set")
        assignments = [self._parse_assignment()]
        while self._accept("punct", ","):
            assignments.append(self._parse_assignment())
        where = self._parse_optional_where()
        return UpdateStmt(table, tuple(assignments), where)

    def _parse_assignment(self) -> Tuple[str, Expr]:
        column = self._expect_ident()
        self._expect("op", "=")
        return column, self._parse_expr()

    def _parse_delete(self) -> DeleteStmt:
        self._expect("keyword", "delete")
        self._expect("keyword", "from")
        table = self._expect_ident()
        where = self._parse_optional_where()
        return DeleteStmt(table, where)

    def _parse_create(self):
        self._expect("keyword", "create")
        if self._accept("keyword", "table"):
            return self._parse_create_table()
        if self._accept("keyword", "index"):
            return self._parse_create_index()
        raise SqlSyntaxError("CREATE must be followed by TABLE or INDEX")

    def _parse_create_table(self) -> CreateTableStmt:
        name = self._expect_ident()
        self._expect("punct", "(")
        columns = [self._parse_column_def()]
        while self._accept("punct", ","):
            columns.append(self._parse_column_def())
        self._expect("punct", ")")
        return CreateTableStmt(name, tuple(columns))

    def _parse_column_def(self) -> Column:
        name = self._expect_ident()
        type_token = self._peek()
        if type_token.kind != "keyword" or type_token.value not in (
            "integer",
            "real",
            "text",
            "boolean",
        ):
            raise SqlSyntaxError(
                f"expected a column type after {name!r}, found {type_token.value!r}"
            )
        self._advance()
        dtype = DataType.from_name(type_token.value)
        primary_key = False
        nullable = True
        while True:
            if self._accept("keyword", "primary"):
                self._expect("keyword", "key")
                primary_key = True
                nullable = False
            elif self._accept("keyword", "not"):
                self._expect("keyword", "null")
                nullable = False
            else:
                break
        return Column(name, dtype, nullable=nullable, primary_key=primary_key)

    def _parse_create_index(self) -> CreateIndexStmt:
        name = self._expect_ident()
        self._expect("keyword", "on")
        table = self._expect_ident()
        self._expect("punct", "(")
        columns = [self._expect_ident()]
        while self._accept("punct", ","):
            columns.append(self._expect_ident())
        self._expect("punct", ")")
        kind = "hash"
        if self._accept("keyword", "using"):
            kind = self._expect_ident()
        return CreateIndexStmt(name, table, tuple(columns), kind)

    def _parse_explain(self) -> ExplainStmt:
        self._expect("keyword", "explain")
        if not self._check("keyword", "select"):
            raise SqlSyntaxError("EXPLAIN only supports SELECT statements")
        return ExplainStmt(self._parse_select())

    def _parse_begin(self) -> BeginStmt:
        self._expect("keyword", "begin")
        self._accept("keyword", "transaction")
        return BeginStmt()

    def _parse_commit(self) -> CommitStmt:
        self._expect("keyword", "commit")
        return CommitStmt()

    def _parse_rollback(self) -> RollbackStmt:
        self._expect("keyword", "rollback")
        return RollbackStmt()

    def _parse_alter(self) -> AlterTableStmt:
        self._expect("keyword", "alter")
        self._expect("keyword", "table")
        table = self._expect_ident()
        self._expect("keyword", "add")
        self._accept("keyword", "column")
        return AlterTableStmt(table, self._parse_column_def())

    def _parse_drop(self) -> DropTableStmt:
        self._expect("keyword", "drop")
        self._expect("keyword", "table")
        if_exists = False
        if self._accept("keyword", "if"):
            self._expect("keyword", "exists")
            if_exists = True
        return DropTableStmt(self._expect_ident(), if_exists)

    # --- expressions ----------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("keyword", "or"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept("keyword", "and"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept("keyword", "not"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            return BinaryOp(token.value, left, self._parse_additive())
        negated = False
        if self._check("keyword", "not"):
            # Lookahead: NOT IN / NOT LIKE / NOT BETWEEN
            following = self._tokens[self._pos + 1]
            if following.kind == "keyword" and following.value in ("in", "like", "between"):
                self._advance()
                negated = True
        if self._accept("keyword", "in"):
            self._expect("punct", "(")
            if self._check("keyword", "select"):
                subquery = self._parse_select()
                self._expect("punct", ")")
                if len(subquery.items) != 1:
                    raise SqlSyntaxError("IN (SELECT ...) must select exactly one column")
                return InSubquery(left, subquery, negated)
            items = [self._parse_expr()]
            while self._accept("punct", ","):
                items.append(self._parse_expr())
            self._expect("punct", ")")
            return InList(left, tuple(items), negated)
        if self._accept("keyword", "like"):
            return Like(left, self._parse_additive(), negated)
        if self._accept("keyword", "between"):
            low = self._parse_additive()
            self._expect("keyword", "and")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if self._accept("keyword", "is"):
            is_negated = bool(self._accept("keyword", "not"))
            self._expect("keyword", "null")
            return IsNull(left, is_negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-", "||"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("op", "-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            if is_real(token.value):
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if token.kind == "keyword" and token.value in ("true", "false"):
            self._advance()
            return Literal(token.value == "true")
        if token.kind == "keyword" and token.value == "null":
            self._advance()
            return Literal(None)
        if token.kind == "keyword" and token.value == "case":
            return self._parse_case()
        if token.kind == "keyword" and token.value in _AGG_FUNCS:
            return self._parse_aggregate(token.value)
        if token.kind == "punct" and token.value == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect("punct", ")")
            return inner
        if token.kind == "ident":
            return self._parse_identifier_expr()
        raise SqlSyntaxError(
            f"unexpected token {token.value or token.kind!r} at position {token.position}"
        )

    def _parse_case(self) -> CaseExpr:
        self._expect("keyword", "case")
        # Simple form: CASE operand WHEN v THEN r ... desugars to the
        # searched form with `operand = v` conditions.
        operand: Optional[Expr] = None
        if not self._check("keyword", "when"):
            operand = self._parse_expr()
        branches = []
        while self._accept("keyword", "when"):
            condition = self._parse_expr()
            if operand is not None:
                condition = BinaryOp("=", operand, condition)
            self._expect("keyword", "then")
            branches.append((condition, self._parse_expr()))
        if not branches:
            raise SqlSyntaxError("CASE needs at least one WHEN branch")
        default = None
        if self._accept("keyword", "else"):
            default = self._parse_expr()
        self._expect("keyword", "end")
        return CaseExpr(tuple(branches), default)

    def _parse_aggregate(self, func: str) -> Aggregate:
        self._advance()
        self._expect("punct", "(")
        distinct = bool(self._accept("keyword", "distinct"))
        if self._accept("op", "*"):
            if func != "count":
                raise SqlSyntaxError(f"{func.upper()}(*) is not valid; only COUNT(*)")
            arg: Expr = Star()
        else:
            arg = self._parse_expr()
            if collect_aggregates(arg):
                raise SqlSyntaxError("nested aggregates are not allowed")
        self._expect("punct", ")")
        return Aggregate(func.upper(), arg, distinct)

    def _parse_identifier_expr(self) -> Expr:
        name = self._advance().value
        if self._check("punct", "("):
            self._advance()
            args = []
            if not self._check("punct", ")"):
                args.append(self._parse_expr())
                while self._accept("punct", ","):
                    args.append(self._parse_expr())
            self._expect("punct", ")")
            return FuncCall(name, tuple(args))
        if self._accept("punct", "."):
            if self._check("op", "*"):
                self._advance()
                return Star(table=name)
            column = self._expect_ident()
            return ColumnRef(column, table=name)
        return ColumnRef(name)


def parse_sql(text: str):
    """Parse one SQL statement; raises :class:`SqlSyntaxError` otherwise."""
    return _Parser(tokenize_sql(text)).parse_statement()
