"""Tokenizer for the SQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import SqlSyntaxError

KEYWORDS = frozenset(
    """
    select from where and or not in like is null between as join inner left
    on group by having order asc desc limit offset distinct insert into
    values update set delete create table index drop primary key unique
    integer real text boolean true false count sum avg min max exists if
    using explain begin commit rollback transaction alter add column
    case when then else end
    """.split()
)

#: A number's optional exponent, as in ``1e-05`` or ``2.5E3``: SQLite
#: reads it as a REAL.
_EXPONENT = re.compile(r"[eE][+-]?[0-9]+")

_OPERATORS = ("<=", ">=", "<>", "!=", "||", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = "(),.;"


@dataclass(frozen=True)
class Token:
    """One lexical token: kind is 'keyword', 'ident', 'number', 'string',
    'op', 'punct' or 'eof'; ``value`` is normalized (keywords lower-case)."""

    kind: str
    value: str
    position: int


def tokenize_sql(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline == -1 else newline + 1
            continue
        if ch == "'":
            value, i = _read_string(text, i)
            tokens.append(Token("string", value, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    seen_dot = True
                i += 1
            exponent = _EXPONENT.match(text, i)
            if exponent is not None:
                i = exponent.end()
            elif text[start:i].endswith("."):
                # Trailing '.' belongs to qualified names, not numbers.
                i -= 1
            tokens.append(Token("number", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, start))
            else:
                tokens.append(Token("ident", lowered, start))
            continue
        matched_op = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if matched_op:
            tokens.append(Token("op", matched_op, i))
            i += len(matched_op)
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("eof", "", n))
    return tokens


def is_real(number: str) -> bool:
    """Whether a number token is a REAL literal: it has a fraction or an exponent."""
    return any(mark in number for mark in ".eE")


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string with '' escaping, from the opening quote."""
    i = start + 1
    parts: List[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlSyntaxError(f"unterminated string literal starting at position {start}")
