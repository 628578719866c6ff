"""Column types and value coercion for the relational engine.

SQL ``NULL`` is represented by Python ``None`` throughout. Coercion is
strict in the spirit of a typed engine: inserting ``'abc'`` into an
INTEGER column is an :class:`~repro.errors.IntegrityError`, but lossless
widenings (int -> REAL) are applied silently.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import IntegrityError


class DataType(enum.Enum):
    """The four column types the engine supports."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        try:
            return cls[name.upper()]
        except KeyError:
            known = ", ".join(t.name for t in cls)
            raise IntegrityError(f"unknown type {name!r}; supported: {known}") from None


def coerce_value(value: Any, dtype: DataType, column: str = "?") -> Any:
    """Coerce ``value`` to ``dtype`` or raise :class:`IntegrityError`.

    ``None`` passes through (NULL is type-less). Booleans are *not*
    accepted by INTEGER columns — that silent Python idiom hides bugs.
    An integer too large for a float is refused by REAL columns like any
    other value they cannot hold.
    """
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise IntegrityError(f"column {column!r} expects INTEGER, got {value!r}")
        return value
    if dtype is DataType.REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise IntegrityError(f"column {column!r} expects REAL, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            # Not repr(value): an int past 4300 digits refuses to print.
            raise IntegrityError(
                f"column {column!r} expects REAL, got an integer of "
                f"{value.bit_length()} bits, too large for a float"
            ) from None
    if dtype is DataType.TEXT:
        if not isinstance(value, str):
            raise IntegrityError(f"column {column!r} expects TEXT, got {value!r}")
        return value
    if dtype is DataType.BOOLEAN:
        if not isinstance(value, bool):
            raise IntegrityError(f"column {column!r} expects BOOLEAN, got {value!r}")
        return value
    raise IntegrityError(f"unhandled type {dtype}")  # pragma: no cover
