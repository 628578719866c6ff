"""RDF terms: IRIs, literals, blank nodes — plus SPARQL variables.

Terms are frozen dataclasses, hashable and directly usable as index keys.
Literal values keep their Python type (str/int/float/bool); the datatype
IRI is derived automatically unless given explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.errors import RdfError

_XSD = "http://www.w3.org/2001/XMLSchema#"

# On a str pattern, \s matches exactly the code points str.isspace() accepts.
_find_whitespace = re.compile(r"\s").search


@dataclass(frozen=True, order=True)
class IRI:
    """An absolute or CURIE-expanded IRI."""

    value: str

    def __post_init__(self):
        if not self.value or _find_whitespace(self.value):
            raise RdfError(f"invalid IRI {self.value!r}")

    def n3(self) -> str:
        """N3/Turtle token form, e.g. ``<http://...>``."""
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class BlankNode:
    """An anonymous node, identified only within one graph."""

    node_id: str

    def n3(self) -> str:
        """N3/Turtle token form, e.g. ``_:b1``."""
        return f"_:{self.node_id}"

    def __str__(self) -> str:
        return self.n3()


@dataclass(frozen=True, order=True)
class Literal:
    """A typed literal. ``lang`` is only valid for plain string literals."""

    value: Any
    datatype: Optional[str] = None
    lang: Optional[str] = None

    def __post_init__(self):
        if self.lang is not None and not isinstance(self.value, str):
            raise RdfError("language tags are only valid on string literals")
        if self.lang is not None and self.datatype is not None:
            raise RdfError("a literal cannot carry both a language tag and a datatype")
        if isinstance(self.value, bool):
            inferred = _XSD + "boolean"
        elif isinstance(self.value, int):
            inferred = _XSD + "integer"
        elif isinstance(self.value, float):
            inferred = _XSD + "double"
        elif isinstance(self.value, str):
            inferred = None  # plain literal
        else:
            raise RdfError(f"unsupported literal value {self.value!r}")
        if self.datatype is None and inferred is not None:
            object.__setattr__(self, "datatype", inferred)

    def n3(self) -> str:
        """N3/Turtle token form with escaping and datatype/lang suffix."""
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, (int, float)):
            return repr(self.value)
        escaped = (
            str(self.value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.lang:
            return f'"{escaped}"@{self.lang}'
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, order=True)
class Variable:
    """A SPARQL variable (``?name``); never stored in a graph."""

    name: str

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise RdfError(f"invalid variable name {self.name!r}")

    def n3(self) -> str:
        """SPARQL token form, e.g. ``?name``."""
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.n3()


Term = Union[IRI, BlankNode, Literal]
PatternTerm = Union[IRI, BlankNode, Literal, Variable]


def require_term(value: object, role: str) -> Term:
    """Validate that ``value`` may be stored in a graph at ``role``.

    Subjects must be IRI/BlankNode; predicates IRI; objects any term.
    """
    if role == "subject" and not isinstance(value, (IRI, BlankNode)):
        raise RdfError(f"subject must be an IRI or blank node, got {value!r}")
    if role == "predicate" and not isinstance(value, IRI):
        raise RdfError(f"predicate must be an IRI, got {value!r}")
    if role == "object" and not isinstance(value, (IRI, BlankNode, Literal)):
        raise RdfError(f"object must be an IRI, blank node or literal, got {value!r}")
    return value  # type: ignore[return-value]
