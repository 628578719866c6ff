"""A minimal WSGI router and response helpers.

Every JSON body is encoded in one place, :func:`encode_json`: compact
(no indentation, no spaces after separators), keys sorted, non-ASCII
escaped, and values JSON cannot represent rendered with ``str``. That
shape is what lets CPython run its C encoder; ``indent`` would force the
pure-Python one. Pipe a body through ``python -m json.tool`` to read it
indented.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, List, Tuple
from urllib.parse import parse_qs

Handler = Callable[..., "Response"]

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

# One encoder for the process: it holds no per-call state, and reusing it
# skips building one per call, as ``json.dumps`` with keywords does.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)


def encode_json(payload: Any) -> bytes:
    """``payload`` as a compact, key-sorted JSON body.

    >>> encode_json({"b": [1.5, None], "a": "x"})
    b'{"a":"x","b":[1.5,null]}'
    """
    return _ENCODER.encode(payload).encode("utf-8")


class Response:
    """Base response: status, headers, body bytes."""

    def __init__(self, body: bytes, status: str, content_type: str):
        self.body = body
        self.status = status
        self.headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ]


class JsonResponse(Response):
    def __init__(self, payload: Any, status: str = "200 OK"):
        super().__init__(encode_json(payload), status, JSON_CONTENT_TYPE)


class TextResponse(Response):
    def __init__(self, text: str, status: str = "200 OK", content_type: str = "text/plain"):
        super().__init__(text.encode("utf-8"), status, f"{content_type}; charset=utf-8")


class SvgResponse(Response):
    def __init__(self, svg: str, status: str = "200 OK"):
        super().__init__(svg.encode("utf-8"), status, "image/svg+xml")


class HtmlResponse(Response):
    def __init__(self, html: str, status: str = "200 OK"):
        super().__init__(html.encode("utf-8"), status, "text/html; charset=utf-8")


class Request:
    """Parsed WSGI request: method, path, query params, JSON body."""

    def __init__(self, environ: Dict[str, Any]):
        self.method = environ.get("REQUEST_METHOD", "GET").upper()
        self.path = environ.get("PATH_INFO", "/")
        query = parse_qs(environ.get("QUERY_STRING", ""))
        self.params: Dict[str, str] = {key: values[0] for key, values in query.items()}
        self._environ = environ

    def header(self, name: str, default: str = "") -> str:
        """A request header by its HTTP name (case-insensitive).

        ``header("Accept")`` reads ``HTTP_ACCEPT`` from the WSGI environ;
        ``Content-Type`` and ``Content-Length`` use their dedicated
        environ keys per PEP 3333.
        """
        key = name.upper().replace("-", "_")
        if key in ("CONTENT_TYPE", "CONTENT_LENGTH"):
            return self._environ.get(key, default)
        return self._environ.get(f"HTTP_{key}", default)

    def json(self) -> Any:
        """The parsed JSON request body, or None when absent/invalid."""
        try:
            length = int(self._environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            return None
        raw = self._environ["wsgi.input"].read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None


class Router:
    """Maps ``METHOD /path/{param}`` patterns to handlers."""

    def __init__(self):
        self._routes: List[Tuple[str, "re.Pattern[str]", Handler, str]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``METHOD pattern``."""
        regex = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern)
        self._routes.append((method.upper(), re.compile(f"^{regex}$"), handler, pattern))

    def endpoint_of(self, method: str, path: str) -> str:
        """The route pattern ``path`` would dispatch to, for metric labels.

        Returns the template string (e.g. ``/api/page/{title}``) rather
        than the raw path so per-endpoint metrics stay low-cardinality.
        Unrouted paths collapse into the single label ``(unmatched)``.
        """
        method = method.upper()
        for route_method, regex, _, pattern in self._routes:
            if route_method == method and regex.match(path):
                return pattern
        return "(unmatched)"

    def get(self, pattern: str):
        """Decorator registering a GET handler for ``pattern``."""
        def decorator(handler: Handler) -> Handler:
            self.add("GET", pattern, handler)
            return handler

        return decorator

    def post(self, pattern: str):
        """Decorator registering a POST handler for ``pattern``."""
        def decorator(handler: Handler) -> Handler:
            self.add("POST", pattern, handler)
            return handler

        return decorator

    def dispatch(self, request: Request) -> Response:
        """Route ``request`` to its handler (404/405 JSON otherwise)."""
        path_matched = False
        for method, regex, handler, _ in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method != request.method:
                continue
            return handler(request, **match.groupdict())
        if path_matched:
            return JsonResponse({"error": "method not allowed"}, status="405 Method Not Allowed")
        return JsonResponse({"error": f"no route for {request.path}"}, status="404 Not Found")
