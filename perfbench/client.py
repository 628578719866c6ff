"""A minimal in-process WSGI client: one closed-loop caller, no sockets."""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlencode


def call(
    app: Any,
    method: str,
    path: str,
    params: Optional[Dict[str, str]] = None,
    body: Any = None,
) -> Tuple[str, bytes]:
    """Send one request to ``app``; return ``(status line, body bytes)``.

    The body is fully consumed before returning, so a caller timing this
    call times the whole response as a WSGI server would deliver it.
    """
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": urlencode(params or {}),
        "SERVER_NAME": "perfbench",
        "SERVER_PORT": "80",
        "SERVER_PROTOCOL": "HTTP/1.1",
        "wsgi.url_scheme": "http",
        "wsgi.input": io.BytesIO(data),
        "CONTENT_LENGTH": str(len(data)),
        "CONTENT_TYPE": "application/json",
    }
    captured: Dict[str, str] = {}

    def start_response(status, headers, exc_info=None):
        captured["status"] = status

    chunks = app(environ, start_response)
    try:
        payload = b"".join(chunks)
    finally:
        close = getattr(chunks, "close", None)
        if close is not None:
            close()
    return captured.get("status", ""), payload
