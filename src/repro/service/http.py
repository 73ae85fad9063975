"""Minimal asyncio HTTP/1.1 framing for the sweep service.

The service deliberately speaks plain stdlib HTTP — no web framework is
imported.  The framing rules are kept trivial on purpose:

* one request per connection (every response carries
  ``Connection: close``), so there is no keep-alive or pipelining state;
* request bodies require ``Content-Length`` (no chunked uploads);
* streaming responses (the NDJSON event feed) send headers without a
  ``Content-Length`` and mark the body's end by closing the connection —
  legal HTTP/1.1 under ``Connection: close``, and exactly what ``curl``
  and :mod:`http.client` expect.

:func:`read_request` raises :class:`BadRequest` on anything malformed;
the server turns that into a structured ``400`` JSON body instead of
dropping the connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

#: Reason phrases of the status codes the service actually uses.
STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

#: Upper bound on a request body; sweep submissions are small JSON
#: documents, so anything bigger is a client error, not a workload.
MAX_BODY_BYTES = 8 * 1024 * 1024

_SERVER_NAME = "repro-sweep-service"


class BadRequest(ValueError):
    """The request could not be parsed (malformed line, headers, or body)."""


@dataclass
class Request:
    """One parsed HTTP request.

    Examples
    --------
    >>> request = Request("GET", "/sweeps/abc/events", {"from": "3"}, {}, b"")
    >>> request.query["from"]
    '3'
    """

    method: str
    path: str
    query: dict
    headers: dict
    body: bytes = b""
    #: Split, non-empty path segments (``/sweeps/abc`` -> ``["sweeps", "abc"]``).
    parts: list = field(init=False)

    def __post_init__(self) -> None:
        self.parts = [part for part in self.path.split("/") if part]

    def json(self):
        """Decode the body as JSON, raising :class:`BadRequest` when invalid."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"request body is not valid JSON: {error}") from error


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read and parse one HTTP request; ``None`` on a clean immediate EOF.

    Raises
    ------
    BadRequest
        On a malformed request line, oversized head or body, a body
        without ``Content-Length``, or a truncated body.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # connection opened and closed without a request
        raise BadRequest("truncated request head") from error
    except asyncio.LimitOverrunError as error:
        raise BadRequest("request head too large") from error

    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3 or not request_line[2].startswith("HTTP/"):
        raise BadRequest(f"malformed request line {lines[0]!r}")
    method, target, _version = request_line

    headers: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as error:
            raise BadRequest(
                f"bad Content-Length {length_header!r}"
            ) from error
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(
                f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise BadRequest("truncated request body") from error
    elif headers.get("transfer-encoding"):
        raise BadRequest(
            "chunked request bodies are not supported; send Content-Length"
        )
    return Request(method, split.path, query, headers, body)


def response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
) -> bytes:
    """Serialise one complete HTTP response (``Connection: close``)."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Server: {_SERVER_NAME}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def json_response(status: int, payload) -> bytes:
    """A complete JSON response with deterministic key order.

    Examples
    --------
    >>> json_response(200, {"status": "ok"}).splitlines()[0]
    b'HTTP/1.1 200 OK'
    """
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response(status, body)


def error_response(status: int, detail: str) -> bytes:
    """A structured JSON error body: ``{"error": <slug>, "detail": ...}``."""
    slug = STATUS_PHRASES.get(status, "error").lower().replace(" ", "_")
    return json_response(status, {"error": slug, "detail": detail})


def stream_head(content_type: str = "application/x-ndjson") -> bytes:
    """Headers of a streamed response: no length, body ends at close."""
    head = (
        f"HTTP/1.1 200 OK\r\n"
        f"Server: {_SERVER_NAME}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Cache-Control: no-store\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1")


__all__ = [
    "BadRequest",
    "MAX_BODY_BYTES",
    "Request",
    "STATUS_PHRASES",
    "error_response",
    "json_response",
    "read_request",
    "response",
    "stream_head",
]
