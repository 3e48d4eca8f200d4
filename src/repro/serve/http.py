"""Minimal HTTP/1.1 layer on asyncio streams (no framework dependency).

Just enough HTTP for the aggregation service: request parsing
(request line, headers, ``Content-Length`` bodies), JSON responses,
keep-alive connections, and a small pattern router
(``/sessions/{name}/observe``).  Anything the parser does not support —
chunked transfer encoding, oversized bodies, malformed framing — maps to
a structured JSON error response with the right status code.

:class:`HTTPError` is the one error channel of the whole service: every
layer above (schemas, sessions, app) raises it with a status, a message,
and an optional ``Retry-After`` hint, and :func:`error_response` turns it
into the wire form.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HTTPError",
    "HTTPServer",
    "Request",
    "Response",
    "Route",
    "Router",
    "error_response",
]

#: Reason phrases for the statuses the service emits.
STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Per-line read limit for request lines and headers (bytes).
_LINE_LIMIT = 16 * 1024

#: Maximum number of request headers accepted.
_MAX_HEADERS = 64

#: How long :meth:`HTTPServer.stop` waits for connections answering their
#: last request (a client that never reads its response would hold the
#: write forever) before cancelling them.
_STOP_GRACE_SECONDS = 10.0


class HTTPError(Exception):
    """A structured service error: status code, message, optional retry hint.

    Raised anywhere between request parsing and the handlers;
    :func:`error_response` renders it as ``{"error": message}`` JSON with
    a ``Retry-After`` header when ``retry_after`` is set (429/503
    backpressure responses).
    """

    def __init__(self, status: int, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.retry_after = retry_after


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  #: header names lower-cased
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON; 400 on empty or malformed bodies."""
        if not self.body:
            raise HTTPError(400, "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HTTPError(400, f"invalid JSON body: {error}") from error


@dataclass
class Response:
    """One HTTP response; ``payload`` is JSON-serialized at encode time."""

    status: int = 200
    payload: Any = None
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        """The full wire form (status line, headers, JSON body)."""
        body = b"" if self.payload is None else json.dumps(self.payload).encode("utf-8") + b"\n"
        phrase = STATUS_PHRASES.get(self.status, "Unknown")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            **self.headers,
        }
        head = [f"HTTP/1.1 {self.status} {phrase}"]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def error_response(error: HTTPError) -> Response:
    """Render an :class:`HTTPError` as a JSON error response."""
    headers: dict[str, str] = {}
    if error.retry_after is not None:
        headers["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
    return Response(status=error.status, payload={"error": error.message}, headers=headers)


Handler = Callable[[Request, dict[str, str]], Awaitable[Response]]


@dataclass(frozen=True)
class Route:
    """One routable endpoint: a method, a segment pattern, and a handler.

    Pattern segments of the form ``{param}`` capture the corresponding
    path segment into the params dict passed to the handler.
    """

    method: str
    name: str
    segments: tuple[str, ...]
    handler: Handler

    def match(self, parts: tuple[str, ...]) -> dict[str, str] | None:
        """Params dict when ``parts`` matches this route's pattern, else None."""
        if len(parts) != len(self.segments):
            return None
        params: dict[str, str] = {}
        for pattern, part in zip(self.segments, parts):
            if pattern.startswith("{") and pattern.endswith("}"):
                params[pattern[1:-1]] = part
            elif pattern != part:
                return None
        return params


class Router:
    """Order-preserving route table with 404/405 discrimination."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(self, method: str, pattern: str, name: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` + ``pattern``."""
        segments = tuple(segment for segment in pattern.strip("/").split("/") if segment)
        self._routes.append(
            Route(method=method.upper(), name=name, segments=segments, handler=handler)
        )

    def resolve(self, method: str, path: str) -> tuple[Route, dict[str, str]]:
        """The matching route and its path params; 404 or 405 otherwise."""
        stripped = path.strip("/")
        parts = tuple(unquote(part) for part in stripped.split("/")) if stripped else ()
        path_known = False
        for route in self._routes:
            params = route.match(parts)
            if params is None:
                continue
            if route.method == method.upper():
                return route, params
            path_known = True
        if path_known:
            raise HTTPError(405, f"method {method} not allowed for {path}")
        raise HTTPError(404, f"no route for {path}")


class HTTPServer:
    """An asyncio TCP server speaking just enough HTTP/1.1.

    ``dispatch`` is the single application callback: it receives every
    parsed :class:`Request` and returns a :class:`Response` (the app
    layer does routing, instrumentation, and error mapping there).
    Connections are keep-alive until the client half-closes or sends
    ``Connection: close``.
    """

    def __init__(
        self,
        dispatch: Callable[[Request], Awaitable[Response]],
        max_body_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self._dispatch = dispatch
        self._max_body = int(max_body_bytes)
        self._server: asyncio.base_events.Server | None = None
        self._connections: "set[asyncio.Task[None]]" = set()
        # Connections reading a request (or waiting for one), and the flag
        # that stops every connection after its current request.
        self._reading: set[asyncio.StreamWriter] = set()
        self._closing = False

    async def start(self, host: str, port: int) -> None:
        """Bind and start accepting connections (port 0 picks a free port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=_LINE_LIMIT
        )

    @property
    def port(self) -> int:
        """The actually bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def stop(self) -> None:
        """Stop accepting new connections and close established ones."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Keep-alive connections idle in readline() would otherwise outlive
        # the listener.  Closing the transport of every connection that is
        # reading ends that read with EOF, so its handler returns normally;
        # cancelling the handler task instead makes asyncio's stream
        # callback log a CancelledError traceback.  Connections answering a
        # request finish it and then stop on the flag.
        self._closing = True
        for writer in list(self._reading):
            writer.close()
        if self._connections:
            _, stuck = await asyncio.wait(set(self._connections), timeout=_STOP_GRACE_SECONDS)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        self._connections.clear()

    # -- connection handling -------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader, writer)
                except HTTPError as error:
                    writer.write(error_response(error).encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response.encode())
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Request | None:
        """Parse one request off the stream; None on a clean EOF."""
        self._reading.add(writer)
        try:
            return await self._parse_request(reader)
        finally:
            self._reading.discard(writer)

    async def _parse_request(self, reader: asyncio.StreamReader) -> Request | None:
        try:
            line = await reader.readline()
        except ValueError as error:  # line longer than the stream limit
            raise HTTPError(400, "request line too long") from error
        if not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise HTTPError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]

        headers: dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError as error:
                raise HTTPError(400, "request header too long") from error
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise HTTPError(400, "too many request headers")
            name, separator, value = raw.decode("latin-1").partition(":")
            if not separator:
                raise HTTPError(400, "malformed request header")
            headers[name.strip().lower()] = value.strip()

        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise HTTPError(501, "chunked request bodies are not supported")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as error:
            raise HTTPError(400, "malformed Content-Length header") from error
        if length < 0:
            raise HTTPError(400, "malformed Content-Length header")
        if length > self._max_body:
            raise HTTPError(413, f"request body exceeds {self._max_body} bytes")
        body = await reader.readexactly(length) if length else b""

        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
        return Request(
            method=method, path=split.path, query=query, headers=headers, body=body
        )
