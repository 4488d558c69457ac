"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

``repro-serve`` needs exactly four things from HTTP: parse a request
line + headers + optional body, route it, send a response, and keep the
connection alive for the next request.  A full web framework is a
dependency this repo does not take, so this module implements that
subset directly on :mod:`asyncio` streams:

* keep-alive by default (HTTP/1.1 semantics; ``Connection: close`` and
  HTTP/1.0 honoured),
* bounded request head and body sizes (413/431 instead of unbounded
  buffering),
* malformed requests answered with a JSON 400 and the connection
  closed — a broken client never wedges a worker.

The handler contract is deliberately tiny: an ``async
handler(request) -> (status, payload)`` where the payload is a
JSON-able object, or a :class:`RawResponse` when a route needs a
non-JSON content type (the ``/metrics`` exposition).

When an :class:`~repro.serve.accesslog.AccessLog` is attached (and
``REPRO_OBS`` is not ``0``), every parsed request carries a
:class:`~repro.serve.accesslog.RequestTrace`: the trace clock starts
when the request **head has arrived** (keep-alive idle time between
requests is never attributed to a phase), header parsing + the body
read are lapped as ``"parse"``, handlers lap their own phases, and the
response write is lapped as ``"render"``.  The request id is echoed in
an ``X-Request-Id`` response header and the completed request is
written to the access log — including error responses; only
protocol-level failures that abort the connection before a request
exists go unrecorded.

The same laps feed the tracing pipeline: for sampled requests
(``REPRO_TRACE_SAMPLE``) the access log also records a span tree —
a root ``"request"`` span whose trace id **is** the ``X-Request-Id``,
with the phase laps as child spans — into the telemetry event stream
(see :mod:`repro.obs.spans`), servable live at ``GET /trace`` and
renderable with ``repro-obs trace``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

if TYPE_CHECKING:  # import cycle: accesslog only needed for typing
    from repro.serve.accesslog import AccessLog, RequestTrace

__all__ = [
    "HttpError",
    "HttpRequest",
    "RawResponse",
    "serve_app",
]

#: Hard limits keeping a misbehaving client from ballooning memory.
MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A request-level failure with an HTTP status.

    Raised by the parser and by route handlers; converted into a JSON
    error response by the connection loop.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    keep_alive: bool = True
    #: per-request trace (set by the connection loop when tracing is on).
    trace: "RequestTrace | None" = None

    def json(self) -> Any:
        """The body decoded as JSON.

        Raises:
            HttpError: 400 on an empty or malformed body.
        """
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None


@dataclass
class RawResponse:
    """A non-JSON response payload (e.g. the OpenMetrics exposition)."""

    body: bytes
    content_type: str = "text/plain; charset=utf-8"
    headers: dict[str, str] = field(default_factory=dict)


Handler = Callable[[HttpRequest], Awaitable[tuple[int, Any]]]


async def read_request(
    reader: asyncio.StreamReader,
    access_log: "AccessLog | None" = None,
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    When ``access_log`` is given (and enabled), a trace is started the
    moment the request head has arrived — keep-alive idle time spent
    waiting for the next request is never attributed to a phase — and
    attached to the returned request, with header parsing + the body
    read lapped as ``"parse"``.

    Raises:
        HttpError: malformed request line/headers or over-limit sizes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head too large") from None
    trace = None
    if access_log is not None and access_log.enabled:
        trace = access_log.begin()
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(431, "request head too large")

    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    connection = headers.get("connection", "").lower()
    keep_alive = version == "HTTP/1.1"
    if connection == "close":
        keep_alive = False
    elif connection == "keep-alive":
        keep_alive = True

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body") from None
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    if trace is not None:
        trace.lap("parse")
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
        trace=trace,
    )


def render_response(
    status: int,
    payload: Any,
    keep_alive: bool,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize a handler result into response bytes."""
    if isinstance(payload, RawResponse):
        body = payload.body
        content_type = payload.content_type
        extra = payload.headers
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = "application/json"
        extra = {}
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def _connection_loop(
    handler: Handler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    access_log: "AccessLog | None" = None,
) -> None:
    """Serve requests on one connection until close/EOF/parse error."""
    try:
        while True:
            try:
                request = await read_request(reader, access_log)
            except asyncio.CancelledError:
                # Shutdown cancels the connections still waiting on their
                # client, idle keep-alive ones above all.  End such a
                # connection as if the client had closed it: a cancelled
                # connection task makes asyncio's stream protocol log a
                # traceback (Python 3.11).
                return
            except HttpError as exc:
                writer.write(
                    render_response(
                        exc.status, {"error": exc.message}, keep_alive=False
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            try:
                status, payload = await handler(request)
            except HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
            except Exception as exc:  # noqa: BLE001 - last-resort boundary
                # The service must answer something rather than drop the
                # connection; the error detail stays server-side.
                status, payload = 500, {"error": f"internal error: {type(exc).__name__}"}
            trace = request.trace
            extra_headers = None
            if trace is not None:
                if isinstance(payload, dict) and "error" in payload:
                    trace.annotate(error=payload["error"])
                extra_headers = {"X-Request-Id": trace.request_id}
            response = render_response(
                status, payload, request.keep_alive, extra_headers
            )
            writer.write(response)
            await writer.drain()
            if trace is not None and access_log is not None:
                trace.lap("render")
                access_log.record(
                    trace,
                    method=request.method,
                    path=request.path,
                    status=status,
                    bytes_in=len(request.body),
                    bytes_out=len(response),
                )
            if not request.keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def serve_app(
    handler: Handler,
    host: str = "127.0.0.1",
    port: int = 0,
    access_log: "AccessLog | None" = None,
) -> asyncio.AbstractServer:
    """Bind and start serving; returns the asyncio server (not awaited).

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.sockets[0].getsockname()[1]``.  ``access_log`` turns on
    per-request tracing (request ids, phase laps, JSONL records).
    """
    return await asyncio.start_server(
        lambda r, w: _connection_loop(handler, r, w, access_log),
        host=host,
        port=port,
        limit=MAX_HEAD_BYTES,
    )
