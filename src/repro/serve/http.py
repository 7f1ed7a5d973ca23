"""Minimal asyncio HTTP/1.1 front end for :class:`DetectionService`.

The container ships no web framework, so this is a deliberately small
hand-rolled server on :func:`asyncio.start_server` — JSON bodies, raw
``float64`` frame payloads described by two headers.  That is all a
scraper, a load generator, or the bundled :class:`ServeClient` needs.

Connections run in one of two modes.  The default is
one-request-per-connection (every response carries ``Connection:
close``).  With ``keep_alive=True`` (``repro-das serve --keep-alive``)
each connection loops: requests are served until the client sends
``Connection: close``, the idle timeout expires between requests, or
the server starts draining — amortizing the TCP + handshake cost
across a session's frames the same way batched dispatch amortizes the
worker IPC cost.  ``Content-Length`` framing is used throughout (the
server never chunks), which is what makes response boundaries
unambiguous on a reused connection.

Endpoints
---------
``GET /healthz``
    Liveness: 200 while the process runs.
``GET /readyz``
    Readiness: 200 while sessions are accepted, 503 once draining.
``GET /metrics``
    The telemetry registry in Prometheus text exposition format.
``POST /v1/sessions``
    Open a session; JSON body may set ``policy`` / ``max_pending`` /
    ``max_fps``.
``POST /v1/sessions/<id>/frames``
    Submit one frame (raw bytes + ``X-Frame-Shape`` / ``X-Frame-Dtype``
    headers).  202 with the assigned ``seq``; **429** when admission
    control refused it (the frame still yields a ``DROPPED`` result).
``GET /v1/sessions/<id>/results?max=N&timeout=S``
    Long-poll for in-order results.
``DELETE /v1/sessions/<id>``
    Drain and close the session; returns its final report.

With ``auth_token`` set, every ``/v1/*`` request must carry
``Authorization: Bearer <token>`` or is refused with 401; the probe and
metrics endpoints stay open (liveness checks and scrapers do not carry
credentials).
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse

import numpy as np

from repro.errors import ParameterError, ServeError
from repro.serve.prometheus import render_prometheus
from repro.serve.service import DetectionService

#: Seconds a request may spend arriving before the socket is dropped;
#: doubles as the keep-alive idle timeout between requests.
_READ_TIMEOUT_S = 30.0

#: Upper bound on a long-poll timeout requested by a client.
_MAX_POLL_S = 30.0

#: Largest accepted request body (a 4K mono float64 frame is ~66 MB).
_MAX_BODY = 128 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    """A request that maps cleanly onto an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeApp:
    """Routes HTTP requests onto one :class:`DetectionService`.

    Everything runs on the service's event loop, which is what keeps
    the telemetry registry single-threaded.

    Parameters
    ----------
    service:
        The :class:`DetectionService` behind every route.
    keep_alive:
        Serve multiple requests per connection (HTTP/1.1 persistent
        connections).  Off by default — the one-request-per-connection
        mode every pre-existing client already speaks.
    auth_token:
        Optional bearer token required on ``/v1/*`` routes.
    """

    def __init__(self, service: DetectionService, *,
                 keep_alive: bool = False,
                 auth_token: str | None = None) -> None:
        self.service = service
        self.keep_alive = keep_alive
        self.auth_token = auth_token
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        # Writers of connections idle between requests: stop() closes
        # them so a drain never waits out a keep-alive idle timeout.
        # A connection mid-request is *not* here; it closes itself
        # after its response (``_closing`` forces Connection: close).
        self._idle: set[asyncio.StreamWriter] = set()

    # -- server lifecycle ------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 8787) -> tuple[str, int]:
        """Bind and listen; returns the actual (host, port) bound."""
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting connections (the service drains separately).

        Keep-alive connections waiting for their next request are
        closed immediately; connections mid-request finish that
        request (their response carries ``Connection: close``).
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._idle):
            writer.close()

    # -- request plumbing ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        telemetry = self.service.telemetry
        if telemetry.enabled:
            telemetry.inc("serve.http.connections")
        try:
            while True:
                self._idle.add(writer)
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), _READ_TIMEOUT_S
                    )
                except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                        asyncio.LimitOverrunError, ConnectionError):
                    return
                finally:
                    self._idle.discard(writer)
                if not await self._handle_request(reader, writer, head):
                    return
        finally:
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter,
                              head: bytes) -> bool:
        """Serve one parsed-head request; returns True to keep the
        connection open for the next one."""
        try:
            method, target, headers = self._parse_head(head)
            length = int(headers.get("content-length", "0"))
            if length < 0 or length > _MAX_BODY:
                raise _HttpError(413, "request body too large")
            body = (await reader.readexactly(length)
                    if length else b"")
        except _HttpError as exc:
            await self._respond_json(
                writer, exc.status, {"error": str(exc)}
            )
            return False
        except (ValueError, asyncio.IncompleteReadError):
            await self._respond_json(
                writer, 400, {"error": "malformed request"}
            )
            return False
        telemetry = self.service.telemetry
        if telemetry.enabled:
            telemetry.inc("serve.http.requests")
        try:
            status, content_type, payload = await self._route(
                method, target, headers, body
            )
        except _HttpError as exc:
            status = exc.status
            content_type = "application/json"
            payload = json.dumps({"error": str(exc)}).encode()
        except (ServeError, ParameterError) as exc:
            status = 409
            content_type = "application/json"
            payload = json.dumps({"error": str(exc)}).encode()
        except Exception as exc:  # keep the server alive
            status = 500
            content_type = "application/json"
            payload = json.dumps(
                {"error": f"{type(exc).__name__}: {exc}"}
            ).encode()
        keep = (self.keep_alive and not self._closing
                and headers.get("connection", "").lower() != "close")
        await self._write_response(
            writer, status, content_type, payload, keep_alive=keep
        )
        return keep

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header: {line!r}")
            headers[key.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, content_type: str,
                              payload: bytes, *,
                              keep_alive: bool = False) -> None:
        telemetry = self.service.telemetry
        if telemetry.enabled:
            telemetry.inc(f"serve.http.responses[{status}]")
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _respond_json(self, writer: asyncio.StreamWriter,
                            status: int, doc: dict) -> None:
        await self._write_response(
            writer, status, "application/json",
            json.dumps(doc).encode(),
        )

    # -- routing ---------------------------------------------------------

    def _check_auth(self, headers: dict[str, str]) -> None:
        if self.auth_token is None:
            return
        supplied = headers.get("authorization", "")
        if supplied != f"Bearer {self.auth_token}":
            raise _HttpError(401, "missing or invalid bearer token")

    async def _route(self, method: str, target: str,
                     headers: dict[str, str],
                     body: bytes) -> tuple[int, str, bytes]:
        path, _, query = target.partition("?")
        params = urllib.parse.parse_qs(query)
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            return 200, "text/plain; charset=utf-8", b"ok\n"
        if path == "/readyz" and method == "GET":
            if self.service.ready:
                return 200, "text/plain; charset=utf-8", b"ready\n"
            return 503, "text/plain; charset=utf-8", b"draining\n"
        if path == "/metrics" and method == "GET":
            text = render_prometheus(self.service.snapshot())
            return (200, "text/plain; version=0.0.4; charset=utf-8",
                    text.encode())
        if segments[:2] == ["v1", "sessions"]:
            self._check_auth(headers)
            if len(segments) == 2 and method == "POST":
                return await self._open_session(body)
            if len(segments) >= 3:
                session = self.service.get_session(segments[2])
                if session is None:
                    raise _HttpError(
                        404, f"no such session: {segments[2]}"
                    )
                if len(segments) == 3 and method == "DELETE":
                    report = await session.close(drain=True)
                    return self._json(200, report.to_dict())
                if segments[3:] == ["frames"] and method == "POST":
                    return await self._submit_frame(
                        session, headers, body
                    )
                if segments[3:] == ["results"] and method == "GET":
                    return await self._poll_results(session, params)
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _json(status: int, doc: dict) -> tuple[int, str, bytes]:
        return status, "application/json", json.dumps(doc).encode()

    async def _open_session(self, body: bytes) -> tuple[int, str, bytes]:
        options = {}
        if body:
            try:
                options = json.loads(body)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"bad JSON body: {exc}") from exc
            if not isinstance(options, dict):
                raise _HttpError(400, "session options must be an object")
        policy = options.get("policy")
        max_pending = options.get("max_pending")
        if max_pending is not None and (
                not isinstance(max_pending, int) or max_pending < 1):
            raise _HttpError(400, "max_pending must be a positive int")
        max_fps = options.get("max_fps")
        if max_fps is not None and (
                not isinstance(max_fps, (int, float))
                or isinstance(max_fps, bool) or max_fps <= 0):
            raise _HttpError(400, "max_fps must be a positive number")
        try:
            session = self.service.open_session(
                policy=policy, max_pending=max_pending,
                max_fps=float(max_fps) if max_fps is not None else None,
            )
        except ValueError as exc:
            raise _HttpError(400, f"bad policy: {exc}") from exc
        except ServeError as exc:
            raise _HttpError(503, str(exc)) from exc
        return self._json(201, {
            "session": session.id,
            "policy": session.policy.value,
            "max_pending": session.max_pending,
            "max_fps": session.max_fps,
        })

    async def _submit_frame(self, session, headers: dict[str, str],
                            body: bytes) -> tuple[int, str, bytes]:
        frame = self._decode_frame(headers, body)
        try:
            ticket = await session.submit(frame)
        except ServeError as exc:
            raise _HttpError(409, str(exc)) from exc
        if not ticket.accepted:
            return self._json(429, {
                "seq": ticket.seq, "accepted": False,
                "reason": ticket.reason,
                "error": (
                    f"session {session.id} refused the frame "
                    f"({ticket.reason}; policy {session.policy.value}, "
                    f"max_pending {session.max_pending}, "
                    f"max_fps {session.max_fps})"
                ),
            })
        return self._json(202, ticket.to_dict())

    @staticmethod
    def _decode_frame(headers: dict[str, str],
                      body: bytes) -> np.ndarray:
        shape_header = headers.get("x-frame-shape")
        if not shape_header:
            raise _HttpError(400, "missing X-Frame-Shape header")
        try:
            shape = tuple(
                int(part) for part in shape_header.split(",") if part
            )
        except ValueError as exc:
            raise _HttpError(
                400, f"bad X-Frame-Shape: {shape_header!r}"
            ) from exc
        dtype_name = headers.get("x-frame-dtype", "float64")
        try:
            dtype = np.dtype(dtype_name)
        except TypeError as exc:
            raise _HttpError(
                400, f"bad X-Frame-Dtype: {dtype_name!r}"
            ) from exc
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if expected != len(body):
            raise _HttpError(
                400,
                f"body is {len(body)} bytes but shape {shape} with "
                f"dtype {dtype_name} needs {expected}",
            )
        # A read-only view of the body: detect() never writes its
        # input, and the process backend copies the frame into its
        # ring slot anyway, so a copy here would be a second 2.4 MB
        # memcpy per VGA frame.
        return np.frombuffer(body, dtype=dtype).reshape(shape)

    async def _poll_results(self, session,
                            params: dict) -> tuple[int, str, bytes]:
        def _int_param(name: str, default: int | None) -> int | None:
            values = params.get(name)
            if not values:
                return default
            try:
                return int(values[0])
            except ValueError as exc:
                raise _HttpError(
                    400, f"bad {name}: {values[0]!r}"
                ) from exc
        max_items = _int_param("max", None)
        timeout_values = params.get("timeout")
        timeout = 0.0
        if timeout_values:
            try:
                timeout = float(timeout_values[0])
            except ValueError as exc:
                raise _HttpError(
                    400, f"bad timeout: {timeout_values[0]!r}"
                ) from exc
        timeout = max(0.0, min(timeout, _MAX_POLL_S))
        results = await session.results(
            max_items=max_items, timeout=timeout
        )
        return self._json(200, {
            "results": [r.to_dict() for r in results],
            "done": session.done,
        })


async def start_http_server(
    service: DetectionService, host: str = "127.0.0.1", port: int = 0,
    *, keep_alive: bool = False, auth_token: str | None = None,
) -> tuple[ServeApp, str, int]:
    """Convenience: wrap ``service`` in an app and bind it."""
    app = ServeApp(service, keep_alive=keep_alive, auth_token=auth_token)
    bound_host, bound_port = await app.start(host, port)
    return app, bound_host, bound_port
