"""Stdlib-only asyncio HTTP/1.1 front of :class:`~repro.service.GatewayCore`.

No web framework, no new dependencies: a hand-rolled HTTP/1.1 server on
``asyncio.start_server`` with keep-alive, JSON bodies, and chunked
transfer for streamed batch responses.  The protocol surface is small on
purpose — four routes, documented in ``docs/architecture.md``:

========  ==========  ====================================================
method    path        behaviour
========  ==========  ====================================================
POST      /query      serve one request (``{"keys": [...]}``) or a batch
                      (``{"queries": [{"keys": ...}, ...]}``); with
                      ``"stream": true`` a batch answers as chunked JSON
                      lines, one per member, as each completes
GET       /health     liveness + drain state + brownout level
GET       /metrics    full gateway counter dump (service / open_loop /
                      serving / tier / refresh / cluster sections); with
                      ``?format=prometheus`` the same counters render
                      in Prometheus text exposition format
GET       /refresh    mounted refresh daemon's state + counters (404
                      when no daemon is mounted)
POST      /refresh    trigger one watch→repair iteration now (off the
                      event loop); body ``{"pause": true|false}``
                      instead suspends/resumes repairs
POST      /drain      begin graceful drain (also triggered by SIGTERM)
========  ==========  ====================================================

Backpressure maps straight off the gateway outcome: quota sheds are 429,
admission-policy sheds / deadline misses / drain are 503, each carrying
its shed reason so clients can distinguish "you specifically are over
quota" from "the service is hot".  Malformed requests are 400 and are
*not* offered to the gateway — they never touch the accounting.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .config import ServiceConfig
from .gateway import GatewayCore, ServeOutcome

#: Hard cap on accepted request bodies (a gateway guarding a simulated
#: device has no business buffering megabytes of keys).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Hard cap on request head (request line + headers) bytes.
MAX_HEAD_BYTES = 64 * 1024

#: A ``Content-Length`` header line inside a request head.
_CONTENT_LENGTH = re.compile(
    rb"\r\n[ \t]*content-length[ \t]*:([^\r\n]*)", re.IGNORECASE
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server answers with an error status."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _response(
    status: int,
    body: bytes,
    *,
    chunked: bool = False,
    content_type: str = "application/json",
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
    ]
    if chunked:
        head.append("Transfer-Encoding: chunked")
    else:
        head.append(f"Content-Length: {len(body)}")
    head.append("Connection: keep-alive")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _error_response(exc: HttpError) -> bytes:
    return _response(
        exc.status, _json_bytes({"error": exc.detail, "status": exc.status})
    )


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode() + data + b"\r\n"


_LAST_CHUNK = b"0\r\n\r\n"


class HttpGateway:
    """One listening server bound to one :class:`GatewayCore`."""

    def __init__(
        self,
        gateway: GatewayCore,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drain_requested = asyncio.Event()

    @property
    def bound_port(self) -> int:
        """The actual listening port (use with ``port=0`` ephemeral bind)."""
        if self._server is None or not self._server.sockets:
            return self.port
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start the gateway core and begin accepting connections."""
        await self.gateway.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the gateway, then end
        the connections — returns once every handler has (bounded by
        ``drain_timeout_s``, like the batches)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self.gateway.stop()
        if self._handlers:
            # One turn first: a handler whose request the drain has just
            # resolved is already scheduled, and writes its reply in it.
            await asyncio.sleep(0)
            for writer in self._handlers.values():
                writer.close()
            await asyncio.wait(
                set(self._handlers),
                timeout=self.gateway.config.drain_timeout_s,
            )
        if server is not None:
            # Last: from Python 3.12 on this waits for every connection.
            await server.wait_closed()

    async def serve_until_drained(self) -> None:
        """Run until :meth:`request_drain` (or SIGTERM/SIGINT) fires.

        Installs signal handlers where the event loop supports them, so
        a containerised gateway finishes its in-flight batches before
        exiting instead of dropping them on the floor.
        """
        loop = asyncio.get_running_loop()
        installed: List[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await self._drain_requested.wait()
            await self.stop()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    def request_drain(self) -> None:
        """Ask the serve loop to begin graceful shutdown (idempotent)."""
        self._drain_requested.set()

    async def __aenter__(self) -> "HttpGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- protocol --------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        task.add_done_callback(self._handlers.pop)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except HttpError as exc:
                    writer.write(_error_response(exc))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, query, body = request
                await self._dispatch(method, path, query, body, writer)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, bytes]]:
        """Parse one request; None on a cleanly closed connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise HttpError(413, "request head too large")
        if len(head) > MAX_HEAD_BYTES:
            raise HttpError(413, "request head too large")
        request_line = head[: head.index(b"\r\n")].decode("latin-1")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        # Content-Length is the only header read; the last one wins.
        lengths = _CONTENT_LENGTH.findall(head)
        raw = lengths[-1].strip() if lengths else b""
        try:
            length = int(raw or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            raise HttpError(
                400, f"malformed Content-Length {raw.decode('latin-1')!r}"
            )
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds cap")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), path, query, body

    @staticmethod
    def _query_params(query: str) -> Dict[str, str]:
        """Parse ``a=b&c=d`` (last value wins; flags map to '')."""
        params: Dict[str, str] = {}
        for pair in query.split("&"):
            if not pair:
                continue
            name, _, value = pair.partition("=")
            params[name] = value
        return params

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            if path == "/query":
                if method != "POST":
                    raise HttpError(405, "/query is POST-only")
                await self._handle_query(body, writer)
            elif path == "/health":
                if method != "GET":
                    raise HttpError(405, "/health is GET-only")
                writer.write(
                    _response(200, _json_bytes(self.gateway.health()))
                )
            elif path == "/metrics":
                if method != "GET":
                    raise HttpError(405, "/metrics is GET-only")
                fmt = self._query_params(query).get("format", "json")
                if fmt == "prometheus":
                    from . import prometheus

                    writer.write(
                        _response(
                            200,
                            prometheus.render_prometheus(
                                self.gateway.metrics()
                            ).encode(),
                            content_type=prometheus.content_type(),
                        )
                    )
                elif fmt == "json":
                    writer.write(
                        _response(200, _json_bytes(self.gateway.metrics()))
                    )
                else:
                    raise HttpError(
                        400, f"unknown metrics format {fmt!r}"
                    )
            elif path == "/refresh":
                await self._handle_refresh(method, body, writer)
            elif path == "/drain":
                if method != "POST":
                    raise HttpError(405, "/drain is POST-only")
                self.request_drain()
                writer.write(
                    _response(200, _json_bytes({"status": "draining"}))
                )
            else:
                raise HttpError(404, f"no route {path!r}")
        except HttpError as exc:
            writer.write(_error_response(exc))

    # -- /refresh --------------------------------------------------------------

    async def _handle_refresh(
        self, method: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        daemon = self.gateway.refresh
        if daemon is None:
            raise HttpError(404, "no refresh daemon is mounted")
        if method == "GET":
            writer.write(_response(200, _json_bytes(daemon.status())))
            return
        if method != "POST":
            raise HttpError(405, "/refresh is GET or POST")
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        if "pause" in payload:
            if payload["pause"]:
                daemon.pause()
            else:
                daemon.resume()
            writer.write(
                _response(200, _json_bytes({"state": daemon.state}))
            )
            return
        # Trigger one iteration now; step() serializes internally and
        # never raises, but it can rebuild — keep it off the event loop.
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(None, daemon.step)
        writer.write(
            _response(
                200,
                _json_bytes({"step": outcome, "state": daemon.state}),
            )
        )

    # -- /query ----------------------------------------------------------------

    @staticmethod
    def _parse_query_body(body: bytes) -> Tuple[List[List[int]], str, bool]:
        """Extract (key lists, tenant, stream?) from a /query body."""
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise HttpError(400, "tenant must be a non-empty string")
        stream = bool(payload.get("stream", False))
        if "keys" in payload:
            raw_queries = [{"keys": payload["keys"]}]
        elif "queries" in payload:
            raw_queries = payload["queries"]
        else:
            raise HttpError(400, "body needs 'keys' or 'queries'")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise HttpError(400, "'queries' must be a non-empty list")
        key_lists: List[List[int]] = []
        for raw in raw_queries:
            keys = raw.get("keys") if isinstance(raw, dict) else raw
            if not isinstance(keys, list) or not keys:
                raise HttpError(400, "each query needs a non-empty key list")
            # json yields exact ints, never subclasses other than bool.
            if set(map(type, keys)) != {int} or min(keys) < 0:
                raise HttpError(400, "keys must be non-negative integers")
            key_lists.append(keys)
        return key_lists, tenant, stream

    async def _handle_query(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        key_lists, tenant, stream = self._parse_query_body(body)
        if len(key_lists) == 1:
            try:
                outcome = await self.gateway.submit(key_lists[0], tenant)
            except ConfigError as exc:
                raise HttpError(400, str(exc))
            writer.write(
                _response(outcome.http_status(), _json_bytes(outcome.payload()))
            )
            return
        submissions = [
            asyncio.ensure_future(self.gateway.submit(keys, tenant))
            for keys in key_lists
        ]
        if stream:
            await self._stream_batch(submissions, writer)
            return
        try:
            outcomes: List[ServeOutcome] = list(
                await asyncio.gather(*submissions)
            )
        except ConfigError as exc:
            raise HttpError(400, str(exc))
        status = 200 if any(o.ok for o in outcomes) else max(
            o.http_status() for o in outcomes
        )
        writer.write(
            _response(
                status,
                _json_bytes(
                    {
                        "results": [o.payload() for o in outcomes],
                        "served": sum(1 for o in outcomes if o.ok),
                        "shed": sum(1 for o in outcomes if not o.ok),
                    }
                ),
            )
        )

    async def _stream_batch(
        self,
        submissions: List["asyncio.Future[ServeOutcome]"],
        writer: asyncio.StreamWriter,
    ) -> None:
        """Chunked response: one JSON line per member, in completion order.

        The batch's members may finish at different times (different
        coalesced flushes, sheds resolve immediately); streaming hands
        each result to the client the moment it exists instead of
        buffering for the stragglers.  Member ``index`` identifies which
        request each line answers.
        """
        writer.write(_response(200, b"", chunked=True))
        await writer.drain()
        indexed = {
            asyncio.ensure_future(self._tag(i, fut)): i
            for i, fut in enumerate(submissions)
        }
        pending = set(indexed)
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                index, outcome = task.result()
                line = dict(outcome.payload())
                line["index"] = index
                line["http_status"] = outcome.http_status()
                writer.write(_chunk(_json_bytes(line)))
            await writer.drain()
        writer.write(_LAST_CHUNK)

    @staticmethod
    async def _tag(
        index: int, fut: "asyncio.Future[ServeOutcome]"
    ) -> Tuple[int, ServeOutcome]:
        return index, await fut


async def run_gateway(
    engine,
    config: "ServiceConfig | None" = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready_callback=None,
    refresh=None,
) -> None:
    """Serve ``engine`` over HTTP until drained (the CLI entry point).

    ``ready_callback(http_gateway)`` fires once the socket is bound —
    tests and the CLI use it to print the live address (with ``port=0``
    the kernel picks it).  ``refresh`` mounts a
    :class:`~repro.refresh.RefreshDaemon` on the gateway.
    """
    core = GatewayCore(engine, config, refresh=refresh)
    server = HttpGateway(core, host=host, port=port)
    await server.start()
    if ready_callback is not None:
        ready_callback(server)
    await server.serve_until_drained()
