"""Stdlib-only asyncio HTTP/1.1 front of :class:`~repro.service.GatewayCore`.

No web framework, no new dependencies: a hand-rolled HTTP/1.1 server —
one :class:`asyncio.Protocol` per connection on ``loop.create_server`` —
with keep-alive, JSON bodies, and chunked transfer for streamed batch
responses.  The protocol surface is small on purpose — four routes,
documented in ``docs/architecture.md``:

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

One callback from request bytes to reply bytes: ``data_received`` frames
every complete request out of the connection's buffer, and a
single-query ``POST /query`` goes straight to the synchronous
:meth:`GatewayCore.offer <repro.service.GatewayCore.offer>` with the
connection's reply callable, which the gateway's per-tick flush calls to
write the reply to the transport — no stream reader, coroutine, task or
future per request.  On that path each step is done once: a head is
framed by one scan for a refused framing field and one for the
``Content-Length``; the body is scanned as one UTF-8 JSON value
(``json.loads`` itself reads any other body); the key list's types are
checked here and its sign by ``offer``; and the reply, head and body,
is formatted as one str and encoded once.  The routes that must await
(a batch, a streamed batch, the ``/refresh`` trigger) run as one task
whose writes go to the same transport.  A connection parses nothing
further until its current reply is written, so pipelined requests are
answered in order, and it stops reading while a reply is pending and its
buffer holds more than one largest request.

Backpressure maps straight off the gateway outcome: quota sheds are 429,
admission-policy sheds / deadline misses / drain are 503, each carrying
its shed reason so clients can distinguish "you specifically are over
quota" from "the service is hot".  Malformed requests — a body
``json.loads`` cannot read, whatever its error, included — are 400 and
are *not* offered to the gateway: they never touch the accounting.  A
request the server cannot frame — a malformed request line or
``Content-Length``, two different ``Content-Length`` values, one with
whitespace before its colon or obs-folded (RFC 9112 §5.1, §5.2, §6.3:
the forms a proxy may read differently), an oversized head or body, or
any ``Transfer-Encoding`` (501: a body must come with a
``Content-Length``) — is answered with ``Connection: close``, and the
connection closes.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
from json.encoder import encode_basestring_ascii
from typing import Awaitable, Dict, List, Optional, Set, Tuple

from ..errors import ConfigError
from .config import ServiceConfig
from .gateway import GatewayCore, ServeOutcome

#: Hard cap on accepted request bodies (a gateway guarding a simulated
#: device has no business buffering megabytes of keys).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Hard cap on request head (request line + headers) bytes.
MAX_HEAD_BYTES = 64 * 1024
#: A connection with a reply pending stops reading once it has buffered
#: more than one largest request.
_BUFFER_LIMIT = MAX_HEAD_BYTES + MAX_BODY_BYTES

#: A well-formed ``Content-Length`` header line inside a request head.
#: The value is captured without the ASCII whitespace around it.
_CONTENT_LENGTH = re.compile(
    rb"\r\ncontent-length:[ \t\v\f]*([^\r\n]*?)[ \t\v\f]*(?=\r\n)",
    re.IGNORECASE,
)
#: A header line the server refuses to frame a request by: any
#: ``Transfer-Encoding`` (group 1), and the ``Content-Length`` forms RFC
#: 9112 §5.1/§5.2 make a server reject because proxies may read them
#: differently — whitespace before the colon, and an obs-folded line
#: (one starting with whitespace, or continued by one).
_UNFRAMEABLE = re.compile(
    rb"\r\n(?:[ \t]*(transfer-encoding)[ \t]*:"
    rb"|[ \t]+content-length[ \t]*:"
    rb"|content-length[ \t]+:"
    rb"|content-length:[^\r\n]*\r\n[ \t])",
    re.IGNORECASE,
)

#: ``json.loads``' own scanner: the JSON value at an index of a str.
_SCAN_JSON = json.JSONDecoder().scan_once
#: The key types a valid key list holds (``json`` yields exact ints).
_INT_KEYS = {int}

#: A served single query's reply: the head, then the body as
#: ``json.dumps(outcome.payload(), sort_keys=True) + "\n"`` writes it.
#: The body is ASCII (the tenant is escaped the way ``json`` escapes
#: it), so its length in characters is its ``Content-Length``.
_SERVED_REPLY = (
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    "Content-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
)
_SERVED_BODY = (
    '{"batch_pages_read": %d, "coalesced": %d, "degrade_level": %d, '
    '"keys": [%s], "latency_us": %r, "missing": %d, "served": %d, '
    '"status": "ok", "tenant": %s}\n'
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    501: "Not Implemented",
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
    close: bool = False,
) -> bytes:
    framing = (
        "Transfer-Encoding: chunked"
        if chunked
        else f"Content-Length: {len(body)}"
    )
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{framing}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    ).encode() + body


def _error_response(exc: HttpError, close: bool = False) -> bytes:
    return _response(
        exc.status,
        _json_bytes({"error": exc.detail, "status": exc.status}),
        close=close,
    )


def _json_body(body: bytes) -> object:
    """``json.loads(body or b"{}")``, any error a 400.

    A UTF-8 body that is one JSON value and nothing else, what clients
    send, is scanned directly; ``json.loads`` reads every other body, so
    the same bodies are accepted with the same errors.  A body the scan
    takes whole reads the same under ``json.loads``' encoding detection:
    that picks another codec only for a byte-order mark or a NUL byte,
    and no JSON text holds either.
    """
    try:
        text = body.decode("utf-8", "surrogatepass")
        value, end = _SCAN_JSON(text, 0)
        if end == len(text):
            return value
    except (ValueError, StopIteration, RecursionError):
        pass  # json.loads says what is wrong with it
    try:
        return json.loads(body or b"{}")
    except (ValueError, RecursionError) as exc:
        # Not only JSONDecodeError: an undecodable body raises
        # UnicodeDecodeError, a deeply nested one RecursionError.
        raise HttpError(400, f"invalid JSON body: {exc}") from None


def _key_list(raw: object) -> list:
    """``raw`` if it is a non-empty list of ``int`` keys, else a 400
    (their sign is :meth:`GatewayCore.offer`'s check)."""
    if not isinstance(raw, list) or not raw:
        raise HttpError(400, "each query needs a non-empty key list")
    if set(map(type, raw)) != _INT_KEYS:
        raise HttpError(400, "keys must be non-negative integers")
    return raw


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode() + data + b"\r\n"


_LAST_CHUNK = b"0\r\n\r\n"


class _Connection(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection: frame, dispatch, write.

    ``busy`` runs from the dispatch of a request until the last bytes of
    its reply are written (:meth:`send`); meanwhile arriving bytes are
    only buffered.
    """

    transport: asyncio.Transport  # set by connection_made

    def __init__(self, server: "HttpGateway") -> None:
        self.server = server
        self.buffer = bytearray()
        #: Where the search for the head's blank line resumes.
        self._scan_from = 0
        #: The buffered head, once framed: see :meth:`_frame`.
        self._framed: Optional[Tuple[int, int, str, str, str]] = None
        self.busy = False
        self._eof = False
        self._reading_paused = False
        self._writing_paused = False
        self._drain_waiter: "Optional[asyncio.Future[None]]" = None

    # -- asyncio.Protocol ------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self._wake_drain()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if not self.busy:
            self._parse()
        elif len(self.buffer) > _BUFFER_LIMIT and not self._reading_paused:
            self._reading_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        # Answer what the client asked before its half-close, then close.
        self._eof = True
        if not self.busy:
            self.transport.close()
        return True

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._wake_drain()

    # -- writing ---------------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Write part of the current reply (dropped once closing)."""
        if not self.transport.is_closing():
            self.transport.write(data)

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high mark."""
        if self._writing_paused and not self.transport.is_closing():
            self._drain_waiter = asyncio.get_running_loop().create_future()
            await self._drain_waiter

    def _wake_drain(self) -> None:
        waiter, self._drain_waiter = self._drain_waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def send(self, data: bytes) -> None:
        """Write the last bytes of the current reply; the connection is
        free for its next request."""
        transport = self.transport
        if not transport.is_closing():
            transport.write(data)
        self.busy = False
        if (self.buffer or self._eof) and not transport.is_closing():
            # Taken up on the next turn, never from inside the flush that
            # is replying (a pipelined request must not join its batch).
            asyncio.get_running_loop().call_soon(self._parse)

    def reply(self, outcome: ServeOutcome) -> None:
        """The reply callable handed to :meth:`GatewayCore.offer`: the
        whole reply formatted as one str and encoded once."""
        if outcome.status != "ok":
            body = _json_bytes(outcome.payload())
            self.send(_response(outcome.http_status(), body))
            return
        keys = outcome.keys
        body = _SERVED_BODY % (
            outcome.batch_pages_read,
            outcome.coalesced,
            outcome.degrade_level,
            # The keys' JSON, without a str per key.
            ("%d, " * len(keys))[:-2] % keys,
            round(outcome.finish_us - outcome.arrival_us, 3),
            outcome.missing,
            outcome.served,
            encode_basestring_ascii(outcome.tenant),
        )
        self.send((_SERVED_REPLY % (len(body), body)).encode())

    # -- framing ---------------------------------------------------------------

    def _parse(self) -> None:
        """Frame and dispatch the buffer's complete requests, in order,
        until one leaves its reply pending.

        Resumes where the previous call stopped — the blank-line search
        from where the last one ended, a framed head kept until its body
        is complete — so a request costs work linear in its bytes however
        finely it is segmented.  A head is framed once: the request line
        split in three, a refused framing field looked for, and the
        ``Content-Length`` read — the only header read.  A request that
        cannot be framed is refused (:meth:`_refuse`).
        """
        if self.busy:  # ``send`` scheduled this turn; a request is in flight
            return
        buffer = self.buffer
        while True:
            if self._framed is not None:
                head_end, stop, method, path, query = self._framed
                self._framed = None
            else:
                head_end = buffer.find(b"\r\n\r\n", self._scan_from) + 4
                if head_end == 3:  # no blank line yet
                    if len(buffer) > MAX_HEAD_BYTES:
                        self._refuse(HttpError(413, "request head too large"))
                    else:
                        self._scan_from = max(0, len(buffer) - 3)
                    break
                try:
                    stop, method, path, query = self._frame(head_end)
                except HttpError as exc:
                    self._refuse(exc)
                    break
            if len(buffer) < stop:
                self._framed = head_end, stop, method, path, query
                break
            body = buffer[head_end:stop]
            del buffer[:stop]
            self._scan_from = 0
            self.busy = True
            pending = self.server._dispatch(self, method, path, query, body)
            if pending is not None:
                self._run(pending)
            if self.busy:
                return
        if self.busy:  # refused
            return
        # Needs more bytes (or none are coming).
        if self._reading_paused:
            self._reading_paused = False
            self.transport.resume_reading()
        if self._eof:
            self.transport.close()

    def _frame(self, head_end: int) -> Tuple[int, str, str, str]:
        """Check the head ending at ``head_end`` -> (request end, method,
        path, query string)."""
        if head_end > MAX_HEAD_BYTES:
            raise HttpError(413, "request head too large")
        head = self.buffer[:head_end]
        request_line = head[: head.index(b"\r\n")].decode("latin-1")
        try:
            method, target, _version = request_line.split(" ")
        except ValueError:
            raise HttpError(
                400, f"malformed request line {request_line!r}"
            ) from None
        refused = _UNFRAMEABLE.search(head)
        if refused is not None:
            if refused.group(1):
                raise HttpError(
                    501,
                    "Transfer-Encoding is not supported; send a Content-Length",
                )
            raise HttpError(
                400, "Content-Length must not be folded or precede a space"
            )
        # Content-Length is the only header read; repeated, it must repeat
        # one value (RFC 9112 §6.3).
        lengths = _CONTENT_LENGTH.findall(head)
        length = 0
        if lengths:
            raw = lengths[0]
            if lengths[1:] and set(lengths) != {raw}:
                raise HttpError(400, "conflicting Content-Length values")
            try:
                length = int(raw or 0)
                if length < 0:
                    raise ValueError(length)
            except ValueError:
                raise HttpError(
                    400, f"malformed Content-Length {raw.decode('latin-1')!r}"
                ) from None
            if length > MAX_BODY_BYTES:
                raise HttpError(413, f"body of {length} bytes exceeds cap")
        if "?" in target:
            path, _, query = target.partition("?")
        else:
            path, query = target, ""
        return head_end + length, method.upper(), path, query

    def _refuse(self, exc: HttpError) -> None:
        """Answer a request that cannot be framed, then close: nothing
        after it can be trusted to start the next request."""
        self.busy = True  # for good: nothing more is parsed
        self.buffer.clear()
        self.write(_error_response(exc, close=True))
        self.transport.close()

    def _run(self, pending: Awaitable[None]) -> None:
        task = asyncio.get_running_loop().create_task(self._finish(pending))
        tasks = self.server._tasks
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def _finish(self, pending: Awaitable[None]) -> None:
        try:
            await pending
        except HttpError as exc:
            self.send(_error_response(exc))
        finally:
            if self.busy:  # the route raised before its reply was done
                self.transport.close()


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
        self._connections: Set[_Connection] = set()
        self._tasks: Set["asyncio.Task[None]"] = set()
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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=self.host, port=self.port
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the gateway, then end
        the connections — returns once every request task has (bounded by
        ``drain_timeout_s``, like the batches)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self.gateway.stop()
        if self._connections or self._tasks:
            # One turn first: a task whose request the drain has just
            # resolved is already scheduled, and writes its reply in it.
            await asyncio.sleep(0)
            for connection in list(self._connections):
                connection.transport.close()
            if self._tasks:
                await asyncio.wait(
                    set(self._tasks),
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

    # -- routes ----------------------------------------------------------------

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

    def _dispatch(
        self,
        conn: _Connection,
        method: str,
        path: str,
        query: str,
        body: bytes,
    ) -> Optional[Awaitable[None]]:
        """Route one request.  The reply goes out through ``conn`` — now,
        or from the gateway's flush; a route that must await returns its
        coroutine for ``conn`` to run."""
        try:
            if path == "/query":
                if method != "POST":
                    raise HttpError(405, "/query is POST-only")
                return self._handle_query(body, conn)
            elif path == "/health":
                if method != "GET":
                    raise HttpError(405, "/health is GET-only")
                conn.send(_response(200, _json_bytes(self.gateway.health())))
            elif path == "/metrics":
                if method != "GET":
                    raise HttpError(405, "/metrics is GET-only")
                fmt = self._query_params(query).get("format", "json")
                if fmt == "prometheus":
                    from . import prometheus

                    conn.send(
                        _response(
                            200,
                            prometheus.render_prometheus(
                                self.gateway.metrics()
                            ).encode(),
                            content_type=prometheus.content_type(),
                        )
                    )
                elif fmt == "json":
                    conn.send(
                        _response(200, _json_bytes(self.gateway.metrics()))
                    )
                else:
                    raise HttpError(
                        400, f"unknown metrics format {fmt!r}"
                    )
            elif path == "/refresh":
                return self._handle_refresh(method, body, conn)
            elif path == "/drain":
                if method != "POST":
                    raise HttpError(405, "/drain is POST-only")
                self.request_drain()
                conn.send(_response(200, _json_bytes({"status": "draining"})))
            else:
                raise HttpError(404, f"no route {path!r}")
        except HttpError as exc:
            conn.send(_error_response(exc))
        return None

    # -- /refresh --------------------------------------------------------------

    def _handle_refresh(
        self, method: str, body: bytes, conn: _Connection
    ) -> Optional[Awaitable[None]]:
        daemon = self.gateway.refresh
        if daemon is None:
            raise HttpError(404, "no refresh daemon is mounted")
        if method == "GET":
            conn.send(_response(200, _json_bytes(daemon.status())))
            return None
        if method != "POST":
            raise HttpError(405, "/refresh is GET or POST")
        payload = _json_body(body)
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        if "pause" in payload:
            if payload["pause"]:
                daemon.pause()
            else:
                daemon.resume()
            conn.send(_response(200, _json_bytes({"state": daemon.state})))
            return None
        return self._refresh_step(daemon, conn)

    @staticmethod
    async def _refresh_step(daemon, conn: _Connection) -> None:
        # Trigger one iteration now; step() serializes internally and
        # never raises, but it can rebuild — keep it off the event loop.
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(None, daemon.step)
        conn.send(
            _response(
                200,
                _json_bytes({"step": outcome, "state": daemon.state}),
            )
        )

    # -- /query ----------------------------------------------------------------

    def _handle_query(
        self, body: bytes, conn: _Connection
    ) -> Optional[Awaitable[None]]:
        """A single query goes straight to :meth:`GatewayCore.offer`; a
        batch is submitted member by member once every member's keys are
        valid."""
        payload = _json_body(body)
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise HttpError(400, "tenant must be a non-empty string")
        if "keys" in payload:
            keys = _key_list(payload["keys"])
        elif "queries" in payload:
            raw_queries = payload["queries"]
            if not isinstance(raw_queries, list) or not raw_queries:
                raise HttpError(400, "'queries' must be a non-empty list")
            key_lists = []
            for raw in raw_queries:
                keys = _key_list(
                    raw.get("keys") if isinstance(raw, dict) else raw
                )
                if min(keys) < 0:  # before any member is offered
                    raise HttpError(400, "keys must be non-negative integers")
                key_lists.append(keys)
            if len(key_lists) > 1:
                submissions = [
                    asyncio.ensure_future(self.gateway.submit(keys, tenant))
                    for keys in key_lists
                ]
                if payload.get("stream", False):
                    return self._stream_batch(submissions, conn)
                return self._gather_batch(submissions, conn)
            # A one-member batch is served as a single query.
        else:
            raise HttpError(400, "body needs 'keys' or 'queries'")
        try:
            self.gateway.offer(keys, tenant, conn.reply)
        except ConfigError as exc:
            raise HttpError(400, str(exc))
        return None

    @staticmethod
    async def _gather_batch(
        submissions: List["asyncio.Future[ServeOutcome]"], conn: _Connection
    ) -> None:
        try:
            outcomes: List[ServeOutcome] = list(
                await asyncio.gather(*submissions)
            )
        except ConfigError as exc:
            raise HttpError(400, str(exc))
        status = 200 if any(o.ok for o in outcomes) else max(
            o.http_status() for o in outcomes
        )
        conn.send(
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
        conn: _Connection,
    ) -> None:
        """Chunked response: one JSON line per member, in completion order.

        The batch's members may finish at different times (different
        coalesced flushes, sheds resolve immediately); streaming hands
        each result to the client the moment it exists instead of
        buffering for the stragglers.  Member ``index`` identifies which
        request each line answers.
        """
        conn.write(_response(200, b"", chunked=True))
        await conn.drain()
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
                conn.write(_chunk(_json_bytes(line)))
            await conn.drain()
        conn.send(_LAST_CHUNK)

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
