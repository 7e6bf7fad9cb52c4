"""Call and bytecode budgets of the gateway's request path (ROADMAP 2).

Wall-clock claims on a shared host need ten alternating benchmark pairs;
the interpreter's call and bytecode counts need none.  Two hundred fixed
requests go through the gateway the way ``gateway-single`` delivers them
— two per loop tick, so every flush merges a pair — against an engine
stub, so the count is the gateway's and asyncio's own and an engine
change cannot move it.  One call budget covers ``GatewayCore.submit``,
the other the whole HTTP front end: two keep-alive connections, client
included.  The bytecode budget covers the server alone, from
``_Connection.data_received`` to ``transport.write``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import pytest

from repro import EngineConfig, PageLayout, Query, ServingEngine
from repro.service import GatewayCore, HttpGateway, ServiceConfig
from repro.service.http import _Connection

REQUESTS = 200

#: Python + C calls per request: 123.0 measured on CPython 3.11 (it
#: repeats to the digit), plus 15 %.  A ceiling, not an equality —
#: asyncio's internals (``gather`` included) differ across the CI matrix.
#: Lower it when the path gets shorter: with the pump task and the serve
#: thread the same loop made 264.5, not counting the thread's own; with a
#: queue entry, a pending record and an outcome per request, 146.5; with
#: a per-batch (tenant, size) log, 123.5.
#: ``submit`` as a future over ``offer`` costs three calls more.
CALLS_PER_REQUEST_CEILING = 142

#: Python + C calls per single-query HTTP request, server and client:
#: 145.8 measured on CPython 3.11, plus 15 %.  The stream-reader front
#: end (``asyncio.start_server``, a coroutine and a future per request,
#: the reply encoded from a dict) made 270.8 on the same loop; framing by
#: two regex scans, ``json.loads`` and three records per request, 200.3.
HTTP_CALLS_PER_REQUEST_CEILING = 168

#: Bytecodes the server executes per single-query HTTP request on
#: CPython 3.11: 949.5 measured (it repeats to the digit; 955.5 with
#: the per-batch log).  The budget is
#: 35 % under the 1 497.0 of the front end that framed by two regex scans,
#: parsed through ``json.loads``, checked the keys three times, held each
#: request in three records and encoded its reply twice.
SERVER_BYTECODES_PER_REQUEST_CEILING = 973
#: Opcode counts differ between interpreter versions.
BYTECODE_PYTHON = (3, 11)

#: The two requests of every tick: one per connection, disjoint keys.
KEYS = [[0, 1, 4, 5] * 5, [2, 3, 6, 7] * 5]


class CannedEngine:
    """Answers every query with one pre-computed engine result."""

    def __init__(self) -> None:
        layout = PageLayout(
            num_keys=8,
            capacity=4,
            pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
        )
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        self.config = engine.config
        self.result = engine.serve_query(Query((0, 1, 4)), 0.0)
        self.calls = 0

    def serve_query(self, query, start_us=0.0, degrade=None):
        self.calls += 1
        return self.result


def test_submit_call_budget_and_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread,
        "start",
        lambda thread: (started.append(thread.name), start(thread))[1],
    )
    engine = CannedEngine()
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    async def scenario():
        nonlocal calls
        async with GatewayCore(engine, ServiceConfig()) as core:
            for _ in range(10):  # warm-up: lazy imports, first-use caches
                await asyncio.gather(*(core.submit(k) for k in KEYS))
            sys.setprofile(hook)
            try:
                for _ in range(REQUESTS // 2):
                    await asyncio.gather(*(core.submit(k) for k in KEYS))
            finally:
                sys.setprofile(None)
            debug = asyncio.get_running_loop().get_debug()
            return core.metrics()["service"], debug

    service, debug = asyncio.run(scenario())
    assert service["completed"] == service["offered"] == REQUESTS + 20
    assert service["coalescer"]["mean_batch_size"] == 2.0
    assert engine.calls == (REQUESTS + 20) // 2
    assert started == [], "the request path must not start a thread"
    if not debug:  # asyncio's debug mode (``-X dev``) traces every handle
        assert calls / REQUESTS <= CALLS_PER_REQUEST_CEILING, calls / REQUESTS


def _post(keys) -> bytes:
    body = json.dumps({"keys": keys}).encode()
    return (
        "POST /query HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _client(connection, request: bytes, count: int) -> None:
    reader, writer = connection
    for _ in range(count):
        writer.write(request)
        head = await reader.readuntil(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 "), head
        at = head.index(b"Content-Length: ") + 16
        await reader.readexactly(int(head[at : head.index(b"\r\n", at)]))


async def http_pairs(connections, count: int) -> None:
    """``count`` single-query POSTs in turn on each of two keep-alive
    connections, the way the ``gateway-single`` client sends them."""
    await asyncio.gather(
        *(
            _client(connection, _post(keys), count)
            for connection, keys in zip(connections, KEYS)
        )
    )


def test_http_call_budget(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread,
        "start",
        lambda thread: (started.append(thread.name), start(thread))[1],
    )
    engine = CannedEngine()
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    async def scenario():
        core = GatewayCore(engine, ServiceConfig())
        server = HttpGateway(core, port=0)
        await server.start()
        connections = [
            await asyncio.open_connection("127.0.0.1", server.bound_port)
            for _ in KEYS
        ]
        try:
            await http_pairs(connections, 10)  # warm-up
            sys.setprofile(hook)
            try:
                await http_pairs(connections, REQUESTS // 2)
            finally:
                sys.setprofile(None)
            debug = asyncio.get_running_loop().get_debug()
            return core.metrics()["service"], debug
        finally:
            for _, writer in connections:
                writer.close()
            await server.stop()

    service, debug = asyncio.run(scenario())
    assert service["completed"] == service["offered"] == REQUESTS + 20
    assert service["coalescer"]["mean_batch_size"] == 2.0
    assert engine.calls == (REQUESTS + 20) // 2
    assert started == [], "the request path must not start a thread"
    if not debug:  # asyncio's debug mode (``-X dev``) traces every handle
        assert calls / REQUESTS <= HTTP_CALLS_PER_REQUEST_CEILING, (
            calls / REQUESTS
        )


class _Transport:
    """A transport that keeps nothing: the count stops at ``write``."""

    def __init__(self) -> None:
        self.replies = 0

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.replies += 1


class _Tick:
    """Stands in for the loop's ``call_soon``: the flush one tick's
    requests schedule runs when the test says so."""

    def __init__(self) -> None:
        self.ready = []

    def call_soon(self, callback, *args) -> None:
        self.ready.append((callback, args))


@pytest.mark.skipif(
    sys.version_info[:2] != BYTECODE_PYTHON,
    reason="the bytecode budget is CPython 3.11's; opcode counts differ "
    "between versions",
)
def test_server_bytecode_budget():
    """Every bytecode the server runs for 200 single-query requests: each
    tick feeds one request to each of two connections, then runs the
    flush they scheduled.  This module's own code — the tick loop, the
    stub transport and loop, the canned engine — is not counted."""
    engine = CannedEngine()
    counted = 0

    def opcodes(frame, event, arg):
        nonlocal counted
        if event == "opcode":
            counted += 1
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code.co_filename == __file__:
            return None
        frame.f_trace_opcodes = True
        return opcodes

    async def scenario():
        async with GatewayCore(engine, ServiceConfig()) as core:
            tick = core._loop = _Tick()
            server = HttpGateway(core, port=0)
            connections = []
            for keys in KEYS:
                connection = _Connection(server)
                connection.connection_made(_Transport())
                connections.append((connection, _post(keys)))

            def serve_tick(trace) -> None:
                for connection, request in connections:
                    sys.settrace(trace)
                    connection.data_received(request)
                    sys.settrace(None)
                while tick.ready:
                    callback, args = tick.ready.pop()
                    sys.settrace(trace)
                    callback(*args)
                    sys.settrace(None)

            for _ in range(10):  # warm-up: lazy imports, first-use caches
                serve_tick(None)
            for _ in range(REQUESTS // 2):
                serve_tick(calls)
            replies = [c.transport.replies for c, _ in connections]
            return core.metrics()["service"], replies

    service, replies = asyncio.run(scenario())
    assert service["completed"] == service["offered"] == REQUESTS + 20
    assert service["coalescer"]["mean_batch_size"] == 2.0
    assert replies == [(REQUESTS + 20) // 2] * 2
    per_request = counted / REQUESTS
    assert per_request <= SERVER_BYTECODES_PER_REQUEST_CEILING, per_request
