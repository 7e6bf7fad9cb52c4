"""Tests for the HTTP transport: routes, status mapping, streaming, drain.

Each test runs a real gateway on an ephemeral port and talks raw HTTP/1.1
to it — the same wire a production client would see, including
keep-alive reuse, pipelining, chunked streaming and refused framing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro import EngineConfig, PageLayout, Query, ServingEngine
from repro.faults import FaultPlan
from repro.overload import AdmissionConfig
from repro.service import (
    CoalescerConfig,
    GatewayCore,
    HttpGateway,
    HttpLoadGenerator,
    ServiceConfig,
    TenantConfig,
)
from repro.service import http as http_module
from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    _Connection,
    _response,
)
from tests.test_service_hot_path import KEYS, CannedEngine, http_pairs

_KEYS_BODY = b'{"keys": [0, 1]}'

#: Requests the server cannot frame -> the status it answers them with.
UNFRAMEABLE = {
    "content-length": (
        b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        400,
    ),
    "request-line": (b"POST /query\r\nContent-Length: 0\r\n\r\n", 400),
    # One byte over the cap and still no blank line: all of it is read.
    "head-too-large": (
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES)[
            : MAX_HEAD_BYTES + 1
        ],
        413,
    ),
    "body-too-large": (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY_BYTES + 1),
        413,
    ),
    "transfer-encoding": (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n" % len(_KEYS_BODY)
        + _KEYS_BODY
        + b"\r\n0\r\n\r\n",
        501,
    ),
    # RFC 9112 §5.1, §5.2 and §6.3: the Content-Length forms a proxy in
    # front may read differently, so a server must refuse them.
    "conflicting-content-lengths": (
        b"POST /query HTTP/1.1\r\nContent-Length: 9999\r\n"
        b"content-length: %d\r\n\r\n" % len(_KEYS_BODY) + _KEYS_BODY,
        400,
    ),
    "space-before-colon": (
        b"POST /query HTTP/1.1\r\nContent-Length : %d\r\n\r\n"
        % len(_KEYS_BODY)
        + _KEYS_BODY,
        400,
    ),
    "folded-content-length-line": (
        b"POST /query HTTP/1.1\r\nX-Pad: a\r\n Content-Length: %d\r\n\r\n"
        % len(_KEYS_BODY)
        + _KEYS_BODY,
        400,
    ),
    "folded-content-length-value": (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n 0\r\n\r\n"
        % len(_KEYS_BODY)
        + _KEYS_BODY,
        400,
    ),
}


#: Request bodies -> the status the server answers each with.  Every
#: refused one is answered without being offered to the gateway.
BODIES = {
    "bool-keys": (b'{"keys": [true]}', 400),
    "float-keys": (b'{"keys": [1.0]}', 400),
    "string-keys": (b'{"keys": ["1"]}', 400),
    "nested-list-keys": (b'{"keys": [[1]]}', 400),
    "negative-key": (b'{"keys": [-1]}', 400),
    "negative-batch-member": (
        b'{"queries": [{"keys": [0]}, {"keys": [-1]}]}',
        400,
    ),
    "top-level-list": (b"[0, 1]", 400),
    "empty": (b"", 400),
    "trailing-data": (b'{"keys": [0]} x', 400),
    # Bodies only json.loads' encoding detection reads.
    "utf-16-with-bom": ('{"keys": [0, 1]}'.encode("utf-16"), 200),
    "utf-8-with-bom": ('{"keys": [0, 1]}'.encode("utf-8-sig"), 200),
    "surrounding-whitespace": (b' {"keys": [0, 1]}\n', 200),
    # The last of a repeated name wins, as in json.loads.
    "repeated-name": (b'{"keys": [0], "keys": [1]}', 200),
    # json.loads refuses these with UnicodeDecodeError and RecursionError,
    # not JSONDecodeError.
    "undecodable-byte": (b'{"keys": [1]}\xff', 400),
    "deeply-nested": (b"[" * 100_000 + b"]" * 100_000, 400),
}


@pytest.fixture
def layout():
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
    )


def make_engine(layout):
    return ServingEngine(layout, EngineConfig(cache_ratio=0.0, threads=2))


def encode_request(method, path, body=None) -> bytes:
    payload = json.dumps(body).encode() if body is not None else b""
    return (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode() + payload


async def http_request(reader, writer, method, path, body=None):
    """One request on a kept-alive connection -> (status, payload dict)."""
    writer.write(encode_request(method, path, body))
    await writer.drain()
    return await read_reply(reader)


async def read_reply(reader):
    """One response off the connection -> (status, payload dict)."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split(b" ")[1])
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length) if length else b""
    return status, (json.loads(raw) if raw else {})


async def read_chunked(reader):
    """Consume a chunked body -> list of parsed JSON lines."""
    lines = []
    while True:
        size = int((await reader.readuntil(b"\r\n")).strip(), 16)
        if size == 0:
            await reader.readexactly(2)
            return lines
        data = await reader.readexactly(size)
        await reader.readexactly(2)
        lines.append(json.loads(data))


def serve(layout, config, scenario):
    """Run ``scenario(server, reader, writer)`` against a live gateway."""

    async def runner():
        core = GatewayCore(make_engine(layout), config)
        server = HttpGateway(core, port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.bound_port
        )
        try:
            return await scenario(server, reader, writer)
        finally:
            writer.close()
            await server.stop()

    return asyncio.run(runner())


class TestRoutes:
    def test_single_query_and_health_and_metrics(self, layout):
        async def scenario(server, r, w):
            status, payload = await http_request(
                r, w, "POST", "/query", {"keys": [0, 1, 2]}
            )
            health = await http_request(r, w, "GET", "/health")
            metrics = await http_request(r, w, "GET", "/metrics")
            return status, payload, health, metrics

        status, payload, (hs, health), (ms, metrics) = serve(
            layout, ServiceConfig(), scenario
        )
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["served"] == 3
        assert payload["missing"] == 0
        assert payload["tenant"] == "default"
        assert hs == 200 and health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert ms == 200
        svc = metrics["service"]
        assert svc["offered"] == 1
        assert svc["offered"] == svc["accounted"]
        assert metrics["open_loop"]["queries"] == 1
        assert metrics["serving"]["queries"] == 1

    def test_batch_query_aggregates(self, layout):
        async def scenario(server, r, w):
            return await http_request(
                r,
                w,
                "POST",
                "/query",
                {"queries": [{"keys": [0, 1]}, {"keys": [2]}, {"keys": [4]}]},
            )

        status, payload = serve(layout, ServiceConfig(), scenario)
        assert status == 200
        assert payload["served"] == 3
        assert payload["shed"] == 0
        assert len(payload["results"]) == 3
        assert all(p["status"] == "ok" for p in payload["results"])

    def test_streamed_batch_tags_members(self, layout):
        async def scenario(server, r, w):
            body = json.dumps(
                {
                    "queries": [{"keys": [k]} for k in (0, 1, 2, 3)],
                    "stream": True,
                }
            ).encode()
            w.write(
                (
                    "POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await w.drain()
            head = await r.readuntil(b"\r\n\r\n")
            assert b"Transfer-Encoding: chunked" in head
            return await read_chunked(r)

        lines = serve(layout, ServiceConfig(), scenario)
        assert len(lines) == 4
        assert sorted(line["index"] for line in lines) == [0, 1, 2, 3]
        assert all(line["http_status"] == 200 for line in lines)
        assert all(line["status"] == "ok" for line in lines)

    def test_error_statuses(self, layout):
        async def scenario(server, r, w):
            results = {}
            results["not_found"] = await http_request(r, w, "GET", "/nope")
            results["bad_method"] = await http_request(r, w, "GET", "/query")
            results["no_keys"] = await http_request(
                r, w, "POST", "/query", {"nope": 1}
            )
            results["empty_keys"] = await http_request(
                r, w, "POST", "/query", {"keys": []}
            )
            results["bad_key_type"] = await http_request(
                r, w, "POST", "/query", {"keys": ["a"]}
            )
            results["negative_key"] = await http_request(
                r, w, "POST", "/query", {"keys": [-1]}
            )
            results["bad_tenant"] = await http_request(
                r, w, "POST", "/query", {"keys": [0], "tenant": ""}
            )
            # Malformed requests never enter the accounting.
            _, metrics = await http_request(r, w, "GET", "/metrics")
            return results, metrics

        results, metrics = serve(layout, ServiceConfig(), scenario)
        assert results["not_found"][0] == 404
        assert results["bad_method"][0] == 405
        for name in (
            "no_keys",
            "empty_keys",
            "bad_key_type",
            "negative_key",
            "bad_tenant",
        ):
            assert results[name][0] == 400, name
            assert "error" in results[name][1]
        assert metrics["service"]["offered"] == 0

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, layout, value):
        async def scenario(server, r, w):
            w.write(
                f"POST /query HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode()
            )
            reply = await asyncio.wait_for(r.read(), timeout=5)  # to EOF
            r2, w2 = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            try:
                _, metrics = await http_request(r2, w2, "GET", "/metrics")
            finally:
                w2.close()
            return reply, metrics

        reply, metrics = serve(layout, ServiceConfig(), scenario)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert value in json.loads(body)["error"]
        assert metrics["service"]["offered"] == 0

    def test_repeated_identical_content_length_is_accepted(self, layout):
        async def scenario(server, r, w):
            w.write(
                b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n"
                b"content-length:%d \r\n\r\n"
                % (len(_KEYS_BODY), len(_KEYS_BODY))
                + _KEYS_BODY
            )
            return await asyncio.wait_for(read_reply(r), timeout=5)

        status, payload = serve(layout, ServiceConfig(), scenario)
        assert status == 200
        assert payload["keys"] == [0, 1]

    @pytest.mark.parametrize("case", sorted(UNFRAMEABLE))
    def test_unframeable_request_is_answered_once_then_closed(
        self, layout, case
    ):
        request, status = UNFRAMEABLE[case]

        async def scenario(server, r, w):
            w.write(request)
            return await asyncio.wait_for(r.read(), timeout=5)  # to EOF

        reply = serve(layout, ServiceConfig(), scenario)
        head, _, body = reply.partition(b"\r\n\r\n")
        # One reply: a chunked body is never parsed as a second request.
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["status"] == status

    def test_quota_maps_to_429(self, layout):
        config = ServiceConfig(
            tenants=(TenantConfig(name="metered", rate_qps=0.001, burst=1),)
        )

        async def scenario(server, r, w):
            first = await http_request(
                r, w, "POST", "/query", {"keys": [0], "tenant": "metered"}
            )
            second = await http_request(
                r, w, "POST", "/query", {"keys": [1], "tenant": "metered"}
            )
            return first, second

        first, second = serve(layout, config, scenario)
        assert first[0] == 200
        assert second[0] == 429
        assert second[1]["reason"] == "quota"

    def test_drain_endpoint_sheds_new_work(self, layout):
        async def scenario(server, r, w):
            drained = await http_request(r, w, "POST", "/drain")
            # The HTTP drain signal is observed by serve_until_drained;
            # here we invoke the core drain directly as the CLI would.
            await server.gateway.stop()
            late = await http_request(
                r, w, "POST", "/query", {"keys": [0]}
            )
            health = await http_request(r, w, "GET", "/health")
            return drained, late, health

        drained, late, health = serve(layout, ServiceConfig(), scenario)
        assert drained == (200, {"status": "draining"})
        assert late[0] == 503
        assert late[1]["reason"] == "drain"
        assert health[1]["status"] == "draining"


class StubDaemon:
    """The refresh daemon surface the gateway and ``/refresh`` touch."""

    state = "watching"

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def pause(self) -> None:
        pass

    def resume(self) -> None:
        pass

    def status(self) -> dict:
        return {"state": self.state}


class TestBodies:
    def test_each_body_gets_its_status_and_refused_ones_are_not_offered(
        self, layout
    ):
        async def scenario(server, r, w):
            answers = {}
            for name, (body, _) in BODIES.items():
                w.write(
                    b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body)
                    + body
                )
                answers[name] = await asyncio.wait_for(read_reply(r), 5)
            _, metrics = await http_request(r, w, "GET", "/metrics")
            return answers, metrics["service"]

        answers, service = serve(layout, ServiceConfig(), scenario)
        for name, (_, status) in BODIES.items():
            assert answers[name][0] == status, (name, answers[name])
            if status == 400:
                assert "error" in answers[name][1], name
        assert answers["repeated-name"][1]["keys"] == [1]
        assert answers["utf-16-with-bom"][1]["keys"] == [0, 1]
        for name in ("undecodable-byte", "deeply-nested", "trailing-data"):
            assert answers[name][1]["error"].startswith("invalid JSON body")
        accepted = sum(1 for _, status in BODIES.values() if status == 200)
        assert service["offered"] == service["completed"] == accepted

    @pytest.mark.parametrize("case", ["undecodable-byte", "deeply-nested"])
    def test_refresh_refuses_a_body_json_cannot_read(self, layout, case):
        body, _ = BODIES[case]

        async def runner():
            core = GatewayCore(
                make_engine(layout), ServiceConfig(), refresh=StubDaemon()
            )
            async with HttpGateway(core, port=0) as server:
                r, w = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port
                )
                try:
                    w.write(
                        b"POST /refresh HTTP/1.1\r\nContent-Length: %d"
                        b"\r\n\r\n" % len(body)
                        + body
                    )
                    return await asyncio.wait_for(read_reply(r), 5)
                finally:
                    w.close()

        status, payload = asyncio.run(runner())
        assert status == 400
        assert payload["error"].startswith("invalid JSON body")


class TestPipelining:
    def test_pipelined_requests_are_answered_in_order(self, layout):
        config = ServiceConfig(
            tenants=(TenantConfig(name="metered", rate_qps=0.001, burst=1),)
        )

        async def scenario(server, r, w):
            w.write(
                encode_request(
                    "POST", "/query", {"keys": [0], "tenant": "metered"}
                )
                + encode_request("POST", "/query", {"keys": [1, 2]})
            )
            replies = [await read_reply(r) for _ in range(2)]
            w.write(
                encode_request("GET", "/nope")
                + encode_request(
                    "POST", "/query", {"keys": [3], "tenant": "metered"}
                )
                + encode_request("POST", "/query", {"keys": [4, 5]})
            )
            replies += [await read_reply(r) for _ in range(3)]
            return replies

        replies = serve(layout, config, scenario)
        assert [status for status, _ in replies] == [200, 200, 404, 429, 200]
        assert [payload.get("keys") for _, payload in replies] == [
            [0],
            [1, 2],
            None,
            [3],
            [4, 5],
        ]

    def test_request_dribbled_one_byte_per_write_is_served(self, layout):
        async def scenario(server, r, w):
            for byte in encode_request("POST", "/query", {"keys": [0, 1]}):
                w.write(bytes([byte]))
                await w.drain()
                await asyncio.sleep(0)
            return await read_reply(r)

        status, payload = serve(layout, ServiceConfig(), scenario)
        assert status == 200
        assert payload["served"] == 2

    def test_framing_work_is_linear_in_the_bytes_received(self, monkeypatch):
        """A head near the cap one byte per segment, then a large body in
        small segments: the blank-line search visits each byte at most
        four times (it resumes three bytes back) and the head is framed
        once, not again per segment."""
        body = b"x" * (400 * 1024)
        head = b"POST /nowhere HTTP/1.1\r\nContent-Length: %d\r\nX-Pad: " % len(
            body
        )
        head += b"a" * (MAX_HEAD_BYTES - len(head) - 4) + b"\r\n\r\n"
        assert len(head) == MAX_HEAD_BYTES

        class ScanCountingBuffer(bytearray):
            scanned = 0

            def find(self, sub, start=0, *args):
                self.scanned += len(self) - start
                return super().find(sub, start, *args)

        class CountingPattern:
            calls = 0

            def __init__(self, pattern):
                self.pattern = pattern

            def findall(self, data):
                CountingPattern.calls += 1
                return self.pattern.findall(data)

        monkeypatch.setattr(
            http_module,
            "_CONTENT_LENGTH",
            CountingPattern(http_module._CONTENT_LENGTH),
        )
        conn = _Connection(HttpGateway(GatewayCore(CannedEngine()), port=0))
        conn.transport = _CapturingTransport()
        conn.buffer = buffer = ScanCountingBuffer()
        for at in range(len(head)):
            conn.data_received(head[at : at + 1])
        for at in range(0, len(body), 512):
            conn.data_received(body[at : at + 512])

        assert len(conn.transport.writes) == 1
        assert conn.transport.writes[0].startswith(b"HTTP/1.1 404 ")
        assert not buffer
        # Re-searching the whole buffer per segment would scan ≈ 2 GB.
        assert buffer.scanned <= 4 * len(head)
        assert CountingPattern.calls == 1


class _CapturingTransport:
    """Stands in for a socket transport; keeps what is written."""

    def __init__(self) -> None:
        self.writes = []

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.writes.append(data)


class TestSingleQueryReply:
    def test_reply_bytes_are_the_payload_encoded(self, layout):
        """The reply is written without building the payload dict; it must
        still be the bytes the dict encodes to, for every outcome kind."""
        config = ServiceConfig(
            admission=AdmissionConfig(capacity=1, policy="tail"),
            tenants=(TenantConfig(name="métré", rate_qps=0.001, burst=1),),
        )

        async def scenario():
            async with GatewayCore(make_engine(layout), config) as core:
                conn = _Connection(HttpGateway(core, port=0))
                conn.transport = _CapturingTransport()
                outcomes = []

                def reply(outcome):
                    outcomes.append(outcome)
                    conn.reply(outcome)

                core.offer([0, 1, 4, 1], "métré", reply)  # the one slot
                core.offer([2], "métré", reply)  # over quota
                core.offer([5, 7], "default", reply)  # waiting room full
                while len(outcomes) < 3:
                    await asyncio.sleep(0)
                return outcomes, conn.transport.writes

        outcomes, writes = asyncio.run(scenario())
        assert [o.http_status() for o in outcomes] == [429, 503, 200]
        assert [o.shed_reason for o in outcomes] == ["quota", "tail", None]
        for outcome, data in zip(outcomes, writes):
            body = json.dumps(outcome.payload(), sort_keys=True) + "\n"
            assert data == _response(outcome.http_status(), body.encode())

    @pytest.mark.parametrize("lossy", [False, True])
    def test_served_reply_bytes_are_the_payload_encoded(self, lossy):
        """A coalesced pair, repeated keys, keys past 2**31, a non-ASCII
        tenant and (``lossy``) members served one by one with keys
        missing: every reply is the head plus ``json.dumps`` of the
        payload."""
        engine = CannedEngine()
        if lossy:
            # A (never-firing) fault plan serves members one by one.
            engine.config = dataclasses.replace(
                engine.config,
                fault_plan=FaultPlan.from_spec("seed=3,read_error=0.0"),
            )
            engine.result = dataclasses.replace(engine.result, missing_keys=2)

        async def scenario():
            async with GatewayCore(engine, ServiceConfig()) as core:
                conn = _Connection(HttpGateway(core, port=0))
                conn.transport = _CapturingTransport()
                outcomes = []

                def reply(outcome):
                    outcomes.append(outcome)
                    conn.reply(outcome)

                core.offer([7, 2**31, 7, 2**40 + 3, 0], "métré", reply)
                core.offer([2**31, 5, 5], "métré", reply)
                while len(outcomes) < 2:
                    await asyncio.sleep(0)
                return outcomes, conn.transport.writes

        outcomes, writes = asyncio.run(scenario())
        assert [o.coalesced for o in outcomes] == [2, 2]
        assert [o.missing for o in outcomes] == ([2, 2] if lossy else [0, 0])
        assert [o.served for o in outcomes] == (
            [2, 0] if lossy else [4, 2]
        )
        for outcome, data in zip(outcomes, writes):
            assert outcome.http_status() == 200
            body = json.dumps(outcome.payload(), sort_keys=True) + "\n"
            assert data == _response(200, body.encode())

    def test_submit_and_http_leave_the_same_service_section(self):
        async def by_submit():
            async with GatewayCore(CannedEngine(), ServiceConfig()) as core:
                for _ in range(10):
                    await asyncio.gather(*(core.submit(k) for k in KEYS))
                return core.metrics()["service"]

        async def by_http():
            core = GatewayCore(CannedEngine(), ServiceConfig())
            server = HttpGateway(core, port=0)
            await server.start()
            connections = [
                await asyncio.open_connection("127.0.0.1", server.bound_port)
                for _ in KEYS
            ]
            try:
                await http_pairs(connections, 10)
                return core.metrics()["service"]
            finally:
                for _, writer in connections:
                    writer.close()
                await server.stop()

        submitted = asyncio.run(by_submit())
        over_http = asyncio.run(by_http())
        assert over_http == submitted
        assert submitted["offered"] == submitted["completed"] == 20
        assert submitted["accounted"] == 20
        assert submitted["coalescer"]["mean_batch_size"] == 2.0


class TestLifecycle:
    def test_stop_returns_after_its_connection_handlers(self, layout):
        """``stop()`` must not leave handler tasks for the loop's owner
        to destroy: a keep-alive connection is still open when it runs."""

        async def runner():
            core = GatewayCore(make_engine(layout), ServiceConfig())
            server = HttpGateway(core, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            status, _ = await http_request(
                reader, writer, "POST", "/query", {"keys": [0]}
            )
            await asyncio.wait_for(server.stop(), timeout=5)
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            at_eof = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return status, pending, at_eof

        status, pending, at_eof = asyncio.run(runner())
        assert status == 200
        assert pending == set()
        assert at_eof == b""  # the server closed the connection


class TestBackpressureOverHttp:
    def test_admission_shed_maps_to_503(self, layout):
        """A saturated single-slot gateway with a one-deep waiting room
        must answer some of a concurrent burst with 503 tail-sheds."""
        config = ServiceConfig(
            coalescer=CoalescerConfig(enabled=False),
            admission=AdmissionConfig(capacity=1, policy="tail"),
            max_concurrent_batches=1,
            pace_service=True,
            time_scale=20.0,
        )

        async def scenario(server, r, w):
            port = server.bound_port

            async def one(key):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    return await http_request(
                        reader, writer, "POST", "/query", {"keys": [key]}
                    )
                finally:
                    writer.close()

            results = await asyncio.gather(*(one(i % 8) for i in range(16)))
            _, metrics = await http_request(r, w, "GET", "/metrics")
            return results, metrics

        results, metrics = serve(layout, config, scenario)
        statuses = sorted(status for status, _ in results)
        assert statuses.count(200) >= 1
        assert statuses.count(503) >= 1
        sheds = [p["reason"] for s, p in results if s == 503]
        assert set(sheds) <= {"tail"}
        svc = metrics["service"]
        assert svc["offered"] == 16
        assert svc["offered"] == svc["accounted"]


class TestHttpLoadGenerator:
    def test_loadgen_end_to_end(self, layout):
        config = ServiceConfig(
            coalescer=CoalescerConfig(max_batch=8, max_wait_us=500.0)
        )

        async def runner():
            core = GatewayCore(make_engine(layout), config)
            server = HttpGateway(core, port=0)
            await server.start()
            generator = HttpLoadGenerator(
                "127.0.0.1",
                server.bound_port,
                [Query((i % 8,)) for i in range(16)],
                concurrency=4,
                duration_s=0.4,
            )
            report = await generator.run()
            metrics = core.metrics()
            await server.stop()
            return report, metrics

        report, metrics = asyncio.run(runner())
        assert report.offered > 0
        assert report.errors == 0
        assert report.completed == metrics["service"]["completed"]
        assert report.offered == report.completed + report.shed_total
        assert report.goodput_qps() > 0
        assert report.as_dict()["statuses"] == {"200": report.completed}

    def test_max_requests_caps_the_run(self, layout):
        async def runner():
            core = GatewayCore(make_engine(layout), ServiceConfig())
            server = HttpGateway(core, port=0)
            await server.start()
            generator = HttpLoadGenerator(
                "127.0.0.1",
                server.bound_port,
                [Query((0,))],
                concurrency=2,
                duration_s=5.0,
                max_requests=7,
            )
            report = await generator.run()
            await server.stop()
            return report

        report = asyncio.run(runner())
        assert report.offered == 7
        assert report.completed == 7
        assert report.wall_s < 5.0
