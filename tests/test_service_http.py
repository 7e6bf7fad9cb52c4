"""Tests for the HTTP transport: routes, status mapping, streaming, drain.

Each test runs a real ``asyncio.start_server`` gateway on an ephemeral
port and talks raw HTTP/1.1 to it — the same wire a production client
would see, including keep-alive reuse and chunked streaming.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import EngineConfig, PageLayout, Query, ServingEngine
from repro.overload import AdmissionConfig
from repro.service import (
    CoalescerConfig,
    GatewayCore,
    HttpGateway,
    HttpLoadGenerator,
    ServiceConfig,
    TenantConfig,
)


@pytest.fixture
def layout():
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
    )


def make_engine(layout):
    return ServingEngine(layout, EngineConfig(cache_ratio=0.0, threads=2))


async def http_request(reader, writer, method, path, body=None):
    """One request on a kept-alive connection -> (status, payload dict)."""
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
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
        assert metrics["open_loop"]["completed"] == 1
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

    def test_last_content_length_wins(self, layout):
        async def scenario(server, r, w):
            body = json.dumps({"keys": [0, 1]}).encode()
            w.write(
                (
                    "POST /query HTTP/1.1\r\nContent-Length: 9999\r\n"
                    f"content-length : {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            head = await asyncio.wait_for(r.readuntil(b"\r\n\r\n"), timeout=5)
            return head

        assert serve(layout, ServiceConfig(), scenario).startswith(
            b"HTTP/1.1 200 "
        )

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
