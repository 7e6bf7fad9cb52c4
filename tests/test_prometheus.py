"""Prometheus exposition of the gateway metrics tree.

Unit level: the generic flattener (paths, labels, bools, skipped
strings, diff-stable ordering).  Transport level: a live gateway
answering ``GET /metrics?format=prometheus`` with the text exposition
content type — including the tier counters when a pinned DRAM tier is
configured — and rejecting unknown formats with a 400.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import EngineConfig, PageLayout, ServingEngine
from repro.service import (
    GatewayCore,
    HttpGateway,
    ServiceConfig,
    render_prometheus,
)
from repro.service.prometheus import content_type


@pytest.fixture
def layout():
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
    )


class TestRenderer:
    def test_paths_join_with_underscores(self):
        text = render_prometheus({"serving": {"queries": 3}})
        assert "# TYPE maxembed_serving_queries gauge" in text
        assert "maxembed_serving_queries 3" in text

    def test_bools_are_01_and_strings_skipped(self):
        text = render_prometheus(
            {"draining": True, "stopped": False, "mode": "pinned"}
        )
        assert "maxembed_draining 1" in text
        assert "maxembed_stopped 0" in text
        assert "mode" not in text

    def test_lists_get_index_labels(self):
        text = render_prometheus({"tier": {"shard_hits": [4, 0, 9]}})
        assert 'maxembed_tier_shard_hits{index="0"} 4' in text
        assert 'maxembed_tier_shard_hits{index="2"} 9' in text

    def test_replica_state_histogram_gets_key_labels(self):
        text = render_prometheus(
            {"replicas": {"states": {"healthy": 3, "dead": 1}}}
        )
        assert 'maxembed_replicas_states{key="healthy"} 3' in text
        assert 'maxembed_replicas_states{key="dead"} 1' in text

    def test_freeform_maps_get_key_labels(self):
        text = render_prometheus(
            {"service": {"shed": {"queue full": 2, "deadline": 1}}}
        )
        assert 'maxembed_service_shed{key="queue_full"} 2' in text
        assert 'maxembed_service_shed{key="deadline"} 1' in text

    def test_floats_and_name_sanitization(self):
        text = render_prometheus({"p99-latency.us": 12.5})
        assert "maxembed_p99_latency_us 12.5" in text

    def test_output_is_sorted_and_deterministic(self):
        metrics = {"b": 1, "a": {"z": 2, "y": 3}}
        first = render_prometheus(metrics)
        second = render_prometheus(dict(reversed(list(metrics.items()))))
        assert first == second
        names = [
            line.split("{")[0].split(" ")[0]
            for line in first.splitlines()
            if not line.startswith("#")
        ]
        assert names == sorted(names)

    def test_type_line_emitted_once_per_name(self):
        text = render_prometheus({"tier": {"shard_hits": [1, 2, 3]}})
        assert text.count("# TYPE maxembed_tier_shard_hits gauge") == 1

    def test_content_type_is_exposition_004(self):
        assert content_type().startswith("text/plain; version=0.0.4")


async def raw_get(reader, writer, path):
    """One GET on a kept-alive connection -> (status, content-type, body)."""
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n"
        .encode()
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split(b" ")[1])
    length, ctype = 0, ""
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
        elif name.strip().lower() == "content-type":
            ctype = value.strip()
    body = await reader.readexactly(length) if length else b""
    return status, ctype, body.decode()


def scrape(layout, path, tier=False):
    async def runner():
        options = (
            dict(tier_mode="pinned", tier_ratio=0.25) if tier else {}
        )
        engine = ServingEngine(
            layout, EngineConfig(cache_ratio=0.0, threads=2, **options)
        )
        core = GatewayCore(engine, ServiceConfig())
        server = HttpGateway(core, port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.bound_port
        )
        try:
            return await raw_get(reader, writer, path)
        finally:
            writer.close()
            await server.stop()

    return asyncio.run(runner())


class TestEndpoint:
    def test_prometheus_format_and_content_type(self, layout):
        status, ctype, body = scrape(layout, "/metrics?format=prometheus")
        assert status == 200
        assert ctype == content_type()
        assert "# TYPE maxembed_service_offered gauge" in body
        assert "maxembed_service_offered 0" in body
        assert "maxembed_open_loop_queries 0" in body

    def test_tier_counters_exposed(self, layout):
        status, _, body = scrape(
            layout, "/metrics?format=prometheus", tier=True
        )
        assert status == 200
        assert "maxembed_tier_pinned_keys 2" in body
        assert "maxembed_tier_tier_ratio 0.25" in body

    def test_json_format_unchanged(self, layout):
        status, ctype, body = scrape(layout, "/metrics?format=json")
        assert status == 200
        assert ctype.startswith("application/json")
        assert json.loads(body)["service"]["offered"] == 0

    def test_unknown_format_is_400(self, layout):
        status, _, body = scrape(layout, "/metrics?format=bogus")
        assert status == 400
        assert "unknown metrics format" in body
