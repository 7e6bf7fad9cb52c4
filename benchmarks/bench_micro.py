"""Micro-benchmarks of the hot operations (real multi-round timings).

Unlike the figure benches (one-shot experiment reproductions), these
measure the per-operation cost of the core primitives with full
pytest-benchmark statistics — the regression guards for anyone touching
the selector, the partitioner, or the device model.
"""

import pytest

from repro import (
    EngineConfig,
    P5800X,
    Query,
    ServingEngine,
    ShpConfig,
    ShpPartitioner,
    SimulatedSsd,
)
from repro.hypergraph import build_weighted_hypergraph
from repro.placement import ForwardIndex, InvertIndex
from repro.serving.selection import OnePassSelector

from conftest import bench_scale

from repro.experiments.common import get_split_trace, layout_for


@pytest.fixture(scope="module")
def criteo_setup():
    scale = bench_scale()
    history, live = get_split_trace("criteo", scale)
    layout = layout_for("criteo", "maxembed", 0.4, scale)
    graph = build_weighted_hypergraph(history)
    return history, live, layout, graph


def test_micro_onepass_selection(benchmark, criteo_setup):
    _, live, layout, _ = criteo_setup
    forward = ForwardIndex.from_layout(layout, limit=5)
    invert = InvertIndex.from_layout(layout)
    selector = OnePassSelector(forward, invert)
    queries = [q.unique_keys() for q in list(live)[:64]]

    def run():
        for keys in queries:
            selector.select(keys)

    benchmark(run)


def test_micro_forward_index_build(benchmark, criteo_setup):
    _, _, layout, _ = criteo_setup
    benchmark(ForwardIndex.from_layout, layout)


def test_micro_shp_partition(benchmark, criteo_setup):
    _, _, _, graph = criteo_setup
    partitioner = ShpPartitioner(ShpConfig(max_iterations=4, seed=0))
    result = benchmark.pedantic(
        partitioner.partition, args=(graph, 16), rounds=1, iterations=1
    )
    assert max(result.cluster_sizes()) <= 16


def test_micro_device_submit_poll(benchmark):
    def run():
        device = SimulatedSsd(P5800X)
        now = 0.0
        for page in range(256):
            completion = device.submit_read(page % 64, now)
            now = completion.submitted_at_us + 1.0
            if page % 16 == 15:
                device.poll(completion.completed_at_us)
        device.drain()

    benchmark(run)


def test_micro_engine_serve_query(benchmark, criteo_setup):
    _, live, layout, _ = criteo_setup
    engine = ServingEngine(
        layout, EngineConfig(cache_ratio=0.0, index_limit=5)
    )
    queries = list(live)[:32]

    def run():
        now = 0.0
        for query in queries:
            result = engine.serve_query(query, start_us=now)
            now = result.finish_us

    benchmark(run)


def test_micro_hypergraph_build(benchmark, criteo_setup):
    history, _, _, _ = criteo_setup
    graph = benchmark(build_weighted_hypergraph, history)
    assert graph.num_vertices == history.num_keys
