"""Selector parity through engines and clusters; parallel offline builds.

Because the production selector produces outcomes bit-identical to the
``repro.reference`` oracle, every serving report must be *exactly*
equal between an engine as built and the same engine with the oracle
assigned to ``engine.selector`` — not approximately.  Likewise the
parallel offline build must reproduce the serial artifacts verbatim,
and a cluster serves on the caller's thread alone.
"""

import threading

import pytest

from repro import (
    EngineConfig,
    MaxEmbedConfig,
    Query,
    QueryTrace,
    build_sharded_layout,
    reference,
)
from repro.cluster import ClusterEngine
from repro.core import MaxEmbedStore, build_offline_layout
from repro.serving import OnePassSelector, ServingEngine


@pytest.fixture
def trace() -> QueryTrace:
    queries = (
        [Query((0, 1, 2, 3))] * 6
        + [Query((4, 5, 6, 7))] * 4
        + [Query((0, 1, 8, 9))] * 3
        + [Query((6, 7, 10, 11))] * 2
        + [Query((12, 13, 14, 15))] * 2
        + [Query((3,))]
    )
    return QueryTrace(16, queries)


@pytest.fixture
def layout(trace):
    return build_offline_layout(
        trace, MaxEmbedConfig(replication_ratio=0.4)
    )


def report_fingerprint(report):
    return (
        report.num_queries,
        report.total_pages_read,
        report.throughput_qps(),
        report.mean_latency_us(),
        report.percentile_latency_us(99),
        report.effective_bandwidth_fraction(),
        report.cache_hit_rate(),
    )


def use_oracle(engine):
    """Swap ``engine``'s selector for its ``repro.reference`` oracle."""
    oracle = getattr(reference, type(engine.selector).__name__)
    engine.selector = oracle(engine.forward, engine.invert)
    return engine


class TestEngineFastPath:
    def test_fast_is_default(self, layout):
        engine = ServingEngine(layout)
        assert type(engine.selector) is OnePassSelector
        assert type(MaxEmbedStore(layout).engine.selector) is OnePassSelector

    def test_fast_and_reference_reports_identical(self, layout, trace):
        got = ServingEngine(layout).serve_trace(trace)
        want = use_oracle(ServingEngine(layout)).serve_trace(trace)
        assert report_fingerprint(got) == report_fingerprint(want)

    def test_selection_path_knob_is_gone_not_deprecated(self):
        # One-pass is the one selector: neither the old fast/oracle
        # switch nor the one-pass/greedy axis can be set.
        for knob in ({"fast_selection": False}, {"selector": "greedy"}):
            with pytest.raises(TypeError):
                EngineConfig(**knob)
            with pytest.raises(TypeError):
                MaxEmbedConfig(**knob)

    def test_fault_free_serving_builds_no_page_sets(self, layout, trace):
        # The set-typed copy of every page is for fault recovery and the
        # oracle; the page-mask kernel reads the tuples.
        engine = ServingEngine(layout)
        engine.serve_trace(trace)
        assert engine.invert._sets is None
        assert engine.invert.key_set(0) == frozenset(layout.page(0))
        assert engine.invert._sets is not None

    def test_page_grain_admission_parity(self, layout, trace):
        config = EngineConfig(page_grain_admission=True)
        got = ServingEngine(layout, config).serve_trace(trace)
        want = use_oracle(ServingEngine(layout, config)).serve_trace(trace)
        assert report_fingerprint(got) == report_fingerprint(want)


class TestParallelShardBuilds:
    def test_parallel_build_equals_serial(self, trace):
        config = MaxEmbedConfig(num_shards=3, replication_ratio=0.2)
        serial = build_sharded_layout(trace, config, workers=1)
        parallel = build_sharded_layout(trace, config, workers=3)
        assert serial.plan.assignment == parallel.plan.assignment
        for a, b in zip(serial.layouts, parallel.layouts):
            assert a.pages() == b.pages()
            assert a.num_base_pages == b.num_base_pages

    def test_config_build_workers_used(self, trace):
        config = MaxEmbedConfig(
            num_shards=2, replication_ratio=0.2, build_workers=2
        )
        sharded = build_sharded_layout(trace, config)
        serial = build_sharded_layout(
            trace,
            MaxEmbedConfig(num_shards=2, replication_ratio=0.2),
            workers=1,
        )
        for a, b in zip(sharded.layouts, serial.layouts):
            assert a.pages() == b.pages()

    def test_build_workers_validation(self):
        from repro import ConfigError

        with pytest.raises(ConfigError):
            MaxEmbedConfig(build_workers=-1)


class TestClusterScatterPool:
    def cluster_report(self, trace, oracle=False):
        config = MaxEmbedConfig(num_shards=2, replication_ratio=0.2)
        sharded = build_sharded_layout(trace, config, workers=1)
        engine = ClusterEngine(sharded, EngineConfig())
        if oracle:
            for shard_engine in engine.engines:
                use_oracle(shard_engine)
        try:
            return engine.serve_trace(trace)
        finally:
            engine.close()

    def test_fast_and_reference_cluster_parity(self, trace):
        fast = self.cluster_report(trace)
        ref = self.cluster_report(trace, oracle=True)
        assert report_fingerprint(fast.report) == report_fingerprint(
            ref.report
        )

    def test_cluster_starts_no_threads(self, trace):
        # Deliberately never closed: a pool would keep its workers alive.
        before = threading.active_count()
        config = MaxEmbedConfig(num_shards=4, replication_ratio=0.2)
        sharded = build_sharded_layout(trace, config, workers=1)
        engine = ClusterEngine(sharded, EngineConfig(replicas=2))
        report = engine.serve_trace(trace)
        assert max(report.fanouts) > 1
        assert threading.active_count() == before

    def test_scatter_workers_validation(self):
        # The knob is gone, not deprecated: there is no pool to size.
        with pytest.raises(TypeError):
            EngineConfig(scatter_workers=0)
        with pytest.raises(TypeError):
            MaxEmbedConfig(scatter_workers=0)
