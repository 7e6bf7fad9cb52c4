"""Fast selection path wired through engines, cluster, and offline builds.

Because fast selectors produce bit-identical outcomes, every serving
report must be *exactly* equal between the fast and reference paths —
not approximately.  Likewise the parallel offline build must reproduce
the serial artifacts verbatim, and a cluster serves on the caller's
thread alone.
"""

import threading

import pytest

from repro import (
    EngineConfig,
    MaxEmbedConfig,
    Query,
    QueryTrace,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.core import MaxEmbedStore, build_offline_layout
from repro.serving import (
    FastGreedySelector,
    FastOnePassSelector,
    GreedySetCoverSelector,
    OnePassSelector,
    ServingEngine,
)


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


class TestEngineFastPath:
    def test_fast_is_default(self, layout):
        engine = ServingEngine(layout)
        assert isinstance(engine.selector, FastOnePassSelector)

    def test_reference_path_forced_by_flag(self, layout):
        engine = ServingEngine(layout, EngineConfig(fast_selection=False))
        assert isinstance(engine.selector, OnePassSelector)

    @pytest.mark.parametrize("selector", ["onepass", "greedy"])
    def test_fast_and_reference_reports_identical(
        self, layout, trace, selector
    ):
        reports = []
        for fast in (True, False):
            engine = ServingEngine(
                layout,
                EngineConfig(selector=selector, fast_selection=fast),
            )
            reports.append(engine.serve_trace(trace))
        assert report_fingerprint(reports[0]) == report_fingerprint(
            reports[1]
        )

    def test_greedy_fast_class(self, layout):
        engine = ServingEngine(layout, EngineConfig(selector="greedy"))
        assert isinstance(engine.selector, FastGreedySelector)

    def test_store_passes_flag_through(self, layout):
        store = MaxEmbedStore(layout, MaxEmbedConfig(fast_selection=False))
        assert isinstance(store.engine.selector, OnePassSelector)
        store = MaxEmbedStore(layout, MaxEmbedConfig())
        assert isinstance(store.engine.selector, FastOnePassSelector)

    def test_page_grain_admission_parity(self, layout, trace):
        reports = []
        for fast in (True, False):
            engine = ServingEngine(
                layout,
                EngineConfig(fast_selection=fast, page_grain_admission=True),
            )
            reports.append(engine.serve_trace(trace))
        assert report_fingerprint(reports[0]) == report_fingerprint(
            reports[1]
        )


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
        reference = build_sharded_layout(
            trace,
            MaxEmbedConfig(num_shards=2, replication_ratio=0.2),
            workers=1,
        )
        for a, b in zip(sharded.layouts, reference.layouts):
            assert a.pages() == b.pages()

    def test_build_workers_validation(self):
        from repro import ConfigError

        with pytest.raises(ConfigError):
            MaxEmbedConfig(build_workers=-1)


class TestClusterScatterPool:
    def cluster_report(self, trace, fast=True):
        config = MaxEmbedConfig(num_shards=2, replication_ratio=0.2)
        sharded = build_sharded_layout(trace, config, workers=1)
        engine = ClusterEngine(sharded, EngineConfig(fast_selection=fast))
        try:
            return engine.serve_trace(trace)
        finally:
            engine.close()

    def test_fast_and_reference_cluster_parity(self, trace):
        fast = self.cluster_report(trace, fast=True)
        ref = self.cluster_report(trace, fast=False)
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
