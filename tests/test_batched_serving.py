"""Serving through the batched and ndp executors, next to the paged ones.

Contracts:

* the per-page executors (``pipelined``, the default, and ``serial``)
  are bit-identical to the historical per-page serving — adding the
  batched machinery must not perturb a single timestamp (hypothesis
  parity on engine and cluster);
* with zero submit overhead, ``batched`` is bit-identical to ``serial``
  serving — batching only moves who pays the overhead;
* with a non-zero overhead, batched serving is strictly faster;
* the ``ndp`` executor auto-upgrades a plain profile to an NDP one,
  reads the same pages, and covers every key;
* all of them compose with the overload degrade ladder.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    ClusterEngine,
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    PageLayout,
    Query,
    ServingEngine,
    ServingError,
)
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.serving import (
    BatchedExecutor,
    NdpExecutor,
    OpenLoopSimulator,
    SerialExecutor,
    build_gather_command,
)
from repro.ssd import P5800X, P5800X_NDP
from repro.types import EmbeddingSpec

OVERHEAD_P5800X = dataclasses.replace(P5800X, submit_overhead_us=1.0)


@st.composite
def layouts_and_traces(draw):
    """Small replicated layouts plus a short query stream."""
    n = draw(st.integers(min_value=4, max_value=20))
    capacity = draw(st.sampled_from([2, 4]))
    pages = [
        tuple(range(start, min(start + capacity, n)))
        for start in range(0, n, capacity)
    ]
    num_base = len(pages)
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        size = draw(st.integers(min_value=1, max_value=min(capacity, n)))
        page = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        pages.append(tuple(page))
    layout = PageLayout(n, capacity, pages, num_base_pages=num_base)
    num_queries = draw(st.integers(min_value=1, max_value=8))
    queries = []
    for _ in range(num_queries):
        size = draw(st.integers(min_value=1, max_value=min(6, n)))
        keys = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        queries.append(Query(tuple(keys)))
    return layout, queries


def engine_for(layout, **overrides):
    defaults = dict(spec=EmbeddingSpec(dim=8), cache_ratio=0.0)
    defaults.update(overrides)
    return ServingEngine(layout, EngineConfig(**defaults))


class TestConfigValidation:
    def test_engine_rejects_unknown_executor(self):
        with pytest.raises(ServingError, match="executor"):
            EngineConfig(executor="dma")

    def test_core_config_rejects_unknown_executor(self):
        with pytest.raises(ConfigError, match="executor"):
            MaxEmbedConfig(executor="dma")

    def test_executor_selection(self):
        assert isinstance(
            EngineConfig(executor="batched"), EngineConfig
        )
        layout = PageLayout(4, 2, [(0, 1), (2, 3)], num_base_pages=2)
        assert isinstance(
            engine_for(layout, executor="batched").executor,
            BatchedExecutor,
        )
        assert isinstance(
            engine_for(layout, executor="ndp").executor,
            NdpExecutor,
        )
        assert isinstance(
            engine_for(layout, executor="serial").executor, SerialExecutor
        )


class TestPagedDefaultParity:
    """The default path must not notice the batched machinery exists."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=layouts_and_traces())
    def test_engine_paged_equals_batched_at_zero_overhead(self, data):
        layout, queries = data
        serial = engine_for(layout, executor="serial")
        batched = engine_for(layout, executor="batched")
        assert serial.serve_trace(queries) == batched.serve_trace(queries)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=layouts_and_traces())
    def test_engine_paged_is_deterministic(self, data):
        layout, queries = data
        first = engine_for(layout).serve_trace(queries)
        second = engine_for(layout).serve_trace(queries)
        assert first == second

    def test_fixture_trace_parity(self, maxembed_layout_small, criteo_small):
        _, live = criteo_small
        queries = list(live)[:300]
        serial = ServingEngine(
            maxembed_layout_small, EngineConfig(executor="serial")
        )
        batched = ServingEngine(
            maxembed_layout_small,
            EngineConfig(executor="batched"),
        )
        assert serial.serve_trace(queries) == batched.serve_trace(queries)


class TestBatchedAmortization:
    def test_batched_faster_with_overhead(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        queries = list(live)[:300]
        serial = ServingEngine(
            maxembed_layout_small,
            EngineConfig(
                executor="serial", profile=OVERHEAD_P5800X, threads=1
            ),
        )
        batched = ServingEngine(
            maxembed_layout_small,
            EngineConfig(
                executor="batched",
                profile=OVERHEAD_P5800X,
                threads=1,
            ),
        )
        fast = batched.serve_trace(queries)
        slow = serial.serve_trace(queries)
        assert fast.throughput_qps() > slow.throughput_qps()
        assert fast.total_pages_read == slow.total_pages_read

    def test_single_page_query_pays_one_overhead_either_way(self):
        layout = PageLayout(2, 2, [(0, 1)], num_base_pages=1)
        serial = engine_for(
            layout, executor="serial", profile=OVERHEAD_P5800X
        )
        batched = engine_for(
            layout, executor="batched", profile=OVERHEAD_P5800X
        )
        query = [Query((0, 1))]
        assert serial.serve_trace(query) == batched.serve_trace(query)


class TestNdpServing:
    def test_plain_profile_auto_upgraded(self):
        layout = PageLayout(4, 2, [(0, 1), (2, 3)], num_base_pages=2)
        engine = engine_for(layout, executor="ndp")
        assert engine.device.profile.supports_gather
        # An explicit NDP profile is kept as-is.
        explicit = engine_for(
            layout, executor="ndp", profile=P5800X_NDP
        )
        assert explicit.device.profile is P5800X_NDP

    def test_ndp_reads_same_pages_and_covers(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        queries = list(live)[:300]
        paged = ServingEngine(
            maxembed_layout_small, EngineConfig(executor="serial")
        )
        ndp = ServingEngine(
            maxembed_layout_small, EngineConfig(executor="ndp")
        )
        paged_report = paged.serve_trace(queries)
        ndp_report = ndp.serve_trace(queries)
        assert ndp_report.total_pages_read == paged_report.total_pages_read
        assert ndp_report.coverage() == 1.0
        assert ndp.device.stats.gathers > 0

    def test_gather_command_reflects_selection(self, maxembed_layout_small):
        engine = ServingEngine(
            maxembed_layout_small,
            EngineConfig(executor="ndp"),
        )
        outcome = engine.selector.select([0, 1, 2, 3])
        spec = EmbeddingSpec(dim=8)
        command = build_gather_command(outcome, spec)
        assert command.page_ids == tuple(outcome.pages)
        assert command.wanted_keys == sum(outcome.covered_counts)
        assert command.payload_bytes == (
            command.wanted_keys * spec.embedding_bytes
        )

    def test_ndp_bus_bytes_below_paged(
        self, maxembed_layout_small, criteo_small
    ):
        """NDP ships only the payload; the paged bus moves whole pages."""
        _, live = criteo_small
        queries = list(live)[:300]
        paged = ServingEngine(
            maxembed_layout_small, EngineConfig(executor="serial")
        )
        ndp = ServingEngine(
            maxembed_layout_small, EngineConfig(executor="ndp")
        )
        paged.serve_trace(queries)
        ndp.serve_trace(queries)
        assert ndp.device.stats.bytes_read < paged.device.stats.bytes_read


class TestClusterPaths:
    @pytest.fixture(scope="class")
    def sharded(self, request):
        from repro import build_sharded_layout

        criteo_small = request.getfixturevalue("criteo_small")
        history, _ = criteo_small
        return build_sharded_layout(
            history,
            MaxEmbedConfig(
                strategy="maxembed",
                replication_ratio=0.2,
                num_shards=2,
                seed=7,
            ),
        )

    def test_cluster_paged_equals_batched(self, sharded, criteo_small):
        _, live = criteo_small
        queries = list(live)[:200]
        paged = ClusterEngine(sharded, EngineConfig(executor="serial"))
        batched = ClusterEngine(
            sharded, EngineConfig(executor="batched")
        )
        paged_report = paged.serve_trace(queries)
        batched_report = batched.serve_trace(queries)
        assert paged_report == batched_report

    def test_cluster_ndp_serves(self, sharded, criteo_small):
        _, live = criteo_small
        queries = list(live)[:200]
        engine = ClusterEngine(
            sharded, EngineConfig(executor="ndp")
        )
        report = engine.serve_trace(queries)
        assert report.coverage() == 1.0


class TestDegradeLadder:
    @pytest.mark.parametrize("executor", ["pipelined", "batched", "ndp"])
    def test_openloop_degrades_and_accounts(
        self, executor, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        queries = list(live)[:400]
        engine = ServingEngine(
            maxembed_layout_small,
            EngineConfig(executor=executor, threads=1),
        )
        sim = OpenLoopSimulator(
            engine,
            admission=AdmissionConfig(capacity=16),
            brownout=BrownoutConfig(),
        )
        report = sim.run(queries, offered_qps=500_000.0)
        data = report.as_dict()
        # Warm-up head excluded; everything measured must be accounted.
        offered = data["offered"]
        assert 0 < offered <= len(queries)
        assert data["queries"] + data["shed_total"] == offered
        # The arrival rate is far beyond capacity: the ladder must engage.
        assert data["shed_total"] > 0 or data["degraded_mode_queries"] > 0
