"""Cross-module integration tests: the paper's claims, end to end.

Each test runs the full offline + online pipeline on a generated dataset
and checks a headline claim of the paper at reproduction scale.
"""

import pytest

from repro import (
    MaxEmbedConfig,
    ShpConfig,
    evaluate_placement,
    read_amplification,
    reference,
)
from repro.core import MaxEmbedStore, build_offline_layout
from repro.placement import build_indexes
from repro.serving import (
    CpuCostModel,
    EngineConfig,
    OnePassSelector,
    ServingEngine,
)


def quick_config(**overrides):
    base = dict(shp=ShpConfig(max_iterations=8, seed=0), seed=0)
    base.update(overrides)
    return MaxEmbedConfig(**base)


class TestHeadlineClaims:
    """The paper's §8.2 core results, asserted as inequalities."""

    def test_replication_improves_effective_bandwidth(self, criteo_small):
        history, live = criteo_small
        base = build_offline_layout(history, quick_config(strategy="none"))
        replicated = build_offline_layout(
            history, quick_config(replication_ratio=0.8)
        )
        base_ev = evaluate_placement(base, live)
        repl_ev = evaluate_placement(replicated, live)
        assert repl_ev.effective_fraction() > base_ev.effective_fraction()
        assert repl_ev.mean_valid_per_read() > base_ev.mean_valid_per_read()

    def test_replication_lowers_read_amplification(self, criteo_small):
        history, live = criteo_small
        base = build_offline_layout(history, quick_config(strategy="none"))
        replicated = build_offline_layout(
            history, quick_config(replication_ratio=0.8)
        )
        assert read_amplification(
            evaluate_placement(replicated, live)
        ) < read_amplification(evaluate_placement(base, live))

    def test_bandwidth_monotone_in_ratio(self, criteo_small):
        history, live = criteo_small
        fractions = []
        for ratio in (0.0, 0.2, 0.8):
            layout = build_offline_layout(
                history, quick_config(replication_ratio=ratio)
            )
            fractions.append(
                evaluate_placement(layout, live).effective_fraction()
            )
        assert fractions[0] < fractions[1] < fractions[2]

    def test_end_to_end_throughput_and_latency(self, criteo_small):
        history, live = criteo_small
        queries = list(live)
        reports = {}
        for name, ratio in (("shp", 0.0), ("me", 0.8)):
            strategy = "none" if ratio == 0 else "maxembed"
            layout = build_offline_layout(
                history,
                quick_config(strategy=strategy, replication_ratio=ratio),
            )
            engine = ServingEngine(layout, EngineConfig(cache_ratio=0.1))
            reports[name] = engine.serve_trace(queries, warmup_queries=20)
        assert (
            reports["me"].throughput_qps() > reports["shp"].throughput_qps()
        )
        assert (
            reports["me"].mean_latency_us() < reports["shp"].mean_latency_us()
        )

    def test_space_budget_is_honoured(self, criteo_small):
        history, _ = criteo_small
        for ratio in (0.1, 0.4, 0.8):
            layout = build_offline_layout(
                history, quick_config(replication_ratio=ratio)
            )
            assert layout.space_overhead() <= ratio + 0.05


class TestOnlineOptimizations:
    """§6's two optimizations, measured against the same layout."""

    @pytest.fixture(scope="class")
    def layout(self, criteo_small):
        history, _ = criteo_small
        return build_offline_layout(
            history, quick_config(replication_ratio=0.4)
        )

    def test_pipeline_reduces_latency(self, layout, criteo_small):
        _, live = criteo_small
        queries = list(live)[:150]
        latencies = {}
        for executor in ("serial", "pipelined"):
            engine = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, executor=executor)
            )
            latencies[executor] = engine.serve_trace(queries).mean_latency_us()
        assert latencies["pipelined"] < latencies["serial"]

    def test_index_limit_reduces_selection_cost(self, layout, criteo_small):
        _, live = criteo_small
        queries = list(live)[:150]
        selection = {}
        for limit in (None, 5):
            engine = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, index_limit=limit)
            )
            report = engine.serve_trace(queries)
            selection[limit] = report.selection_us
        assert selection[5] <= selection[None]

    def test_index_limit_keeps_most_bandwidth(self, layout, criteo_small):
        _, live = criteo_small
        full = evaluate_placement(layout, live)
        shrunk = evaluate_placement(layout, live, index_limit=5)
        assert (
            shrunk.effective_fraction()
            >= 0.9 * full.effective_fraction()
        )

    def test_onepass_faster_than_greedy_same_coverage(
        self, layout, criteo_small
    ):
        # Greedy set cover is the baseline in repro.reference, not a
        # serving path: both selectors' candidate counts are charged
        # through the engine's cost model over the same queries.
        _, live = criteo_small
        queries = list(live)[:100]
        forward, invert = build_indexes(layout)
        cost = CpuCostModel()
        cpu = {}
        pages = {}
        for name, selector in (
            ("greedy", reference.GreedySetCoverSelector(forward, invert)),
            ("onepass", OnePassSelector(forward, invert)),
        ):
            cpu[name] = pages[name] = 0
            for query in queries:
                outcome = selector.select(query.unique_keys())
                cpu[name] += cost.selection_time_us(outcome.candidate_counts)
                pages[name] += outcome.num_steps
        assert cpu["onepass"] < cpu["greedy"]
        assert pages["onepass"] <= pages["greedy"] * 1.2


class TestCacheInteraction:
    def test_cache_reduces_ssd_reads(self, criteo_small):
        history, live = criteo_small
        layout = build_offline_layout(history, quick_config())
        queries = list(live)
        reads = {}
        for cache_ratio in (0.0, 0.4):
            engine = ServingEngine(
                layout, EngineConfig(cache_ratio=cache_ratio)
            )
            reads[cache_ratio] = engine.serve_trace(queries).total_pages_read
        assert reads[0.4] < reads[0.0]

    def test_maxembed_helps_even_with_cache(self, criteo_small):
        # Paper §8.3: the cache absorbs hot keys, but replication still
        # helps the cold tail.
        history, live = criteo_small
        queries = list(live)
        qps = {}
        for name, ratio in (("shp", 0.0), ("me", 0.8)):
            strategy = "none" if ratio == 0 else "maxembed"
            layout = build_offline_layout(
                history,
                quick_config(strategy=strategy, replication_ratio=ratio),
            )
            engine = ServingEngine(layout, EngineConfig(cache_ratio=0.2))
            qps[name] = engine.serve_trace(
                queries, warmup_queries=30
            ).throughput_qps()
        assert qps["me"] > qps["shp"]


class TestDeterminism:
    def test_full_pipeline_is_reproducible(self, criteo_small):
        history, live = criteo_small

        def run():
            store = MaxEmbedStore.build(
                history, quick_config(replication_ratio=0.2)
            )
            return store.serve_trace(live)

        a = run()
        b = run()
        assert a.total_pages_read == b.total_pages_read
        assert a.makespan_us == b.makespan_us
        assert a.latencies_us == b.latencies_us
