"""Tests for repro.serving: cost model, executors, engine, reports."""

import dataclasses

import pytest

from repro import (
    ConfigError,
    EmbeddingSpec,
    EngineConfig,
    P5800X,
    PageLayout,
    PipelinedExecutor,
    Query,
    QueryTrace,
    SerialExecutor,
    ServingEngine,
    ServingError,
    SimulatedSsd,
)
from repro.serving import CpuCostModel, ServingReport, simulate
from repro.serving.selection import SelectionOutcome, SelectionStep
from repro.serving.stats import QueryResult
from repro.ssd import SsdProfile


COST_FIELDS = [f.name for f in dataclasses.fields(CpuCostModel)]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def outcome_with(steps, sorted_keys=0):
    return SelectionOutcome.from_steps(
        [
            SelectionStep(page_id=p, covered=c, candidates_examined=n)
            for p, c, n in steps
        ],
        sorted_keys=sorted_keys,
    )


class TestCpuCostModel:
    def test_sort_time_zero_for_single_key(self):
        model = CpuCostModel()
        assert model.sort_time_us(0) == 0.0
        assert model.sort_time_us(1) == 0.0
        assert model.sort_time_us(8) > 0.0

    def test_sort_time_superlinear(self):
        model = CpuCostModel(sort_per_key_us=1.0)
        assert model.sort_time_us(16) > 2 * model.sort_time_us(8)

    def test_step_time_linear_in_candidates(self):
        model = CpuCostModel(candidate_examine_us=2.0, step_base_us=1.0)
        assert model.step_time_us(0) == 1.0
        assert model.step_time_us(3) == 7.0

    def test_selection_time_sums_steps(self):
        model = CpuCostModel(candidate_examine_us=1.0, step_base_us=0.0)
        outcome = outcome_with([(0, (1,), 2), (1, (2,), 3)])
        assert model.selection_time_us(outcome.candidate_counts) == 5.0

    def test_total_includes_base_and_sort(self):
        model = CpuCostModel(
            sort_per_key_us=0.0,
            candidate_examine_us=0.0,
            step_base_us=0.0,
            query_base_us=3.0,
        )
        outcome = outcome_with([(0, (1,), 1)], sorted_keys=4)
        assert model.total_cpu_us(outcome) == 3.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigError):
            CpuCostModel(sort_per_key_us=-1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", COST_FIELDS)
    def test_rejects_non_finite_costs(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CpuCostModel(**{field: value})


def fast_device(latency=10.0):
    profile = SsdProfile(
        "test", read_latency_us=latency, bandwidth_gb_s=0.004096,
        queue_depth=64,
    )
    return SimulatedSsd(profile, page_size=4096)


class TestExecutors:
    def test_serial_runs_selection_before_any_read(self):
        model = CpuCostModel(
            sort_per_key_us=0.0, candidate_examine_us=0.0,
            step_base_us=1.0, query_base_us=0.0,
        )
        device = fast_device(latency=10.0)
        outcome = outcome_with([(0, (1,), 1), (1, (2,), 1)])
        result = SerialExecutor(model).execute(outcome, device, 0.0)
        # Both selection steps (2 us) run first; reads submitted at t=2:
        # the first completes at 12, the second waits for the bandwidth
        # slot freed at t=1002 and completes at 1012.
        assert result.pages_read == 2
        assert result.selection_us == pytest.approx(2.0)
        assert result.latency_us == pytest.approx(1012.0)
        assert result.io_wait_us == pytest.approx(1010.0)
        assert result.io_wait_us > 0

    def test_pipelined_overlaps_selection_with_reads(self):
        model = CpuCostModel(
            sort_per_key_us=0.0, candidate_examine_us=0.0,
            step_base_us=4.0, query_base_us=0.0,
        )
        outcome = outcome_with([(0, (1,), 1), (1, (2,), 1), (2, (3,), 1)])
        fast = SimulatedSsd(
            SsdProfile("fat", read_latency_us=10.0, bandwidth_gb_s=100.0),
            page_size=4096,
        )
        result = PipelinedExecutor(model).execute(outcome, fast, 0.0)
        # CPU: 12us of selection; last read issued at 12, completes at 22.
        assert result.latency_us == pytest.approx(22.0)
        assert result.selection_us == pytest.approx(12.0)

    def test_pipelined_never_slower_than_serial(self, criteo_small):
        model = CpuCostModel()
        outcome = outcome_with(
            [(p, (p,), 3) for p in range(6)], sorted_keys=6
        )
        serial = SerialExecutor(model).execute(outcome, fast_device(), 0.0)
        pipelined = PipelinedExecutor(model).execute(
            outcome, fast_device(), 0.0
        )
        assert pipelined.latency_us <= serial.latency_us

    def test_zero_steps_costs_only_front(self):
        model = CpuCostModel(query_base_us=2.0, sort_per_key_us=0.0)
        outcome = outcome_with([])
        result = PipelinedExecutor(model).execute(outcome, fast_device(), 5.0)
        assert result.latency_us == pytest.approx(2.0)
        assert result.pages_read == 0

    def test_execution_result_properties(self):
        model = CpuCostModel()
        outcome = outcome_with([(0, (1,), 1)])
        result = SerialExecutor(model).execute(outcome, fast_device(), 3.0)
        assert result.start_us == 3.0
        assert result.cpu_us == result.sort_us + result.selection_us
        assert result.finish_us > result.start_us


@pytest.fixture
def simple_layout():
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4)],
        num_base_pages=2,
    )


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.executor == "pipelined"
        assert config.threads == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tier_mode": "magic"},
            {"executor": "warp"},
            {"threads": 0},
            {"raid_members": 0},
            {"cache_ratio": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServingError):
            EngineConfig(**kwargs)


class TestServingEngine:
    def test_serve_query_covers_misses(self, simple_layout):
        engine = ServingEngine(
            simple_layout, EngineConfig(cache_ratio=0.0)
        )
        result = engine.serve_query(Query((0, 4)))
        assert result.ssd_keys == 2
        assert result.pages_read == 1  # replica page (0, 4)
        assert result.cache_hits == 0
        assert sum(result.valid_per_read) == 2

    def test_cache_absorbs_repeats(self, simple_layout):
        engine = ServingEngine(
            simple_layout, EngineConfig(cache_ratio=1.0)
        )
        first = engine.serve_query(Query((0, 1)))
        second = engine.serve_query(Query((0, 1)), start_us=1000.0)
        assert first.pages_read == 1
        assert second.pages_read == 0
        assert second.cache_hits == 2
        assert second.latency_us < first.latency_us

    def test_fully_cached_query_has_no_execution(self, simple_layout):
        engine = ServingEngine(simple_layout, EngineConfig(cache_ratio=1.0))
        engine.serve_query(Query((5,)))
        result = engine.serve_query(Query((5,)), start_us=10.0)
        assert result.execution is None
        assert result.pages_read == 0

    def test_serve_trace_report(self, simple_layout):
        engine = ServingEngine(simple_layout, EngineConfig(cache_ratio=0.0))
        trace = QueryTrace(
            8, [Query((0, 1)), Query((4, 5)), Query((0, 4))]
        )
        report = engine.serve_trace(trace)
        assert report.num_queries == 3
        assert report.total_pages_read >= 3
        assert report.throughput_qps() > 0
        assert report.mean_latency_us() > 0

    def test_serve_trace_warmup_excluded(self, simple_layout):
        engine = ServingEngine(simple_layout, EngineConfig(cache_ratio=0.5))
        trace = QueryTrace(8, [Query((0,))] * 5)
        report = engine.serve_trace(trace, warmup_queries=2)
        assert report.num_queries == 3

    def test_serve_trace_rejects_empty(self, simple_layout):
        engine = ServingEngine(simple_layout)
        with pytest.raises(ServingError):
            engine.serve_trace(QueryTrace(8))

    def test_serve_trace_rejects_all_warmup(self, simple_layout):
        engine = ServingEngine(simple_layout)
        trace = QueryTrace(8, [Query((0,))])
        with pytest.raises(ServingError):
            engine.serve_trace(trace, warmup_queries=1)

    def test_rejects_undersized_spec(self, simple_layout):
        with pytest.raises(ServingError):
            ServingEngine(
                simple_layout,
                EngineConfig(spec=EmbeddingSpec(dim=1024, page_size=4096)),
            )

    def test_raid_engine(self, simple_layout):
        engine = ServingEngine(
            simple_layout,
            EngineConfig(cache_ratio=0.0, raid_members=2),
        )
        result = engine.serve_query(Query((0, 5)))
        assert result.pages_read >= 1

    def test_memory_overhead_counts_both_indexes(self, simple_layout):
        engine = ServingEngine(simple_layout)
        slots = simple_layout.total_slots_used()
        assert engine.memory_overhead_entries() == 2 * slots

    def test_index_limit_reduces_memory(self, simple_layout):
        full = ServingEngine(simple_layout)
        shrunk = ServingEngine(
            simple_layout, EngineConfig(index_limit=1)
        )
        assert (
            shrunk.memory_overhead_entries() < full.memory_overhead_entries()
        )

    def test_more_threads_increase_throughput_when_io_bound(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        queries = list(live)[:100]
        reports = {}
        for threads in (1, 8):
            engine = ServingEngine(
                maxembed_layout_small,
                EngineConfig(cache_ratio=0.0, threads=threads),
            )
            reports[threads] = engine.serve_trace(queries)
        assert (
            reports[8].throughput_qps() > reports[1].throughput_qps()
        )


class TestReports:
    def make_results(self):
        return [
            QueryResult(
                requested_keys=4,
                cache_hits=1,
                ssd_keys=3,
                pages_read=2,
                valid_per_read=(2, 1),
                start_us=0.0,
                finish_us=50.0,
            ),
            QueryResult(
                requested_keys=2,
                cache_hits=2,
                ssd_keys=0,
                pages_read=0,
                valid_per_read=(),
                start_us=10.0,
                finish_us=20.0,
            ),
        ]

    def make_report(self):
        report = ServingReport()
        for result in self.make_results():
            report.add(result, result.start_us)
        return report

    def test_aggregate(self):
        report = self.make_report()
        assert report.num_queries == 2
        assert report.makespan_us == 50.0
        assert report.total_pages_read == 2
        assert report.total_valid_embeddings == 3
        assert report.total_cache_hits == 3
        assert report.valid_per_read_hist == {2: 1, 1: 1}

    def test_bandwidth_math(self):
        report = self.make_report()
        assert report.useful_bytes() == 3 * 256
        assert report.total_bytes_read() == 2 * 4096
        assert report.effective_bandwidth_fraction() == pytest.approx(
            768 / 8192
        )
        assert report.effective_bandwidth_mb_s(1.0) == pytest.approx(
            768 / 8192 * 1000
        )

    def test_latency_percentiles(self):
        report = self.make_report()
        assert report.mean_latency_us() == pytest.approx(30.0)
        assert report.percentile_latency_us(100) == pytest.approx(50.0)
        with pytest.raises(ServingError):
            report.percentile_latency_us(101)

    def test_cache_hit_rate(self):
        report = self.make_report()
        assert report.cache_hit_rate() == pytest.approx(3 / 6)

    def test_valid_per_read_cdf(self):
        report = self.make_report()
        assert report.valid_per_read_cdf() == [(1, 0.5), (2, 1.0)]

    def test_mean_valid_per_read(self):
        report = self.make_report()
        assert report.mean_valid_per_read() == pytest.approx(1.5)

    def test_aggregate_rejects_empty(self):
        layout = PageLayout(4, 4, [(0, 1, 2, 3)])
        engine = ServingEngine(layout, EngineConfig())
        with pytest.raises(ServingError):
            simulate(engine, [])
