"""Fault injection under the batched and NDP executors.

The per-page recovery contract of ``test_fault_recovery`` must survive
the change of who talks to the device:

* a no-op plan under the batched/ndp executor is bit-identical to the
  same executor without the fault subsystem mounted — at the presets'
  zero submit overhead and at 1 µs, on a shallow and a deep queue;
* batched waves retry their failed sub-reads individually (the batch
  consumed attempt 0; retries start at 1) and recover transients;
* a faulted gather falls back to per-page reads, so NDP serving loses
  exactly the unrecoverable keys, never the whole gather;
* the accounting identity ``requested == cache_hits + ssd_keys +
  missing`` holds per query under both, whatever the draw.
"""

import dataclasses
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    EngineConfig,
    FaultPlan,
    PageLayout,
    Query,
    RetryPolicy,
    ServingEngine,
)
from repro.ssd import P5800X

# CI's chaos job sweeps this to replay the suite under different fault
# draws; the properties under test are seed-independent.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

EXECUTORS = ["batched", "ndp"]

# The presets charge no submit overhead; with one, the recovery wrapper
# must still place it where the plain executor does (before the stall).
PROFILES = {"preset": P5800X}
for depth in (2, 128):
    PROFILES[f"1us-qd{depth}"] = dataclasses.replace(
        P5800X, submit_overhead_us=1.0, queue_depth=depth
    )

REPLICATED_PAGES = [
    (0, 1, 2, 3),
    (4, 5, 6, 7),
    (8, 9, 10, 11),
    (12, 13, 14, 15),
    (0, 4, 8, 12),
    (1, 5, 9, 13),
]


def replicated_layout() -> PageLayout:
    return PageLayout(16, 4, REPLICATED_PAGES, num_base_pages=4)


def holders(key: int):
    return [p for p, page in enumerate(REPLICATED_PAGES) if key in page]


class TestFaultFreeParity:
    @pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_no_op_plan_is_bit_identical(
        self, executor, profile, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        queries = list(live)[:200]
        config = EngineConfig(executor=executor, profile=profile)
        baseline = ServingEngine(maxembed_layout_small, config)
        guarded = ServingEngine(
            maxembed_layout_small,
            dataclasses.replace(config, fault_plan=FaultPlan()),
        )
        assert baseline.serve_trace(queries) == guarded.serve_trace(queries)
        # ...and the device saw the same reads over the same time.
        base, guard = baseline.device.stats, guarded.device.stats
        assert (base.reads, base.total_latency_us, base.busy_until_us) == (
            guard.reads,
            guard.total_latency_us,
            guard.busy_until_us,
        )


class TestBatchedRecovery:
    def test_transients_recovered_by_per_read_retries(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        engine = ServingEngine(
            maxembed_layout_small,
            EngineConfig(
                executor="batched",
                fault_plan=FaultPlan(
                    seed=7 + FAULT_SEED, read_error_rate=0.05
                ),
            ),
        )
        report = engine.serve_trace(list(live))
        assert report.total_retries > 0
        assert report.coverage() > 0.99
        assert engine.fault_counters["read_error"] > 0

    def test_heavy_faults_degrade_without_raising(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        engine = ServingEngine(
            maxembed_layout_small,
            EngineConfig(
                executor="batched",
                fault_plan=FaultPlan(
                    seed=7 + FAULT_SEED,
                    read_error_rate=0.3,
                    dead_page_rate=0.1,
                ),
                retry=RetryPolicy(max_retries=1),
            ),
        )
        report = engine.serve_trace(list(live))  # must not raise
        assert report.total_failed_reads > 0
        assert 0.0 < report.coverage() < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dead_rate=st.sampled_from([0.2, 0.45, 0.7]),
        keys=st.lists(
            st.integers(min_value=0, max_value=15),
            min_size=1,
            max_size=8,
            unique=True,
        ),
    )
    def test_dead_pages_lose_exactly_the_unrecoverable_keys(
        self, seed, dead_rate, keys
    ):
        """The batched wave's replica recovery is exact, like serial's."""
        plan = FaultPlan(seed=seed ^ FAULT_SEED, dead_page_rate=dead_rate)
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                executor="batched",
                fault_plan=plan,
                retry=RetryPolicy(max_retries=0),
            ),
        )
        expected_missing = sum(
            1
            for key in keys
            if all(plan.page_is_dead(p) for p in holders(key))
        )
        result = engine.serve_query(Query(tuple(keys)))
        assert result.missing_keys == expected_missing
        assert result.ssd_keys == len(keys) - expected_missing


class TestNdpRecovery:
    def test_faulted_gather_falls_back_to_pages(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        engine = ServingEngine(
            maxembed_layout_small,
            EngineConfig(
                executor="ndp",
                fault_plan=FaultPlan(
                    seed=11 + FAULT_SEED, read_error_rate=0.05
                ),
            ),
        )
        report = engine.serve_trace(list(live))
        assert report.total_retries > 0
        assert report.coverage() > 0.99

    def test_dead_page_kills_only_its_keys(self):
        plan = FaultPlan(seed=13 + FAULT_SEED, dead_page_rate=0.4)
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                executor="ndp",
                fault_plan=plan,
                retry=RetryPolicy(max_retries=0),
            ),
        )
        keys = list(range(16))
        expected_missing = sum(
            1
            for key in keys
            if all(plan.page_is_dead(p) for p in holders(key))
        )
        result = engine.serve_query(Query(tuple(keys)))
        assert result.missing_keys == expected_missing

    def test_corrupt_gathers_retried_at_command_grain(self):
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                executor="ndp",
                fault_plan=FaultPlan(
                    seed=5 + FAULT_SEED, corrupt_rate=0.5
                ),
                retry=RetryPolicy(max_retries=8, backoff_us=5.0),
            ),
        )
        clean = ServingEngine(
            replicated_layout(),
            EngineConfig(cache_ratio=0.0, executor="ndp"),
        )
        query = Query(tuple(range(16)))
        faulty_result = engine.serve_query(query)
        clean_result = clean.serve_query(query)
        assert faulty_result.missing_keys == 0
        assert faulty_result.latency_us > clean_result.latency_us


class TestAccountingIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "plan_kwargs",
        [
            {"read_error_rate": 0.4, "corrupt_rate": 0.1},
            {"dead_page_rate": 0.3, "latency_spike_rate": 0.2},
            {"read_error_rate": 0.2, "brownouts": ((50.0, 500.0),)},
        ],
    )
    def test_no_key_dropped_or_double_counted(self, executor, plan_kwargs):
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                executor=executor,
                fault_plan=FaultPlan(seed=3 + FAULT_SEED, **plan_kwargs),
                retry=RetryPolicy(max_retries=1, backoff_us=10.0),
            ),
        )
        for seed_key in range(40):
            query = Query(tuple({seed_key % 16, (seed_key * 7) % 16}))
            result = engine.serve_query(query)
            assert result.requested_keys == (
                result.cache_hits + result.ssd_keys + result.missing_keys
            )
