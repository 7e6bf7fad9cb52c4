"""Degraded serving: fault-free parity, recovery accounting, differentials.

The recovery contract under test:

* with no fault plan — or a plan that injects nothing — serving is
  bit-identical to the plain executors (the whole fault subsystem stays
  out of the hot path), at the presets' zero submit overhead and at
  1 µs, on a shallow and a deep queue;
* under injected faults, every key recoverable via a surviving replica
  page is served, every unrecoverable key is reported ``missing``, and
  no key is ever silently dropped or double-counted (the accounting
  identity ``requested == cache_hits + ssd_keys + missing`` holds for
  every query).
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

# The presets charge no submit overhead; with one, the recovery wrapper
# must still place it where the plain executor does (before the stall).
PROFILES = {"preset": P5800X}
for depth in (2, 128):
    PROFILES[f"1us-qd{depth}"] = dataclasses.replace(
        P5800X, submit_overhead_us=1.0, queue_depth=depth
    )

# A small layout with real replicas: four base pages partition the 16
# keys, two replica pages duplicate one key from each base page.
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
    """All pages holding ``key`` in the replicated layout."""
    return [p for p, page in enumerate(REPLICATED_PAGES) if key in page]


class TestFaultFreeParity:
    @pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES)
    @pytest.mark.parametrize("executor", ["pipelined", "serial"])
    def test_no_op_plan_is_bit_identical(
        self, executor, profile, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        config = EngineConfig(executor=executor, profile=profile)
        baseline = ServingEngine(maxembed_layout_small, config)
        # FaultPlan() injects nothing, but its mere presence routes every
        # query through the recovery executor — which must reproduce the
        # plain executor's timing exactly.
        guarded = ServingEngine(
            maxembed_layout_small,
            dataclasses.replace(config, fault_plan=FaultPlan()),
        )
        queries = list(live)[:200]
        assert baseline.serve_trace(queries) == guarded.serve_trace(queries)
        # ...and the device saw the same reads over the same time.
        base, guard = baseline.device.stats, guarded.device.stats
        assert (base.reads, base.total_latency_us, base.busy_until_us) == (
            guard.reads,
            guard.total_latency_us,
            guard.busy_until_us,
        )

    def test_no_plan_leaves_fault_surface_dark(self, maxembed_layout_small):
        engine = ServingEngine(maxembed_layout_small, EngineConfig())
        assert engine.fault_counters is None

    def test_zero_rate_report_shows_no_fault_activity(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        engine = ServingEngine(
            maxembed_layout_small, EngineConfig(fault_plan=FaultPlan())
        )
        report = engine.serve_trace(list(live)[:100])
        assert report.total_retries == 0
        assert report.total_failed_reads == 0
        assert report.total_missing_keys == 0
        assert report.degraded_queries == 0
        assert report.coverage() == 1.0


class TestDegradedServing:
    def test_transient_errors_recovered_by_retries(
        self, maxembed_layout_small, criteo_small
    ):
        _, live = criteo_small
        engine = ServingEngine(
            maxembed_layout_small,
            EngineConfig(
                fault_plan=FaultPlan(seed=7 + FAULT_SEED, read_error_rate=0.05)
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
                fault_plan=FaultPlan(
                    seed=7 + FAULT_SEED, read_error_rate=0.3, dead_page_rate=0.1
                ),
                retry=RetryPolicy(max_retries=1),
            ),
        )
        report = engine.serve_trace(list(live))  # must not raise
        assert report.total_failed_reads > 0
        assert report.degraded_queries > 0
        assert 0.0 < report.coverage() < 1.0
        assert (
            report.total_missing_keys + report.total_recovered_keys > 0
        )

    def test_per_query_accounting_identity(self, criteo_small):
        _, live = criteo_small
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                fault_plan=FaultPlan(
                    seed=3 + FAULT_SEED, read_error_rate=0.4, corrupt_rate=0.1
                ),
                retry=RetryPolicy(max_retries=1, backoff_us=10.0),
            ),
        )
        for seed_key in range(40):
            query = Query(tuple({seed_key % 16, (seed_key * 7) % 16}))
            result = engine.serve_query(query)
            assert result.requested_keys == (
                result.cache_hits + result.ssd_keys + result.missing_keys
            )
            assert result.degraded == (result.missing_keys > 0)

    def test_corrupt_reads_cost_bandwidth_but_recover(self):
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                fault_plan=FaultPlan(seed=5 + FAULT_SEED, corrupt_rate=0.5),
                retry=RetryPolicy(max_retries=8, backoff_us=5.0),
            ),
        )
        clean = ServingEngine(
            replicated_layout(), EngineConfig(cache_ratio=0.0)
        )
        query = Query(tuple(range(16)))
        faulty_result = engine.serve_query(query)
        clean_result = clean.serve_query(query)
        assert faulty_result.missing_keys == 0
        # Wasted transfers show up as extra page reads and extra latency.
        assert faulty_result.pages_read > clean_result.pages_read
        assert faulty_result.latency_us > clean_result.latency_us


class TestDifferentialRecovery:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dead_rate=st.sampled_from([0.2, 0.45, 0.7]),
        queries=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=15),
                min_size=1,
                max_size=8,
                unique=True,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_dead_pages_lose_exactly_the_unrecoverable_keys(
        self, seed, dead_rate, queries
    ):
        """Replica-aware recovery is exact, never lossy, never lucky.

        Dead pages are persistent and retry-independent, so the set of
        servable keys is fully determined: a key survives iff at least
        one of its holder pages is alive.  The engine must serve exactly
        those keys and report exactly the others missing.
        """
        plan = FaultPlan(seed=seed ^ FAULT_SEED, dead_page_rate=dead_rate)
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                fault_plan=plan,
                retry=RetryPolicy(max_retries=0),
            ),
        )
        for keys in queries:
            expected_missing = sum(
                1
                for key in keys
                if all(plan.page_is_dead(p) for p in holders(key))
            )
            result = engine.serve_query(Query(tuple(keys)))
            assert result.missing_keys == expected_missing
            assert result.ssd_keys == len(keys) - expected_missing

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        error_rate=st.sampled_from([0.1, 0.3, 0.6]),
        keys=st.lists(
            st.integers(min_value=0, max_value=15),
            min_size=1,
            max_size=10,
            unique=True,
        ),
    )
    def test_transient_faults_never_silently_drop_keys(
        self, seed, error_rate, keys
    ):
        """Whatever the fault draw, every requested key is accounted for."""
        engine = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                fault_plan=FaultPlan(
                    seed=seed ^ FAULT_SEED,
                    read_error_rate=error_rate,
                    corrupt_rate=error_rate / 4,
                ),
                retry=RetryPolicy(max_retries=1, backoff_us=10.0),
            ),
        )
        fault_free = ServingEngine(
            replicated_layout(), EngineConfig(cache_ratio=0.0)
        )
        query = Query(tuple(keys))
        result = engine.serve_query(query)
        reference = fault_free.serve_query(query)
        assert result.requested_keys == reference.requested_keys
        assert (
            result.cache_hits + result.ssd_keys + result.missing_keys
            == result.requested_keys
        )
        # The fault-free engine serves everything; the faulty one serves
        # a subset and reports the difference, never more, never negative.
        assert reference.missing_keys == 0
        assert 0 <= result.missing_keys <= result.requested_keys
        # Identical plans replay identically (determinism of the draw).
        replay = ServingEngine(
            replicated_layout(),
            EngineConfig(
                cache_ratio=0.0,
                fault_plan=FaultPlan(
                    seed=seed ^ FAULT_SEED,
                    read_error_rate=error_rate,
                    corrupt_rate=error_rate / 4,
                ),
                retry=RetryPolicy(max_retries=1, backoff_us=10.0),
            ),
        ).serve_query(query)
        assert replay == result
