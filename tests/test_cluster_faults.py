"""Cluster fault domains: deadlines, breakers, partial gather, swaps, close."""

import dataclasses

import pytest

from repro import (
    BreakerConfig,
    EngineConfig,
    MaxEmbedConfig,
    PageLayout,
    Query,
    QueryTrace,
    ServingError,
    ShardUnavailableError,
    ShpConfig,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.faults.breaker import OPEN


@pytest.fixture
def two_community_trace() -> QueryTrace:
    queries = (
        [Query((0, 1, 2, 3))] * 6
        + [Query((4, 5, 6, 7))] * 4
        + [Query((0, 1, 4, 5))] * 4
        + [Query((2, 3, 6, 7))] * 2
    )
    return QueryTrace(8, queries)


def make_cluster(trace, **engine_kwargs) -> ClusterEngine:
    config = MaxEmbedConfig(
        num_shards=2,
        shard_strategy="modulo",
        shp=ShpConfig(max_iterations=4),
    )
    sharded = build_sharded_layout(trace, config)
    return ClusterEngine(
        sharded, EngineConfig(cache_ratio=0.0, **engine_kwargs)
    )


def slow_down(engine, delay_us: float) -> None:
    """Stretch every result of one shard engine by ``delay_us``."""
    original = engine.serve_query

    def wrapper(query, start_us=0.0):
        result = original(query, start_us)
        return dataclasses.replace(
            result, finish_us=result.finish_us + delay_us
        )

    engine.serve_query = wrapper


def break_engine(engine, exc: Exception) -> None:
    """Make one shard engine raise on every query."""

    def raiser(query, start_us=0.0):
        raise exc

    engine.serve_query = raiser


class TestShardDeadlines:
    def test_slow_shard_times_out_partial_gather(self, two_community_trace):
        cluster = make_cluster(two_community_trace, shard_deadline_us=5_000.0)
        slow_down(cluster.engines[0], 50_000.0)
        report = cluster.serve_trace(two_community_trace)
        # Shard 0 missed every deadline; shard 1 kept serving.
        assert report.shard_timeouts[0] == report.shard_queries[0] > 0
        assert report.shard_timeouts[1] == 0
        assert report.shard_coverage()[0] == 0.0
        assert report.shard_coverage()[1] == 1.0
        assert 0.0 < report.coverage() < 1.0
        assert report.report.total_missing_keys == sum(
            report.shard_missing_keys
        )

    def test_timed_out_fragment_charges_exactly_the_deadline(
        self, two_community_trace
    ):
        deadline = 5_000.0
        cluster = make_cluster(two_community_trace, shard_deadline_us=deadline)
        slow_down(cluster.engines[0], 50_000.0)
        slow_down(cluster.engines[1], 50_000.0)
        result = cluster.serve_query(Query((0, 1, 4, 5)), start_us=100.0)
        assert result.missing_keys == result.requested_keys == 4
        assert result.ssd_keys == 0
        assert result.finish_us == 100.0 + deadline

    def test_fast_shards_unaffected_by_deadline(self, two_community_trace):
        strict = make_cluster(two_community_trace, shard_deadline_us=1e9)
        plain = make_cluster(two_community_trace)
        assert strict.serve_trace(
            two_community_trace
        ).report == plain.serve_trace(two_community_trace).report


class TestCircuitBreakers:
    def test_breaker_trips_and_skips_the_failing_shard(
        self, two_community_trace
    ):
        cluster = make_cluster(
            two_community_trace,
            shard_deadline_us=5_000.0,
            breaker=BreakerConfig(
                failure_threshold=2, recovery_timeout_us=1e12
            ),
        )
        assert cluster.resilient
        slow_down(cluster.engines[0], 50_000.0)
        report = cluster.serve_trace(two_community_trace)
        # Two timeouts trip the breaker; later queries skip at dispatch.
        assert report.shard_timeouts[0] == 2
        assert report.shard_skipped[0] > 0
        assert report.shard_skipped[1] == 0
        assert report.breaker_states[0] == OPEN
        assert report.total_breaker_transitions() == 1
        transitions = report.breaker_transitions[0]
        assert [(t.from_state, t.to_state) for t in transitions] == [
            ("closed", "open")
        ]

    def test_skipped_fragment_has_zero_latency(self, two_community_trace):
        cluster = make_cluster(
            two_community_trace,
            breaker=BreakerConfig(failure_threshold=1, recovery_timeout_us=1e12),
        )
        break_engine(cluster.engines[0], RuntimeError("shard died"))
        # First query records the failure and opens the breaker...
        first = cluster.serve_query(Query((0, 2)), start_us=0.0)
        assert first.missing_keys == 2
        # ...subsequent queries to that shard are rejected instantly.
        second = cluster.serve_query(Query((0, 2)), start_us=1_000.0)
        assert second.missing_keys == 2
        assert second.finish_us == 1_000.0

    def test_worker_exception_degrades_in_resilient_mode(
        self, two_community_trace
    ):
        cluster = make_cluster(
            two_community_trace,
            breaker=BreakerConfig(failure_threshold=3),
        )
        break_engine(cluster.engines[1], RuntimeError("boom"))
        report = cluster.serve_trace(two_community_trace)  # must not raise
        assert report.shard_errors[1] > 0
        assert report.shard_errors[0] == 0
        assert report.shard_coverage()[1] == 0.0
        # After the breaker trips, later fragments are skipped instead of
        # errored; both count as shard failures.
        assert report.total_shard_failures() == (
            report.shard_errors[1] + report.shard_skipped[1]
        )

    def test_recovered_shard_closes_breaker_again(self, two_community_trace):
        cluster = make_cluster(
            two_community_trace,
            shard_deadline_us=5_000.0,
            breaker=BreakerConfig(
                failure_threshold=1, recovery_timeout_us=10_000.0
            ),
        )
        original = cluster.engines[0].serve_query
        slow_down(cluster.engines[0], 50_000.0)
        cluster.serve_query(Query((0, 2)), start_us=0.0)  # trips open
        assert cluster.breakers[0].state == OPEN
        cluster.engines[0].serve_query = original  # the shard heals
        # Past the recovery timeout the probe goes through and succeeds.
        probe = cluster.serve_query(Query((0, 2)), start_us=20_000.0)
        assert probe.missing_keys == 0
        assert cluster.breakers[0].state == "closed"


class TestStrictMode:
    @pytest.mark.parametrize("failing", [0, 1])
    def test_worker_exception_names_the_failing_shard(
        self, two_community_trace, failing
    ):
        cluster = make_cluster(two_community_trace)
        assert not cluster.resilient
        break_engine(cluster.engines[failing], RuntimeError("boom"))
        reads_before = [e.device.stats.reads for e in cluster.engines]
        with pytest.raises(ShardUnavailableError) as info:
            cluster.serve_query(Query((0, 1, 4, 5)))
        assert info.value.shard == failing
        assert f"shard {failing}" in str(info.value)
        # The gather runs in ascending shard id and stops at the failure:
        # shards before it were served, shards after it never were.
        reads = [e.device.stats.reads for e in cluster.engines]
        for shard in range(cluster.num_shards):
            if shard < failing:
                assert reads[shard] > reads_before[shard]
            else:
                assert reads[shard] == reads_before[shard]


class TestSwapRollback:
    def test_wrong_key_count_rejected_before_touching_shard(
        self, two_community_trace
    ):
        cluster = make_cluster(two_community_trace)
        before = cluster.engines[0]
        bogus = PageLayout(2, 4, [(0, 1)])
        with pytest.raises(ServingError):
            cluster.swap_shard(0, bogus)
        assert cluster.engines[0] is before

    def test_engine_build_failure_leaves_old_layout_serving(
        self, two_community_trace
    ):
        cluster = make_cluster(two_community_trace)
        before = cluster.engines[0]
        owned = len(cluster.plan.shard_keys(0))
        # Right key count, but the declared capacity overflows the spec's
        # slot budget, so ServingEngine construction itself fails.
        oversized = PageLayout(
            owned,
            cluster.config.spec.slots_per_page + 1,
            [tuple(range(owned))],
        )
        with pytest.raises(ServingError):
            cluster.swap_shard(0, oversized)
        assert cluster.engines[0] is before
        # The cluster still serves through the original engine.
        assert cluster.serve_query(Query((0, 2))).missing_keys == 0

    def test_successful_swap_resets_breaker(self, two_community_trace):
        cluster = make_cluster(
            two_community_trace,
            breaker=BreakerConfig(failure_threshold=1, recovery_timeout_us=1e12),
        )
        break_engine(cluster.engines[0], RuntimeError("dying"))
        cluster.serve_query(Query((0, 2)))
        assert cluster.breakers[0].state == OPEN
        replacement_layout = cluster.sharded.layouts[0]
        cluster.swap_shard(0, replacement_layout)
        assert cluster.breakers[0].state == "closed"
        assert cluster.serve_query(Query((0, 2))).missing_keys == 0

    def test_out_of_range_shard_rejected(self, two_community_trace):
        cluster = make_cluster(two_community_trace)
        with pytest.raises(ServingError):
            cluster.swap_shard(9, cluster.sharded.layouts[0])


class TestClose:
    def test_close_is_idempotent(self, two_community_trace):
        cluster = make_cluster(two_community_trace)
        cluster.close()
        cluster.close()  # second close is a no-op, not an error

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_close_retires_every_shard_engine(
        self, two_community_trace, replicas
    ):
        cluster = make_cluster(two_community_trace, replicas=replicas)
        owned = (
            cluster.engines
            if cluster.groups is None
            else [e for group in cluster.groups for e in group.engines]
        )
        assert len(owned) == 2 * replicas
        assert not any(engine.closed for engine in owned)
        cluster.close()
        assert all(engine.closed for engine in owned)
        assert all(engine.closed for engine in cluster.engines)

    def test_serving_after_close_still_completes(self, two_community_trace):
        cluster = make_cluster(two_community_trace)
        fanout_query = Query((0, 1, 4, 5))
        before = cluster.serve_query(fanout_query)
        cluster.close()
        assert all(engine.closed for engine in cluster.engines)
        after = cluster.serve_query(fanout_query, start_us=before.finish_us)
        assert after.missing_keys == 0
        assert after.requested_keys == before.requested_keys

    def test_close_during_serve_completes_the_query(self, two_community_trace):
        # close() lands while shard 0's fragment is being served: closing
        # is a retirement marker, so that fragment and the one after it
        # still complete.
        cluster = make_cluster(two_community_trace)
        original = cluster.engines[0].serve_query

        def closing_serve(query, start_us=0.0):
            cluster.close()
            return original(query, start_us)

        cluster.engines[0].serve_query = closing_serve
        result = cluster.serve_query(Query((0, 1, 4, 5)))
        assert result.missing_keys == 0
        assert result.requested_keys == 4
        assert all(engine.closed for engine in cluster.engines)
