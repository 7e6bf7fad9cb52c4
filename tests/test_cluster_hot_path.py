"""Cluster hot path (scatter → replica dispatch → gather) vs. its oracles.

The one-pass implementations are only allowed to be *cheaper* than the
definitional code they replaced, never different.  The replaced code
lives on here as the oracle:

* ``merge_shard_results`` against the generator-``sum`` version, floats
  compared by ``.hex()``;
* ``ReplicaHealthMonitor``: after every step of a random outcome feed the
  attention set equals its definition, and ``dispatch_order`` /
  ``probes_due`` / ``resync_due`` equal the full-scan versions;
* ``ReplicaGroup.serve``: the positionally built result equals
  ``dataclasses.replace`` of the winning attempt's result, field for
  field, on clean, failed-over, timed-out and hedged fragments.
"""

import dataclasses
import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    ClusterEngine,
    EngineConfig,
    HealthConfig,
    MaxEmbedConfig,
    Query,
    QueryTrace,
    ReplicaHealthMonitor,
    ServingError,
    ShardFaultPlan,
    ShpConfig,
    build_sharded_layout,
)
from repro.cluster.replicas.health import (
    DEAD,
    HEALTHY,
    RECOVERING,
    SUSPECT,
)
from repro.errors import ReplicaExhaustedError
from repro.serving.executor import ExecutionResult
from repro.serving.stats import QueryResult, merge_shard_results

# CI's chaos job sweeps this; the properties are seed-independent.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def fingerprint(value):
    """``value`` with every float as its hex string (type kept apart)."""
    if isinstance(value, float):
        return ("float", value.hex())
    if dataclasses.is_dataclass(value):
        return {
            f.name: fingerprint(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [fingerprint(v) for v in value]
    return value


# -- merge_shard_results ------------------------------------------------------


def oracle_merge(results):
    """``merge_shard_results`` as it was before the one-pass rewrite."""
    if not results:
        raise ServingError("cannot merge an empty result list")
    if len(results) == 1:
        return results[0]
    starts = {r.start_us for r in results}
    if len(starts) != 1:
        raise ServingError(
            f"scattered fragments must share a start time, got {starts}"
        )
    finish = max(r.finish_us for r in results)
    executions = [r.execution for r in results if r.execution is not None]
    merged_execution = None
    if executions:
        merged_execution = ExecutionResult(
            start_us=results[0].start_us,
            finish_us=finish,
            sort_us=sum(e.sort_us for e in executions),
            selection_us=sum(e.selection_us for e in executions),
            io_wait_us=sum(e.io_wait_us for e in executions),
            pages_read=sum(e.pages_read for e in executions),
        )
    valid = []
    for r in results:
        valid.extend(r.valid_per_read)
    return QueryResult(
        requested_keys=sum(r.requested_keys for r in results),
        cache_hits=sum(r.cache_hits for r in results),
        ssd_keys=sum(r.ssd_keys for r in results),
        pages_read=sum(r.pages_read for r in results),
        valid_per_read=tuple(valid),
        start_us=results[0].start_us,
        finish_us=finish,
        execution=merged_execution,
        retries=sum(r.retries for r in results),
        failed_reads=sum(r.failed_reads for r in results),
        recovered_keys=sum(r.recovered_keys for r in results),
        missing_keys=sum(r.missing_keys for r in results),
        degrade_level=max(r.degrade_level for r in results),
        degrade_shed_keys=sum(r.degrade_shed_keys for r in results),
        tier_hits=sum(r.tier_hits for r in results),
        failovers=sum(r.failovers for r in results),
        hedges=sum(r.hedges for r in results),
        hedge_wins=sum(r.hedge_wins for r in results),
        served_by=tuple(p for r in results for p in r.served_by),
    )


counts = st.integers(0, 40)
durations = st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False)


@st.composite
def shard_results(draw, start_us):
    """One fragment's result, with or without an execution record."""
    latency = draw(durations)
    finish = start_us + latency
    execution = None
    if draw(st.booleans()):
        execution = ExecutionResult(
            start_us=start_us,
            finish_us=finish,
            sort_us=draw(durations),
            selection_us=draw(durations),
            io_wait_us=draw(durations),
            pages_read=draw(counts),
        )
    return QueryResult(
        requested_keys=draw(counts),
        cache_hits=draw(counts),
        ssd_keys=draw(counts),
        pages_read=draw(counts),
        valid_per_read=tuple(draw(st.lists(st.integers(1, 16), max_size=5))),
        start_us=start_us,
        finish_us=finish,
        execution=execution,
        retries=draw(counts),
        failed_reads=draw(counts),
        recovered_keys=draw(counts),
        missing_keys=draw(counts),
        degrade_level=draw(st.integers(0, 3)),
        degrade_shed_keys=draw(counts),
        tier_hits=draw(counts),
        failovers=draw(st.integers(0, 3)),
        hedges=draw(st.integers(0, 1)),
        hedge_wins=draw(st.integers(0, 1)),
        served_by=tuple(
            draw(
                st.lists(
                    st.tuples(st.integers(0, 7), st.integers(0, 2)),
                    max_size=2,
                )
            )
        ),
    )


@st.composite
def gathered(draw, shared_start=True):
    start = draw(durations)
    results = []
    for index in range(draw(st.integers(2 - shared_start, 6))):
        at = start
        if not shared_start and index > 0 and draw(st.booleans()):
            at = start + draw(st.sampled_from([0.5, 1.0, 128.0]))
        results.append(draw(shard_results(at)))
    return results


class TestMergeMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(results=gathered())
    def test_same_result_to_the_last_bit(self, results):
        merged = merge_shard_results(results)
        assert fingerprint(merged) == fingerprint(oracle_merge(results))
        if len(results) == 1:
            assert merged is results[0]

    @settings(max_examples=100, deadline=None)
    @given(results=gathered(shared_start=False))
    def test_same_error_on_mismatched_starts(self, results):
        try:
            expected = fingerprint(oracle_merge(results))
        except ServingError as exc:
            with pytest.raises(ServingError) as info:
                merge_shard_results(results)
            assert str(info.value) == str(exc)
        else:
            assert fingerprint(merge_shard_results(results)) == expected

    def test_empty_list_rejected(self):
        with pytest.raises(ServingError):
            merge_shard_results([])


# -- ReplicaHealthMonitor -----------------------------------------------------

_DISPATCH_RANK = {HEALTHY: 0, SUSPECT: 1, RECOVERING: 2}


def oracle_attention(monitor):
    clear = monitor.config.clear_error_score
    return {
        r
        for r in range(monitor.num_replicas)
        if monitor.states[r] != HEALTHY or monitor.error_score[r] > clear
    }


def oracle_dispatch_order(monitor):
    candidates = [
        r for r in range(monitor.num_replicas) if monitor.states[r] != DEAD
    ]
    candidates.sort(
        key=lambda r: (
            _DISPATCH_RANK[monitor.states[r]],
            monitor.tainted(r),
            monitor.dispatched[r],
            monitor.error_score[r],
            r,
        )
    )
    return candidates


def oracle_probes_due(monitor, now_us):
    return [
        r
        for r in range(monitor.num_replicas)
        if (
            monitor.states[r] in (SUSPECT, RECOVERING)
            or (monitor.states[r] == HEALTHY and monitor.tainted(r))
        )
        and now_us - monitor.last_probe_us[r]
        >= monitor.config.probe_interval_us
    ]


def oracle_resync_due(monitor, replica, now_us):
    dead_since = monitor.dead_since_us[replica]
    return (
        monitor.states[replica] == DEAD
        and dead_since is not None
        and now_us - dead_since >= monitor.config.resync_delay_us
    )


HEALTH_CONFIGS = [
    HealthConfig(),
    # Twitchy: one failure suspects, two kill, one success promotes.
    HealthConfig(
        ewma_alpha=0.6,
        suspect_error_score=0.5,
        dead_error_score=0.7,
        clear_error_score=0.3,
        suspect_failures=1,
        dead_failures=2,
        promote_successes=1,
        probe_interval_us=10.0,
        resync_delay_us=25.0,
    ),
    # Sticky: scores barely move, so replicas linger tainted but healthy.
    HealthConfig(
        ewma_alpha=0.05,
        clear_error_score=0.01,
        suspect_failures=50,
        dead_failures=60,
        probe_interval_us=0.0,
        resync_delay_us=0.0,
    ),
]

steps = st.one_of(
    st.tuples(st.just("dispatch")),
    st.tuples(
        st.just("success"),
        st.one_of(st.none(), st.floats(0.0, 500.0, allow_nan=False)),
    ),
    st.tuples(st.just("failure"), st.sampled_from(["fault", "timeout"])),
    st.tuples(st.just("probe"), st.booleans()),
    st.tuples(st.just("recovering")),
)


class TestMonitorMatchesDefinitions:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_replicas=st.integers(1, 4),
        config=st.sampled_from(HEALTH_CONFIGS),
        feed=st.lists(
            st.tuples(
                st.integers(0, 3), st.sampled_from([0.0, 3.0, 40.0]), steps
            ),
            max_size=60,
        ),
    )
    def test_attention_and_queries_after_every_step(
        self, num_replicas, config, feed
    ):
        monitor = ReplicaHealthMonitor(num_replicas, config)
        assert monitor.attention == set()
        now = 0.0
        for pick, elapsed, (kind, *args) in feed:
            replica = pick % num_replicas
            now += elapsed
            if kind == "dispatch":
                monitor.record_dispatch(replica)
            elif kind == "success":
                monitor.record_success(replica, args[0], now)
            elif kind == "failure":
                monitor.record_failure(replica, now, reason=args[0])
            elif kind == "probe":
                monitor.record_probe(replica, args[0], now)
            else:
                monitor.mark_recovering(replica, now)
            assert monitor.attention == oracle_attention(monitor)
            assert monitor.dispatch_order() == oracle_dispatch_order(monitor)
            for at in (now, now + config.probe_interval_us, now + 1e6):
                due = oracle_probes_due(monitor, at)
                assert monitor.probes_due(at) == due
                for r in range(num_replicas):
                    assert monitor.probe_due(r, at) == (r in due)
                    assert monitor.resync_due(r, at) == oracle_resync_due(
                        monitor, r, at
                    )


# -- ReplicaGroup.serve -------------------------------------------------------


def make_group(health=None, **engine_kwargs):
    """Shard 0's replica group of a 2-shard modulo cluster over 8 keys."""
    trace = QueryTrace(
        8,
        [Query((0, 1, 2, 3))] * 6
        + [Query((4, 5, 6, 7))] * 4
        + [Query((0, 1, 4, 5))] * 4,
    )
    config = MaxEmbedConfig(
        num_shards=2,
        shard_strategy="modulo",
        shp=ShpConfig(max_iterations=4),
    )
    cluster = ClusterEngine(
        build_sharded_layout(trace, config),
        EngineConfig(cache_ratio=0.0, **engine_kwargs),
        replica_health=health,
    )
    return cluster.groups[0]


def record_attempts(group):
    """Log every ``_attempt`` of ``group``: (replica, fragment, result|None)."""
    log = []
    attempt = group._attempt

    def recording(replica, fragment, at_us, degrade):
        try:
            result = attempt(replica, fragment, at_us, degrade)
        except Exception:
            log.append((replica, fragment, None))
            raise
        log.append((replica, fragment, result))
        return result

    group._attempt = recording
    return log


def stretch(engine, delay_us, every=1):
    """Add ``delay_us`` to every ``every``-th result of one engine."""
    original = engine.serve_query
    calls = [0]

    def wrapper(query, start_us=0.0):
        result = original(query, start_us)
        calls[0] += 1
        if calls[0] % every:
            return result
        return dataclasses.replace(
            result, finish_us=result.finish_us + delay_us
        )

    engine.serve_query = wrapper


def serve_and_check(group, fragments=80, gap_us=50.0):
    """Serve ``fragments`` fragments; compare each result with its oracle.

    Returns (failovers, hedges, hedge_wins, exhausted) seen on the way.
    """
    log = record_attempts(group)
    deadline = group.deadline_us
    totals = [0, 0, 0, 0]
    for index in range(fragments):
        fragment = Query(((index % 4), (index + 1) % 4))
        start = index * gap_us
        del log[:]
        try:
            served = group.serve(fragment, start)
        except ReplicaExhaustedError:
            totals[3] += 1
            continue
        attempts = [
            (replica, result)
            for replica, sent, result in log
            if sent is fragment  # probes send the group's canary query
        ]
        failed = [
            (replica, result)
            for replica, result in attempts
            if result is None
            or (deadline is not None and result.latency_us > deadline)
        ]
        good = [a for a in attempts if a not in failed]
        hedges = hedge_wins = 0
        if failed and attempts[0] in failed:
            # Failover: failures first, then exactly one success.
            assert attempts[: len(failed)] == failed and len(good) == 1
            winner, result = good[0]
            failovers = len(failed)
        else:
            # Clean primary, possibly hedged to a secondary.
            failovers = 0
            winner, result = attempts[0]
            if len(attempts) == 2:
                hedges = 1
                second, alternate = attempts[1]
                if (
                    alternate is not None
                    and alternate.finish_us < result.finish_us
                ):
                    hedge_wins = 1
                    winner, result = second, alternate
            else:
                assert len(attempts) == 1
        expected = dataclasses.replace(
            result,
            start_us=start,
            failovers=failovers,
            hedges=hedges,
            hedge_wins=hedge_wins,
            served_by=((group.shard, winner),),
        )
        assert fingerprint(served) == fingerprint(expected)
        totals[0] += failovers
        totals[1] += hedges
        totals[2] += hedge_wins
    assert (group.failovers, group.hedges, group.hedge_wins) == tuple(
        totals[:3]
    )
    return tuple(totals)


class TestGroupResultIsReplaceOfTheWinner:
    def test_clean_fragments(self):
        group = make_group(replicas=2)
        assert serve_and_check(group) == (0, 0, 0, 0)
        assert group.monitor.attention == set()

    def test_flapping_replicas_fail_over(self):
        plan = ShardFaultPlan(
            seed=FAULT_SEED, flap_rate=1.0, flap_failure_rate=0.4
        )
        health = HealthConfig(probe_interval_us=30.0, resync_delay_us=90.0)
        group = make_group(health, replicas=3, shard_fault_plan=plan)
        failovers, hedges, _, _ = serve_and_check(group, fragments=200)
        assert failovers > 0 and hedges == 0
        assert group.probes > 0

    def test_timed_out_replica_pays_the_deadline_then_fails_over(self):
        group = make_group(replicas=2, shard_deadline_us=500.0)
        stretch(group.engines[0], 5_000.0)
        failovers, _, _, exhausted = serve_and_check(group)
        assert failovers > 0 and exhausted == 0

    def test_gray_degraded_replica_keeps_the_stretched_finish(self):
        plan = ShardFaultPlan(
            seed=FAULT_SEED, degrade_rate=1.0, degrade_factor=4.0
        )
        group = make_group(replicas=2, shard_fault_plan=plan)
        assert serve_and_check(group)[0] == 0

    def test_hedged_stragglers(self):
        group = make_group(
            replicas=2, hedge_quantile=0.5, hedge_budget=1.0
        )
        stretch(group.engines[0], 400.0, every=3)
        stretch(group.engines[1], 400.0, every=5)
        failovers, hedges, hedge_wins, _ = serve_and_check(
            group, fragments=200
        )
        assert failovers == 0
        assert hedges > hedge_wins > 0
