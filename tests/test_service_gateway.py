"""Tests for repro.service: gateway core, quotas, coalescing, drain.

The load-bearing property throughout is the accounting invariant —
every offered request resolves as exactly one of completed / shed /
deadline-missed, even under concurrent submitters, engine errors, and
mid-stream shutdown — plus coalescing's two safety rules: batches never
mix tenants, and merged serving is bit-equivalent to individual replay
on the fault-free path.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time

import pytest

from repro import ConfigError, EngineConfig, PageLayout, Query, ServingEngine
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.serving import QueryResult, ServingReport
from repro.service import (
    CoalescerConfig,
    CoreLoadGenerator,
    GatewayCore,
    ServiceConfig,
    TenantConfig,
    TokenBucket,
)


@pytest.fixture
def layout():
    """Eight keys over three pages; keys 0/1/4/5 carry replicas."""
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
    )


@pytest.fixture
def engine(layout):
    return ServingEngine(layout, EngineConfig(cache_ratio=0.0, threads=2))


class RecordingEngine:
    """Engine wrapper that logs every serve_query key set."""

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config
        self.served_keys = []
        self.close_calls = 0

    def serve_query(self, query, start_us=0.0, degrade=None):
        self.served_keys.append(tuple(query.keys))
        return self.inner.serve_query(query, start_us, degrade)

    def close(self):
        self.close_calls += 1

    def __getattr__(self, name):
        return getattr(self.inner, name)


#: ``time_scale`` turning the fixture engine's ≈ 5.9 simulated µs per
#: query into ≈ 24 ms of paced ``asyncio.sleep`` — the in-flight window
#: the queueing scenarios need (an unpaced batch completes inside its
#: flush, so nothing can queue behind it).
SLOW_PACE = 4000.0


def run(coro):
    return asyncio.run(coro)


def check_invariant(core: GatewayCore) -> dict:
    """Assert offered == completed + shed + missed; return the metrics."""
    metrics = core.metrics()
    svc = metrics["service"]
    assert svc["offered"] == svc["accounted"], svc
    assert svc["accounted"] == (
        svc["completed"] + svc["shed_total"] + svc["deadline_misses"]
    )
    # The open_loop section must agree with the service section.
    ol = metrics["open_loop"]
    assert ol["queries"] == svc["completed"]
    assert ol["shed_total"] == svc["shed_total"]
    assert ol["deadline_misses"] == svc["deadline_misses"]
    assert ol["offered"] == svc["offered"]
    return metrics


# ---------------------------------------------------------------------------
# accounting invariant under concurrency
# ---------------------------------------------------------------------------


class TestInvariant:
    def test_concurrent_submitters_account_exactly(self, engine):
        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=4, max_wait_us=200.0),
                admission=AdmissionConfig(capacity=4, policy="tail"),
                max_concurrent_batches=1,
            )
            async with GatewayCore(engine, config) as core:
                outcomes = await asyncio.gather(
                    *(
                        core.submit((i % 8,), f"tenant-{i % 3}")
                        for i in range(60)
                    )
                )
                metrics = check_invariant(core)
            return outcomes, metrics

        outcomes, metrics = run(scenario())
        assert len(outcomes) == 60
        assert metrics["service"]["offered"] == 60
        statuses = {o.status for o in outcomes}
        assert statuses <= {"ok", "shed", "miss"}
        completed = sum(1 for o in outcomes if o.ok)
        shed = sum(1 for o in outcomes if o.status == "shed")
        assert completed == metrics["service"]["completed"]
        assert shed == metrics["service"]["shed_total"]
        # The tiny waiting room under one in-flight batch must shed some.
        assert shed > 0

    def test_engine_error_sheds_instead_of_hanging(self, engine):
        class ExplodingEngine(RecordingEngine):
            def serve_query(self, query, start_us=0.0, degrade=None):
                raise RuntimeError("device on fire")

        async def scenario():
            core = GatewayCore(ExplodingEngine(engine), ServiceConfig())
            async with core:
                outcome = await asyncio.wait_for(
                    core.submit((0, 1)), timeout=5
                )
                metrics = check_invariant(core)
            return outcome, metrics

        outcome, metrics = run(scenario())
        assert outcome.status == "shed"
        assert outcome.shed_reason == "error"
        assert outcome.http_status() == 503
        assert metrics["service"]["shed"] == {"error": 1}
        assert "RuntimeError" in metrics["service"]["batch_errors"][0]
        # The swallowed error is exported as a monotonic counter plus
        # the last error string, so scrapers see failures the capped
        # sample list would eventually hide.
        assert metrics["service"]["batch_errors_total"] == 1
        assert "RuntimeError" in metrics["service"]["last_batch_error"]

    def test_replicated_cluster_exports_replica_section(self):
        from repro import (
            MaxEmbedConfig,
            QueryTrace,
            ShpConfig,
            build_sharded_layout,
        )
        from repro.cluster import ClusterEngine
        from repro.service import render_prometheus

        trace = QueryTrace(
            8, [Query((0, 1, 2, 3)), Query((4, 5, 6, 7))] * 4
        )
        config = MaxEmbedConfig(
            num_shards=2,
            shard_strategy="modulo",
            shp=ShpConfig(max_iterations=2),
        )
        sharded = build_sharded_layout(trace, config)
        cluster = ClusterEngine(
            sharded, EngineConfig(cache_ratio=0.0, replicas=2)
        )

        async def scenario():
            async with GatewayCore(cluster, ServiceConfig()) as core:
                for query in trace.queries[:4]:
                    await asyncio.wait_for(
                        core.submit(tuple(query.keys)), timeout=5
                    )
                return check_invariant(core)

        metrics = run(scenario())
        section = metrics["replicas"]
        assert section["num_replicas"] == 2
        assert section["states"]["healthy"] == 4
        for counter in (
            "failovers",
            "hedges",
            "hedge_wins",
            "hedges_denied",
            "replica_probes",
            "replica_resyncs",
            "replica_transitions",
        ):
            assert counter in section["counters"]
        text = render_prometheus(metrics)
        assert 'maxembed_replicas_states{key="healthy"} 4' in text
        assert "maxembed_replicas_counters_failovers 0" in text

    def test_batch_errors_total_outlives_the_sample_cap(self, engine):
        class ExplodingEngine(RecordingEngine):
            def serve_query(self, query, start_us=0.0, degrade=None):
                raise RuntimeError("device on fire")

        from repro.service import render_prometheus

        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(enabled=False)
            )
            core = GatewayCore(ExplodingEngine(engine), config)
            async with core:
                for _ in range(20):
                    await asyncio.wait_for(core.submit((0,)), timeout=5)
                metrics = check_invariant(core)
            return metrics

        metrics = run(scenario())
        svc = metrics["service"]
        # The sample list caps at 16; the counter keeps counting.
        assert len(svc["batch_errors"]) == 16
        assert svc["batch_errors_total"] == 20
        assert "RuntimeError" in svc["last_batch_error"]
        text = render_prometheus(metrics)
        assert "maxembed_service_batch_errors_total 20" in text

    @pytest.mark.parametrize("path", ["merged", "each", "coalescer-off"])
    def test_bad_key_sheds_only_its_owner(self, layout, path):
        """A key outside the table fails the engine call; coalesced
        neighbours of the request that sent it must still be served."""
        from repro.faults import FaultPlan

        engine = ServingEngine(
            layout,
            EngineConfig(
                cache_ratio=0.0,
                threads=2,
                # A (never-firing) fault plan turns union merging off,
                # so the batch is served member by member.
                fault_plan=FaultPlan.from_spec("seed=3,read_error=0.0")
                if path == "each"
                else None,
            ),
        )

        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(enabled=path != "coalescer-off")
            )
            async with GatewayCore(engine, config) as core:
                outcomes = await asyncio.gather(
                    core.submit((1, 2, 3)),
                    core.submit((10**9,)),
                    core.submit((4, 5)),
                )
                return outcomes, check_invariant(core)

        (first, bad, last), metrics = run(scenario())
        if path != "coalescer-off":
            assert first.coalesced == last.coalesced == 3, (
                "the three must share a batch"
            )
        assert first.ok and first.served == 3
        assert last.ok and last.served == 2
        assert (bad.status, bad.shed_reason) == ("shed", "error")
        svc = metrics["service"]
        assert svc["shed"] == {"error": 1}
        assert svc["completed"] == 2
        assert svc["batch_errors_total"] == 1
        assert "1000000000" in svc["last_batch_error"]

    @pytest.mark.parametrize("kind", ["engine", "cluster"])
    def test_priority_admission_sheds_an_unknown_key_as_error(
        self, layout, kind
    ):
        """The priority policy's hotness scorer counts a key outside the
        table as zero replicas: the request is admitted, then shed
        ``error`` (503) like under every other policy — ``offer`` has
        already counted it offered, so a raise would break the
        invariant."""
        if kind == "engine":
            server = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, threads=2)
            )
        else:
            from repro import MaxEmbedConfig, QueryTrace, ShpConfig
            from repro import build_sharded_layout
            from repro.cluster import ClusterEngine

            trace = QueryTrace(
                8, [Query((0, 1, 2, 3)), Query((4, 5, 6, 7))] * 4
            )
            sharded = build_sharded_layout(
                trace,
                MaxEmbedConfig(
                    num_shards=2,
                    shard_strategy="modulo",
                    shp=ShpConfig(max_iterations=2),
                ),
            )
            server = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))
        num_keys = 8

        async def scenario():
            config = ServiceConfig(
                admission=AdmissionConfig(capacity=8, policy="priority")
            )
            async with GatewayCore(server, config) as core:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        core.submit([1, 2]), core.submit([1, num_keys + 5])
                    ),
                    timeout=5,
                )
                return outcomes, check_invariant(core)

        (good, bad), metrics = run(scenario())
        assert good.ok and good.served == 2
        assert (bad.status, bad.shed_reason) == ("shed", "error")
        assert bad.http_status() == 503
        svc = metrics["service"]
        assert svc["offered"] == 2
        assert svc["completed"] == 1
        assert svc["shed"] == {"error": 1}

    def test_admitted_keys_are_checked_once(self, engine, monkeypatch):
        """``offer`` checks a request's keys; neither the ``priority``
        scorer nor the refresh window's feed re-checks them by building
        a ``Query`` per request: the window gets each request's keys."""

        class Window:
            def __init__(self):
                self.fed = []

            def observe_many(self, batch):
                self.fed.extend(batch)

            def __getattr__(self, name):  # start / stop / pause / resume
                return lambda: None

        built = []
        checks = Query.__post_init__

        def counted(query):
            built.append(query.keys)
            checks(query)

        monkeypatch.setattr(Query, "__post_init__", counted)
        requests = [(0, 1, 1), (4, 5), (2,)]
        window = Window()

        async def scenario():
            config = ServiceConfig(
                admission=AdmissionConfig(capacity=8, policy="priority")
            )
            async with GatewayCore(engine, config, refresh=window) as core:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*(core.submit(keys) for keys in requests)),
                    timeout=5,
                )
                return outcomes, check_invariant(core)

        outcomes, _ = run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        assert built == []
        assert sorted(window.fed) == sorted(requests)

    def test_engine_error_in_paced_batch_resolves_every_member(self, engine):
        class ExplodingEngine(RecordingEngine):
            def serve_query(self, query, start_us=0.0, degrade=None):
                raise RuntimeError("device on fire")

        async def scenario():
            config = ServiceConfig(pace_service=True, time_scale=SLOW_PACE)
            async with GatewayCore(ExplodingEngine(engine), config) as core:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*(core.submit((i,)) for i in range(4))),
                    timeout=5,
                )
                return outcomes, check_invariant(core)

        outcomes, metrics = run(scenario())
        assert [o.shed_reason for o in outcomes] == ["error"] * 4
        assert metrics["service"]["shed"] == {"error": 4}
        assert metrics["service"]["in_flight_batches"] == 0

    def test_deadline_miss_accounted(self, engine):
        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(enabled=False),
                admission=AdmissionConfig(
                    capacity=64, queue_deadline_us=1.0
                ),
                max_concurrent_batches=1,
                pace_service=True,
                time_scale=SLOW_PACE,
            )
            async with GatewayCore(engine, config) as core:
                outcomes = await asyncio.gather(
                    *(core.submit((i % 8,)) for i in range(10))
                )
                metrics = check_invariant(core)
            return outcomes, metrics

        outcomes, metrics = run(scenario())
        misses = [o for o in outcomes if o.status == "miss"]
        # The first request holds the only batch slot for ~24 ms; every
        # waiter's 1 us queue deadline has long lapsed by then.
        assert misses
        assert metrics["service"]["deadline_misses"] == len(misses)
        assert all(o.http_status() == 503 for o in misses)


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_batches_never_mix_tenants(self, engine):
        """Tenant A queries keys 0-3, tenant B keys 4-7, in runs of five
        (a batch ends where the tenant changes): every engine call, the
        merged unions included, must stay inside one tenant's key space."""
        recorder = RecordingEngine(engine)

        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=8, max_wait_us=5_000.0),
                max_concurrent_batches=1,
            )
            async with GatewayCore(recorder, config) as core:
                outcomes = await asyncio.gather(
                    *(
                        core.submit(
                            ((i % 4) + (4 if i // 5 % 2 else 0),),
                            "b" if i // 5 % 2 else "a",
                        )
                        for i in range(40)
                    )
                )
                check_invariant(core)
            return outcomes

        outcomes = run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        # Requests were merged, so purity is not vacuous.
        assert max(len(keys) for keys in recorder.served_keys) > 1
        b_space = set(range(4, 8))
        for keys in recorder.served_keys:
            spaces = {k in b_space for k in keys}
            assert len(spaces) == 1, f"tenant key spaces mixed: {keys}"

    def test_merged_parity_with_individual_replay(self, layout):
        """Fault-free coalesced serving returns the same per-request
        answer (requested/served/missing/status) as individual replay."""
        queries = [Query(((i % 8), (i * 3) % 8)) for i in range(30)]

        async def scenario():
            gateway_engine = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, threads=2)
            )
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=8, max_wait_us=5_000.0),
                max_concurrent_batches=1,
            )
            async with GatewayCore(gateway_engine, config) as core:
                outcomes = await asyncio.gather(
                    *(core.submit(q.keys) for q in queries)
                )
                merged = core.metrics()["service"]["coalescer"][
                    "merged_batches"
                ]
            return outcomes, merged

        outcomes, merged = run(scenario())
        assert merged > 0, "expected at least one coalesced flush"
        replay_engine = ServingEngine(
            layout, EngineConfig(cache_ratio=0.0, threads=2)
        )
        for query, outcome in zip(queries, outcomes):
            result = replay_engine.serve_query(query, 0.0)
            assert outcome.ok
            assert outcome.served == len(query.unique_keys())
            assert outcome.missing == result.missing_keys == 0
            assert outcome.degrade_level == result.degrade_level == 0

    def test_idle_flush_is_immediate(self, engine):
        """A lone request must not wait out max_wait_us on an idle
        gateway — the idle bypass flushes it immediately."""

        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(
                    max_batch=64, max_wait_us=30_000_000.0
                )
            )
            async with GatewayCore(engine, config) as core:
                t0 = time.monotonic()
                outcome = await asyncio.wait_for(
                    core.submit((0, 1, 2)), timeout=5
                )
                return outcome, time.monotonic() - t0

        outcome, elapsed = run(scenario())
        assert outcome.ok
        assert elapsed < 2.0

    def test_one_flush_per_tick(self, engine):
        """Every submit of one loop tick is in the queue when the flush
        runs: N of them leave as ceil(N / max_batch) batches, and a lone
        submit leaves alone on the next tick."""

        async def scenario():
            config = ServiceConfig(coalescer=CoalescerConfig(max_batch=4))
            async with GatewayCore(engine, config) as core:
                outcomes = await asyncio.gather(
                    *(core.submit((i % 8,)) for i in range(10))
                )
                lone = await core.submit((0,))
                return outcomes, lone

        outcomes, lone = run(scenario())
        assert [o.coalesced for o in outcomes] == [4] * 8 + [2] * 2
        assert lone.ok and lone.coalesced == 1
        # One flush served all ten: they share its tick, in queue order.
        starts = [o.start_us for o in outcomes]
        assert starts == sorted(starts)

    def test_max_wait_fires_behind_a_paced_batch(self, layout):
        """With a batch in flight and a slot free, a lone waiter is held
        for ``max_wait_us`` (hoping for company) and then flushed by the
        timer — not by the in-flight batch's completion, which comes much
        later.  (With ``max_concurrent_batches=1`` the wait never applies:
        no slot is free until the completion, and then the gateway is
        idle, so the waiter leaves at once.)"""
        max_wait_us = 20_000.0
        time_scale = 10 * SLOW_PACE  # ~240 ms in flight

        async def scenario(slots):
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=8, max_wait_us=max_wait_us),
                max_concurrent_batches=slots,
                pace_service=True,
                time_scale=time_scale,
            )
            engine = ServingEngine(
                layout, EngineConfig(cache_ratio=0.0, threads=2)
            )
            async with GatewayCore(engine, config) as core:
                first = asyncio.ensure_future(core.submit((0,)))
                await asyncio.sleep(0.002)
                assert core.health()["in_flight_batches"] == 1
                waiter = await core.submit((1,))
                first = await first
            assert first.ok and waiter.ok
            in_flight_until = (
                first.start_us + (first.finish_us - first.start_us) * time_scale
            )
            return waiter, in_flight_until

        waiter, in_flight_until = run(scenario(slots=2))
        assert waiter.start_us - waiter.arrival_us >= max_wait_us
        assert waiter.start_us < in_flight_until, "the timer flushed it"

        waiter, in_flight_until = run(scenario(slots=1))
        assert waiter.start_us >= in_flight_until

    def test_faulty_engine_disables_union_merging(self, layout):
        """With a fault plan the gateway must serve members one by one
        (missing keys need per-request attribution)."""
        from repro.faults import FaultPlan

        async def scenario():
            faulty = ServingEngine(
                layout,
                EngineConfig(
                    cache_ratio=0.0,
                    threads=2,
                    fault_plan=FaultPlan.from_spec("seed=3,read_error=0.3"),
                ),
            )
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=8, max_wait_us=5_000.0),
                max_concurrent_batches=1,
            )
            async with GatewayCore(faulty, config) as core:
                outcomes = await asyncio.gather(
                    *(core.submit((i % 8,)) for i in range(20))
                )
                metrics = check_invariant(core)
            return outcomes, metrics

        outcomes, metrics = run(scenario())
        coalescer = metrics["service"]["coalescer"]
        assert coalescer["merged_batches"] == 0
        assert coalescer["batches"] >= 1
        assert all(o.ok for o in outcomes)

    def test_disabled_coalescer_serves_singly(self, engine):
        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(enabled=False),
                max_concurrent_batches=1,
            )
            async with GatewayCore(engine, config) as core:
                await asyncio.gather(
                    *(core.submit((i % 8,)) for i in range(12))
                )
                return core.metrics()["service"]["coalescer"]

        coalescer = run(scenario())
        assert coalescer["batches"] == 12
        assert coalescer["merged_batches"] == 0
        assert coalescer["mean_batch_size"] == 1.0


# ---------------------------------------------------------------------------
# quotas and priorities
# ---------------------------------------------------------------------------


class TestQuota:
    def test_token_bucket_refills_continuously(self):
        bucket = TokenBucket(rate_qps=2.0, burst=2)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        # 2 qps = one token per 500 ms = 500_000 us.
        assert not bucket.try_take(100_000.0)
        assert bucket.try_take(600_000.0)
        # Refill clamps at burst.
        bucket2 = TokenBucket(rate_qps=1000.0, burst=3)
        bucket2.try_take(0.0)
        bucket2._refill(10_000_000.0)
        assert bucket2.tokens == 3.0

    def test_token_bucket_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate_qps=0.0, burst=1)
        with pytest.raises(ConfigError):
            TokenBucket(rate_qps=1.0, burst=0)

    def test_over_quota_is_shed_with_429(self, engine):
        async def scenario():
            config = ServiceConfig(
                tenants=(
                    TenantConfig(name="metered", rate_qps=0.001, burst=2),
                )
            )
            async with GatewayCore(engine, config) as core:
                first = await core.submit((0,), "metered")
                second = await core.submit((1,), "metered")
                third = await core.submit((2,), "metered")
                unmetered = await core.submit((3,), "other")
                metrics = check_invariant(core)
            return first, second, third, unmetered, metrics

        first, second, third, unmetered, metrics = run(scenario())
        assert first.ok and second.ok
        assert third.status == "shed"
        assert third.shed_reason == "quota"
        assert third.http_status() == 429
        assert unmetered.ok  # other tenants are untouched
        assert metrics["service"]["shed"] == {"quota": 1}

    def test_tenant_priority_feeds_admission(self, engine):
        """Under the priority policy a hot tenant's request evicts a
        cold tenant's waiter when the queue is full."""

        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(enabled=False),
                admission=AdmissionConfig(capacity=1, policy="priority"),
                tenants=(
                    TenantConfig(name="gold", priority=10.0),
                    TenantConfig(name="bronze", priority=0.0),
                ),
                max_concurrent_batches=1,
                pace_service=True,
                time_scale=2 * SLOW_PACE,
            )
            async with GatewayCore(engine, config) as core:
                # Occupy the single batch slot, then fill the queue with
                # a bronze waiter; gold arrives into the full queue.
                blocker = asyncio.ensure_future(core.submit((0,), "bronze"))
                await asyncio.sleep(0.002)
                bronze = asyncio.ensure_future(core.submit((1,), "bronze"))
                await asyncio.sleep(0.001)
                gold = asyncio.ensure_future(core.submit((2,), "gold"))
                results = await asyncio.gather(blocker, bronze, gold)
                check_invariant(core)
            return results

        blocker, bronze, gold = run(scenario())
        assert blocker.ok
        assert gold.ok, "high-priority tenant should evict the cold waiter"
        assert bronze.status == "shed"
        assert bronze.shed_reason == "priority"


# ---------------------------------------------------------------------------
# brownout integration
# ---------------------------------------------------------------------------


class TestBrownout:
    def test_sustained_pressure_degrades_requests(self, engine):
        async def scenario():
            # Watermarks far below the engine's simulated latencies, so
            # the very first completion trips the ladder.
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=4, max_wait_us=100.0),
                brownout=BrownoutConfig(
                    high_watermark_us=1.0,
                    low_watermark_us=0.5,
                    window=4,
                    dwell_us=0.0,
                ),
                max_concurrent_batches=1,
            )
            async with GatewayCore(engine, config) as core:
                outcomes = []
                for i in range(12):
                    outcomes.append(await core.submit((i % 8,)))
                metrics = check_invariant(core)
            return outcomes, metrics

        outcomes, metrics = run(scenario())
        assert metrics["service"]["brownout_level"] > 0
        assert any(o.degrade_level > 0 for o in outcomes)
        assert metrics["open_loop"]["brownout_transitions"] >= 1


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_sheds_waiters_and_closes_engine_once(self, engine):
        recorder = RecordingEngine(engine)

        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(enabled=False),
                max_concurrent_batches=1,
                pace_service=True,
                time_scale=2 * SLOW_PACE,
            )
            core = GatewayCore(recorder, config)
            await core.start()
            submissions = [
                asyncio.ensure_future(core.submit((i % 8,)))
                for i in range(6)
            ]
            await asyncio.sleep(0.002)  # first request is in flight
            await core.stop()
            outcomes = await asyncio.gather(*submissions)
            late = await core.submit((0,))
            metrics = check_invariant(core)
            await core.stop()  # idempotent
            return outcomes, late, metrics

        outcomes, late, metrics = run(scenario())
        assert all(o.status in ("ok", "shed") for o in outcomes)
        completed = [o for o in outcomes if o.ok]
        drained = [o for o in outcomes if o.shed_reason == "drain"]
        assert completed, "the in-flight request must complete"
        assert drained, "queued waiters must be shed on drain"
        assert late.shed_reason == "drain"
        assert recorder.close_calls == 1
        assert metrics["service"]["draining"] is True

    def test_gateway_starts_no_thread(self, engine):
        import threading

        async def scenario():
            counts = [threading.active_count()]
            core = GatewayCore(engine, ServiceConfig())
            await core.start()
            for i in range(100):
                await asyncio.gather(
                    core.submit((i % 8,)), core.submit(((i + 1) % 8,))
                )
            counts.append(threading.active_count())
            await core.stop()
            counts.append(threading.active_count())
            return counts, check_invariant(core)

        counts, metrics = run(scenario())
        assert metrics["service"]["completed"] == 200
        assert counts[0] == counts[1] == counts[2]

    def test_engine_without_close_is_fine(self, engine):
        async def scenario():
            async with GatewayCore(engine, ServiceConfig()) as core:
                outcome = await core.submit((0,))
            return outcome

        assert run(scenario()).ok


# ---------------------------------------------------------------------------
# core load generator
# ---------------------------------------------------------------------------


class TestMemory:
    def test_no_per_request_record_outlives_its_reply(self, engine):
        def live_results() -> int:
            gc.collect()
            return sum(1 for o in gc.get_objects() if type(o) is QueryResult)

        async def submit_all(core, count) -> None:
            # Ten at a time: coalesced batches and single requests alike.
            for start in range(0, count, 10):
                await asyncio.gather(
                    *(core.submit((i % 8,)) for i in range(start, start + 10))
                )

        async def scenario():
            async with GatewayCore(engine) as core:
                await submit_all(core, 100)
                before = live_results()
                await submit_all(core, 500)
                after = live_results()
                metrics = check_invariant(core)
            return before, after, metrics

        before, after, metrics = run(scenario())
        assert after <= before
        assert metrics["service"]["completed"] == 600
        assert metrics["open_loop"]["queries"] == 600
        assert metrics["serving"]["queries"] <= 600


class TestCoreLoadGenerator:
    def test_closed_loop_reconciles_with_gateway(self, engine):
        async def scenario():
            config = ServiceConfig(
                coalescer=CoalescerConfig(max_batch=8, max_wait_us=500.0)
            )
            async with GatewayCore(engine, config) as core:
                generator = CoreLoadGenerator(
                    core,
                    [Query((i % 8,)) for i in range(16)],
                    concurrency=4,
                    duration_s=0.3,
                )
                report = await generator.run()
                metrics = check_invariant(core)
            return report, metrics

        report, metrics = run(scenario())
        assert report.offered > 0
        assert report.offered == (
            report.completed + report.shed_total + report.errors
        )
        assert report.completed == metrics["service"]["completed"]
        assert report.achieved_qps() > 0
        assert report.goodput_qps() > 0
        d = report.as_dict(latency_slo_us=10_000_000.0)
        assert d["offered"] == report.offered
        assert d["errors"] == 0


# ---------------------------------------------------------------------------
# report serialization (as_dict parity with ClusterReport)
# ---------------------------------------------------------------------------


class TestReportDicts:
    def test_serving_report_as_dict(self, engine):
        report = ServingReport()
        for i in range(10):
            result = engine.serve_query(
                Query((i % 8, (i + 1) % 8)), float(i * 10)
            )
            report.add(result, result.start_us)
        data = report.as_dict()
        assert data["queries"] == 10
        assert data["requested_keys"] == report.total_requested
        assert data["pages_read"] == report.total_pages_read
        assert data["coverage"] == 1.0
        assert 0.0 <= data["cache_hit_rate"] <= 1.0
        assert data["missing_keys"] == 0
        # JSON-ready: plain scalars, and the shed breakdown by reason.
        assert json.loads(json.dumps(data)) == data

    def test_open_loop_report_as_dict(self):
        report = ServingReport(
            offered_qps=100.0,
            offered=10,
            shed={"tail": 1},
            deadline_misses=1,
        )
        for i in range(8):
            report.add_request(float(i), float(i), float(i + 100), 2, 0, 0)
        data = report.as_dict()
        assert data["offered"] == 10
        assert data["queries"] == 8
        assert data["offered"] == (
            data["queries"] + data["shed_total"] + data["deadline_misses"]
        )
        assert data["shed"] == {"tail": 1}
        assert data["p99_latency_us"] == 100.0
        # The SLO threads through to goodput.
        strict = report.as_dict(latency_slo_us=1.0)
        assert strict["goodput_qps"] == 0.0
        assert report.as_dict(latency_slo_us=1e9)["goodput_qps"] > 0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_bad_values_raise(self):
        with pytest.raises(ConfigError):
            CoalescerConfig(max_batch=0)
        with pytest.raises(ConfigError):
            CoalescerConfig(max_wait_us=-1.0)
        with pytest.raises(ConfigError):
            TenantConfig(name="")
        with pytest.raises(ConfigError):
            TenantConfig(name="t", rate_qps=-1.0)
        with pytest.raises(ConfigError):
            ServiceConfig(max_concurrent_batches=0)
        with pytest.raises(ConfigError):
            ServiceConfig(time_scale=0.0)
        with pytest.raises(ConfigError):
            ServiceConfig(
                tenants=(
                    TenantConfig(name="dup"),
                    TenantConfig(name="dup"),
                )
            )

    def test_tenant_lookup_falls_back_to_default(self):
        config = ServiceConfig(tenants=(TenantConfig(name="a", priority=2.0),))
        assert config.tenant("a").priority == 2.0
        assert config.tenant("unknown").name == "default"
        assert config.tenant("unknown").rate_qps is None

    def test_malformed_query_rejected_before_accounting(self, engine):
        async def scenario():
            async with GatewayCore(engine, ServiceConfig()) as core:
                with pytest.raises(ConfigError):
                    await core.submit(())
                with pytest.raises(ConfigError):
                    await core.submit((-1,))
                return core.metrics()["service"]["offered"]

        assert run(scenario()) == 0
