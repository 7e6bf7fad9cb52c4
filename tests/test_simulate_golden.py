"""Golden values of the one simulation driver.

``simulate`` replaced four loops: the engine's and the cluster's
``serve_trace`` and the open-loop simulator's unbounded and admitted
paths.  Small seeded runs of each pin what those loops produced, as
``float.hex()`` strings taken before the fold: three closed loops (the
default engine, a hybrid-tier engine and a 4 x 2 cluster, with the
cluster report's per-shard lists) and three open loops (an unbounded
queue, tail admission, admission with brownout).  The closed loops also
pin every counter of every device they drove.  Two faulted 4 x 2 cluster runs, one at a fan-out-capping
rung, pin every per-shard list of the shard tally (each non-zero on
some shard) and every replica counter.  A change that moves a simulated
number fails here, in the change that moves it.  The same engines and
cluster, fed queries whose keys repeat, must report exactly what they
report for the deduplicated queries.
"""

from __future__ import annotations

import pytest

from repro import (
    BreakerConfig,
    ClusterEngine,
    DegradeLevel,
    EngineConfig,
    HealthConfig,
    MaxEmbedConfig,
    Query,
    ServingEngine,
    ShardFaultPlan,
    ShpConfig,
    build_sharded_layout,
)
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.serving import OpenLoopSimulator

#: Per run: throughput, p99, makespan, sort, I/O wait, pages read and
#: effective bandwidth of the measured queries.
GOLDEN = {
    "engine": (
        "0x1.4636f0acf8f63p+17",
        "0x1.c71c71c71ca80p+5",
        "0x1.50c83fb72ec5bp+10",
        "0x1.6e2c2df5eb38fp+9",
        "0x1.14a9deb120dcep+13",
        2295,
        "0x1.91caae3c7558ep-4",
    ),
    "hybrid": (
        "0x1.8afa33253e2e1p+20",
        "0x1.4d3c361134078p+3",
        "0x1.16269db4854bdp+7",
        "0x1.1c4cf08145306p+3",
        "0x1.b84cf44f69a1ap+9",
        212,
        "0x1.026a439f656f2p-4",
    ),
    "cluster": (
        "0x1.7f2a02454a979p+19",
        "0x1.a3ed9d0f10660p+3",
        "0x1.3e95bee6c97eep+8",
        "0x1.1261e4973aa51p+9",
        "0x1.585923b22ce71p+12",
        2625,
        "0x1.a30f4fad4cc05p-4",
    ),
    "unbounded": (
        "0x1.2645106e8e8f6p+17",
        "0x1.e53fa1b1504b1p+5",
        "0x1.e62c9f24e1b2fp+10",
        "0x1.dd546c6594f73p+9",
        "0x1.93686200eed24p+12",
        2984,
        "0x1.92b3d1546b113p-4",
    ),
    "tail": (
        "0x1.33722dfc445a8p+17",
        "0x1.38ee6ecea7254p+6",
        "0x1.89deb5d898c11p+9",
        "0x1.919cc10d996f3p+8",
        "0x1.3338518432e0dp+12",
        1277,
        "0x1.8d881e78aecf5p-4",
    ),
    "brownout": (
        "0x1.1e80b138d6cbbp+18",
        "0x1.c26ca6eb1db79p+6",
        "0x1.7f769cd9e42d7p+9",
        "0x1.e9c2b61fb3873p+7",
        "0x1.8e1f9576cb3a2p+11",
        826,
        "0x1.8df25cfa6bdadp-4",
    ),
}

#: Per open loop: completions, sheds by reason, deadline misses, brownout
#: transitions, final rung, degraded completions, goodput, offered rate.
GOLDEN_OPEN = {
    "unbounded": (
        293, {}, 0, 0, 0, 0, "0x1.2645106e8e8f6p+17", "0x1.24f8000000000p+17"
    ),
    "tail": (
        124,
        {"tail": 169},
        0,
        0,
        0,
        0,
        "0x1.33722dfc445a8p+17",
        "0x1.86a0000000000p+18",
    ),
    "brownout": (
        225,
        {"tail": 68},
        0,
        8,
        2,
        225,
        "0x1.5f717d3b7b893p+16",
        "0x1.86a0000000000p+18",
    ),
}

#: Per device after the closed loops: reads, bytes read, gathers, total
#: latency and busy-until.  ``cluster`` is shard by shard, replica by
#: replica.
GOLDEN_DEVICES = {
    "engine": [
        (3311, 13561856, 0, "0x1.eb01931d2abffp+16", "0x1.da5e235fb8eacp+10"),
    ],
    "hybrid": [
        (453, 1855488, 0, "0x1.1c0f507c9aa6ep+12", "0x1.174d81a0a8f4bp+8"),
    ],
    "cluster": [
        (409, 1675264, 0, "0x1.22645b5c89ca7p+11", "0x1.79d6b0d5e733fp+8"),
        (397, 1626112, 0, "0x1.20f766d173857p+11", "0x1.7aa6ba2ade9d8p+8"),
        (552, 2260992, 0, "0x1.c0c7bcadb1703p+11", "0x1.7c5f77e6ce8d2p+8"),
        (521, 2134016, 0, "0x1.a1248acd2f1a2p+11", "0x1.7aa6ba2ade9d8p+8"),
        (190, 778240, 0, "0x1.e82c749582c47p+9", "0x1.781647deed8f2p+8"),
        (209, 856064, 0, "0x1.0ed79f5544513p+10", "0x1.7849842629e44p+8"),
        (436, 1785856, 0, "0x1.42531eba5c3a7p+11", "0x1.79e1fa7a5bf3dp+8"),
        (450, 1843200, 0, "0x1.4d61d72874f1ap+11", "0x1.78c1842c4bfeap+8"),
    ],
}

#: The open loops: offered rate and overload knobs (seed 5, 10 % warmup).
OPEN_LOOPS = {
    "unbounded": (150_000.0, {}),
    "tail": (400_000.0, {"admission": AdmissionConfig(capacity=4)}),
    "brownout": (
        400_000.0,
        {
            "admission": AdmissionConfig(capacity=16),
            "brownout": BrownoutConfig(
                high_watermark_us=60.0,
                low_watermark_us=30.0,
                window=8,
                dwell_us=100.0,
                cool_down_observations=4,
            ),
        },
    ),
}


def pinned(report) -> tuple:
    return (
        report.throughput_qps().hex(),
        report.percentile_latency_us(99).hex(),
        report.makespan_us.hex(),
        report.sort_us.hex(),
        report.io_wait_us.hex(),
        report.total_pages_read,
        report.effective_bandwidth_fraction().hex(),
    )


def device_counters(*devices) -> list:
    return [
        (
            d.stats.reads,
            d.stats.bytes_read,
            d.stats.gathers,
            d.stats.total_latency_us.hex(),
            d.stats.busy_until_us.hex(),
        )
        for d in devices
    ]


@pytest.fixture(scope="module")
def queries(criteo_small):
    _, live = criteo_small
    return list(live)


ENGINES = {
    "engine": EngineConfig(),
    "hybrid": EngineConfig(
        tier_mode="hybrid", tier_ratio=0.4, cache_ratio=0.4
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_closed_loop_engine(name, maxembed_layout_small, queries):
    engine = ServingEngine(maxembed_layout_small, ENGINES[name])
    report = engine.serve_trace(queries, warmup_queries=100)
    assert pinned(report) == GOLDEN[name]
    assert device_counters(engine.device) == GOLDEN_DEVICES[name]



@pytest.fixture(scope="module")
def sharded(criteo_small):
    history, _ = criteo_small
    return build_sharded_layout(
        history,
        MaxEmbedConfig(
            num_shards=4,
            shard_strategy="cooccurrence",
            replication_ratio=0.2,
            shp=ShpConfig(max_iterations=8, seed=7),
            seed=7,
        ),
    )


def test_closed_loop_cluster(sharded, queries):
    cluster = ClusterEngine(sharded, EngineConfig(replicas=2))
    report = cluster.serve_trace(queries[:300], warmup_queries=50)
    assert pinned(report.report) == GOLDEN["cluster"]
    assert report.shard_queries == [247, 250, 222, 248]
    assert report.shard_pages_read == [659, 891, 333, 742]
    assert report.shard_ssd_keys == [1087, 1605, 387, 1218]
    assert report.shard_cache_hits == [532, 851, 136, 445]
    assert sum(report.fanouts) == 967
    assert report.mean_straggler_us().hex() == "0x1.1e5a53b7e1006p+1"
    devices = [e.device for group in cluster.groups for e in group.engines]
    assert device_counters(*devices) == GOLDEN_DEVICES["cluster"]


@pytest.mark.parametrize("name", sorted(OPEN_LOOPS))
def test_open_loop(name, maxembed_layout_small, queries):
    offered_qps, knobs = OPEN_LOOPS[name]
    engine = ServingEngine(maxembed_layout_small, EngineConfig())
    report = OpenLoopSimulator(engine, seed=5, **knobs).run(
        queries, offered_qps, warmup_fraction=0.1
    )
    assert pinned(report) == GOLDEN[name]
    assert (
        report.num_queries,
        report.shed,
        report.deadline_misses,
        len(report.brownout_transitions),
        report.final_degrade_level,
        report.degraded_mode_queries(),
        report.goodput_qps().hex(),
        report.offered_qps.hex(),
    ) == GOLDEN_OPEN[name]


#: A 4 x 2 cluster over a hybrid tier under every fault the router and
#: the replica groups handle: crash windows, flaps and gray-degraded
#: replicas (seeded), hedging under a budget, a breaker per shard and a
#: per-attempt deadline.  ``fanout`` serves the same trace at a rung that
#: caps the fan-out at three shards.  Between them every per-shard
#: counter below is non-zero on some shard.
FAULTED_CONFIG = EngineConfig(
    replicas=2,
    tier_mode="hybrid",
    tier_ratio=0.2,
    cache_ratio=0.2,
    shard_fault_plan=ShardFaultPlan(
        seed=7,
        crash_rate=0.5,
        horizon_us=300.0,
        crash_duration_us=80.0,
        flap_rate=0.5,
        flap_failure_rate=0.3,
        degrade_rate=0.5,
        degrade_factor=8.0,
    ),
    hedge_quantile=0.9,
    hedge_budget=0.1,
    breaker=BreakerConfig(failure_threshold=2, recovery_timeout_us=40.0),
    shard_deadline_us=25.0,
)
FAULTED_HEALTH = HealthConfig(probe_interval_us=20.0, resync_delay_us=60.0)
FAULTED_RUNGS = {
    "faulted": None,
    "fanout": DegradeLevel(level=1, name="fanout", fanout_cap=3),
}

#: The :class:`ClusterReport` lists pinned per faulted run.
TALLIED = (
    "shard_queries",
    "shard_pages_read",
    "shard_ssd_keys",
    "shard_cache_hits",
    "shard_tier_hits",
    "shard_failovers",
    "shard_hedges",
    "shard_hedge_wins",
    "shard_timeouts",
    "shard_skipped",
    "shard_errors",
    "shard_shed",
    "shard_hedges_denied",
    "replica_states",
    "replica_transitions",
    "replica_resyncs",
    "replica_probes",
    "breaker_states",
)

#: Per faulted run: every list above, each group's ``counters()`` values,
#: fan-outs, straggler and the pinned merged report.
GOLDEN_FAULTED = {
    "fanout": {
        "shard_queries": [247, 250, 222, 248],
        "shard_pages_read": [183, 0, 63, 306],
        "shard_ssd_keys": [208, 0, 70, 366],
        "shard_cache_hits": [346, 2, 27, 480],
        "shard_tier_hits": [554, 12, 41, 773],
        "shard_failovers": [3, 0, 1, 2],
        "shard_hedges": [7, 0, 0, 9],
        "shard_hedge_wins": [0, 0, 0, 3],
        "shard_timeouts": [0, 4, 0, 0],
        "shard_skipped": [70, 237, 0, 0],
        "shard_errors": [3, 1, 0, 0],
        "shard_shed": [11, 6, 176, 24],
        "shard_hedges_denied": [0, 0, 0, 2],
        "replica_states": [
            ["dead", "dead"],
            ["suspect", "suspect"],
            ["healthy", "healthy"],
            ["healthy", "dead"],
        ],
        "replica_transitions": [6, 2, 2, 6],
        "replica_resyncs": [0, 0, 0, 1],
        "replica_probes": [14, 8, 11, 10],
        "breaker_states": ["open", "open", "closed", "closed"],
        "groups": [
            [213, 4, 7, 0, 0, 14, 6, 0, 0],
            [9, 0, 0, 0, 0, 8, 1, 0, 0],
            [55, 2, 0, 0, 0, 11, 3, 0, 0],
            [269, 3, 9, 3, 2, 10, 7, 1, 0],
        ],
        "fanouts": 967,
        "straggler": "0x1.31064e78cb0d1p+2",
        "report": (
            "0x1.d4200dc37b92ap+19",
            "0x1.8ffffffffffffp+5",
            "0x1.04c3a4efc4ca0p+8",
            "0x1.531bf2f04376fp+5",
            "0x1.d70f4948af732p+10",
            552,
            "0x1.2aaaaaaaaaaabp-4",
        ),
    },
    "faulted": {
        "shard_queries": [247, 250, 222, 248],
        "shard_pages_read": [170, 0, 91, 312],
        "shard_ssd_keys": [194, 0, 99, 376],
        "shard_cache_hits": [323, 0, 80, 492],
        "shard_tier_hits": [513, 0, 89, 795],
        "shard_failovers": [1, 0, 2, 3],
        "shard_hedges": [6, 0, 3, 21],
        "shard_hedge_wins": [0, 0, 0, 10],
        "shard_timeouts": [4, 2, 4, 0],
        "shard_skipped": [85, 246, 103, 0],
        "shard_errors": [4, 2, 0, 0],
        "shard_shed": [0, 0, 0, 0],
        "shard_hedges_denied": [0, 0, 0, 3],
        "replica_states": [
            ["dead", "dead"],
            ["suspect", "suspect"],
            ["suspect", "suspect"],
            ["healthy", "healthy"],
        ],
        "replica_transitions": [8, 2, 8, 10],
        "replica_resyncs": [0, 0, 1, 2],
        "replica_probes": [12, 10, 10, 11],
        "breaker_states": ["open", "open", "open", "closed"],
        "groups": [
            [212, 2, 6, 0, 0, 12, 5, 0, 0],
            [6, 0, 0, 0, 0, 10, 2, 0, 0],
            [122, 3, 3, 0, 0, 10, 1, 1, 0],
            [297, 4, 21, 10, 3, 11, 4, 2, 0],
        ],
        "fanouts": 967,
        "straggler": "0x1.52a28168abb88p+2",
        "report": (
            "0x1.ba7af91f8378cp+19",
            "0x1.9000000000000p+5",
            "0x1.13e09a59c9186p+8",
            "0x1.4e2086f4aad46p+5",
            "0x1.fde2e21cfcc32p+10",
            573,
            "0x1.2ae3da78a0d67p-4",
        ),
    },
}


#: A replica group's lifetime counters, in the order the pins list them.
GROUP_COUNTERS = (
    "fragments",
    "failovers",
    "hedges",
    "hedge_wins",
    "hedges_denied",
    "probes",
    "probe_failures",
    "resyncs",
    "resync_failures",
)


def tallied(report, cluster) -> dict:
    return {
        **{name: getattr(report, name) for name in TALLIED},
        "groups": [
            [getattr(g, name) for name in GROUP_COUNTERS]
            for g in cluster.groups
        ],
        "fanouts": sum(report.fanouts),
        "straggler": report.mean_straggler_us().hex(),
        "report": pinned(report.report),
    }


@pytest.mark.parametrize("name", sorted(FAULTED_RUNGS))
def test_closed_loop_cluster_under_faults(name, sharded, queries):
    cluster = ClusterEngine(
        sharded, FAULTED_CONFIG, replica_health=FAULTED_HEALTH
    )
    report = cluster.serve_trace(
        queries[:300], warmup_queries=50, degrade=FAULTED_RUNGS[name]
    )
    assert tallied(report, cluster) == GOLDEN_FAULTED[name]


def with_repeats(query: Query) -> Query:
    """``query``'s keys followed by a repeated prefix of them."""
    keys = query.keys
    return Query(keys + keys[: (len(keys) + 1) // 2])


@pytest.mark.parametrize("name", ["cluster", *sorted(ENGINES)])
def test_repeated_keys_serve_like_distinct_keys(
    name, maxembed_layout_small, sharded, queries
):
    distinct = [Query(q.unique_keys()) for q in queries[:300]]
    repeated = [with_repeats(q) for q in distinct]
    assert all(len(set(q.keys)) < len(q.keys) for q in repeated)
    runs = []
    for trace in (distinct, repeated):
        if name == "cluster":
            cluster = ClusterEngine(sharded, EngineConfig(replicas=2))
            report = cluster.serve_trace(trace, warmup_queries=50)
            devices = [
                e.device for group in cluster.groups for e in group.engines
            ]
            runs.append(
                (tallied(report, cluster), device_counters(*devices))
            )
        else:
            engine = ServingEngine(maxembed_layout_small, ENGINES[name])
            report = engine.serve_trace(trace, warmup_queries=50)
            runs.append((pinned(report), device_counters(engine.device)))
    assert runs[0] == runs[1]
