"""Golden values of the one simulation driver.

``simulate`` replaced four loops: the engine's and the cluster's
``serve_trace`` and the open-loop simulator's unbounded and admitted
paths.  Small seeded runs of each pin what those loops produced, as
``float.hex()`` strings taken before the fold: three closed loops (the
default engine, a hybrid-tier engine and a 4 x 2 cluster, with the
cluster report's per-shard lists) and three open loops (an unbounded
queue, tail admission, admission with brownout).  The closed loops, plus
an engine on a two-drive RAID-0, also pin every counter of every device
they drove.  A change that moves a simulated number fails here, in the
change that moves it.
"""

from __future__ import annotations

import pytest

from repro import (
    ClusterEngine,
    EngineConfig,
    MaxEmbedConfig,
    ServingEngine,
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
#: latency and busy-until.  ``raid`` is the array's aggregate, then each
#: member; ``cluster`` is shard by shard, replica by replica.
GOLDEN_DEVICES = {
    "engine": [
        (3311, 13561856, 0, "0x1.eb01931d2abffp+16", "0x1.da5e235fb8eacp+10"),
    ],
    "hybrid": [
        (453, 1855488, 0, "0x1.1c0f507c9aa6ep+12", "0x1.174d81a0a8f4bp+8"),
    ],
    "raid": [
        (3311, 13561856, 0, "0x1.72ddcd2337952p+15", "0x1.e7e7823ffb314p+9"),
        (1640, 6717440, 0, "0x1.6e213dfabf613p+14", "0x1.e336bf811ad13p+9"),
        (1671, 6844416, 0, "0x1.779a5c4bafc91p+14", "0x1.e7e7823ffb314p+9"),
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


def test_raid_device_counters(maxembed_layout_small, queries):
    engine = ServingEngine(maxembed_layout_small, EngineConfig(raid_members=2))
    engine.serve_trace(queries, warmup_queries=100)
    array = engine.device
    assert (
        device_counters(array, *array._members) == GOLDEN_DEVICES["raid"]
    )


def test_closed_loop_cluster(criteo_small, queries):
    history, _ = criteo_small
    sharded = build_sharded_layout(
        history,
        MaxEmbedConfig(
            num_shards=4,
            shard_strategy="cooccurrence",
            replication_ratio=0.2,
            shp=ShpConfig(max_iterations=8, seed=7),
            seed=7,
        ),
    )
    cluster = ClusterEngine(sharded, EngineConfig(replicas=2))
    report = cluster.serve_trace(queries[:300], warmup_queries=50)
    assert pinned(report.report) == GOLDEN["cluster"]
    assert report.shard_queries == [247, 250, 222, 248]
    assert report.shard_pages_read == [659, 891, 333, 742]
    assert report.shard_ssd_keys == [1087, 1605, 387, 1218]
    assert report.shard_cache_hits == [532, 851, 136, 445]
    assert report.shard_requested_keys == [1619, 2456, 523, 1663]
    assert sum(report.fanouts) == 967
    assert report.mean_straggler_us().hex() == "0x1.1e5a53b7e1006p+1"
    assert report.p99_max_shard_latency_us().hex() == "0x1.a3ed9d0f10660p+3"
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
