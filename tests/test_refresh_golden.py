"""Golden trace of the refresh daemon's repair ladder.

Each scenario drives a daemon step by step over the same drift: a
baseline step on live traffic, then drifted traffic and several repair
steps.  Every ``step()`` is reduced to one line — the action (with the
per-shard actions of a cluster repair), the daemon state, its counters
and rungs, the active version and version labels (one engine) or the
per-shard swap counts (a cluster), and each drift watcher's
``baseline_bw`` / ``last_bw`` as ``float.hex()``.  The expected lines
pin what the ladder decides and measures, bit for bit: a change to how
targets are probed, repaired or swapped shows here first.

Single-engine swap *failures* are left out on purpose: their rollback
reinstalls the displaced engine, which ``test_refresh_faults.py``
checks directly.
"""

import pytest

from repro import (
    EngineConfig,
    MaxEmbedConfig,
    RefreshConfig,
    RefreshDaemon,
    RefreshFaultPlan,
    ShpConfig,
    build_offline_layout,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.core import LayoutManager
from repro.workloads.drift import drifted_trace_for

COUNTERS = (
    "steps",
    "probes",
    "drift_detections",
    "tier_replans",
    "rebuild_attempts",
    "swaps",
    "rollbacks",
    "rebuild_failures",
    "swap_failures",
    "shadow_rejections",
    "abandoned_repairs",
    "consecutive_failures",
)

#: Steps taken after each change of traffic.
REPAIR_STEPS = 3

HYBRID = dict(tier_mode="hybrid", tier_ratio=0.05)


def _build_config(num_shards: int = 1) -> MaxEmbedConfig:
    return MaxEmbedConfig(
        strategy="maxembed",
        replication_ratio=0.2,
        shp=ShpConfig(max_iterations=6, seed=7),
        num_shards=num_shards,
        seed=7,
    )


def _daemon_config(**overrides) -> RefreshConfig:
    defaults = dict(
        interval_s=None,
        window_size=256,
        min_window=64,
        probe_max_queries=200,
        backoff_s=0.0,
        drop_fraction=0.10,
        max_retries=2,
        max_failures=50,
    )
    defaults.update(overrides)
    return RefreshConfig(**defaults)


@pytest.fixture(scope="module")
def drift_pair(criteo_small):
    history, live = criteo_small
    drifted = drifted_trace_for("criteo", scale="small", base_seed=7,
                                drift_seed=11)
    _, drifted_live = drifted.split(0.5)
    return history, live, drifted_live


def _hex(value) -> str:
    return "-" if value is None else float(value).hex()


def _record(daemon: RefreshDaemon, out: dict) -> str:
    status = daemon.status()
    action = out["action"]
    shards = out.get("shards")
    if isinstance(shards, dict):
        action += "[" + ",".join(
            f"{shard}:{shards[shard]['action']}" for shard in sorted(shards)
        ) + "]"
    counters = ",".join(str(status[key]) for key in COUNTERS)
    rungs = status["rungs"]
    rung_line = ",".join(str(rungs[str(i)]) for i in range(len(rungs)))
    target = daemon.target
    if isinstance(target, ClusterEngine):
        served = "swaps=" + ",".join(map(str, target.swap_counts))
    else:
        served = f"v{target.active_version}:" + ",".join(
            record.label for record in target.versions()
        )
    watchers = daemon._watchers
    watcher_line = ";".join(
        f"{_hex(watchers[i].baseline_bw)}/{_hex(watchers[i].last_bw)}"
        for i in range(len(watchers))
    )
    return " | ".join(
        [action, status["state"], counters, rung_line, served, watcher_line]
    )


def _drive(daemon: RefreshDaemon, drift_pair) -> list:
    """Baseline on live traffic, then drift away, back, and away again."""
    _, live, drifted_live = drift_pair
    daemon.observe_many(q.keys for q in live.queries[:200])
    records = [_record(daemon, daemon.step())]
    for phase in (drifted_live, live, drifted_live):
        daemon.observe_many(q.keys for q in phase.queries)
        for _ in range(REPAIR_STEPS):
            records.append(_record(daemon, daemon.step()))
    return records


def _single(drift_pair, faults) -> RefreshDaemon:
    history, _, _ = drift_pair
    layout = build_offline_layout(history, _build_config())
    return RefreshDaemon(
        LayoutManager(layout, EngineConfig(**HYBRID)),
        _daemon_config(),
        build_config=_build_config(),
        fault_plan=faults,
    )


def _cluster(drift_pair, faults, fraction, tiered) -> RefreshDaemon:
    history, _, _ = drift_pair
    config = _build_config(num_shards=2)
    engine_config = EngineConfig(cache_ratio=0.0, **(HYBRID if tiered else {}))
    return RefreshDaemon(
        ClusterEngine(build_sharded_layout(history, config), engine_config),
        _daemon_config(full_replace_fraction=fraction, tier_first=tiered),
        build_config=config,
        fault_plan=faults,
    )


SCENARIOS = {
    "single": lambda pair: _single(pair, None),
    "single-faulty": lambda pair: _single(
        pair,
        RefreshFaultPlan(
            seed=1, rebuild_failure_rate=0.3, corrupt_artifact_rate=0.3
        ),
    ),
    "cluster-1.0-tiered": lambda pair: _cluster(pair, None, 1.0, True),
    "cluster-1.0-tiered-swap-faults": lambda pair: _cluster(
        pair, RefreshFaultPlan(seed=0, swap_failure_rate=0.3), 1.0, True
    ),
    "cluster-0.5": lambda pair: _cluster(pair, None, 0.5, False),
    "cluster-0.5-swap-faults": lambda pair: _cluster(
        pair, RefreshFaultPlan(seed=0, swap_failure_rate=0.3), 0.5, False
    ),
}

# Recorded from the daemon before its two loops were folded into one.
# One step per line; see _record for the fields.
GOLDEN = {
    'cluster-0.5': [
        'healthy | watching | 1,1,0,0,0,0,0,0,0,0,0,0 | 0,0 | swaps=0,0 | 0x1.b828796c44ce7p-4/0x1.b828796c44ce7p-4;0x1.256be14fb256cp-3/0x1.256be14fb256cp-3',
        'full-replace | watching | 2,2,1,0,1,1,0,0,0,0,0,0 | 3,3 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.4178bb67ac638p-4;0x1.1eef31723ce4fp-3/0x1.468c8b2855613p-4',
        'healthy | watching | 3,3,1,0,1,1,0,0,0,0,0,0 | 0,0 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'healthy | watching | 4,4,1,0,1,1,0,0,0,0,0,0 | 0,0 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'full-replace | watching | 5,5,2,0,2,2,0,0,0,0,0,0 | 3,3 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.21c52ca9f0bfcp-4;0x1.4448be405987bp-3/0x1.712b65862bcb7p-4',
        'healthy | watching | 6,6,2,0,2,2,0,0,0,0,0,0 | 0,0 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.092bdce8df4d6p-3;0x1.4448be405987bp-3/0x1.4448be405987bp-3',
        'healthy | watching | 7,7,2,0,2,2,0,0,0,0,0,0 | 0,0 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.092bdce8df4d6p-3;0x1.4448be405987bp-3/0x1.4448be405987bp-3',
        'full-replace | watching | 8,8,3,0,3,3,0,0,0,0,0,0 | 3,3 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.4435caef28d44p-4;0x1.1eef31723ce4fp-3/0x1.4550ea2ef277ep-4',
        'healthy | watching | 9,9,3,0,3,3,0,0,0,0,0,0 | 0,0 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'healthy | watching | 10,10,3,0,3,3,0,0,0,0,0,0 | 0,0 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
    ],
    'cluster-0.5-swap-faults': [
        'healthy | watching | 1,1,0,0,0,0,0,0,0,0,0,0 | 0,0 | swaps=0,0 | 0x1.b828796c44ce7p-4/0x1.b828796c44ce7p-4;0x1.256be14fb256cp-3/0x1.256be14fb256cp-3',
        'full-replace | watching | 2,2,1,0,2,1,1,0,1,0,0,0 | 3,3 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.4178bb67ac638p-4;0x1.1eef31723ce4fp-3/0x1.468c8b2855613p-4',
        'healthy | watching | 3,3,1,0,2,1,1,0,1,0,0,0 | 0,0 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'healthy | watching | 4,4,1,0,2,1,1,0,1,0,0,0 | 0,0 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'full-replace | watching | 5,5,2,0,3,2,1,0,1,0,0,0 | 3,3 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.21c52ca9f0bfcp-4;0x1.4448be405987bp-3/0x1.712b65862bcb7p-4',
        'healthy | watching | 6,6,2,0,3,2,1,0,1,0,0,0 | 0,0 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.092bdce8df4d6p-3;0x1.4448be405987bp-3/0x1.4448be405987bp-3',
        'healthy | watching | 7,7,2,0,3,2,1,0,1,0,0,0 | 0,0 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.092bdce8df4d6p-3;0x1.4448be405987bp-3/0x1.4448be405987bp-3',
        'full-replace | watching | 8,8,3,0,4,3,1,0,1,0,0,0 | 3,3 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.4435caef28d44p-4;0x1.1eef31723ce4fp-3/0x1.4550ea2ef277ep-4',
        'healthy | watching | 9,9,3,0,4,3,1,0,1,0,0,0 | 0,0 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'healthy | watching | 10,10,3,0,4,3,1,0,1,0,0,0 | 0,0 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
    ],
    'cluster-1.0-tiered': [
        'healthy | watching | 1,1,0,0,0,0,0,0,0,0,0,0 | 0,0 | swaps=0,0 | 0x1.b828796c44ce7p-4/0x1.b828796c44ce7p-4;0x1.256be14fb256cp-3/0x1.256be14fb256cp-3',
        'repair[0:tier-replan,1:tier-replan] | watching | 2,2,1,2,0,0,0,0,0,0,0,0 | 1,1 | swaps=0,0 | 0x1.b828796c44ce7p-4/0x1.4178bb67ac638p-4;0x1.256be14fb256cp-3/0x1.468c8b2855613p-4',
        'full-replace | watching | 3,3,2,2,1,1,0,0,0,0,0,0 | 3,3 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.4178bb67ac638p-4;0x1.1eef31723ce4fp-3/0x1.468c8b2855613p-4',
        'healthy | watching | 4,4,2,2,1,1,0,0,0,0,0,0 | 0,0 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'repair[0:tier-replan,1:tier-replan] | watching | 5,5,3,4,1,1,0,0,0,0,0,0 | 1,1 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.21c52ca9f0bfcp-4;0x1.1eef31723ce4fp-3/0x1.712b65862bcb7p-4',
        'full-replace | watching | 6,6,4,4,2,2,0,0,0,0,0,0 | 3,3 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.21c52ca9f0bfcp-4;0x1.4448be405987bp-3/0x1.712b65862bcb7p-4',
        'healthy | watching | 7,7,4,4,2,2,0,0,0,0,0,0 | 0,0 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.092bdce8df4d6p-3;0x1.4448be405987bp-3/0x1.4448be405987bp-3',
        'repair[0:tier-replan,1:tier-replan] | watching | 8,8,5,6,2,2,0,0,0,0,0,0 | 1,1 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.4435caef28d44p-4;0x1.4448be405987bp-3/0x1.4550ea2ef277ep-4',
        'full-replace | watching | 9,9,6,6,3,3,0,0,0,0,0,0 | 3,3 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.4435caef28d44p-4;0x1.1eef31723ce4fp-3/0x1.4550ea2ef277ep-4',
        'healthy | watching | 10,10,6,6,3,3,0,0,0,0,0,0 | 0,0 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
    ],
    'cluster-1.0-tiered-swap-faults': [
        'healthy | watching | 1,1,0,0,0,0,0,0,0,0,0,0 | 0,0 | swaps=0,0 | 0x1.b828796c44ce7p-4/0x1.b828796c44ce7p-4;0x1.256be14fb256cp-3/0x1.256be14fb256cp-3',
        'repair[0:tier-replan,1:tier-replan] | watching | 2,2,1,2,0,0,0,0,0,0,0,0 | 1,1 | swaps=0,0 | 0x1.b828796c44ce7p-4/0x1.4178bb67ac638p-4;0x1.256be14fb256cp-3/0x1.468c8b2855613p-4',
        'full-replace | watching | 3,3,2,2,2,1,1,0,1,0,0,0 | 3,3 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.4178bb67ac638p-4;0x1.1eef31723ce4fp-3/0x1.468c8b2855613p-4',
        'healthy | watching | 4,4,2,2,2,1,1,0,1,0,0,0 | 0,0 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
        'repair[0:tier-replan,1:tier-replan] | watching | 5,5,3,4,2,1,1,0,1,0,0,0 | 1,1 | swaps=1,1 | 0x1.3379cb9ae30b8p-3/0x1.21c52ca9f0bfcp-4;0x1.1eef31723ce4fp-3/0x1.712b65862bcb7p-4',
        'full-replace | watching | 6,6,4,4,3,2,1,0,1,0,0,0 | 3,3 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.21c52ca9f0bfcp-4;0x1.4448be405987bp-3/0x1.712b65862bcb7p-4',
        'healthy | watching | 7,7,4,4,3,2,1,0,1,0,0,0 | 0,0 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.092bdce8df4d6p-3;0x1.4448be405987bp-3/0x1.4448be405987bp-3',
        'repair[0:tier-replan,1:tier-replan] | watching | 8,8,5,6,3,2,1,0,1,0,0,0 | 1,1 | swaps=2,2 | 0x1.092bdce8df4d6p-3/0x1.4435caef28d44p-4;0x1.4448be405987bp-3/0x1.4550ea2ef277ep-4',
        'full-replace | watching | 9,9,6,6,4,3,1,0,1,0,0,0 | 3,3 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.4435caef28d44p-4;0x1.1eef31723ce4fp-3/0x1.4550ea2ef277ep-4',
        'healthy | watching | 10,10,6,6,4,3,1,0,1,0,0,0 | 0,0 | swaps=3,3 | 0x1.3379cb9ae30b8p-3/0x1.3379cb9ae30b8p-3;0x1.1eef31723ce4fp-3/0x1.1eef31723ce4fp-3',
    ],
    'single': [
        'healthy | watching | 1,1,0,0,0,0,0,0,0,0,0,0 | 0 | v0:initial | 0x1.0ab70d9e3eb4fp-3/0x1.0ab70d9e3eb4fp-3',
        'tier-replan | watching | 2,2,1,1,0,0,0,0,0,0,0,0 | 1 | v0:initial | 0x1.0ab70d9e3eb4fp-3/0x1.45772392d2562p-4',
        'swap | watching | 3,3,2,1,1,1,0,0,0,0,0,0 | 2 | v1:initial,refresh-0 | 0x1.35cf7bff81e8ap-3/0x1.45772392d2562p-4',
        'healthy | watching | 4,4,2,1,1,1,0,0,0,0,0,0 | 0 | v1:initial,refresh-0 | 0x1.35cf7bff81e8ap-3/0x1.35cf7bff81e8ap-3',
        'tier-replan | watching | 5,5,3,2,1,1,0,0,0,0,0,0 | 1 | v1:initial,refresh-0 | 0x1.35cf7bff81e8ap-3/0x1.4564e2427a75dp-4',
        'swap | watching | 6,6,4,2,2,2,0,0,0,0,0,0 | 2 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.4564e2427a75dp-4',
        'healthy | watching | 7,7,4,2,2,2,0,0,0,0,0,0 | 0 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.2fc9ccb405ceap-3',
        'tier-replan | watching | 8,8,5,3,2,2,0,0,0,0,0,0 | 1 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.3f7df7df7df7ep-4',
        'swap | watching | 9,9,6,3,3,3,0,0,0,0,0,0 | 2 | v3:initial,refresh-0,refresh-1,refresh-2 | 0x1.35cf7bff81e8ap-3/0x1.3f7df7df7df7ep-4',
        'healthy | watching | 10,10,6,3,3,3,0,0,0,0,0,0 | 0 | v3:initial,refresh-0,refresh-1,refresh-2 | 0x1.35cf7bff81e8ap-3/0x1.35cf7bff81e8ap-3',
    ],
    'single-faulty': [
        'healthy | watching | 1,1,0,0,0,0,0,0,0,0,0,0 | 0 | v0:initial | 0x1.0ab70d9e3eb4fp-3/0x1.0ab70d9e3eb4fp-3',
        'tier-replan | watching | 2,2,1,1,0,0,0,0,0,0,0,0 | 1 | v0:initial | 0x1.0ab70d9e3eb4fp-3/0x1.45772392d2562p-4',
        'swap | watching | 3,3,2,1,1,1,0,0,0,0,0,0 | 2 | v1:initial,refresh-0 | 0x1.35cf7bff81e8ap-3/0x1.45772392d2562p-4',
        'healthy | watching | 4,4,2,1,1,1,0,0,0,0,0,0 | 0 | v1:initial,refresh-0 | 0x1.35cf7bff81e8ap-3/0x1.35cf7bff81e8ap-3',
        'tier-replan | watching | 5,5,3,2,1,1,0,0,0,0,0,0 | 1 | v1:initial,refresh-0 | 0x1.35cf7bff81e8ap-3/0x1.4564e2427a75dp-4',
        'swap | watching | 6,6,4,2,2,2,0,0,0,0,0,0 | 2 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.4564e2427a75dp-4',
        'healthy | watching | 7,7,4,2,2,2,0,0,0,0,0,0 | 0 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.2fc9ccb405ceap-3',
        'tier-replan | watching | 8,8,5,3,2,2,0,0,0,0,0,0 | 1 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.3f7df7df7df7ep-4',
        'repair-failed | watching | 9,9,6,3,4,2,0,2,0,0,1,1 | 1 | v2:initial,refresh-0,refresh-1 | 0x1.2fc9ccb405ceap-3/0x1.3f7df7df7df7ep-4',
        'swap | watching | 10,10,7,3,6,3,0,3,0,0,1,0 | 2 | v3:initial,refresh-0,refresh-1,refresh-5 | 0x1.35cf7bff81e8ap-3/0x1.3f7df7df7df7ep-4',
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ladder_matches_golden_trace(drift_pair, name):
    daemon = SCENARIOS[name](drift_pair)
    assert _drive(daemon, drift_pair) == GOLDEN[name]
