"""Refresh experiment (extension — not a paper figure).

The drift experiment shows placements go stale and that an offline
rebuild recovers the loss; this experiment closes the loop with the
**self-healing refresh daemon** and measures how much of the recoverable
gap it actually wins back, under live serving, with zero dropped
queries.

Protocol: traffic arrives in segments whose drift ramps 0 → 100 % and
then holds.  Three scenarios serve the same segments:

* **stale** — the placement built on history, never refreshed (floor);
* **refresh** — the same placement behind a
  :class:`~repro.core.LayoutManager` with a mounted
  :class:`~repro.refresh.RefreshDaemon`; every served query feeds the
  daemon's drift window, and the daemon takes one repair step between
  segments (so repairs always lag the drift by one segment, as they
  would in production);
* **oracle** — a placement rebuilt offline on each segment's own window
  (ceiling: what a zero-lag, free rebuild would earn).

Recovery on the final (fully drifted) segment is
``(refresh - stale) / (oracle - stale)``; the bench gates it at
``REPRO_BENCH_MIN_REFRESH_RECOVERY`` (default 80 %).  Every query served
through the manager during hot swaps must come back complete — the
experiment counts missing keys and reports them as ``dropped``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core import MaxEmbedConfig, build_offline_layout
from ..core.deploy import LayoutManager
from ..metrics import evaluate_placement
from ..refresh import RefreshConfig, RefreshDaemon
from ..serving import EngineConfig
from ..types import QueryTrace
from ..workloads.drift import blend_traces, drifted_trace_for
from .common import get_split_trace
from .report import ExperimentResult

#: Drift fraction per traffic segment: ramp to full drift, then hold so
#: the (one-segment-lagged) repair ladder has segments to escalate and
#: the final segment measures the fully repaired state.
SEGMENT_DRIFT: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0)


def run_refresh_scenarios(
    dataset: str = "criteo",
    ratio: float = 0.4,
    scale: str = "bench",
    seed: int = 0,
    drift_seed: int = 1,
    max_queries: Optional[int] = 1200,
    segment_drift: Sequence[float] = SEGMENT_DRIFT,
    tier_ratio: float = 0.05,
) -> Dict[str, object]:
    """Run stale / refresh / oracle over the drift segments.

    Returns a JSON-ready document: one row per segment with the three
    scenarios' effective-bandwidth fractions and the daemon's action,
    plus a summary with the final-segment recovery fraction, dropped
    queries (must be 0), and the daemon's swap/rollback counters.
    """
    history, live = get_split_trace(dataset, scale, seed)
    drifted = drifted_trace_for(
        dataset, scale, base_seed=seed, drift_seed=drift_seed
    )
    _, drifted_live = drifted.split(0.5)
    build_config = MaxEmbedConfig(
        strategy="maxembed", replication_ratio=ratio, seed=seed
    )
    base = build_offline_layout(history, build_config)

    segments = []
    for level in segment_drift:
        window = blend_traces(live, drifted_live, level, seed=seed)
        queries = list(window.queries)
        if max_queries is not None:
            queries = queries[:max_queries]
        segments.append((level, QueryTrace(window.num_keys, queries)))
    segment_len = max(len(w.queries) for _, w in segments)

    manager = LayoutManager(
        base,
        EngineConfig(
            tier_mode="hybrid", tier_ratio=tier_ratio, cache_ratio=0.0
        ),
    )
    daemon = RefreshDaemon(
        manager,
        RefreshConfig(
            interval_s=None,
            window_size=segment_len,
            min_window=min(64, segment_len),
            probe_max_queries=300,
            backoff_s=0.0,
            tier_first=True,
        ),
        build_config=build_config,
    )

    spec = manager.config.spec
    oracle_cache: Dict[float, object] = {}
    rows = []
    dropped = 0
    for index, (level, window) in enumerate(segments):
        # Serve the segment live through the manager: this is the hot
        # path a swap must never drop, and the daemon's drift evidence.
        missing = 0
        for query in window.queries:
            result = manager.serve_query(query)
            missing += result.missing_keys
            daemon.observe(query.keys)
        dropped += missing
        stale_bw = evaluate_placement(
            base, window, embedding_bytes=spec.embedding_bytes,
            page_size=spec.page_size,
        ).effective_fraction()
        refresh_bw = evaluate_placement(
            manager.engine.layout, window,
            embedding_bytes=spec.embedding_bytes, page_size=spec.page_size,
        ).effective_fraction()
        if level not in oracle_cache:
            oracle_cache[level] = build_offline_layout(window, build_config)
        oracle_bw = evaluate_placement(
            oracle_cache[level], window,
            embedding_bytes=spec.embedding_bytes, page_size=spec.page_size,
        ).effective_fraction()
        step = daemon.step()
        rows.append(
            {
                "segment": index,
                "drift": level,
                "stale_bw": round(stale_bw, 4),
                "refresh_bw": round(refresh_bw, 4),
                "oracle_bw": round(oracle_bw, 4),
                "missing_keys": missing,
                "daemon_action": step.get("action"),
            }
        )

    final = rows[-1]
    gap = final["oracle_bw"] - final["stale_bw"]
    recovery = (
        (final["refresh_bw"] - final["stale_bw"]) / gap if gap > 0 else 1.0
    )
    status = daemon.status()
    return {
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "replication_ratio": ratio,
        "segments": rows,
        "summary": {
            "final_stale_bw": final["stale_bw"],
            "final_refresh_bw": final["refresh_bw"],
            "final_oracle_bw": final["oracle_bw"],
            "recovery": round(recovery, 4),
            "dropped_queries": dropped,
            "swaps": status["swaps"],
            "rollbacks": status["rollbacks"],
            "tier_replans": status["tier_replans"],
            "shadow_rejections": status["shadow_rejections"],
            "state": status["state"],
        },
    }


def run(
    dataset: str = "criteo",
    ratio: float = 0.4,
    scale: str = "bench",
    seed: int = 0,
    drift_seed: int = 1,
    max_queries: Optional[int] = 1200,
) -> ExperimentResult:
    """Self-healing refresh vs stale floor and oracle-rebuild ceiling."""
    document = run_refresh_scenarios(
        dataset=dataset,
        ratio=ratio,
        scale=scale,
        seed=seed,
        drift_seed=drift_seed,
        max_queries=max_queries,
    )
    summary = document["summary"]
    result = ExperimentResult(
        exp_id="refresh",
        title=(
            f"Self-healing refresh under drift ({dataset}, r={ratio}): "
            f"recovery {summary['recovery']:.0%}, "
            f"dropped {summary['dropped_queries']}"
        ),
        headers=[
            "segment",
            "drift",
            "stale_bw",
            "refresh_bw",
            "oracle_bw",
            "daemon_action",
        ],
        notes=(
            "the refresh daemon tracks the stale floor until drift "
            "trips the watcher, then tier-replans and rebuilds its way "
            "back toward the oracle ceiling — with zero dropped queries "
            "across every hot swap"
        ),
    )
    for row in document["segments"]:
        result.rows.append(
            [
                row["segment"],
                f"{row['drift']:.0%}",
                row["stale_bw"],
                row["refresh_bw"],
                row["oracle_bw"],
                row["daemon_action"],
            ]
        )
    return result
