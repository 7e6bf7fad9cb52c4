"""Command-line interface.

Subcommands::

    maxembed generate  --dataset criteo --scale bench --out trace.txt
    maxembed analyze   --trace trace.txt
    maxembed build     --trace trace.txt --ratio 0.1 --out bundle.json
    maxembed build     --trace trace.txt --tier-ratio 0.05 --out tiered.json
    maxembed build     --trace trace.txt --shards 4 --shard-strategy cooccurrence --out cluster.json
    maxembed diagnose  --bundle bundle.json [--trace trace.txt]
    maxembed serve     --trace trace.txt --bundle bundle.json
    maxembed serve     --trace trace.txt --bundle cluster.json
    maxembed serve     --trace trace.txt --bundle bundle.json \\
                       --offered-qps 50000 --admission-capacity 64 --brownout
    maxembed serve     --bundle cluster.json --listen 127.0.0.1:8080 \\
                       --admission-capacity 64 --brownout --tenant gold:5000
    maxembed loadgen   --target 127.0.0.1:8080 --trace trace.txt \\
                       --concurrency 16 --duration 5
    maxembed experiment fig8 [--scale small]
    maxembed experiments [--scale small]

Everything the CLI does is a thin layer over the public API, so scripts
can reproduce any invocation programmatically.  Every ``serve`` mode —
replay, open loop (``--offered-qps``) and the gateway (``--listen``) —
runs an engine from one builder: every engine flag goes into one
:class:`~repro.serving.EngineConfig`, and the deployment bundle that
``build`` wrote (:mod:`repro.bundle`) supplies everything fixed at build
time — the embedding geometry, the tier plan, the shard plan (which
decides between a :class:`~repro.serving.ServingEngine` and a
:class:`~repro.cluster.ClusterEngine`) and the build configuration a
``--refresh`` rebuild re-places under.  The modes differ only in what
they print.  A library error (:class:`~repro.errors.ReproError`) exits 1
with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bundle import Bundle, load_bundle, save_bundle
from .cache import CACHE_POLICIES
from .cluster import SHARD_STRATEGIES, ClusterEngine, ShardedLayout
from .core import MaxEmbedConfig, build_offline_layout
from .core.config import STRATEGIES
from .errors import ConfigError, ReproError
from .experiments.runner import ALL_EXPERIMENTS, run_all, run_experiment
from .faults import BreakerConfig, FaultPlan, ShardFaultPlan
from .overload import ADMISSION_POLICIES, AdmissionConfig, BrownoutConfig
from .refresh import RefreshConfig
from .serving import (
    EXECUTORS,
    EngineConfig,
    OpenLoopSimulator,
    RetryPolicy,
    ServingEngine,
)
from .service import ServiceConfig
from .tiering import TIER_MODES
from .types import EmbeddingSpec
from .utils.tables import format_mapping
from .workloads import load_trace, make_trace, save_trace, DATASETS

# Flag defaults are read off default configs, so each library default is
# typed once, in its dataclass.
_ENGINE = EngineConfig()
_DEPLOYMENT = MaxEmbedConfig()
_SERVICE = ServiceConfig()
_REFRESH = RefreshConfig()


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser("generate", help="generate a synthetic trace")
    p.add_argument("--dataset", default="criteo", choices=sorted(DATASETS))
    p.add_argument("--scale", default="bench", choices=["bench", "small"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output trace file")


def _add_analyze(subparsers) -> None:
    p = subparsers.add_parser(
        "analyze", help="summarize a trace's skew and co-appearance breadth"
    )
    p.add_argument("--trace", required=True, help="trace file to analyze")
    p.add_argument("--dim", type=int, default=_ENGINE.spec.dim)


def _add_build(subparsers) -> None:
    p = subparsers.add_parser("build", help="run the offline phase")
    p.add_argument("--trace", required=True, help="input trace file")
    p.add_argument(
        "--ratio", type=float, default=_DEPLOYMENT.replication_ratio
    )
    p.add_argument(
        "--strategy", default=_DEPLOYMENT.strategy, choices=STRATEGIES
    )
    p.add_argument("--dim", type=int, default=_DEPLOYMENT.spec.dim)
    p.add_argument("--seed", type=int, default=_DEPLOYMENT.seed)
    p.add_argument(
        "--shards",
        type=int,
        default=_DEPLOYMENT.num_shards,
        help=">1 builds a sharded cluster layout (one placement per shard)",
    )
    p.add_argument(
        "--shard-strategy",
        default=_DEPLOYMENT.shard_strategy,
        choices=SHARD_STRATEGIES,
    )
    p.add_argument(
        "--workers",
        type=int,
        # Not offline_workers' default (1, serial): a command-line build
        # uses every CPU, and the layout is the same for any count.
        default=None,
        help="build processes: per-shard builds when --shards > 1, "
        "SHP bisection subtrees otherwise "
        "(default: one per CPU; 1 = serial; results are identical)",
    )
    p.add_argument(
        "--tier-ratio",
        type=float,
        default=_DEPLOYMENT.tier_ratio,
        help="also plan a pinned DRAM tier of this table fraction from "
        "the build trace's hotness, saved in the bundle (single-shard "
        "builds only)",
    )
    p.add_argument(
        "--out",
        required=True,
        help="output deployment bundle: config, layouts, tier plan",
    )


def _add_diagnose(subparsers) -> None:
    p = subparsers.add_parser(
        "diagnose", help="inspect each shard layout's replica budget"
    )
    p.add_argument(
        "--bundle", required=True, help="deployment bundle from `build`"
    )
    p.add_argument(
        "--trace", default=None, help="optional trace for pair coverage"
    )


def _add_serve(subparsers) -> None:
    p = subparsers.add_parser("serve", help="replay a trace online")
    p.add_argument(
        "--trace",
        default=None,
        help="trace to serve (optional with --listen: the gateway takes "
        "live requests instead of replaying)",
    )
    p.add_argument(
        "--bundle",
        required=True,
        help="deployment bundle from `build`: its geometry, shard plan "
        "and tier plan are served as built",
    )
    p.add_argument("--cache-ratio", type=float, default=_ENGINE.cache_ratio)
    p.add_argument(
        "--cache-policy",
        default=_ENGINE.cache_policy,
        choices=list(CACHE_POLICIES),
    )
    p.add_argument(
        "--tier-mode",
        default=_ENGINE.tier_mode,
        choices=TIER_MODES,
        help="DRAM tier strategy: reactive LRU cache only (default), a "
        "statistically pinned hot set, or pinned + LRU for the residue",
    )
    p.add_argument(
        "--tier-ratio",
        type=float,
        default=_ENGINE.tier_ratio,
        help="pinned-tier size as a fraction of the table (with "
        "--tier-mode pinned/hybrid and no tier plan in the bundle; "
        "ignored under lru)",
    )
    p.add_argument("--index-limit", type=int, default=_ENGINE.index_limit)
    p.add_argument(
        "--executor",
        default=_ENGINE.executor,
        choices=list(EXECUTORS),
        help="when, and in what form, a query's reads reach the device: "
        "each read right after its selection step (default), all "
        "selection then one submission per page, one submitted batch "
        "per query (amortizes the profile's submit overhead), or one "
        "in-device gather command (NDP; non-gather profiles are "
        "upgraded automatically)",
    )
    p.add_argument("--threads", type=int, default=_ENGINE.threads)
    p.add_argument(
        "--fault-plan",
        default=None,
        help="inject deterministic device faults: a JSON plan file or an "
        "inline spec like 'seed=7,read_error=0.05,brownout=1000:5000'",
    )
    p.add_argument(
        "--retry-max",
        type=int,
        default=_ENGINE.retry.max_retries,
        help="retries per failed read before replica recovery kicks in",
    )
    p.add_argument(
        "--shard-deadline-us",
        type=float,
        default=_ENGINE.shard_deadline_us,
        help="per-shard gather deadline in simulated microseconds; a "
        "fragment slower than this is dropped (its keys go missing)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=_ENGINE.replicas,
        help="engines per logical shard; >1 enables health-tracked "
        "failover and hedged dispatch inside the gather (cluster "
        "bundles only)",
    )
    p.add_argument(
        "--hedge-quantile",
        type=float,
        default=_ENGINE.hedge_quantile,
        help="hedge a straggling fragment to a second replica once it "
        "exceeds this quantile of recent latency (e.g. 0.95; default: "
        "hedging off)",
    )
    p.add_argument(
        "--hedge-budget",
        type=float,
        default=_ENGINE.hedge_budget,
        help="hard cap on hedged dispatches per routed fragment",
    )
    p.add_argument(
        "--shard-fault-plan",
        default=None,
        help="inject deterministic replica faults: a JSON plan file or "
        "an inline spec like 'seed=7,crash=0.1,horizon_us=250'",
    )
    p.add_argument(
        "--offered-qps",
        type=float,
        default=None,
        help="run an open-loop simulation at this Poisson arrival rate "
        "instead of the closed-loop replay",
    )
    p.add_argument(
        "--warmup-fraction",
        type=float,
        default=0.1,
        help="head fraction of the stream excluded from open-loop metrics",
    )
    p.add_argument(
        "--admission-capacity",
        type=int,
        default=None,
        help="bound the open-loop arrival queue at this many waiters "
        "(default: unbounded — no shedding)",
    )
    p.add_argument(
        "--admission-policy",
        default="tail",
        choices=ADMISSION_POLICIES,
        help="shed policy when the bounded queue is full",
    )
    p.add_argument(
        "--admission-deadline-us",
        type=float,
        default=None,
        help="max simulated queue wait; required by "
        "`--admission-policy deadline`",
    )
    p.add_argument(
        "--brownout",
        action="store_true",
        help="enable the brownout controller: step queries down the "
        "graceful-degradation ladder under sustained latency pressure",
    )
    p.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="run the live HTTP gateway on this address instead of "
        "replaying a trace (port 0 = kernel-assigned); the admission "
        "and brownout flags above become the gateway's backpressure",
    )
    p.add_argument(
        "--no-coalesce",
        action="store_true",
        help="gateway mode: serve every request individually instead of "
        "merging concurrent same-tenant requests into shared page reads",
    )
    p.add_argument(
        "--coalesce-max-batch",
        type=int,
        default=_SERVICE.coalescer.max_batch,
        help="gateway mode: requests merged into one batch at most",
    )
    p.add_argument(
        "--coalesce-max-wait-us",
        type=float,
        default=_SERVICE.coalescer.max_wait_us,
        help="gateway mode: max wall microseconds the oldest waiting "
        "request may age before its batch flushes",
    )
    p.add_argument(
        "--max-concurrent-batches",
        type=int,
        default=_SERVICE.max_concurrent_batches,
        help="gateway mode: coalesced batches in flight at once",
    )
    p.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME[:RATE_QPS[:BURST[:PRIORITY]]]",
        help="gateway mode: per-tenant token-bucket quota and admission "
        "priority (repeatable); e.g. --tenant gold:5000:32:1.0",
    )
    p.add_argument(
        "--pace-service",
        action="store_true",
        help="gateway mode: sleep each batch's simulated service time in "
        "wall time, so real throughput tracks the device model",
    )
    p.add_argument(
        "--time-scale",
        type=float,
        default=_SERVICE.time_scale,
        help="gateway mode: wall microseconds slept per simulated "
        "microsecond when pacing",
    )
    p.add_argument(
        "--refresh",
        action="store_true",
        help="gateway mode: mount the self-healing refresh daemon — "
        "watch drift on live traffic, rebuild stale placements, and "
        "hot-swap them under load (control it via GET/POST /refresh)",
    )
    p.add_argument(
        "--refresh-interval",
        type=float,
        # Not RefreshConfig.interval_s (1 s): each check replays up to
        # probe_max_queries window queries on the serving host, so a
        # live gateway checks less often.
        default=5.0,
        help="seconds between drift checks (0 = no background thread; "
        "repairs only run when POST /refresh triggers a step)",
    )
    p.add_argument(
        "--refresh-window",
        type=int,
        default=_REFRESH.window_size,
        help="live queries kept in the drift-detection window",
    )
    p.add_argument(
        "--refresh-trigger-share",
        type=float,
        default=_REFRESH.trigger_share,
        help="drift fires when the active layout's share-of-best on the "
        "probe window falls below this",
    )
    p.add_argument(
        "--refresh-drop-fraction",
        type=float,
        default=_REFRESH.drop_fraction,
        help="drift also fires when effective bandwidth drops by this "
        "fraction below the installed baseline",
    )
    p.add_argument(
        "--refresh-retries",
        type=int,
        default=_REFRESH.max_retries,
        help="rebuild/swap attempts per repair before it is abandoned",
    )
    p.add_argument(
        "--refresh-margin",
        type=float,
        default=_REFRESH.shadow_margin,
        help="shadow-score gate: a candidate must score at least this "
        "multiple of the active layout's bandwidth to swap in",
    )


def _add_loadgen(subparsers) -> None:
    p = subparsers.add_parser(
        "loadgen",
        help="drive a running gateway with closed-loop async clients",
    )
    p.add_argument(
        "--target",
        required=True,
        metavar="HOST:PORT",
        help="address of a gateway started with `maxembed serve --listen`",
    )
    p.add_argument("--trace", required=True, help="request stream to replay")
    p.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop clients"
    )
    p.add_argument(
        "--duration", type=float, default=2.0, help="wall seconds to run"
    )
    p.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="wall seconds each client pauses between requests",
    )
    p.add_argument(
        "--tenant", default="default", help="tenant stamped on every request"
    )
    p.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="stop after this many requests even if time remains",
    )
    p.add_argument(
        "--slo-us",
        type=float,
        default=None,
        help="latency SLO for the goodput metric (wall microseconds)",
    )


def _add_experiments(subparsers) -> None:
    p = subparsers.add_parser(
        "experiment", help="run one paper experiment by id"
    )
    p.add_argument("exp_id", choices=sorted(ALL_EXPERIMENTS))
    p.add_argument("--scale", default="bench", choices=["bench", "small"])
    q = subparsers.add_parser("experiments", help="run every experiment")
    q.add_argument("--scale", default="bench", choices=["bench", "small"])
    q.add_argument(
        "--report",
        default=None,
        help="also write a combined markdown report to this path",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="maxembed",
        description="MaxEmbed (ASPLOS '24) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_analyze(subparsers)
    _add_build(subparsers)
    _add_diagnose(subparsers)
    _add_serve(subparsers)
    _add_loadgen(subparsers)
    _add_experiments(subparsers)
    return parser


def _cmd_generate(args) -> int:
    trace, preset = make_trace(args.dataset, scale=args.scale, seed=args.seed)
    save_trace(trace, args.out)
    print(
        f"wrote {len(trace)} queries over {trace.num_keys} keys "
        f"({preset.label}, {args.scale}) to {args.out}"
    )
    return 0


def _cmd_analyze(args) -> int:
    from .workloads.analysis import summarize

    trace = load_trace(args.trace)
    capacity = EmbeddingSpec(dim=args.dim).slots_per_page
    summary = summarize(trace, page_capacity=capacity)
    print(format_mapping(f"trace analysis ({args.trace})", summary))
    if summary["hot_coappearance_breadth"] > capacity:
        print(
            f"\nhot keys co-appear with "
            f"{summary['hot_coappearance_breadth']:.0f} partners but a page "
            f"holds {capacity} -> replication has headroom here"
        )
    return 0


def _cmd_build(args) -> int:
    if args.shards > 1 and args.tier_ratio > 0:
        # A tier plan is in one layout's key ids; a shard layout's are
        # shard-local.
        raise ConfigError(
            "build --tier-ratio plans a tier for one shard only; serve a "
            "sharded bundle with --tier-mode pinned --tier-ratio R, which "
            "plans each shard's tier"
        )
    trace = load_trace(args.trace)
    config = MaxEmbedConfig(
        spec=EmbeddingSpec(dim=args.dim),
        strategy=args.strategy,
        replication_ratio=args.ratio,
        num_shards=args.shards,
        shard_strategy=args.shard_strategy,
        build_workers=args.workers,
        offline_workers=args.workers,
        seed=args.seed,
    )
    if args.shards > 1:
        from .cluster import build_sharded_layout

        sharded = build_sharded_layout(trace, config)
        save_bundle(Bundle(config, sharded), args.out)
        sizes = sharded.plan.shard_sizes()
        print(
            f"built {sharded.num_shards}-shard cluster layout "
            f"({args.shard_strategy}): {sharded.total_pages()} pages, "
            f"shard sizes {min(sizes)}..{max(sizes)} keys -> {args.out}"
        )
        return 0
    layout = build_offline_layout(trace, config)
    tier_plan = None
    if args.tier_ratio > 0:
        from .tiering import plan_tier_from_trace

        tier_plan = plan_tier_from_trace(layout, trace, args.tier_ratio)
    save_bundle(Bundle(config, layout, tier_plan), args.out)
    print(
        f"built layout: {layout.num_pages} pages "
        f"({layout.num_replica_pages} replicas, "
        f"space overhead {layout.space_overhead():.1%}) -> {args.out}"
    )
    if tier_plan is not None:
        print(
            f"planned DRAM tier: {tier_plan.capacity} pinned keys "
            f"({args.tier_ratio:.1%} of table, by {tier_plan.source}) "
            f"-> {args.out}"
        )
    return 0


def _cmd_diagnose(args) -> int:
    """One table per shard layout; a sharded bundle's hot-pair coverage
    is each shard's on its projection of the trace."""
    from .cluster import project_trace
    from .placement import hot_pair_coverage, layout_report

    bundle = load_bundle(args.bundle)
    sharded = isinstance(bundle.layout, ShardedLayout)
    trace = load_trace(args.trace) if args.trace else None
    for shard, layout in enumerate(bundle.layouts):
        where = args.bundle
        if sharded:
            where = f"{args.bundle}, shard {shard}"
            if shard:
                print()
        report = layout_report(layout).as_dict()
        print(format_mapping(f"layout diagnostics ({where})", report))
        if trace is not None:
            seen = trace
            if sharded:
                seen = project_trace(trace, bundle.layout.plan, shard)
            coverage = hot_pair_coverage(layout, seen)
            print(f"\nhot-pair coverage on {args.trace}: {coverage:.1%}")
    return 0


def _engine_config(args, bundle: Bundle) -> EngineConfig:
    """The serve command's engine flags, all of them, in every mode, on
    the bundle's geometry and tier plan.

    Every flag is passed as given: a single engine ignores the
    cluster-only fields, ``retry`` is read only under a fault plan and
    ``tier_ratio`` only outside ``lru``.  A tier plan in the bundle
    alone implies the pinned tier, and a shard fault plan or a shard
    deadline implies a circuit breaker per shard: a fragment every
    replica failed then degrades the query (coverage below 1) instead
    of ending the replay.
    """
    tier_mode = args.tier_mode
    if bundle.tier_plan is not None and tier_mode == "lru":
        tier_mode = "pinned"
    breaker = None
    if args.shard_fault_plan or args.shard_deadline_us is not None:
        breaker = BreakerConfig()
    return EngineConfig(
        spec=bundle.config.spec,
        cache_ratio=args.cache_ratio,
        cache_policy=args.cache_policy,
        index_limit=args.index_limit,
        executor=args.executor,
        threads=args.threads,
        fault_plan=(
            FaultPlan.from_spec(args.fault_plan) if args.fault_plan else None
        ),
        retry=RetryPolicy(max_retries=args.retry_max),
        shard_deadline_us=args.shard_deadline_us,
        breaker=breaker,
        replicas=args.replicas,
        hedge_quantile=args.hedge_quantile,
        hedge_budget=args.hedge_budget,
        shard_fault_plan=(
            ShardFaultPlan.from_spec(args.shard_fault_plan)
            if args.shard_fault_plan
            else None
        ),
        tier_mode=tier_mode,
        tier_ratio=args.tier_ratio,
        tier_plan=bundle.tier_plan,
    )


def _build_serve_engine(bundle: Bundle, args):
    """The engine every serve mode runs: the bundle's placement under
    the serve flags.

    A bundle with a shard plan gets a :class:`~repro.cluster.ClusterEngine`,
    a one-shard bundle a :class:`~repro.serving.ServingEngine`.
    """
    engine_cls = ServingEngine
    if isinstance(bundle.layout, ShardedLayout):
        engine_cls = ClusterEngine
    return engine_cls(bundle.layout, _engine_config(args, bundle))


def _overload_options(args) -> dict:
    """OpenLoopSimulator kwargs for the serve command's overload flags."""
    options: dict = {}
    if getattr(args, "admission_capacity", None) is not None:
        options["admission"] = AdmissionConfig(
            capacity=args.admission_capacity,
            policy=args.admission_policy,
            queue_deadline_us=args.admission_deadline_us,
        )
    if getattr(args, "brownout", False):
        options["brownout"] = BrownoutConfig()
    return options


def _serve_open_loop(engine, trace, args) -> int:
    """Open-loop replay (with optional admission control / brownout)."""
    simulator = OpenLoopSimulator(engine, seed=0, **_overload_options(args))
    report = simulator.run(
        trace.queries,
        args.offered_qps,
        warmup_fraction=args.warmup_fraction,
    )
    print(
        format_mapping(
            f"open-loop report ({args.offered_qps:g} qps offered)",
            {
                "offered": report.offered_count(),
                "completed": report.num_queries,
                "achieved_qps": round(report.throughput_qps()),
                "goodput_qps": round(report.goodput_qps()),
                "mean_latency_us": round(report.mean_latency_us(), 2),
                "p99_latency_us": round(report.percentile_latency_us(99), 2),
                "mean_queue_wait_us": round(report.mean_queue_wait_us(), 2),
                "shed": report.shed_count,
                "deadline_misses": report.deadline_misses,
                "degraded_completions": report.degraded_mode_queries(),
                "brownout_transitions": len(report.brownout_transitions),
                "final_degrade_level": report.final_degrade_level,
            },
        )
    )
    return 0


def _parse_address(address: str) -> "tuple[str, int]":
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"error: address must look like HOST:PORT, got {address!r}"
        )
    return host or "127.0.0.1", int(port)


def _parse_tenants(specs) -> tuple:
    """--tenant NAME[:RATE[:BURST[:PRIORITY]]] specs -> TenantConfigs."""
    from .service import TenantConfig

    tenants = []
    for spec in specs or ():
        parts = spec.split(":")
        if not parts[0]:
            raise SystemExit(f"error: bad --tenant spec {spec!r}")
        try:
            tenants.append(
                TenantConfig(
                    name=parts[0],
                    rate_qps=float(parts[1]) if len(parts) > 1 else None,
                    burst=int(parts[2]) if len(parts) > 2 else 16,
                    priority=float(parts[3]) if len(parts) > 3 else 0.0,
                )
            )
        except (ValueError, IndexError):
            raise SystemExit(f"error: bad --tenant spec {spec!r}")
    return tuple(tenants)


def _service_config(args):
    """ServiceConfig for the serve command's gateway flags."""
    from .service import CoalescerConfig

    overload = _overload_options(args)
    return ServiceConfig(
        coalescer=CoalescerConfig(
            enabled=not args.no_coalesce,
            max_batch=args.coalesce_max_batch,
            max_wait_us=args.coalesce_max_wait_us,
        ),
        admission=overload.get("admission"),
        brownout=overload.get("brownout"),
        tenants=_parse_tenants(args.tenant),
        max_concurrent_batches=args.max_concurrent_batches,
        pace_service=args.pace_service,
        time_scale=args.time_scale,
    )


def _refresh_daemon(args, engine, build_config: MaxEmbedConfig):
    """(engine, daemon) for `serve --listen --refresh`.

    Single-engine serving is re-mounted behind a
    :class:`~repro.core.LayoutManager` so the daemon's hot swaps are
    what the gateway serves through; a cluster engine already swaps in
    place and is mounted directly.  Rebuilds re-place under
    ``build_config``, the bundle's: the parameters actually deployed.
    """
    if not getattr(args, "refresh", False):
        return engine, None
    from .core import LayoutManager
    from .refresh import RefreshDaemon

    refresh_config = RefreshConfig(
        window_size=args.refresh_window,
        interval_s=(
            args.refresh_interval if args.refresh_interval > 0 else None
        ),
        trigger_share=args.refresh_trigger_share,
        clear_share=max(args.refresh_trigger_share, _REFRESH.clear_share),
        drop_fraction=args.refresh_drop_fraction,
        max_retries=args.refresh_retries,
        shadow_margin=args.refresh_margin,
    )
    if isinstance(engine, ClusterEngine):
        target = engine
    else:
        engine = target = LayoutManager(engine.layout, engine.config)
    daemon = RefreshDaemon(
        target, refresh_config, build_config=build_config
    )
    return engine, daemon


def _cmd_serve_gateway(args) -> int:
    """`maxembed serve --listen`: the live HTTP gateway."""
    import asyncio

    from .service import run_gateway

    host, port = _parse_address(args.listen)
    bundle = load_bundle(args.bundle)
    engine = _build_serve_engine(bundle, args)
    engine, refresh = _refresh_daemon(args, engine, bundle.config)
    config = _service_config(args)

    def ready(server) -> None:
        refresh_note = ", GET/POST /refresh" if refresh is not None else ""
        print(
            f"gateway listening on http://{server.host}:{server.bound_port} "
            f"(POST /query, GET /health, GET /metrics{refresh_note}, "
            f"POST /drain; SIGTERM drains gracefully)",
            flush=True,
        )

    asyncio.run(
        run_gateway(
            engine,
            config,
            host=host,
            port=port,
            ready_callback=ready,
            refresh=refresh,
        )
    )
    print("gateway drained cleanly")
    return 0


def _cmd_loadgen(args) -> int:
    """`maxembed loadgen`: closed-loop clients against a live gateway."""
    import asyncio

    from .service import HttpLoadGenerator

    host, port = _parse_address(args.target)
    trace = load_trace(args.trace)
    generator = HttpLoadGenerator(
        host,
        port,
        trace.queries,
        concurrency=args.concurrency,
        think_time_s=args.think_time,
        duration_s=args.duration,
        tenant=args.tenant,
        max_requests=args.max_requests,
    )
    report = asyncio.run(generator.run())
    print(
        format_mapping(
            f"load generation report ({args.concurrency} clients, "
            f"{report.wall_s:.1f}s against {args.target})",
            report.as_dict(latency_slo_us=args.slo_us),
        )
    )
    return 0 if report.errors == 0 else 1


def _print_replay(engine, report, args) -> None:
    """The closed-loop replay's tables: cluster or single engine."""
    if isinstance(engine, ClusterEngine):
        print(
            format_mapping(
                f"cluster serving report ({engine.num_shards} shards, "
                f"{engine.plan.strategy})",
                report.as_dict(),
            )
        )
        print(
            format_mapping(
                "per-shard load (pages read)",
                {
                    f"shard_{s}": pages
                    for s, pages in enumerate(report.shard_pages_read)
                },
            )
        )
        return
    print(
        format_mapping(
            "serving report",
            {
                "queries": report.num_queries,
                "throughput_qps": round(report.throughput_qps()),
                "mean_latency_us": round(report.mean_latency_us(), 2),
                "p99_latency_us": round(report.percentile_latency_us(99), 2),
                "effective_bandwidth": round(
                    report.effective_bandwidth_fraction(), 4
                ),
                "cache_hit_rate": round(report.cache_hit_rate(), 4),
                "tier_hit_rate": round(report.tier_hit_rate(), 4),
                "pages_read": report.total_pages_read,
            },
        )
    )
    if args.fault_plan:
        fault_report = {
            "retries": report.total_retries,
            "failed_reads": report.total_failed_reads,
            "recovered_keys": report.total_recovered_keys,
            "missing_keys": report.total_missing_keys,
            "degraded_queries": report.degraded_queries,
            "coverage": round(report.coverage(), 6),
        }
        for kind, count in sorted(engine.fault_counters.items()):
            fault_report[f"injected_{kind}"] = count
        print()
        print(format_mapping("fault & recovery report", fault_report))


def _cmd_serve(args) -> int:
    if args.listen is not None:
        return _cmd_serve_gateway(args)
    if args.trace is None:
        raise ConfigError(
            "--trace is required unless --listen starts the live gateway"
        )
    trace = load_trace(args.trace)
    engine = _build_serve_engine(load_bundle(args.bundle), args)
    if args.offered_qps is not None:
        return _serve_open_loop(engine, trace, args)
    _print_replay(engine, engine.serve_trace(trace), args)
    return 0


def _cmd_experiment(args) -> int:
    print(run_experiment(args.exp_id, scale=args.scale).render())
    return 0


def _cmd_experiments(args) -> int:
    results = run_all(scale=args.scale)
    if args.report:
        from .experiments.runner import write_markdown_report

        write_markdown_report(results, args.report)
        print(f"markdown report written to {args.report}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "build": _cmd_build,
    "diagnose": _cmd_diagnose,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "experiment": _cmd_experiment,
    "experiments": _cmd_experiments,
}


def main(argv: "Optional[List[str]]" = None) -> int:
    """CLI entry point: a library error is one ``error:`` line, exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
