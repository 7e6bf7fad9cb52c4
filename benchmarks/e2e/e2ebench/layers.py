"""The traced run: timing proxies on each layer's public calls.

Nothing inside ``repro`` is edited.  Proxies replace public attributes of
the live objects (``engine.selector.select``, ``engine.cache.admit``,
``cluster.scatter`` …) for the traced rounds, and a few public functions
and methods are swapped for the duration of the traced set-up.  A target
that a later refactor removes is skipped with a note on stderr and its
metric reads 0 — the benchmark must keep running across refactors.

Times are self times per query from the fastest traced round; counts come
from the first traced round, which always starts from the same state.
"""

from __future__ import annotations

import concurrent.futures.thread
import contextlib
import importlib
import itertools
import json
import queue
import statistics
import sys
import threading
import time
from collections import defaultdict, deque
from typing import Dict, List

from . import host
from .deploy import Workload, check_report, deploy, make_inputs
from .measure import WARMUP_ROUNDS, RoundRunner, steal_frac
from .spec import OUT_DIR
from .tracing import ATTRS, END, NAME, PARENT, REQUEST, START, Tracer, self_times

#: Untraced rounds run first: they give the baseline for
#: ``trace.overhead_frac`` and the two fixed points of the RSS slope.
UNTRACED_ROUNDS = 12
TRACED_ROUNDS = 8

#: (module, attribute, method or None, span) swapped during a traced set-up.
SETUP_TARGETS = (
    ("repro.core.store", "build_weighted_hypergraph", None, "hypergraph.build"),
    ("repro.partition", "FastShpPartitioner", "partition", "partition.shp"),
    (
        "repro.replication",
        "ConnectivityPriorityStrategy",
        "build_layout",
        "replication.build",
    ),
    ("repro.serving.engine", "build_indexes", None, "placement.index"),
    ("repro.core.store", "plan_tier_from_trace", None, "tiering.plan"),
    ("repro.cluster.planner", "CoOccurrencePlanner", "plan", "cluster.plan"),
)

#: Span names whose self time makes up each host-time metric.
SELF_TIME_METRICS = {
    "tiering.split_us": ("tiering.split",),
    "cache.lookup_us": ("cache.lookup",),
    "cache.admit_us": ("cache.admit",),
    "selection.select_us": ("selection.select",),
    "executor.execute_us": ("executor.execute",),
    "ssd.model_us": ("ssd.submit", "ssd.poll"),
    "serving.query_self_us": ("serving.query",),
    "serving.trace_self_us": ("serving.trace", "cluster.trace"),
    "cluster.scatter_us": ("cluster.scatter",),
    "cluster.gather_self_us": ("cluster.query",),
    "cluster.merge_us": ("cluster.merge",),
    "replicas.dispatch_us": ("replicas.dispatch",),
    "service.gateway_self_us": ("service.submit",),
    "service.http_self_us": ("client.request",),
}

SETUP_METRICS = {
    "hypergraph.build_s": "hypergraph.build",
    "partition.shp_s": "partition.shp",
    "replication.build_s": "replication.build",
    "placement.index_s": "placement.index",
    "tiering.plan_s": "tiering.plan",
    "cluster.plan_s": "cluster.plan",
}


def _skip(target: str) -> None:
    print(f"note: no {target} to trace; its metric reads 0", file=sys.stderr)


def _wrap_attr(tracer: Tracer, obj, attr: str, span: str, **options) -> None:
    fn = getattr(obj, attr, None)
    if fn is None:
        _skip(f"{type(obj).__name__}.{attr}")
        return
    setattr(obj, attr, tracer.wrap(fn, span, **options))


@contextlib.contextmanager
def swapped(owner, attr: str, replacement):
    """Replace ``owner.attr`` and put the original back afterwards."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def setup_proxies(tracer: Tracer):
    """Time the offline pipeline's public steps while a set-up runs."""
    with contextlib.ExitStack() as stack:
        for module_name, attr, method, span in SETUP_TARGETS:
            try:
                owner = importlib.import_module(module_name)
                if method is not None:
                    owner, attr = getattr(owner, attr), method
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                _skip(f"{module_name}.{attr}")
                continue
            stack.enter_context(
                swapped(owner, attr, tracer.wrap(original, span))
            )
        yield


class TierProxy:
    """Stands in for a ``PinnedTier``, whose ``__slots__`` fix its methods."""

    def __init__(self, tier, tracer: Tracer) -> None:
        self._tier = tier
        self.split = tracer.wrap(tier.split, "tiering.split")

    def __contains__(self, key) -> bool:
        return key in self._tier

    def __len__(self) -> int:
        return len(self._tier)

    def __getattr__(self, name):
        return getattr(self._tier, name)


def instrument_engine(tracer: Tracer, engine, new_request: bool) -> None:
    """Proxies on one ``ServingEngine``'s layer boundaries."""
    _wrap_attr(
        tracer,
        engine,
        "serve_query",
        "serving.query",
        new_request=new_request,
        keep_result=True,
    )
    _wrap_attr(tracer, engine.cache, "filter_hits", "cache.lookup")
    _wrap_attr(tracer, engine.cache, "admit", "cache.admit")
    if engine.tier is not None:
        proxy = TierProxy(engine.tier, tracer)
        engine.tier = proxy
        engine.selector.attach_tier(proxy)
    _wrap_attr(
        tracer, engine.selector, "select", "selection.select", keep_result=True
    )
    _wrap_attr(tracer, engine.executor, "execute", "executor.execute")
    for attr, span in (
        ("submit_read", "ssd.submit"),
        ("submit_batch", "ssd.submit"),
        ("poll", "ssd.poll"),
        ("next_completion_time", "ssd.poll"),
    ):
        _wrap_attr(tracer, engine.device, attr, span)


@contextlib.contextmanager
def instrumented(tracer: Tracer, deployment):
    """Install the serving-time proxies of ``deployment``'s kind."""
    kind = deployment.workload.kind
    for engine in deployment.engines():
        instrument_engine(tracer, engine, new_request=kind != "cluster")
    if kind == "engine":
        _wrap_attr(tracer, deployment.engine, "serve_trace", "serving.trace")
        yield
    elif kind == "gateway":
        core = deployment.core
        core.submit = tracer.wrap_async(core.submit, "service.submit")
        yield
    else:
        cluster = deployment.engine
        _wrap_attr(tracer, cluster, "serve_trace", "cluster.trace")
        for group in cluster.groups or ():
            _wrap_attr(
                tracer, group, "serve", "replicas.dispatch", keep_result=True
            )
        # A query runs from its scatter to its merge; both are public, the
        # method between them is not, so the two proxies share one span.
        router = importlib.import_module("repro.cluster.router")
        scatter, merge = cluster.scatter, router.merge_shard_results
        open_query: List[list] = []

        def scatter_proxy(query):
            open_query.append(tracer.open("cluster.query", new_request=True))
            span = tracer.open("cluster.scatter")
            try:
                return scatter(query)
            finally:
                tracer.close(span)

        def merge_proxy(results):
            span = tracer.open("cluster.merge")
            try:
                return merge(results)
            finally:
                tracer.close(span)
                tracer.close(open_query.pop())

        cluster.scatter = scatter_proxy
        with swapped(router, "merge_shard_results", merge_proxy):
            yield


def link_gateway_round(spans: List[list], items: list, responses) -> None:
    """Tie one gateway round's spans into request trees.

    The client's stamps become ``client.request`` spans; a ``submit`` span
    belongs to the request that sent its keys, and an engine span to the
    batch whose start time it was given.
    """
    clients = [
        ["client.request", r[2], r[5], None, index + 1, None]
        for index, r in enumerate(responses)
    ]
    waiting: Dict[tuple, deque] = defaultdict(deque)
    for client, (query, _) in sorted(
        zip(clients, items), key=lambda pair: pair[0][START]
    ):
        waiting[query.keys].append(client)
    engine_of = {
        s[ATTRS].start_us: s
        for s in spans
        if s[NAME] == "serving.query" and s[ATTRS] is not None
    }
    renumber: Dict[int, int] = {}
    for submit in sorted(
        (s for s in spans if s[NAME] == "service.submit" and s[ATTRS]),
        key=lambda s: s[START],
    ):
        (keys, *_), outcome = submit[ATTRS]
        queue = waiting.get(tuple(keys))
        if not queue:
            continue
        client = queue.popleft()
        submit[PARENT], submit[REQUEST] = client, client[REQUEST]
        engine = engine_of.get(outcome.start_us)
        if engine is not None and engine[PARENT] is None:
            engine[PARENT] = submit
            renumber[engine[REQUEST]] = client[REQUEST]
    for span in spans:
        if span[NAME] != "service.submit":
            span[REQUEST] = renumber.get(span[REQUEST], span[REQUEST])
    spans.extend(clients)


def count_calls(deployment, items: list) -> int:
    """Python + C calls one round makes, on a fresh copy of the deployment.

    The hook must be in place before the deployment starts its threads,
    hence the fresh copy; one warm-up round starts them, the next is
    counted.  Calls inside the standard library's thread hand-off code
    are left out: whether a waiter finds its future already done is a
    matter of timing, and everything else repeats exactly.
    """
    ticket = itertools.count()
    tick = ticket.__next__
    timing_dependent = {
        module.__file__
        for module in (
            threading,
            queue,
            concurrent.futures._base,
            concurrent.futures.thread,
        )
    }

    def hook(frame, event, arg) -> None:
        if (event == "call" or event == "c_call") and (
            frame.f_code.co_filename not in timing_dependent
        ):
            tick()

    fresh = deployment.fresh()
    try:
        # Serve thread and scatter pool start lazily, during this round.
        threading.setprofile(hook)
        try:
            fresh.run_round(items)
        finally:
            threading.setprofile(None)
        before = next(ticket)
        sys.setprofile(hook)
        try:
            fresh.run_round(items)
        finally:
            sys.setprofile(None)
        return next(ticket) - before - 1
    finally:
        fresh.close()


def _describe(attrs):
    """Span attributes as JSON: only what the metrics read."""
    if isinstance(attrs, tuple):  # service.submit: (args, outcome)
        outcome = attrs[1]
        return {"status": outcome.status, "coalesced": outcome.coalesced}
    if hasattr(attrs, "requested_keys"):
        return {
            "requested": attrs.requested_keys,
            "cache_hits": attrs.cache_hits,
            "tier_hits": attrs.tier_hits,
            "pages_read": attrs.pages_read,
        }
    if hasattr(attrs, "total_candidates"):
        return {"candidates": attrs.total_candidates}
    return None


def host_time_metrics(spans, lo: int, hi: int, queries: int) -> Dict[str, float]:
    """Per-query self time (µs) of each layer over one traced round."""
    owned = self_times(spans, lo, hi)
    metrics = {
        metric: sum(owned.get(name, 0) for name in names) / queries / 1e3
        for metric, names in SELF_TIME_METRICS.items()
    }
    metrics["host.untraced_frac"] = owned[""] / (hi - lo)
    return metrics


def count_metrics(spans, queries: int, evictions: int) -> Dict[str, float]:
    """Counts at the layer boundaries over the first traced round."""
    results = [
        s[ATTRS]
        for s in spans
        if s[NAME] == "serving.query" and s[ATTRS] is not None
    ]
    requested = sum(r.requested_keys for r in results) or 1
    pages = sum(r.pages_read for r in results)
    dispatched = [
        s[ATTRS]
        for s in spans
        if s[NAME] == "replicas.dispatch" and s[ATTRS] is not None
    ]
    return {
        "tiering.hit_frac": sum(r.tier_hits for r in results) / requested,
        "cache.hit_frac": sum(r.cache_hits for r in results) / requested,
        "cache.evictions_per_query": evictions / queries,
        "selection.candidates_per_query": sum(
            s[ATTRS].total_candidates
            for s in spans
            if s[NAME] == "selection.select" and s[ATTRS] is not None
        )
        / queries,
        "selection.valid_per_page": (
            sum(r.ssd_keys for r in results) / pages if pages else 0.0
        ),
        "ssd.commands_per_query": sum(
            1 for s in spans if s[NAME] == "ssd.submit"
        )
        / queries,
        "cluster.fragments_per_query": len(dispatched) / queries,
        "replicas.failovers": float(sum(r.failovers for r in dispatched)),
        "replicas.hedges": float(sum(r.hedges for r in dispatched)),
    }


def service_metrics(spans, latencies_ns: List[int], responses) -> Dict[str, float]:
    """Request-level view of the gateway (zeros on the other workloads)."""
    submits = [s for s in spans if s[NAME] == "service.submit" and s[ATTRS]]
    if not submits:
        return dict.fromkeys(
            (
                "service.http_us",
                "service.queue_wait_us",
                "service.engine_us",
                "service.mean_batch",
                "service.shed_frac",
                "service.request_p50_us",
                "service.request_p99_us",
                "client.self_us",
            ),
            0.0,
        )
    requests = len(submits)
    outcomes = [s[ATTRS][1] for s in submits]
    in_gateway = sum(s[END] - s[START] for s in submits)
    end_to_end = sum(r[5] - r[2] for r in responses)
    ordered = sorted(latencies_ns)
    return {
        "service.http_us": (end_to_end - in_gateway) / requests / 1e3,
        "service.queue_wait_us": statistics.fmean(
            o.start_us - o.arrival_us for o in outcomes
        ),
        "service.engine_us": sum(
            s[END] - s[START] for s in spans if s[NAME] == "serving.query"
        )
        / requests
        / 1e3,
        "service.mean_batch": statistics.fmean(o.coalesced for o in outcomes),
        "service.shed_frac": sum(1 for o in outcomes if not o.ok) / requests,
        "service.request_p50_us": ordered[len(ordered) // 2] / 1e3,
        # Nearest rank; with 8 rounds of 150 there are ≥ 12 samples beyond it.
        "service.request_p99_us": ordered[int(len(ordered) * 0.99)] / 1e3,
        "client.self_us": sum(
            (r[3] - r[2]) + (r[5] - r[4]) for r in responses
        )
        / requests
        / 1e3,
    }


def setup_metrics(spans, deployment) -> Dict[str, float]:
    """Set-up stage times (s) and the sizes the set-up produced."""
    root = spans[0]
    owned = self_times(spans, root[START], root[END])
    metrics = {
        metric: owned.get(name, 0) * 1e-9
        for metric, name in SETUP_METRICS.items()
    }
    stages = deployment.stages
    metrics["cluster.engines_s"] = stages.get("cluster.engines_s", 0.0)
    metrics["service.start_s"] = stages.get("service.start_s", 0.0)
    layouts = deployment.layouts()
    metrics["placement.pages"] = float(sum(l.num_pages for l in layouts))
    metrics["placement.replica_pages"] = float(
        sum(l.num_replica_pages for l in layouts)
    )
    metrics["placement.index_entries"] = float(
        sum(e.memory_overhead_entries() for e in deployment.engines())
    )
    return metrics


def simulated_metrics(report, deployment) -> Dict[str, float]:
    """Device-model view of the untimed pass (simulated µs)."""
    serving = getattr(report, "report", report)
    devices = [engine.device for engine in deployment.engines()]
    reads = sum(d.stats.reads for d in devices)
    busy_us = sum(
        d.stats.reads * d.profile.transfer_time_us(d.page_size) for d in devices
    )
    waited_us = sum(
        d.stats.total_latency_us - d.stats.reads * d.profile.read_latency_us
        for d in devices
    )
    queries = serving.num_queries
    cluster = report if hasattr(report, "mean_straggler_us") else None
    return {
        "ssd.busy_frac": busy_us / (len(devices) * serving.makespan_us),
        "ssd.queue_wait_us": waited_us / reads if reads else 0.0,
        "sim.sort_us": serving.sort_us / queries,
        "sim.select_us": serving.selection_us / queries,
        "sim.read_us": serving.io_wait_us / queries,
        "cluster.straggler_us": cluster.mean_straggler_us() if cluster else 0.0,
        "cluster.imbalance": cluster.load_imbalance() if cluster else 0.0,
    }


def _evictions(deployment) -> int:
    return sum(e.cache.stats.evictions for e in deployment.engines())


def run_traced(
    workload: Workload, seed: int, seconds: float, cpu: int, quick: bool
) -> dict:
    """One traced run: every per-layer metric of ``workload``."""
    ticks0 = host.cpu_ticks(cpu)
    history, draw = make_inputs(seed)
    count, segments = workload.round_shape(quick)
    tracer = Tracer()
    gateway = workload.kind == "gateway"

    with setup_proxies(tracer):
        root = tracer.open("setup")
        deployment = deploy(workload, history)
        tracer.close(root)
    setup_spans = tracer.take()
    try:
        metrics = setup_metrics(setup_spans, deployment)
        attempted, failed = deployment.gate(draw, seed)
        items = deployment.round_items(draw, count)
        plain = RoundRunner(deployment, items, segments, cpu)
        for _ in range(WARMUP_ROUNDS):
            plain.run(record=False)
        began = time.perf_counter()
        rss0 = host.rss_kb()
        for _ in range(UNTRACED_ROUNDS):
            plain.run()
        rss_growth_kb = host.rss_kb() - rss0
        while not quick and time.perf_counter() < began + seconds * 0.25:
            plain.run()
        calls = count_calls(deployment, items)

        # Traced rounds run whole: segment seams would only add untraced time.
        traced = RoundRunner(deployment, items, 1, cpu)
        first = best = None  # (spans, start_ns, end_ns, responses)
        latencies_ns: List[int] = []
        evictions = 0
        began = time.perf_counter()
        with instrumented(tracer, deployment):
            while len(traced.rounds) < TRACED_ROUNDS or (
                not quick and time.perf_counter() < began + seconds * 0.5
            ):
                evicted = _evictions(deployment)
                start, end, (result,) = traced.run()
                spans = tracer.take()
                if gateway:
                    link_gateway_round(spans, items, result)
                    latencies_ns.extend(r[5] - r[2] for r in result)
                this = (spans, start, end, result if gateway else ())
                if first is None:
                    first = this
                    evictions = _evictions(deployment) - evicted
                if best is None or end - start < best[2] - best[1]:
                    best = this
        failed += deployment.final_check()
        report, replay = deployment.sim_pass(draw)
    finally:
        deployment.close()
    attempted += plain.attempted + traced.attempted + len(draw)
    failed += plain.failed + traced.failed + check_report(report, len(draw))

    metrics.update(host_time_metrics(best[0], best[1], best[2], count))
    metrics.update(count_metrics(first[0], count, evictions))
    metrics.update(service_metrics(best[0], latencies_ns, best[3]))
    metrics.update(simulated_metrics(report, replay))
    untraced_best = plain.best()
    metrics.update(
        {
            "host.cpu_us_per_query": min(r.cpu_ns for r in plain.rounds)
            * 1e-3
            / count,
            "host.calls_per_query": calls / count,
            "host.rss_kb_per_kquery": rss_growth_kb
            / (UNTRACED_ROUNDS * count / 1000.0),
            "host.noise_frac": plain.noise_frac(),
            "host.steal_frac": steal_frac(ticks0, host.cpu_ticks(cpu)),
            "trace.overhead_frac": (best[2] - best[1]) / untraced_best.wall_ns
            - 1.0,
        }
    )

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}.json"
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "columns": ["name", "start_ns", "end_ns", "parent", "request", "attrs"],
                "setup": Tracer.rows(setup_spans),
                "round": Tracer.rows(best[0], _describe),
            },
            handle,
        )
    diagnostics = {
        "untraced_rounds": len(plain.rounds),
        "traced_rounds": len(traced.rounds),
        "untraced_us_per_query": untraced_best.wall_ns * 1e-3 / count,
        "traced_us_per_query": (best[2] - best[1]) * 1e-3 / count,
        "spans_in_round": len(best[0]),
        "span_file": str(path.relative_to(OUT_DIR.parents[2])),
    }
    return {
        "metrics": metrics,
        "diagnostics": diagnostics,
        "attempted": attempted,
        "failed": failed,
    }
