"""Inputs and deployments: what each workload builds, what a round runs.

The workload table below is the contract; the ``why`` of each row lives in
``BENCHMARK.json``.  A deployment is everything between "history trace in
hand" and "first query servable" (that interval is ``setup_s``), plus the
one operation a timed round repeats.  Only public names of ``repro`` are
used.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import (
    ClusterEngine,
    GatewayCore,
    HttpGateway,
    MaxEmbedConfig,
    MaxEmbedStore,
    build_sharded_layout,
    make_trace,
)
from repro.serving import EngineConfig
from repro.types import Query

#: The fixed deployment: one dataset, one scale, one generator seed.  The
#: benchmark's ``--seed`` never reaches it; it only draws the live stream.
DATASET = ("criteo", "bench", 0)
HISTORY_FRACTION = 0.5
LIVE_SAMPLE = 0.8
GATE_QUERIES = 200
#: Keep-alive client connections of the gateway workload (closed loop).
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``round_queries`` is a constant sized for 40–60 ms of work on the
    sandbox this was written on, run as ``segments`` calls of 5–7 ms
    each; neither is ever derived from a timing.
    """

    name: str
    kind: str  # "engine" | "gateway" | "cluster"
    round_queries: int
    segments: int
    quick_queries: int
    overrides: Dict[str, object] = field(default_factory=dict)

    def round_shape(self, quick: bool) -> Tuple[int, int]:
        """(queries, segments) of a round; ``--quick`` runs a small one."""
        return (self.quick_queries, 2) if quick else (
            self.round_queries, self.segments
        )

    def config(self) -> MaxEmbedConfig:
        """Library defaults, serial builds, plus this row's overrides."""
        return MaxEmbedConfig(
            build_workers=0, offline_workers=1, **self.overrides
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("engine-ssd", "engine", 400, 8, 100),
        Workload(
            "engine-dram",
            "engine",
            1600,
            8,
            200,
            {"tier_mode": "hybrid", "tier_ratio": 0.4, "cache_ratio": 0.4},
        ),
        Workload("gateway-single", "gateway", 150, 6, 40),
        Workload(
            "cluster-4x2",
            "cluster",
            150,
            6,
            40,
            {
                "num_shards": 4,
                "shard_strategy": "cooccurrence",
                "replicas": 2,
            },
        ),
    )
}


def make_inputs(seed: int) -> Tuple[object, List[Query]]:
    """(history trace, live draw) for ``seed``.

    The history — and so every layout — is the same for every seed.  The
    draw is a seeded 80 % sample of the held-out half in arrival order,
    so two seeds share most queries and their simulated metrics differ
    by sampling noise only.
    """
    trace, _ = make_trace(*DATASET[:2], seed=DATASET[2])
    history, live = trace.split(HISTORY_FRACTION)
    rng = random.Random(seed)
    keep = sorted(
        rng.sample(range(len(live)), int(len(live) * LIVE_SAMPLE))
    )
    return history, [live.queries[i] for i in keep]


def make_table(num_keys: int, dim: int) -> np.ndarray:
    """The gate's seeded float32 embedding table."""
    rng = np.random.default_rng(12345)
    return rng.standard_normal((num_keys, dim), dtype=np.float32)


def check_lookup(lookup, table: np.ndarray, queries: Sequence[Query]) -> int:
    """Failed queries among ``queries``: a key absent or bytes differing.

    ``lookup(query)`` must return ``{key: vector}`` with ``table[key]``'s
    exact bytes for every distinct key of the query.
    """
    failed = 0
    for query in queries:
        vectors = lookup(query)
        for key in query.unique_keys():
            vector = vectors.get(key)
            if vector is None or vector.tobytes() != table[key].tobytes():
                failed += 1
                break
    return failed


def check_report(report, queries: int) -> int:
    """Failed queries of one engine/cluster round (0 or the degraded ones).

    No fault plan is configured, so a failover or a hedge is itself a
    failure: the whole round is counted.
    """
    serving = getattr(report, "report", report)
    if serving.num_queries != queries:
        return queries
    if serving.total_failovers or serving.total_hedges:
        return queries
    failed = serving.degraded_queries
    if failed == 0 and (
        serving.total_missing_keys or serving.coverage() != 1.0
    ):
        failed = queries
    return failed


def check_response(status: bytes, body: bytes, distinct_keys: int) -> bool:
    """True when one HTTP response served every distinct key."""
    if status != b"200":
        return False
    payload = json.loads(body)
    return payload["served"] == distinct_keys and payload["missing"] == 0


def _gate_sample(draw: Sequence[Query], seed: int) -> List[Query]:
    rng = random.Random(seed + 1)
    return rng.sample(list(draw), min(GATE_QUERIES, len(draw)))


class EngineDeployment:
    """``MaxEmbedStore.build`` and its engine; a round is ``serve_trace``."""

    def __init__(self, workload: Workload, history=None, like=None) -> None:
        self.workload = workload
        self.config = workload.config()
        self.stages: Dict[str, float] = {}
        if like is None:
            self.store = MaxEmbedStore.build(history, self.config)
        else:
            # A fresh engine over the already-built layout and tier plan.
            self.store = MaxEmbedStore(
                like.store.layout,
                self.config,
                tier_plan=like.store.engine.tier_plan,
            )
        self.engine = self.store.engine

    def fresh(self) -> "EngineDeployment":
        """A new deployment on this one's layouts (no offline build)."""
        return type(self)(self.workload, like=self)

    def engines(self) -> list:
        """Every ``ServingEngine`` behind this deployment."""
        return [self.engine]

    def layouts(self) -> list:
        return [self.store.layout]

    def round_items(self, draw: Sequence[Query], count: int) -> list:
        return list(draw[:count])

    def run_round(self, items: list):
        return self.engine.serve_trace(items)

    def check_round(self, items: list, result) -> int:
        return check_report(result, len(items))

    def gate(self, draw: Sequence[Query], seed: int) -> Tuple[int, int]:
        """(attempted, failed) of the byte-exact lookup gate."""
        table = make_table(self.store.layout.num_keys, self.config.spec.dim)
        store = MaxEmbedStore(
            self.store.layout,
            self.config,
            table,
            tier_plan=self.engine.tier_plan,
        )
        sample = _gate_sample(draw, seed)
        return len(sample), check_lookup(store.lookup, table, sample)

    def sim_pass(self, draw: Sequence[Query]):
        """(report, deployment) of one ``serve_trace`` on a fresh engine."""
        fresh = self.fresh()
        try:
            return fresh.engine.serve_trace(list(draw)), fresh
        finally:
            fresh.close()

    def final_check(self) -> int:
        """Failed whole-run invariants (none for a bare engine)."""
        return 0

    def close(self) -> None:
        self.engine.close()


class ClusterDeployment(EngineDeployment):
    """``build_sharded_layout`` + ``ClusterEngine`` (4 shards × 2 replicas)."""

    def __init__(self, workload: Workload, history=None, like=None) -> None:
        self.workload = workload
        self.config = workload.config()
        self.stages = {}
        start = time.perf_counter()
        if like is None:
            self.sharded = build_sharded_layout(
                history, self.config, workers=0
            )
        else:
            self.sharded = like.sharded
        built = time.perf_counter()
        self.engine = ClusterEngine(
            self.sharded, EngineConfig(replicas=self.config.replicas)
        )
        self.stages["cluster.layouts_s"] = built - start
        self.stages["cluster.engines_s"] = time.perf_counter() - built

    def engines(self) -> list:
        groups = self.engine.groups
        if groups is None:
            return list(self.engine.engines)
        return [engine for group in groups for engine in group.engines]

    def layouts(self) -> list:
        return list(self.sharded.layouts)

    def gate(self, draw: Sequence[Query], seed: int) -> Tuple[int, int]:
        """Lookup gate, shard by shard on the scattered fragments."""
        plan = self.sharded.plan
        table = make_table(plan.num_keys, self.config.spec.dim)
        stores = []
        for shard, layout in enumerate(self.sharded.layouts):
            keys = np.asarray(plan.shard_keys(shard))
            stores.append(
                (MaxEmbedStore(layout, self.config, table[keys]), table[keys])
            )
        sample = _gate_sample(draw, seed)
        failed = 0
        for query in sample:
            fragments = self.engine.scatter(query)
            served = sum(len(f.unique_keys()) for f in fragments.values())
            bad = served != len(query.unique_keys())
            for shard, fragment in fragments.items():
                store, local_table = stores[shard]
                bad = bad or check_lookup(
                    store.lookup, local_table, [fragment]
                )
            failed += bool(bad)
        return len(sample), failed


class GatewayDeployment(EngineDeployment):
    """Engine → ``GatewayCore`` → ``HttpGateway`` on an ephemeral port.

    The asyncio loop, the gateway's serve thread and the client all live
    in this process.  A round is a closed loop of single-query ``POST
    /query`` requests over :data:`CONNECTIONS` keep-alive connections;
    requests are encoded before, and bodies decoded after, the clock.
    """

    def __init__(
        self, workload: Workload, history=None, like=None, connections=None
    ) -> None:
        super().__init__(workload, history, like)
        start = time.perf_counter()
        self.loop = asyncio.new_event_loop()
        self.core = GatewayCore(self.engine)
        self.http = HttpGateway(self.core, host="127.0.0.1", port=0)
        self.loop.run_until_complete(self.http.start())
        self.stages["service.start_s"] = time.perf_counter() - start
        # Connecting is the client's business, not the deployment's.
        self._connections = self.loop.run_until_complete(
            self._connect(connections or CONNECTIONS)
        )

    async def _connect(self, count: int) -> list:
        port = self.http.bound_port
        return [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(count)
        ]

    def fresh(self, connections=None) -> "GatewayDeployment":
        return type(self)(self.workload, like=self, connections=connections)

    def round_items(self, draw: Sequence[Query], count: int) -> list:
        """(query, encoded request) pairs."""
        items = []
        for query in draw[:count]:
            body = json.dumps({"keys": list(query.keys)}).encode()
            head = (
                "POST /query HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            items.append((query, head + body))
        return items

    async def _client(self, connection, pending, out: list) -> None:
        reader, writer = connection
        clock = time.perf_counter_ns
        for index, (_, request) in pending:
            t0 = clock()
            writer.write(request)
            t1 = clock()
            head = await reader.readuntil(b"\r\n\r\n")
            t2 = clock()
            at = head.index(b"Content-Length: ") + 16
            length = int(head[at : head.index(b"\r\n", at)])
            body = await reader.readexactly(length)
            out[index] = (head[9:12], body, t0, t1, t2, clock())

    async def _round(self, items: list) -> list:
        out: list = [None] * len(items)
        pending = iter(enumerate(items))  # shared: a free client takes next
        await asyncio.gather(
            *(self._client(c, pending, out) for c in self._connections)
        )
        return out

    def run_round(self, items: list):
        return self.loop.run_until_complete(self._round(items))

    def check_round(self, items: list, result) -> int:
        return sum(
            1
            for (query, _), response in zip(items, result)
            if response is None
            or not check_response(
                response[0], response[1], len(query.unique_keys())
            )
        )

    def sim_pass(self, draw: Sequence[Query]):
        """Replay what the gateway hands the engine, on a fresh engine.

        One connection sends the whole draw in order through a fresh
        gateway whose ``engine.serve_query`` is recorded; the recorded
        sequence is then served once by another fresh engine.  A change
        in what the gateway asks of the engine moves the simulated
        metrics; wall-clock start times do not.
        """
        recorded: List[Query] = []
        probe = self.fresh(connections=1)
        try:
            serve_query = probe.engine.serve_query

            def record(query, *args, **kwargs):
                recorded.append(query)
                return serve_query(query, *args, **kwargs)

            probe.engine.serve_query = record
            items = probe.round_items(draw, len(draw))
            failed = probe.check_round(items, probe.run_round(items))
        finally:
            probe.close()
        if failed:
            raise RuntimeError(f"{failed} requests failed in the replay pass")
        replay = EngineDeployment(self.workload, like=self)
        try:
            return replay.engine.serve_trace(recorded), replay
        finally:
            replay.close()

    def final_check(self) -> int:
        """1 unless offered == completed + shed + missed, nothing shed."""
        service = self.core.metrics()["service"]
        exact = service["offered"] == service["accounted"]
        clean = service["completed"] == service["offered"]
        return 0 if exact and clean else 1

    def close(self) -> None:
        async def shutdown() -> None:
            for _, writer in self._connections:
                writer.close()
                await writer.wait_closed()
            await self.http.stop()

        self.loop.run_until_complete(shutdown())
        self.loop.close()


_KINDS = {
    "engine": EngineDeployment,
    "gateway": GatewayDeployment,
    "cluster": ClusterDeployment,
}


def deploy(workload: Workload, history) -> EngineDeployment:
    """Set up ``workload`` from the history trace (the ``setup_s`` interval)."""
    return _KINDS[workload.kind](workload, history)
