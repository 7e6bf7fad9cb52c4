"""Call budget and record shape of the engine and cluster query paths.

The engine and cluster thirds of ROADMAP 2(b), beside
``tests/test_service_hot_path.py``.  Two hundred fixed queries go through
a default ``ServingEngine``, a hybrid-tier one and a 4 x 2
``ClusterEngine`` under ``sys.setprofile``; Python + C calls per query
stay under a committed ceiling.  The driver row counts what
``serve_trace`` adds around the engine: the engine (or the cluster's
gather) is replaced by a replay of its recorded results, so only the
simulation loop, its report and the cluster's shard tally are counted —
a closed-loop query routed through the admission queue would blow it.
The replica-group row counts what a healthy ``ReplicaGroup.serve`` adds
around its engine's ``serve_query`` per fragment.

That count has a blind spot: ``object.__setattr__`` is a slot wrapper,
which ``sys.setprofile`` never reports, so a frozen dataclass — nineteen
such calls per ``QueryResult`` — costs microseconds and zero counted
calls.  The structural half closes it: every record built per query, per
fragment or per device command is an *unfrozen* dataclass, while
configuration and inputs stay frozen, hashable values (DESIGN.md,
"Values and records").
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro import (
    ClusterEngine,
    EngineConfig,
    MaxEmbedConfig,
    Query,
    ServingEngine,
    ShpConfig,
    build_sharded_layout,
)
from repro.serving.executor import ExecutionResult
from repro.serving.stats import QueryResult
from repro.ssd import Completion, PacedReadCommand, SsdProfile

QUERIES = 200
WARMUP = 100

#: Python + C calls per query: 160.6 / 61.9 / 322.8 measured on CPython
#: 3.11 (each repeats to the digit); the ceilings are 15 % over those.
#: Ceilings, not equalities — the trace comes from numpy's
#: generator and the C-call mix differs across the CI matrix.  Lower them
#: when a path gets shorter: with one per-key cache ``get`` / ``put`` per key
#: the same loops made 306.7 / 105.6 / 604.5, with a sampled latency per
#: device read and a latency EWMA per replica fragment 269.4 / 99.0 /
#: 577.7, with a replica group that copied its winner's record and ran
#: its full health bookkeeping on every healthy fragment 237.4 / 95.5 /
#: 526.8, and with a tier split that listed every hit 237.4 / 95.5 /
#: 467.0.  Dropping that list took the hybrid row to 83.6, while each
#: engine call gained three: ``unique_keys`` and ``select`` dedupe through
#: ``distinct_keys`` (a call and two ``len`` where ``dict.fromkeys`` was
#: one), less the inlined ``_tier_split``.  What they save is the copy of
#: a query with no repeated key, which a call count cannot see
#: (``tests/test_types.py`` holds ``unique_keys() is query.keys``).  With
#: a page mask for every selected key, a comprehension to read the
#: covered counts and a pacing that walked the step times three times,
#: they made 240.4 / 83.6 / 478.3; taking the keys stored once by a
#: lookup of their one page (no mask, no per-key ``dict.get``), flat
#: outcome lists and a one-pass pacing brought them to 171.6 / 71.9 /
#: 398.6.  A healthy replica group dispatching straight to its
#: least-loaded replica (no sorted order, no ``_attempt``) took the
#: cluster's to 381.1; with the monitor's ``record_dispatch`` /
#: ``record_success`` inlined too it was 373.4 (381.1 when re-measured
#: beside the next change).  With each key checked once, where its query
#: enters — scatter fragments built as distinct queries, a ``select``
#: that trusts its keys and bounds them in its rank sort, no second tier
#: split in the selector, a paced read built without its checks — the
#: three rows were 171.6 / 71.9 / 381.1 before and 162.6 / 63.5 / 330.3
#: after.  The engine holding its cache policy itself (no facade call in
#: front of each ``filter_hits`` / ``admit``) took them to 160.6 / 61.9 /
#: 322.8.
CEILINGS = {"engine": 185, "hybrid": 72, "cluster": 372}

#: Python + C calls per query of ``serve_trace`` around a replayed engine
#: (cluster: a replayed gather): 16.4 / 24.8 measured on CPython 3.11, plus
#: 15 %.  Through the admission queue they would be 24.5 / 46.6; with a
#: shard tally that folded every counter of every fragment and an event
#: for every served shard, the cluster's was 38.6; with a per-query
#: slowest-shard list, 29.8; with the tally's second pass over the
#: fragments, 28.8.  The gather now folds each fragment as it returns, so
#: the replayed gather hands back only that query's latencies.  Checking
#: each key once (no re-check inside the engine or the router) left both
#: counts where they were, 16.4 / 24.9: the driver checks no key.
DRIVER_CEILINGS = {"engine": 17.7, "cluster": 28.5}

#: Python + C calls per fragment a healthy ``ReplicaGroup.serve`` makes
#: beyond its engine's ``serve_query``: 3.0 (the call itself,
#: ``record_dispatch`` and ``record_success``) measured on CPython 3.11,
#: plus 15 %.  With those two inlined it made 1.0; through
#: ``dispatch_order`` (a sorted order) and ``_attempt`` as well, 6.0; the
#: group that maintained, copied its winner's record and ran the full
#: health bookkeeping on every fragment, 14.0.
GROUP_CEILING = 3.45


class RecordingDevice:
    """Pass-through device keeping what crosses ``submit_batch``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.commands = []
        self.completions = []

    def submit_batch(self, commands, now_us):
        completions = self._inner.submit_batch(commands, now_us)
        self.commands.extend(commands)
        self.completions.extend(completions)
        return completions

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def servers(criteo_small, maxembed_layout_small):
    """``{name: (server, engines behind it)}`` for the three deployments."""
    history, _ = criteo_small
    engine = ServingEngine(maxembed_layout_small, EngineConfig())
    hybrid = ServingEngine(
        maxembed_layout_small,
        EngineConfig(tier_mode="hybrid", tier_ratio=0.4, cache_ratio=0.4),
    )
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
    replicas = [e for group in cluster.groups for e in group.engines]
    return {
        "engine": (engine, [engine]),
        "hybrid": (hybrid, [hybrid]),
        "cluster": (cluster, replicas),
    }


def counted_calls(run, skip=None) -> int:
    """Python + C calls made by ``run()``.

    With ``skip`` a code object, a call of it and every call made inside
    that call are left out.
    """
    calls = 0
    inside = None

    def hook(frame, event, arg) -> None:
        nonlocal calls, inside
        if inside is not None:
            if event == "return" and frame is inside:
                inside = None
        elif event == "call" and frame.f_code is skip:
            inside = frame
        elif event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    # The hook itself and the closing setprofile(None) are not the path's.
    return calls - 1


def calls_per_query(server, queries) -> float:
    now = 0.0
    for query in queries[:WARMUP]:
        now = server.serve_query(query, now).finish_us
    measured = queries[WARMUP : WARMUP + QUERIES]
    assert len(measured) == QUERIES

    def run() -> None:
        now = 0.0
        for query in measured:
            now = server.serve_query(query, now).finish_us

    return counted_calls(run) / QUERIES


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_calls_per_query_under_ceiling(name, servers, criteo_small):
    _, live = criteo_small
    server, _ = servers[name]
    measured = calls_per_query(server, list(live))
    assert measured <= CEILINGS[name], measured


def test_replica_group_calls_per_fragment(servers, criteo_small):
    _, live = criteo_small
    cluster, _ = servers["cluster"]
    fragments = [
        (cluster.groups[shard], fragment)
        for query in list(live)[:QUERIES]
        for shard, fragment in sorted(cluster.scatter(query).items())
    ]

    def run() -> None:
        now = 0.0
        for group, fragment in fragments:
            now = group.serve(fragment, now).finish_us

    measured = counted_calls(run, skip=ServingEngine.serve_query.__code__)
    # A healthy group: every fragment served by its primary.
    assert all(not group.monitor.attention for group in cluster.groups)
    assert not any(group.failovers for group in cluster.groups)
    per_fragment = measured / len(fragments)
    assert per_fragment <= GROUP_CEILING, per_fragment


@pytest.mark.parametrize("name", sorted(DRIVER_CEILINGS))
def test_driver_calls_per_query_under_ceiling(name, servers, criteo_small):
    _, live = criteo_small
    server, _ = servers[name]
    queries = list(live)[:QUERIES]
    # What serve_trace calls per query: the engine, or the cluster's gather.
    seam = "_serve_scattered" if name == "cluster" else "serve_query"
    serve = getattr(server, seam)
    recorded = []

    def record(*args):
        result = serve(*args)
        # The gather folds each fragment into the tally's lists, its last
        # argument; a replay hands back the query's fragment latencies.
        fold = args[3] if len(args) > 3 else None
        recorded.append((result, list(fold[-1]) if fold else None))
        return result

    def replayed(*args):
        result, latencies = replay()
        if latencies:
            args[3][-1].extend(latencies)
        return result

    setattr(server, seam, record)
    try:
        server.serve_trace(queries)
        replay = iter(recorded).__next__
        setattr(server, seam, replayed)
        measured = counted_calls(lambda: server.serve_trace(queries))
    finally:
        delattr(server, seam)
    assert measured / QUERIES <= DRIVER_CEILINGS[name], measured / QUERIES


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_per_query_records_are_plain_dataclasses(name, servers, criteo_small):
    _, live = criteo_small
    server, engines = servers[name]
    devices = []
    for engine in engines:
        engine.device = RecordingDevice(engine.device)
        devices.append(engine.device)
    try:
        for query in live:
            result = server.serve_query(query, 0.0)
            if result.execution is not None:
                break
    finally:
        for engine in engines:
            engine.device = engine.device._inner
    commands = [c for device in devices for c in device.commands]
    completions = [c for device in devices for c in device.completions]
    assert commands and len(commands) == len(completions)
    records = [result, result.execution, commands[0], completions[0]]
    assert [type(record) for record in records] == [
        QueryResult,
        ExecutionResult,
        PacedReadCommand,
        Completion,
    ]
    for record in records:
        assert dataclasses.is_dataclass(record)
        assert record.__dataclass_params__.frozen is False, type(record)
    # Still dataclasses in full: the fault wrappers rebuild them this way.
    assert dataclasses.replace(result, finish_us=1.0).finish_us == 1.0


def test_inputs_and_configuration_stay_frozen_values():
    values = [Query((1, 2)), EngineConfig(), EngineConfig().profile]
    assert isinstance(values[2], SsdProfile)
    for value in values:
        assert value.__dataclass_params__.frozen is True, type(value)
        assert hash(value) == hash(dataclasses.replace(value))
    with pytest.raises(dataclasses.FrozenInstanceError):
        values[0].keys = (3,)
