"""Call budget and record shape of the engine and cluster query paths.

The engine and cluster thirds of ROADMAP 2(b), beside
``tests/test_service_hot_path.py``.  Two hundred fixed queries go through
a default ``ServingEngine``, a hybrid-tier one and a 4 x 2
``ClusterEngine`` under ``sys.setprofile``; Python + C calls per query
stay under a committed ceiling.

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

#: Python + C calls per query: 269.4 / 99.0 / 577.7 measured on CPython
#: 3.11 (each repeats to the digit), plus 15 %.  Ceilings, not equalities —
#: the trace comes from numpy's generator and the C-call mix differs
#: across the CI matrix.  Lower them when a path gets shorter: with one
#: ``LruCache.get`` / ``put`` per key the same loops made 306.7 / 105.6 /
#: 604.5.
CEILINGS = {"engine": 309, "hybrid": 113, "cluster": 664}


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


def calls_per_query(server, queries) -> float:
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    now = 0.0
    for query in queries[:WARMUP]:
        now = server.serve_query(query, now).finish_us
    measured = queries[WARMUP : WARMUP + QUERIES]
    assert len(measured) == QUERIES
    sys.setprofile(hook)
    try:
        for query in measured:
            now = server.serve_query(query, now).finish_us
    finally:
        sys.setprofile(None)
    # The hook itself and the closing setprofile(None) are not the path's.
    return (calls - 1) / QUERIES


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_calls_per_query_under_ceiling(name, servers, criteo_small):
    _, live = criteo_small
    server, _ = servers[name]
    measured = calls_per_query(server, list(live))
    assert measured <= CEILINGS[name], measured


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
