"""Each key is checked once, where its query enters.

``Query`` refuses an empty query and a negative key, and
``GatewayCore.offer`` does the same for a request's keys.  A key past
the table is refused by the router's scatter before any shard is
dispatched, and on one engine by its selection's rank lookup — with one
message everywhere.  Inside, the engine and the router trust what they
built: scatter fragments and a gateway batch's key union are
``DistinctQuery`` values, ``select`` takes distinct non-negative keys,
and the executor sets its paced read's fields unchecked.

Held here: every entry keeps its rejection (type and message), a query
with repeated keys serves field for field like its deduplicated twin on
an engine, a one-shard cluster and a 4 x 2 cluster, and what the inside
builds unchecked would pass the public checks.  DESIGN.md, "Values and
records", tables where each check lives.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ClusterEngine,
    ConfigError,
    EngineConfig,
    MaxEmbedConfig,
    MaxEmbedStore,
    Query,
    ServingEngine,
    ServingError,
    ShardedLayout,
    ShardPlan,
    ShpConfig,
    build_sharded_layout,
)
from repro.ssd import PacedReadCommand
from repro.types import DistinctQuery

ENGINE_CONFIG = EngineConfig(cache_ratio=0.1)


@pytest.fixture(scope="module")
def sharded_small(criteo_small):
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


def deployments(layout, sharded):
    """``{name: fresh server}``: an engine, a 1-shard cluster of the same
    layout, and a 4 x 2 cluster."""
    one = ShardedLayout(ShardPlan(1, (0,) * layout.num_keys), (layout,))
    return {
        "engine": ServingEngine(layout, ENGINE_CONFIG),
        "cluster-1": ClusterEngine(one, ENGINE_CONFIG),
        "cluster-4x2": ClusterEngine(
            sharded, EngineConfig(cache_ratio=0.1, replicas=2)
        ),
    }


class TestQueryEntry:
    def test_empty_query_refused(self):
        with pytest.raises(
            ConfigError, match="^a query must contain at least one key$"
        ):
            Query(())

    def test_negative_key_refused(self):
        # Was also select([-1]) on the selector; no selector sees it now.
        with pytest.raises(
            ConfigError, match="^query keys must be non-negative$"
        ):
            Query((3, -1))

    def test_distinct_query_is_the_same_query(self):
        assert DistinctQuery((4, 2)) == Query((4, 2))
        assert hash(DistinctQuery((4, 2))) == hash(Query((4, 2)))
        assert DistinctQuery((4, 2)).unique_keys() == (4, 2)


class TestKeyPastTheTable:
    """The same ``ServingError`` from every entry that serves keys."""

    def test_same_error_from_every_entry(
        self, maxembed_layout_small, sharded_small
    ):
        num_keys = maxembed_layout_small.num_keys
        assert sharded_small.plan.num_keys == num_keys
        # In-range and repeated keys first; the first bad key in query
        # order is named, the second bad one never.
        query = Query((1, 5, 1, num_keys + 3, num_keys, num_keys + 3))
        want = f"key {num_keys + 3} is not in the embedding table"
        servers = deployments(maxembed_layout_small, sharded_small)
        for name, server in servers.items():
            with pytest.raises(ServingError) as info:
                server.serve_query(query)
            assert type(info.value) is ServingError, name
            assert str(info.value) == want, name
            if name != "engine":
                with pytest.raises(ServingError, match=f"^{want}$"):
                    server.scatter(query)
        store = MaxEmbedStore(
            maxembed_layout_small,
            table=np.zeros((num_keys, 64), dtype=np.float32),
        )
        with pytest.raises(ServingError) as info:
            store.lookup(query)
        assert type(info.value) is ServingError
        assert str(info.value) == want

    def test_refused_before_any_shard_or_replica_is_touched(
        self, maxembed_layout_small, sharded_small
    ):
        num_keys = maxembed_layout_small.num_keys
        servers = deployments(maxembed_layout_small, sharded_small)
        for name in ("cluster-1", "cluster-4x2"):
            cluster = servers[name]
            with pytest.raises(ServingError):
                cluster.serve_query(Query((0, num_keys)))
            groups = cluster.groups or ()
            assert all(g.fragments == 0 for g in groups), name
            assert all(
                e.device.stats.reads == 0 for e in cluster.engines
            ), name


class TestFragmentsAreDistinct:
    def test_scatter_dedupes_once(self, sharded_small):
        cluster = ClusterEngine(sharded_small, ENGINE_CONFIG)
        keys = (7, 3, 7, 11, 3, 200, 7)
        fragments = cluster.scatter(Query(keys))
        plan = sharded_small.plan
        served = []
        for shard, fragment in fragments.items():
            assert type(fragment) is DistinctQuery
            assert len(set(fragment.keys)) == len(fragment.keys)
            assert fragment.unique_keys() is fragment.keys
            served += [plan.shard_keys(shard)[k] for k in fragment.keys]
        assert sorted(served) == sorted(set(keys))
        assert list(fragments) == sorted(fragments)


@st.composite
def query_streams(draw, num_keys=800):
    """Queries of distinct keys, each with a twin that repeats some."""
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        keys = draw(
            st.lists(
                st.integers(0, num_keys - 1), min_size=1, max_size=30,
                unique=True,
            )
        )
        repeats = draw(st.lists(st.sampled_from(keys), max_size=8))
        spots = draw(
            st.lists(
                st.integers(0, len(keys)),
                min_size=len(repeats),
                max_size=len(repeats),
            )
        )
        raw = list(keys)
        for key, spot in zip(repeats, spots):
            # After the key's first appearance, so the twin's order is
            # the raw query's first-appearance order.
            raw.insert(max(spot, raw.index(key) + 1), key)
        queries.append((tuple(raw), tuple(keys)))
    return queries


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(stream=query_streams())
def test_repeated_keys_serve_like_their_distinct_twin(
    stream, maxembed_layout_small, sharded_small
):
    """Each deployment and a fresh twin of it serve the same stream, one
    with repeated keys and one without: every result is field-equal."""
    assert maxembed_layout_small.num_keys == 800
    raw_side = deployments(maxembed_layout_small, sharded_small)
    twin_side = deployments(maxembed_layout_small, sharded_small)
    for name in raw_side:
        now_raw = now_twin = 0.0
        for raw, distinct in stream:
            got = raw_side[name].serve_query(Query(raw), now_raw)
            want = twin_side[name].serve_query(Query(distinct), now_twin)
            assert got == want, name
            assert got.requested_keys == len(distinct)
            now_raw, now_twin = got.finish_us, want.finish_us


def test_executor_command_passes_the_public_checks(maxembed_layout_small):
    """The paced read the executor builds unchecked is one the checked
    constructor accepts, field for field."""
    engine = ServingEngine(maxembed_layout_small, EngineConfig(cache_ratio=0))
    seen = []
    submit = engine.device.submit_batch

    def recording(commands, now_us):
        seen.extend(commands)
        return submit(commands, now_us)

    engine.device.submit_batch = recording
    for key in range(0, 800, 37):
        engine.serve_query(Query((key, (key * 7 + 1) % 800)))
    assert seen
    for command in seen:
        assert type(command) is PacedReadCommand
        assert command == PacedReadCommand(command.page_ids, command.gaps_us)
