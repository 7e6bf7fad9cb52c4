"""Hot swaps under live concurrent traffic: zero dropped, zero mis-served.

The swap contract the refresh daemon leans on: a
:class:`~repro.core.LayoutManager` (or a cluster's per-shard roll) can
replace the serving engine while queries are in flight, and

* no query ever loses a key (``missing_keys == 0`` throughout);
* queries over keys the swap did not move serve **identically** to an
  unswapped engine (bit-parity on the deterministic read-path fields);
* every activation lands in the audit trail.

One engine is not safe for concurrent ``serve_query`` calls against
*itself*, so the threading here mirrors production: a single serving
thread per engine, with the swapper racing it from another thread — the
race under test is serve-vs-swap, not serve-vs-serve.
"""

import threading

import pytest

from repro import (
    EngineConfig,
    MaxEmbedConfig,
    ShpConfig,
    build_offline_layout,
    build_sharded_layout,
)
from repro.cluster import ClusterEngine
from repro.core import LayoutManager


def _build_config(num_shards: int = 1, seed: int = 7) -> MaxEmbedConfig:
    return MaxEmbedConfig(
        strategy="maxembed",
        replication_ratio=0.2,
        shp=ShpConfig(max_iterations=6, seed=7),
        num_shards=num_shards,
        seed=seed,
    )


@pytest.fixture(scope="module")
def layout_variants(criteo_small):
    """Three placements of the same key space (different build seeds)."""
    history, _ = criteo_small
    return [
        build_offline_layout(history, _build_config(seed=seed))
        for seed in (7, 8, 9)
    ]


class TestSingleEngineSwapUnderLoad:
    ROUNDS = 30

    def test_zero_dropped_and_parity_across_swaps(
        self, criteo_small, layout_variants
    ):
        _, live = criteo_small
        queries = list(live)[:120]
        manager = LayoutManager(
            layout_variants[0], EngineConfig(cache_ratio=0.0)
        )
        for layout in layout_variants[1:]:
            manager.register(layout)

        # Expected per-query serving, computed single-threaded on a
        # never-swapped engine per version.  Keys are placement-covered
        # in every variant, so requested/cache/missing are deterministic
        # regardless of which version a racing query lands on.
        reference = {}
        for record in manager.versions():
            solo = LayoutManager(
                record.layout, EngineConfig(cache_ratio=0.0)
            )
            reference[record.version] = [
                (r.requested_keys, r.missing_keys, r.pages_read)
                for r in (solo.serve_query(q) for q in queries)
            ]

        results = []
        errors = []
        stop = threading.Event()

        def serve_loop():
            try:
                while not stop.is_set():
                    for query in queries:
                        results.append(manager.serve_query(query))
            except Exception as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        server = threading.Thread(target=serve_loop)
        server.start()
        versions = [r.version for r in manager.versions()]
        try:
            for round_index in range(self.ROUNDS):
                manager.swap(versions[round_index % len(versions)])
        finally:
            stop.set()
            server.join(timeout=30)
        assert not server.is_alive()
        assert not errors, f"serving thread died: {errors[0]!r}"

        assert len(results) >= len(queries)
        assert len(results) % len(queries) == 0  # only whole sweeps
        assert all(r.missing_keys == 0 for r in results)
        # Every result is bit-identical to *some* version's reference
        # serving of that exact query — never a torn hybrid of layouts.
        for index, result in enumerate(results):
            query_index = index % len(queries)
            legal = {
                rows[query_index] for rows in reference.values()
            }
            row = (
                result.requested_keys,
                result.missing_keys,
                result.pages_read,
            )
            assert row in legal, f"result {index} matches no version: {row}"

        # Audit trail: constructor activation + one event per swap.
        assert len(manager.swap_events) == self.ROUNDS + 1
        assert not manager.engine.closed

    def test_swap_keeps_warm_cache_for_untouched_keys(self, layout_variants):
        manager = LayoutManager(
            layout_variants[0], EngineConfig(cache_ratio=0.05)
        )
        record = manager.register(layout_variants[1])
        queries = [q for q in _warm_queries(layout_variants[0])]
        for query in queries:
            manager.serve_query(query)
        warm_hits = sum(
            manager.serve_query(q).cache_hits for q in queries
        )
        manager.swap(record.version, keep_cache=True)
        kept_hits = sum(
            manager.serve_query(q).cache_hits for q in queries
        )
        # Keys are placement-independent: the warm cache serves exactly
        # as well through the swapped-in engine.
        assert kept_hits == warm_hits


def _warm_queries(layout):
    from repro import Query

    keys = list(range(min(16, layout.num_keys)))
    return [Query(tuple(keys[i : i + 4])) for i in range(0, len(keys), 4)]


class TestClusterSwapUnderLoad:
    def test_swapping_one_shard_leaves_others_bit_identical(
        self, criteo_small
    ):
        history, live = criteo_small
        config = _build_config(num_shards=2)
        sharded = build_sharded_layout(history, config)
        engine = ClusterEngine(sharded, EngineConfig(cache_ratio=0.0))

        # Shard-local traffic for shard 0 (the untouched one), served
        # directly on its engine — engines are single-threaded, so the
        # load thread owns shard 0 while the swapper churns shard 1.
        from repro.cluster import project_trace

        shard0_trace = project_trace(live, engine.plan, 0)
        shard0_queries = list(shard0_trace)[:80]
        baseline = [
            (r.requested_keys, r.missing_keys, r.pages_read)
            for r in (
                engine.engines[0].serve_query(q) for q in shard0_queries
            )
        ]

        shard1_keys = engine.plan.shard_keys(1)
        replacement = build_offline_layout(
            project_trace(live, engine.plan, 1),
            _build_config(seed=11),
        )
        assert replacement.num_keys == len(shard1_keys)

        results = []
        errors = []
        stop = threading.Event()

        def serve_shard0():
            try:
                while not stop.is_set():
                    for query in shard0_queries:
                        results.append(engine.engines[0].serve_query(query))
            except Exception as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        server = threading.Thread(target=serve_shard0)
        server.start()
        try:
            for _ in range(10):
                engine.swap_shards({1: replacement})
        finally:
            stop.set()
            server.join(timeout=30)
        assert not server.is_alive()
        assert not errors, f"shard-0 serving died: {errors[0]!r}"

        # The untouched shard served bit-identically throughout.
        assert len(results) >= len(shard0_queries)
        for index, result in enumerate(results):
            expected = baseline[index % len(shard0_queries)]
            got = (
                result.requested_keys,
                result.missing_keys,
                result.pages_read,
            )
            assert got == expected
        assert engine.swap_counts == [0, 10]
        # Whole-cluster routing is intact after the churn.
        for query in list(live)[:40]:
            assert engine.serve_query(query).missing_keys == 0
