"""What a trace costs in memory, and that its queries survive a pickle.

Every trace producer — the synthetic generator behind ``make_trace`` and
``drifted_trace_for``, ``load_trace`` and the Criteo / Avazu parsers —
hands out one shared ``int`` object per key id (``repro.types.KeyInterner``),
and a ``Query`` is a slotted value with no ``__dict__``.  The retained
bytes per key occurrence of a generated trace stay under a committed
ceiling (ROADMAP 2(a): an allocated-memory count beside the call and
bytecode budgets).  Process pools pickle traces, so a slotted query must
come back as its own type, and a pooled sharded build must equal the
serial one.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from collections import defaultdict

import pytest

from repro import MaxEmbedConfig, build_sharded_layout
from repro.types import DistinctQuery, KeyInterner, Query, QueryTrace
from repro.workloads import load_trace, make_trace, save_trace
from repro.workloads.adapters import parse_criteo_tsv
from repro.workloads.drift import drifted_trace_for

#: Retained bytes per key occurrence of ``make_trace("criteo", "small",
#: seed=0)`` (16 470 occurrences) under tracemalloc: 12.55 measured on
#: CPython 3.11 (it repeats to 0.01), plus 10 %.  One int object per
#: occurrence and a ``__dict__`` per query made it 34.63.  Lower it when
#: a trace gets smaller.
BYTES_PER_OCCURRENCE_CEILING = 13.8


def objects_per_key_id(trace: QueryTrace) -> dict:
    """Key id → the distinct int objects the trace holds for it, for ids
    above CPython's small-int cache (256)."""
    objects = defaultdict(set)
    for query in trace:
        for key in query.keys:
            if key > 256:
                objects[key].add(id(key))
    return objects


def assert_one_object_per_key_id(trace: QueryTrace) -> None:
    objects = objects_per_key_id(trace)
    occurrences = sum(
        1 for query in trace for key in query.keys if key > 256
    )
    # Ids recur, or the check would hold for any producer.
    assert occurrences > len(objects) > 0
    shared = [key for key, ids in objects.items() if len(ids) > 1]
    assert shared == [], f"{len(shared)} key ids held more than once"


class TestOneIntPerKeyId:
    @pytest.mark.parametrize("dataset", ["criteo", "amazon_m2"])
    def test_make_trace(self, dataset):
        trace, _ = make_trace(dataset, "small", seed=0)
        assert_one_object_per_key_id(trace)

    def test_drifted_trace_for(self):
        assert_one_object_per_key_id(
            drifted_trace_for("criteo", "small", drift_seed=3)
        )

    def test_save_load_round_trip(self, tmp_path):
        trace, _ = make_trace("criteo", "small", seed=1)
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [q.keys for q in loaded] == [q.keys for q in trace]
        assert_one_object_per_key_id(loaded)

    def test_parse_criteo_tsv(self):
        integers = "\t".join(["1"] * 13)

        def line(label: int, values) -> str:
            categoricals = "\t".join(values[i % len(values)] for i in range(26))
            return f"{label}\t{integers}\t{categoricals}"

        lines = [
            line(0, ["a", "b", "c"]),
            line(1, ["a", "b", "d"]),
            line(0, ["a", "b", "c"]),
            line(1, ["e"]),
        ]
        trace = parse_criteo_tsv(lines, buckets_per_feature=1000)
        assert len(trace) == 4
        assert_one_object_per_key_id(trace)

    def test_interner_keeps_values_and_order(self):
        interner = KeyInterner()
        first = interner.keys([1000, 5, 1001, 1000])
        second = interner.keys(int(text) for text in "1001 1000".split())
        assert first == (1000, 5, 1001, 1000)
        assert second == (1001, 1000)
        assert second[0] is first[2] and second[1] is first[0]


def retained_bytes_per_occurrence() -> float:
    make_trace("criteo", "small", seed=0)  # imports and lazy state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, _ = make_trace("criteo", "small", seed=0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    occurrences = sum(len(query) for query in trace)
    return retained / occurrences


def test_trace_bytes_per_key_occurrence_stay_under_the_ceiling():
    per_occurrence = retained_bytes_per_occurrence()
    assert per_occurrence <= BYTES_PER_OCCURRENCE_CEILING, (
        f"{per_occurrence:.2f} B per key occurrence > "
        f"{BYTES_PER_OCCURRENCE_CEILING}"
    )


class TestSlottedQuery:
    def test_a_query_has_no_instance_dict(self):
        for query in (Query((1, 300)), DistinctQuery((2, 400))):
            assert not hasattr(query, "__dict__")

    @pytest.mark.parametrize("cls", [Query, DistinctQuery])
    def test_pickle_round_trip_keeps_the_type(self, cls):
        query = cls((7, 300, 4096))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(query, protocol=protocol))
            assert type(back) is cls
            assert back.keys == query.keys
            assert back == query and hash(back) == hash(query)
            assert back.unique_keys() == query.keys

    def test_pickled_trace_round_trips(self):
        trace, _ = make_trace("amazon_m2", "small", seed=0)
        back = pickle.loads(pickle.dumps(trace))
        assert back.num_keys == trace.num_keys
        assert back.queries == trace.queries
        assert all(type(q) is Query for q in back)

    def test_pooled_sharded_build_equals_the_serial_one(self):
        trace, _ = make_trace("amazon_m2", "small", seed=0)
        config = MaxEmbedConfig(
            num_shards=2, shard_strategy="cooccurrence", offline_workers=1
        )
        serial = build_sharded_layout(trace, config, workers=0)
        pooled = build_sharded_layout(trace, config, workers=2)
        assert pooled.plan.assignment == serial.plan.assignment
        for mine, theirs in zip(pooled.layouts, serial.layouts):
            assert mine.pages() == theirs.pages()
            assert mine.num_base_pages == theirs.num_base_pages
