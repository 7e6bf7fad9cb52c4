"""Tests for repro.types: Query, QueryTrace, EmbeddingSpec, ReplicationConfig."""

import pytest

from repro import ConfigError, EmbeddingSpec, Query, QueryTrace
from repro.types import ReplicationConfig, as_queries


class TestQuery:
    def test_holds_keys_in_order(self):
        q = Query((3, 1, 2))
        assert q.keys == (3, 1, 2)
        assert len(q) == 3
        assert list(q) == [3, 1, 2]

    def test_unique_keys_preserves_first_appearance(self):
        q = Query((5, 1, 5, 2, 1))
        assert q.unique_keys() == (5, 1, 2)

    def test_of_builds_from_iterable(self):
        assert Query.of(iter([1, 2])).keys == (1, 2)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Query(())

    def test_rejects_negative_keys(self):
        with pytest.raises(ConfigError):
            Query((1, -2))
        with pytest.raises(ConfigError):
            Query((-1,))

    def test_is_hashable_and_equal_by_value(self):
        assert Query((1, 2)) == Query((1, 2))
        assert hash(Query((1, 2))) == hash(Query((1, 2)))


class TestEmbeddingSpec:
    def test_defaults_match_paper(self):
        spec = EmbeddingSpec()
        assert spec.dim == 64
        assert spec.page_size == 4096
        assert spec.embedding_bytes == 256
        assert spec.slots_per_page == 16

    @pytest.mark.parametrize(
        "dim,slots", [(32, 32), (64, 16), (128, 8), (16, 64)]
    )
    def test_slots_per_page_follows_dim(self, dim, slots):
        assert EmbeddingSpec(dim=dim).slots_per_page == slots

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ConfigError):
            EmbeddingSpec(dim=0)

    def test_rejects_nonpositive_page_size(self):
        with pytest.raises(ConfigError):
            EmbeddingSpec(page_size=-1)

    def test_rejects_embedding_larger_than_page(self):
        with pytest.raises(ConfigError):
            EmbeddingSpec(dim=4096, page_size=4096)


class TestReplicationConfig:
    def test_defaults(self):
        config = ReplicationConfig()
        assert config.ratio == 0.1
        assert config.index_limit is None

    def test_rejects_negative_ratio(self):
        with pytest.raises(ConfigError):
            ReplicationConfig(ratio=-0.1)

    def test_rejects_zero_index_limit(self):
        with pytest.raises(ConfigError):
            ReplicationConfig(index_limit=0)


class TestQueryTrace:
    def test_append_and_iterate(self):
        trace = QueryTrace(10)
        trace.append(Query((1, 2)))
        trace.append(Query((3,)))
        assert len(trace) == 2
        assert [q.keys for q in trace] == [(1, 2), (3,)]

    def test_rejects_out_of_range_keys(self):
        trace = QueryTrace(4)
        with pytest.raises(ConfigError):
            trace.append(Query((4,)))

    def test_rejects_out_of_range_in_constructor(self):
        with pytest.raises(ConfigError):
            QueryTrace(2, [Query((5,))])

    def test_rejects_non_query_items(self):
        with pytest.raises(ConfigError):
            QueryTrace(4, [(1, 2)])

    def test_rejects_nonpositive_num_keys(self):
        with pytest.raises(ConfigError):
            QueryTrace(0)

    def test_mean_query_length(self):
        trace = QueryTrace(10, [Query((1, 2)), Query((3, 4, 5, 6))])
        assert trace.mean_query_length() == 3.0

    def test_mean_query_length_empty(self):
        assert QueryTrace(10).mean_query_length() == 0.0

    def test_split_halves(self):
        trace = QueryTrace(10, [Query((i,)) for i in range(10)])
        head, tail = trace.split(0.3)
        assert len(head) == 3
        assert len(tail) == 7
        assert head.num_keys == tail.num_keys == 10

    def test_split_rejects_degenerate_fraction(self):
        trace = QueryTrace(10, [Query((1,))])
        with pytest.raises(ConfigError):
            trace.split(0.0)
        with pytest.raises(ConfigError):
            trace.split(1.0)


def test_as_queries_converts_sequences():
    queries = as_queries([[1, 2], (3,)])
    assert [q.keys for q in queries] == [(1, 2), (3,)]
