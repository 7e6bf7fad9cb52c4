"""Tests for repro.hypergraph.sampling."""

import pytest

from repro import Query, QueryTrace, WorkloadError
from repro.hypergraph import sample_trace


@pytest.fixture
def trace():
    return QueryTrace(10, [Query((k, (k + 1) % 10)) for k in range(10)])


class TestSampleTrace:
    def test_fraction_of_queries(self, trace):
        sampled = sample_trace(trace, 0.3, seed=0)
        assert len(sampled) == 3
        assert sampled.num_keys == trace.num_keys

    def test_order_preserved(self, trace):
        sampled = sample_trace(trace, 0.5, seed=0)
        originals = [q.keys for q in trace]
        positions = [originals.index(q.keys) for q in sampled]
        assert positions == sorted(positions)

    def test_full_fraction_returns_same(self, trace):
        assert sample_trace(trace, 1.0) is trace

    def test_rejects_bad_fraction(self, trace):
        with pytest.raises(WorkloadError):
            sample_trace(trace, -0.1)
