"""Tests for repro.workloads.analysis."""

import numpy as np
import pytest

from repro import Query, QueryTrace, WorkloadError, make_trace
from repro.workloads.analysis import (
    access_counts,
    coappearance_breadth,
    gini_coefficient,
    summarize,
    top_share,
)


@pytest.fixture
def skewed_trace():
    """Key 0 is in every query; keys 1..9 appear once each."""
    queries = [Query((0, k)) for k in range(1, 10)]
    return QueryTrace(10, queries)


@pytest.fixture
def uniform_trace():
    return QueryTrace(10, [Query((k,)) for k in range(10)])


class TestCounts:
    def test_access_counts(self, skewed_trace):
        counts = access_counts(skewed_trace)
        assert counts[0] == 9
        assert counts[5] == 1
        assert counts.sum() == 18

    def test_duplicates_counted_raw(self):
        trace = QueryTrace(4, [Query((1, 1, 2))])
        counts = access_counts(trace)
        assert counts[1] == 2


class TestSkewMetrics:
    def test_top_share_skewed(self, skewed_trace):
        # Hottest 10% (1 key) = key 0 with 9 of 18 accesses.
        assert top_share(skewed_trace, 0.1) == pytest.approx(0.5)

    def test_top_share_uniform(self, uniform_trace):
        assert top_share(uniform_trace, 0.5) == pytest.approx(0.5)

    def test_top_share_rejects_bad_fraction(self, uniform_trace):
        with pytest.raises(WorkloadError):
            top_share(uniform_trace, 0.0)

    def test_gini_uniform_is_zero(self, uniform_trace):
        assert gini_coefficient(uniform_trace) == pytest.approx(0.0, abs=1e-9)

    def test_gini_skewed_positive(self, skewed_trace):
        assert gini_coefficient(skewed_trace) > 0.3

    def test_gini_empty(self):
        assert gini_coefficient(QueryTrace(4)) == 0.0


class TestBreadth:
    def test_breadth_report_fields(self):
        trace, _ = make_trace("criteo", scale="small", seed=1)
        report = coappearance_breadth(trace, page_capacity=16)
        assert report.page_capacity == 16
        assert report.hot_mean_breadth >= report.mean_breadth
        assert 0.0 <= report.fraction_exceeding_capacity <= 1.0

    def test_motivation_holds_on_presets(self):
        # The paper's premise: hot keys co-appear beyond a page.
        trace, _ = make_trace("criteo", scale="small", seed=1)
        report = coappearance_breadth(trace, page_capacity=16)
        assert report.hot_mean_breadth > report.page_capacity

    def test_rejects_bad_capacity(self, skewed_trace):
        with pytest.raises(WorkloadError):
            coappearance_breadth(skewed_trace, page_capacity=0)


class TestSummary:
    def test_summarize_keys(self):
        trace, _ = make_trace("amazon_m2", scale="small", seed=2)
        summary = summarize(trace)
        assert summary["num_keys"] == trace.num_keys
        assert summary["num_queries"] == len(trace)
        assert 0 < summary["gini"] < 1
        assert summary["hot_coappearance_breadth"] > 0
