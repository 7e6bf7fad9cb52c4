"""Tests for repro.metrics: placement evaluation."""

import pytest

from repro import ConfigError, PageLayout, Query, QueryTrace
from repro.metrics import evaluate_placement


@pytest.fixture
def layout():
    return PageLayout(
        num_keys=8,
        capacity=4,
        pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4)],
        num_base_pages=2,
    )


@pytest.fixture
def trace():
    return QueryTrace(
        8,
        [
            Query((0, 1, 2, 3)),  # 1 read, 4 valid
            Query((0, 4)),        # 1 read via replica page
            Query((3, 5)),        # 2 reads, 1 valid each
        ],
    )


class TestEvaluatePlacement:
    def test_counts(self, layout, trace):
        ev = evaluate_placement(layout, trace)
        assert ev.num_queries == 3
        assert ev.total_reads == 4
        assert ev.total_valid == 8
        assert ev.total_requested == 8

    def test_histogram(self, layout, trace):
        ev = evaluate_placement(layout, trace)
        assert ev.valid_per_read_hist == {4: 1, 2: 1, 1: 2}

    def test_mean_values(self, layout, trace):
        ev = evaluate_placement(layout, trace)
        assert ev.mean_reads_per_query() == pytest.approx(4 / 3)
        assert ev.mean_valid_per_read() == pytest.approx(2.0)

    def test_effective_fraction(self, layout, trace):
        ev = evaluate_placement(layout, trace)
        assert ev.effective_fraction() == pytest.approx(
            (8 * 256) / (4 * 4096)
        )

    def test_effective_bandwidth_mb_s(self, layout, trace):
        ev = evaluate_placement(layout, trace)
        assert ev.effective_bandwidth_mb_s(1.0) == pytest.approx(
            ev.effective_fraction() * 1000
        )
        with pytest.raises(ConfigError):
            ev.effective_bandwidth_mb_s(0)

    def test_cdf_monotone(self, layout, trace):
        ev = evaluate_placement(layout, trace)
        cdf = ev.cdf()
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_index_limit_option(self, layout, trace):
        ev = evaluate_placement(layout, trace, index_limit=1)
        # Key 0 and 4 lose their replica entry, but the replica page is
        # never *chosen* for them; queries still fully covered.
        assert ev.total_valid == 8

    def test_max_queries(self, layout, trace):
        ev = evaluate_placement(layout, trace, max_queries=1)
        assert ev.num_queries == 1

    def test_unknown_selector(self, layout, trace):
        # One-pass is the only selection: no selector can be named.
        with pytest.raises(TypeError):
            evaluate_placement(layout, trace, selector="greedy")

    def test_custom_geometry(self, layout, trace):
        ev = evaluate_placement(
            layout, trace, embedding_bytes=512, page_size=2048
        )
        assert ev.effective_fraction() == pytest.approx(
            (8 * 512) / (4 * 2048)
        )
