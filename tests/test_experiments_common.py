"""Tests for repro.experiments.common: caches, engine helper, serve_live."""

import pytest

from repro.experiments import clear_caches
from repro.experiments.common import (
    DEFAULT_DATASETS,
    get_split_trace,
    layout_for,
    make_engine,
    normalize,
    serve_live,
)


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    yield
    clear_caches()


class TestTraceCache:
    def test_split_halves_share_universe(self):
        history, live = get_split_trace("criteo", "small", seed=1)
        assert history.num_keys == live.num_keys
        assert abs(len(history) - len(live)) <= 1

    def test_memoized_identity(self):
        a = get_split_trace("criteo", "small", seed=1)
        b = get_split_trace("criteo", "small", seed=1)
        assert a[0] is b[0]

    def test_different_seeds_not_shared(self):
        a = get_split_trace("criteo", "small", seed=1)
        b = get_split_trace("criteo", "small", seed=2)
        assert a[0] is not b[0]

    def test_default_datasets_are_the_paper_five(self):
        assert set(DEFAULT_DATASETS) == {
            "alibaba_ifashion",
            "amazon_m2",
            "avazu",
            "criteo",
            "criteo_tb",
        }


class TestLayoutCache:
    def test_memoized_identity(self):
        a = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        b = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        assert a is b

    def test_distinct_configs_distinct_layouts(self):
        a = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        b = layout_for("criteo", "maxembed", 0.4, scale="small", seed=1)
        assert a is not b
        assert b.num_pages > a.num_pages

    def test_clear_caches_resets(self):
        a = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        clear_caches()
        b = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        assert a is not b

    def test_partitioner_variant_cached_separately(self):
        a = layout_for(
            "criteo", "none", 0.0, scale="small", seed=1, partitioner="shp"
        )
        b = layout_for(
            "criteo",
            "none",
            0.0,
            scale="small",
            seed=1,
            partitioner="vanilla",
        )
        assert a is not b


class TestMakeEngineAndServe:
    def test_engine_defaults(self):
        layout = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        engine = make_engine(layout)
        assert engine.config.cache_ratio == 0.10

    def test_serve_live_reports(self):
        layout = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        engine = make_engine(layout, cache_ratio=0.1)
        report = serve_live(
            engine, "criteo", scale="small", seed=1, max_queries=60
        )
        assert 0 < report.num_queries <= 60
        assert report.throughput_qps() > 0

    def test_serve_live_cacheless_has_no_warmup(self):
        layout = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        engine = make_engine(layout, cache_ratio=0.0)
        report = serve_live(
            engine, "criteo", scale="small", seed=1, max_queries=50
        )
        assert report.num_queries == 50  # nothing excluded

    def test_serve_live_warmup_excluded(self):
        layout = layout_for("criteo", "none", 0.0, scale="small", seed=1)
        engine = make_engine(layout, cache_ratio=0.2)
        report = serve_live(
            engine,
            "criteo",
            scale="small",
            seed=1,
            max_queries=50,
            warmup_fraction=0.2,
        )
        assert report.num_queries == 40


class TestNormalize:
    def test_scales_by_base(self):
        assert normalize([2.0, 4.0], 2.0) == [1.0, 2.0]

    def test_zero_base(self):
        assert normalize([1.0, 2.0], 0.0) == [0.0, 0.0]
