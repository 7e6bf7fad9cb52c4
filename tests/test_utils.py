"""Tests for repro.utils: rng, zipf, tables."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils import (
    ZipfSampler,
    format_table,
    make_rng,
    spawn_rngs,
    zipf_weights,
)
from repro.utils.tables import format_mapping


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_make_rng_passes_through_generator(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_make_rng_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_spawn_rngs_independent_streams(self):
        children = spawn_rngs(0, 3)
        draws = [c.random(4).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_rngs_differ_from_root_stream(self):
        # The collision this guards against: a component seeded with the
        # same integer must not replay a spawned child's draws.
        root = make_rng(0).permutation(100).tolist()
        child = spawn_rngs(0, 1)[0].permutation(100).tolist()
        assert root != child

    def test_spawn_rngs_reproducible(self):
        a = spawn_rngs(5, 2)[1].random(3)
        b = spawn_rngs(5, 2)[1].random(3)
        assert np.array_equal(a, b)

    def test_spawn_rngs_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestZipf:
    def test_weights_sum_to_one(self):
        w = zipf_weights(100, 1.0)
        assert w.sum() == pytest.approx(1.0)

    def test_weights_monotone_decreasing(self):
        w = zipf_weights(50, 0.8)
        assert all(w[i] >= w[i + 1] for i in range(49))

    def test_alpha_zero_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            zipf_weights(0, 1.0)
        with pytest.raises(ConfigError):
            zipf_weights(10, -1.0)

    def test_sampler_range(self):
        s = ZipfSampler(20, 1.2, seed=0)
        draws = s.sample(1000)
        assert draws.min() >= 0
        assert draws.max() < 20

    def test_sampler_skew(self):
        s = ZipfSampler(100, 1.5, seed=0)
        draws = s.sample(5000)
        # Rank 0 should dominate any mid-pack rank under alpha=1.5.
        assert (draws == 0).sum() > (draws == 50).sum()

    def test_sampler_deterministic_under_seed(self):
        a = ZipfSampler(50, 1.0, seed=3).sample(100)
        b = ZipfSampler(50, 1.0, seed=3).sample(100)
        assert np.array_equal(a, b)

    def test_sample_one_is_int(self):
        assert isinstance(ZipfSampler(10, 1.0, seed=0).sample_one(), int)

    def test_sample_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            ZipfSampler(10, 1.0, seed=0).sample(-1)

    def test_pmf_matches_weights(self):
        draws = ZipfSampler(10, 0.7, seed=0).sample(100_000)
        frequencies = np.bincount(draws, minlength=10) / len(draws)
        assert np.allclose(frequencies, zipf_weights(10, 0.7), atol=0.01)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "30" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_mapping(self):
        text = format_mapping("title", {"key": 1.5, "other": "x"})
        assert text.splitlines()[0] == "title"
        assert "key" in text and "other" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5], [0.1234567], [2.0]])
        assert "1,235" in text or "1,234" in text
        assert "0.1235" in text
