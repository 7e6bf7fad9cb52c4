"""Tests for repro.utils: validation, rng, zipf, tables."""

import random

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils import (
    ZipfSampler,
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    format_series,
    format_table,
    make_rng,
    spawn_rngs,
    zipf_weights,
)
from repro.utils.reservoir import DEFAULT_CAPACITY, LatencyReservoir
from repro.utils.tables import format_mapping


class TestValidation:
    def test_check_positive_passes_and_returns(self):
        assert check_positive(3, "x") == 3

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ConfigError, match="x"):
            check_positive(0, "x")

    def test_check_non_negative_allows_zero(self):
        assert check_non_negative(0, "x") == 0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ConfigError):
            check_non_negative(-1, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_fraction_bounds(self, value):
        assert check_fraction(value, "f") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_check_fraction_rejects_outside(self, value):
        with pytest.raises(ConfigError):
            check_fraction(value, "f")

    def test_check_probability_message_names_parameter(self):
        with pytest.raises(ConfigError, match="p.*probability"):
            check_probability(2.0, "p")


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
        s = ZipfSampler(10, 0.7, seed=0)
        assert np.allclose(s.pmf(), zipf_weights(10, 0.7))


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

    def test_format_series(self):
        text = format_series("s", [1, 2], [0.5, 0.25])
        assert text.startswith("s:")
        assert "(1, 0.5)" in text

    def test_format_series_rejects_mismatched(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1, 2])

    def test_format_mapping(self):
        text = format_mapping("title", {"key": 1.5, "other": "x"})
        assert text.splitlines()[0] == "title"
        assert "key" in text and "other" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5], [0.1234567], [2.0]])
        assert "1,235" in text or "1,234" in text
        assert "0.1235" in text


class TestLatencyReservoir:
    @staticmethod
    def algorithm_r(samples, capacity, seed):
        """Textbook Algorithm R over ``random.Random.randrange``."""
        rng = random.Random(seed)
        retained = []
        for observed, value in enumerate(samples, start=1):
            if len(retained) < capacity:
                retained.append(value)
            else:
                slot = rng.randrange(observed)
                if slot < capacity:
                    retained[slot] = value
        return retained

    def test_extend_equals_append_across_the_capacity_boundary(self):
        samples = [float(i) for i in range(DEFAULT_CAPACITY + 1500)]
        appended = LatencyReservoir()
        for value in samples:
            appended.append(value)
        # Chunks that end before, straddle and start after the boundary.
        extended = LatencyReservoir()
        cuts = [0, 4000, 4090, 4103, 4104, 5000, len(samples)]
        for lo, hi in zip(cuts, cuts[1:]):
            extended.extend(samples[lo:hi])
        assert extended.values() == appended.values()
        assert extended.observed == appended.observed == len(samples)
        assert len(extended) == DEFAULT_CAPACITY
        # Same draws afterwards: the two RNGs are in the same state.
        extended.extend([-1.0] * 300)
        for _ in range(300):
            appended.append(-1.0)
        assert extended.values() == appended.values()

    def test_draws_are_randrange_draws(self):
        samples = [float(i) for i in range(700)]
        reservoir = LatencyReservoir(capacity=64, seed=11)
        reservoir.extend(samples)
        assert reservoir.values() == self.algorithm_r(samples, 64, 11)
        assert reservoir.values() != samples[:64]

    def test_extend_accepts_another_reservoir(self):
        source = LatencyReservoir(capacity=8)
        source.extend(range(5))
        target = LatencyReservoir(capacity=8)
        target.extend(source)
        assert target.values() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert target.observed == 5
