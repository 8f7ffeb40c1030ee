"""Tests for repro.devices.endurance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.endurance import LognormalEndurance, UniformEndurance


class TestUniformEndurance:
    def test_budgets_are_constant(self):
        model = UniformEndurance(1e6)
        budgets = model.sample_budgets((3, 4))
        assert budgets.shape == (3, 4)
        assert np.all(budgets == 1e6)

    def test_first_failure_is_endurance_over_max(self):
        # Eq. 4's core: with uniform endurance only the hottest cell matters.
        model = UniformEndurance(100.0)
        writes = np.array([1.0, 4.0, 2.0])
        assert model.iterations_to_first_failure(writes) == pytest.approx(25.0)

    def test_no_writes_means_infinite_lifetime(self):
        model = UniformEndurance(10)
        assert model.iterations_to_first_failure(np.zeros(5)) == float("inf")

    def test_cells_failed_threshold(self):
        model = UniformEndurance(10)
        writes = np.array([9.0, 10.0, 11.0])
        assert list(model.cells_failed(writes)) == [False, True, True]

    def test_nonpositive_endurance_rejected(self):
        with pytest.raises(ValueError):
            UniformEndurance(0)

    def test_repr_mentions_endurance(self):
        assert "1e+06" in repr(UniformEndurance(1e6))

    @given(
        peak=st.floats(min_value=0.1, max_value=1e6),
        endurance=st.floats(min_value=1.0, max_value=1e12),
    )
    @settings(max_examples=50)
    def test_lifetime_scales_inversely_with_peak(self, peak, endurance):
        model = UniformEndurance(endurance)
        writes = np.array([peak / 2, peak])
        assert model.iterations_to_first_failure(writes) == pytest.approx(
            endurance / peak
        )


class TestLognormalEndurance:
    def test_median_is_respected(self):
        model = LognormalEndurance(1e6, sigma=0.5, rng=0)
        budgets = model.sample_budgets((20000,))
        assert np.median(budgets) == pytest.approx(1e6, rel=0.05)

    def test_zero_sigma_degenerates_to_uniform(self):
        model = LognormalEndurance(1e5, sigma=0.0, rng=1)
        budgets = model.sample_budgets((100,))
        assert np.allclose(budgets, 1e5)

    def test_variation_reduces_expected_first_failure(self):
        # With per-cell spread, some cell is weaker than the median: the
        # first failure comes earlier than the uniform model predicts —
        # the paper's "more pessimistic" remark inverted.
        writes = np.ones(4096)
        uniform = UniformEndurance(1e6).iterations_to_first_failure(writes)
        lognormal = LognormalEndurance(1e6, sigma=0.7, rng=2)
        assert lognormal.iterations_to_first_failure(writes) < uniform

    def test_reproducible_with_seed(self):
        a = LognormalEndurance(1e6, rng=42).sample_budgets((10,))
        b = LognormalEndurance(1e6, rng=42).sample_budgets((10,))
        assert np.allclose(a, b)

    def test_budget_shape_mismatch_rejected(self):
        model = LognormalEndurance(1e6, rng=0)
        with pytest.raises(ValueError):
            model.cells_failed(np.zeros((2, 2)), budgets=np.zeros(3))

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 300.0])
    def test_draw_into_buffer_matches_fresh_draw(self, sigma):
        # In place is median * exp(sigma * z), the same bits as
        # median * exp(normal(0, sigma)) on the same stream.
        fresh = LognormalEndurance(1e6, sigma=sigma, rng=7)
        buffer = np.zeros((3, 5))
        with np.errstate(over="ignore"):
            drawn = fresh.sample_budgets((3, 5), out=buffer)
            expected = 1e6 * np.exp(
                np.random.default_rng(7).normal(0.0, sigma, size=(3, 5))
            )
        assert drawn is buffer
        assert np.array_equal(drawn, expected)

    def test_buffer_must_fit(self):
        for model in (UniformEndurance(5.0), LognormalEndurance(5.0, rng=0)):
            with pytest.raises(ValueError):
                model.sample_budgets((2, 2), out=np.empty(4))
            with pytest.raises(ValueError):
                model.sample_budgets((2, 2), out=np.empty((2, 2), np.float32))
            out = np.empty(4)
            assert model.sample_budgets(4, out=out) is out

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LognormalEndurance(0)
        with pytest.raises(ValueError):
            LognormalEndurance(1e6, sigma=-1)

    def test_first_failure_respects_write_pattern(self):
        # A cell that is never written cannot cause failure even if weak.
        model = LognormalEndurance(100, sigma=1.0, rng=3)
        writes = np.array([0.0, 1.0])
        horizon = model.iterations_to_first_failure(writes)
        assert np.isfinite(horizon)
        assert horizon > 0
