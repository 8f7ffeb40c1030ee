"""Tests for repro.core.failure: progressive failure and repacking."""

import numpy as np
import pytest

from repro.array.geometry import Orientation
from repro.balance.config import BalanceConfig
from repro.core.failure import (
    active_cells,
    cell_failure_times,
    failure_timeline,
    minimum_footprint,
    offset_death_times,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance, UniformEndurance
from repro.workloads.multiply import ParallelMultiplication


class TestCellFailureTimes:
    def test_budget_over_rate(self):
        rates = np.array([[1.0, 2.0], [0.0, 4.0]])
        budgets = np.full((2, 2), 8.0)
        times = cell_failure_times(rates, budgets)
        assert times[0, 0] == 8.0
        assert times[0, 1] == 4.0
        assert np.isinf(times[1, 0])  # never written, never fails
        assert times[1, 1] == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cell_failure_times(np.ones((2, 2)), np.ones(4))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            cell_failure_times(np.array([[-1.0]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="negative"):
            active_cells(np.array([[-1.0]]))

    def test_reused_mask_and_buffer_match_fresh_call(self):
        # Many budget draws over one rate matrix share its mask and one
        # output buffer; idle cells stay inf even with a zero budget.
        rates = np.array([[1.0, 2.0], [0.0, 4.0]])
        active = active_cells(rates)
        out = np.zeros((2, 2))
        draws = (np.full((2, 2), 8.0), np.array([[3.0, 0.0], [0.0, 1.0]]))
        for budgets in draws:
            times = cell_failure_times(rates, budgets, active=active, out=out)
            assert times is out
            assert np.array_equal(times, cell_failure_times(rates, budgets))
            assert np.isinf(times[1, 0])


class TestOffsetDeathTimes:
    def test_column_parallel_min_over_lanes(self):
        times = np.array([[5.0, 2.0], [7.0, 9.0]])
        deaths = offset_death_times(times, Orientation.COLUMN_PARALLEL)
        assert deaths.tolist() == [2.0, 7.0]

    def test_row_parallel(self):
        times = np.array([[5.0, 2.0], [7.0, 9.0]])
        deaths = offset_death_times(times, Orientation.ROW_PARALLEL)
        assert deaths.tolist() == [5.0, 2.0]


class TestFailureTimeline:
    @pytest.fixture
    def result(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, SimulationSettings(seed=0, track_reads=False)
        )
        return sim.run(
            ParallelMultiplication(bits=8),
            BalanceConfig.from_label("RaxSt+Hw"),
            iterations=500,
        )

    def test_uniform_endurance_gives_no_extension_when_level(self, result):
        # With uniform budgets and near-level wear, everything dies almost
        # together: the repacking extension factor stays close to 1.
        timeline = failure_timeline(
            result, required_offsets=64, endurance_model=UniformEndurance(1e6)
        )
        assert timeline.extension_factor == pytest.approx(1.0, abs=0.2)

    def test_lognormal_spread_makes_repacking_valuable(self, result):
        timeline = failure_timeline(
            result,
            required_offsets=64,
            endurance_model=LognormalEndurance(1e6, sigma=0.6, rng=1),
        )
        assert timeline.extension_factor > 1.5
        assert (
            timeline.unusable_iterations > timeline.first_failure_iterations
        )

    def test_smaller_footprint_survives_longer(self, result):
        # Budgets are drawn per call, so reseed to compare like for like.
        tight = failure_timeline(
            result, required_offsets=120,
            endurance_model=LognormalEndurance(1e6, sigma=0.6, rng=2),
        )
        loose = failure_timeline(
            result, required_offsets=32,
            endurance_model=LognormalEndurance(1e6, sigma=0.6, rng=2),
        )
        assert loose.unusable_iterations >= tight.unusable_iterations
        assert loose.first_failure_iterations == pytest.approx(
            tight.first_failure_iterations
        )

    def test_first_failure_matches_eq4(self, result):
        from repro.core.lifetime import lifetime_from_result

        timeline = failure_timeline(
            result, required_offsets=64, endurance_model=UniformEndurance(1e6)
        )
        eq4 = lifetime_from_result(
            result, endurance_model=UniformEndurance(1e6)
        )
        assert timeline.first_failure_iterations == pytest.approx(
            eq4.iterations_to_failure
        )

    def test_required_offsets_validation(self, result):
        with pytest.raises(ValueError):
            failure_timeline(result, required_offsets=0)
        with pytest.raises(ValueError):
            failure_timeline(
                result, required_offsets=result.architecture.lane_size + 1
            )

    def test_usable_offsets_at(self, result):
        model = UniformEndurance(1e6)
        timeline = failure_timeline(result, 64, endurance_model=model)
        rates = result.state.write_counts / result.iterations
        deaths = offset_death_times(
            cell_failure_times(rates, model.sample_budgets(rates.shape)),
            result.architecture.orientation,
        )
        assert timeline.usable_offsets_at(0.0, deaths) == np.count_nonzero(
            deaths > 0
        )


class TestMinimumFootprint:
    def test_compact_footprint_independent_of_policy(self, small_arch):
        from repro.synth.bits import AllocationPolicy

        ring = ParallelMultiplication(bits=8)
        compact = ParallelMultiplication(
            bits=8, allocation_policy=AllocationPolicy.LOWEST_FIRST
        )
        assert minimum_footprint(ring, small_arch) == minimum_footprint(
            compact, small_arch
        )

    def test_footprint_is_small(self, small_arch):
        footprint = minimum_footprint(
            ParallelMultiplication(bits=8), small_arch
        )
        assert 16 < footprint < 80
