"""Tests for repro.core.lifetime: Equations 1, 2 and 4."""

import pytest

from repro.array.geometry import ArrayGeometry
from repro.balance.config import BalanceConfig
from repro.core.lifetime import (
    array_write_budget,
    eq1_operations_until_total_failure,
    eq2_seconds_until_total_failure,
    lifetime_from_result,
    lifetime_improvement,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance
from repro.devices.technology import MRAM, RRAM
from repro.workloads.multiply import ParallelMultiplication


GEOMETRY = ArrayGeometry(1024, 1024)


class TestAnalyticBounds:
    def test_eq1_value_from_paper(self):
        # 1024^2 * 1e12 / 9824 = 1.07e14 multiplications.
        value = eq1_operations_until_total_failure(GEOMETRY, 1e12, 9824)
        assert value == pytest.approx(1.07e14, rel=0.005)

    def test_eq2_mtj_is_35_56_days(self):
        seconds = eq2_seconds_until_total_failure(GEOMETRY, 1e12, 1024)
        assert seconds == pytest.approx(3_072_000)
        assert seconds / 86400 == pytest.approx(35.56, abs=0.01)

    def test_eq2_rram_is_just_over_5_minutes(self):
        seconds = eq2_seconds_until_total_failure(
            GEOMETRY, RRAM.endurance_writes, 1024
        )
        assert 300 < seconds < 330  # "just over 5 minutes"

    def test_write_budget(self):
        assert array_write_budget(ArrayGeometry(2, 2), 10) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            array_write_budget(GEOMETRY, 0)
        with pytest.raises(ValueError):
            eq1_operations_until_total_failure(GEOMETRY, 1e12, 0)
        with pytest.raises(ValueError):
            eq2_seconds_until_total_failure(GEOMETRY, 1e12, 0)


class TestEquation4:
    @pytest.fixture
    def result(self, small_arch):
        sim = EnduranceSimulator(small_arch, SimulationSettings(seed=0))
        return sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), iterations=100
        )

    def test_lifetime_structure(self, result):
        estimate = lifetime_from_result(result)
        assert estimate.endurance_writes == MRAM.endurance_writes
        expected_iterations = (
            MRAM.endurance_writes / result.max_writes_per_iteration
        )
        assert estimate.iterations_to_failure == pytest.approx(
            expected_iterations
        )
        assert estimate.seconds_to_failure == pytest.approx(
            expected_iterations * result.iteration_latency_s
        )

    def test_days_and_years(self, result):
        estimate = lifetime_from_result(result)
        assert estimate.days_to_failure == pytest.approx(
            estimate.seconds_to_failure / 86400
        )
        assert estimate.years_to_failure == pytest.approx(
            estimate.days_to_failure / 365
        )

    def test_technology_override_scales_lifetime(self, result):
        mram = lifetime_from_result(result, technology=MRAM)
        rram = lifetime_from_result(result, technology=RRAM)
        assert mram.iterations_to_failure == pytest.approx(
            rram.iterations_to_failure * 1e4
        )

    def test_lognormal_model_shortens_lifetime(self, result):
        uniform = lifetime_from_result(result)
        varied = lifetime_from_result(
            result,
            endurance_model=LognormalEndurance(
                MRAM.endurance_writes, sigma=0.7, rng=0
            ),
        )
        assert varied.iterations_to_failure < uniform.iterations_to_failure


class TestImprovement:
    def test_improvement_vs_self_is_one(self, small_arch):
        sim = EnduranceSimulator(small_arch, SimulationSettings(seed=0))
        result = sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), iterations=100
        )
        assert lifetime_improvement(result, result) == pytest.approx(1.0)

    def test_balancing_improves_lifetime(self, small_arch):
        sim = EnduranceSimulator(small_arch, SimulationSettings(seed=0))
        workload = ParallelMultiplication(bits=8)
        baseline = sim.run(workload, BalanceConfig(), iterations=500)
        balanced = sim.run(
            workload, BalanceConfig.from_label("RaxSt+Hw"), iterations=500
        )
        assert lifetime_improvement(balanced, baseline) >= 1.0

    def test_cross_workload_comparison_rejected(self, small_arch):
        sim = EnduranceSimulator(small_arch, SimulationSettings(seed=0))
        a = sim.run(ParallelMultiplication(bits=8), BalanceConfig(), iterations=10)
        b = sim.run(ParallelMultiplication(bits=4), BalanceConfig(), iterations=10)
        with pytest.raises(ValueError, match="same workload"):
            lifetime_improvement(a, b)
