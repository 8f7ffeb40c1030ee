"""Tests for repro.core.sweep."""

import pytest

from repro.balance.config import BalanceConfig, all_configurations
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import (
    best_improvement,
    configuration_grid,
    remap_frequency_sweep,
    technology_sweep,
)
from repro.devices.technology import MRAM, PCM, RRAM
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def sim(small_arch):
    return EnduranceSimulator(small_arch, SimulationSettings(seed=1))


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


class TestConfigurationGrid:
    def test_grid_covers_requested_configs(self, sim, workload):
        configs = [
            BalanceConfig.from_label(label)
            for label in ("StxSt", "RaxSt", "StxSt+Hw")
        ]
        entries = configuration_grid(
            sim, workload, iterations=200, configs=configs
        )
        assert [entry.label for entry in entries] == ["StxSt", "RaxSt", "StxSt+Hw"]

    def test_static_entry_has_improvement_one(self, sim, workload):
        entries = configuration_grid(
            sim, workload, iterations=200,
            configs=[BalanceConfig(), BalanceConfig.from_label("RaxSt")],
        )
        assert entries[0].improvement == pytest.approx(1.0)

    def test_default_grid_is_18_configs(self, sim, workload):
        entries = configuration_grid(sim, workload, iterations=100)
        assert len(entries) == 18
        assert {e.label for e in entries} == {
            c.label for c in all_configurations()
        }

    def test_best_improvement(self, sim, workload):
        entries = configuration_grid(sim, workload, iterations=200)
        best = best_improvement(entries)
        assert best.improvement == max(e.improvement for e in entries)

    def test_best_improvement_empty_rejected(self):
        with pytest.raises(ValueError):
            best_improvement([])


class TestRemapFrequencySweep:
    def test_more_frequent_remap_is_no_worse(self, sim, workload):
        improvements = remap_frequency_sweep(
            sim, workload, intervals=(500, 50), iterations=2000
        )
        assert improvements[50] >= improvements[500] * 0.98

    def test_returns_requested_intervals(self, sim, workload):
        improvements = remap_frequency_sweep(
            sim, workload, intervals=(100, 10), iterations=500
        )
        assert set(improvements) == {100, 10}


class TestTechnologySweep:
    def test_lifetimes_order_by_endurance(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=100)
        sweep = technology_sweep(result, [MRAM, RRAM, PCM])
        assert (
            sweep["MRAM"].iterations_to_failure
            > sweep["RRAM"].iterations_to_failure
            > sweep["PCM"].iterations_to_failure
        )

    def test_ratio_matches_endurance_ratio(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=100)
        sweep = technology_sweep(result, [MRAM, RRAM])
        assert sweep["MRAM"].iterations_to_failure / sweep[
            "RRAM"
        ].iterations_to_failure == pytest.approx(
            MRAM.endurance_writes / RRAM.endurance_writes
        )
