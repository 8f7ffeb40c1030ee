"""Engine-routed sweeps must be bit-identical to the serial paths."""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import (
    configuration_grid,
    remap_frequency_sweep,
    simulate_configs,
)
from repro.engine import EngineError
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


def fresh_sim(arch, seed=7):
    return EnduranceSimulator(arch, SimulationSettings(seed=seed))


class TestGridDeterminism:
    def test_parallel_grid_matches_serial_bit_exactly(
        self, tiny_arch, workload, tmp_path
    ):
        """jobs=4 through the engine == the in-process loop, per config."""
        serial = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=150
        )
        parallel = configuration_grid(
            fresh_sim(tiny_arch),
            workload,
            iterations=150,
            jobs=4,
            cache_dir=str(tmp_path),
        )
        assert [e.label for e in serial] == [e.label for e in parallel]
        for ours, theirs in zip(serial, parallel):
            assert np.array_equal(
                ours.result.state.write_counts,
                theirs.result.state.write_counts,
            ), ours.label
            assert ours.improvement == theirs.improvement
            assert (
                ours.lifetime.iterations_to_failure
                == theirs.lifetime.iterations_to_failure
            )

    def test_cached_rerun_matches_first_run(self, tiny_arch, workload, tmp_path):
        first = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=150,
            jobs=2, cache_dir=str(tmp_path),
        )
        rerun = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=150,
            cache_dir=str(tmp_path),
        )
        for ours, theirs in zip(first, rerun):
            assert np.array_equal(
                ours.result.state.write_counts,
                theirs.result.state.write_counts,
            )

    def test_engine_grid_keeps_figure_order_and_baseline(
        self, tiny_arch, workload, tmp_path
    ):
        entries = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=100,
            cache_dir=str(tmp_path),
        )
        assert len(entries) == 18
        static = [e for e in entries if e.config.is_static]
        assert static[0].improvement == pytest.approx(1.0)


class TestRemapSweepViaEngine:
    def test_engine_path_matches_serial(self, tiny_arch, workload, tmp_path):
        serial = remap_frequency_sweep(
            fresh_sim(tiny_arch), workload,
            intervals=(100, 25), iterations=400,
        )
        routed = remap_frequency_sweep(
            fresh_sim(tiny_arch), workload,
            intervals=(100, 25), iterations=400,
            jobs=2, cache_dir=str(tmp_path),
        )
        assert serial == routed


class TestSimulateConfigs:
    def test_duplicates_collapse(self, tiny_arch, workload):
        sim = fresh_sim(tiny_arch)
        configs = [BalanceConfig(), BalanceConfig()]
        results = simulate_configs(sim, workload, configs, iterations=100)
        assert len(results) == 1

    def test_engine_failures_surface_as_engine_error(self, tiny_arch, tmp_path):
        doomed = ParallelMultiplication(bits=32)  # cannot fit a 63-bit lane
        with pytest.raises(EngineError):
            simulate_configs(
                fresh_sim(tiny_arch),
                doomed,
                [BalanceConfig()],
                iterations=50,
                cache_dir=str(tmp_path),
            )
