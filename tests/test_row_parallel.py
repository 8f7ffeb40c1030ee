"""Row-parallel architecture integration: the CRAM-2T orientation.

The paper evaluates column-parallel hardware but describes both
orientations as "logically equivalent" (Section 2.2). These tests pin that
equivalence: the same workload on a row-parallel array produces the
transposed wear pattern and identical lifetimes.
"""

import numpy as np
import pytest

from repro.array.architecture import CRAM_COLUMN, CRAM_ROW
from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def row_arch():
    return CRAM_ROW.resized(128, 128)


@pytest.fixture
def col_arch():
    return CRAM_COLUMN.resized(128, 128)


class TestOrientationEquivalence:
    def test_wear_pattern_is_transposed(self, row_arch, col_arch):
        workload = ParallelMultiplication(bits=8)
        config = BalanceConfig()
        row = EnduranceSimulator(
            row_arch, SimulationSettings(seed=0, track_reads=False)
        ).run(workload, config, 50)
        col = EnduranceSimulator(
            col_arch, SimulationSettings(seed=0, track_reads=False)
        ).run(workload, config, 50)
        assert np.allclose(
            row.state.write_counts, col.state.write_counts.T
        )

    def test_lifetimes_identical(self, row_arch, col_arch):
        workload = DotProduct(n_elements=32, bits=8)
        config = BalanceConfig.from_label("RaxRa")
        row = EnduranceSimulator(
            row_arch, SimulationSettings(seed=3, track_reads=False)
        ).run(workload, config, 200)
        col = EnduranceSimulator(
            col_arch, SimulationSettings(seed=3, track_reads=False)
        ).run(workload, config, 200)
        assert lifetime_from_result(row).iterations_to_failure == (
            pytest.approx(
                lifetime_from_result(col).iterations_to_failure, rel=1e-9
            )
        )

    def test_hardware_remapping_works_row_parallel(self, row_arch):
        workload = ParallelMultiplication(bits=8)
        static = EnduranceSimulator(
            row_arch, SimulationSettings(seed=0, track_reads=False)
        ).run(workload, BalanceConfig(), 100)
        hardware = EnduranceSimulator(
            row_arch, SimulationSettings(seed=0, track_reads=False)
        ).run(workload, BalanceConfig(hardware=True), 100)
        assert hardware.state.max_writes <= static.state.max_writes
        assert hardware.state.total_writes == pytest.approx(
            static.state.total_writes
        )

    def test_dot_product_hot_stripe_lands_on_rows(self, row_arch):
        # In a row-parallel array lanes are rows: the reduction's hot
        # stripe appears across rows instead of columns.
        workload = DotProduct(n_elements=32, bits=8)
        result = EnduranceSimulator(
            row_arch, SimulationSettings(seed=0, track_reads=False)
        ).run(workload, BalanceConfig(), 50)
        row_sums = result.state.write_counts.sum(axis=1)
        assert row_sums[0] == row_sums.max()

    def test_lane_geometry(self, row_arch):
        arch = CRAM_ROW.resized(64, 256)
        assert arch.lane_count == 64  # rows
        assert arch.lane_size == 256  # bits per row

    def test_distribution_orientation_views(self, row_arch):
        workload = ParallelMultiplication(bits=8)
        result = EnduranceSimulator(
            row_arch, SimulationSettings(seed=0, track_reads=False)
        ).run(workload, BalanceConfig(), 20)
        dist = result.write_distribution
        # offset_profile is per lane-offset: identical across lanes here.
        lanes = dist.lane_profile()
        assert np.allclose(lanes, lanes[0])
