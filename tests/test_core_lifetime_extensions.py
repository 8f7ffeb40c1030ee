"""Tests for lifetime extensions: read-disturb wear and PGM export."""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result, lifetime_with_read_wear
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def result(small_arch):
    sim = EnduranceSimulator(small_arch, SimulationSettings(seed=0))
    return sim.run(
        ParallelMultiplication(bits=8), BalanceConfig(), iterations=200
    )


class TestReadWear:
    def test_zero_ratio_matches_eq4(self, result):
        plain = lifetime_from_result(result)
        with_reads = lifetime_with_read_wear(result, 0.0)
        assert with_reads.iterations_to_failure == pytest.approx(
            plain.iterations_to_failure
        )

    def test_read_wear_shortens_lifetime(self, result):
        plain = lifetime_from_result(result)
        disturbed = lifetime_with_read_wear(result, 1e-1)
        assert disturbed.iterations_to_failure < plain.iterations_to_failure

    def test_tiny_ratio_is_negligible(self, result):
        plain = lifetime_from_result(result)
        disturbed = lifetime_with_read_wear(result, 1e-6)
        assert disturbed.iterations_to_failure == pytest.approx(
            plain.iterations_to_failure, rel=1e-3
        )

    def test_monotone_in_ratio(self, result):
        lifetimes = [
            lifetime_with_read_wear(result, r).iterations_to_failure
            for r in (0.0, 1e-3, 1e-2, 1e-1)
        ]
        assert all(a >= b for a, b in zip(lifetimes, lifetimes[1:]))

    def test_requires_tracked_reads(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, SimulationSettings(seed=0, track_reads=False)
        )
        no_reads = sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), 50,
        )
        with pytest.raises(ValueError, match="track_reads"):
            lifetime_with_read_wear(no_reads, 1e-3)

    def test_negative_ratio_rejected(self, result):
        with pytest.raises(ValueError):
            lifetime_with_read_wear(result, -0.1)


class TestPgmExport:
    def test_pgm_header_and_size(self, result, tmp_path):
        path = tmp_path / "heat.pgm"
        result.write_distribution.to_pgm(str(path))
        data = path.read_bytes()
        assert data.startswith(b"P5\n128 128\n255\n")
        header_len = len(b"P5\n128 128\n255\n")
        assert len(data) == header_len + 128 * 128

    def test_invert_flag(self, result, tmp_path):
        dark = tmp_path / "dark.pgm"
        bright = tmp_path / "bright.pgm"
        dist = result.write_distribution
        dist.to_pgm(str(dark), invert=True)
        dist.to_pgm(str(bright), invert=False)
        header = len(b"P5\n128 128\n255\n")
        dark_pixels = np.frombuffer(dark.read_bytes()[header:], np.uint8)
        bright_pixels = np.frombuffer(bright.read_bytes()[header:], np.uint8)
        assert np.array_equal(dark_pixels, 255 - bright_pixels)
        # The hottest cell renders black when inverted.
        assert dark_pixels.min() == 0
