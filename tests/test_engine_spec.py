"""JobSpec content hashing: stability and sensitivity."""

import pytest

from repro.balance.config import BalanceConfig
from repro.engine import JobSpec
from repro.synth.bits import AllocationPolicy
from repro.workloads.multiply import ParallelMultiplication


def spec(arch, **overrides):
    defaults = dict(
        workload=ParallelMultiplication(bits=8),
        architecture=arch,
        config=BalanceConfig.from_label("RaxBs"),
        iterations=500,
        seed=7,
        track_reads=False,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestHashStability:
    def test_equal_parts_equal_hash(self, tiny_arch):
        assert spec(tiny_arch).content_hash == spec(tiny_arch).content_hash

    def test_fresh_workload_instance_same_hash(self, tiny_arch):
        a = spec(tiny_arch, workload=ParallelMultiplication(bits=8))
        b = spec(tiny_arch, workload=ParallelMultiplication(bits=8))
        assert a.content_hash == b.content_hash

    def test_hash_is_hex_sha256(self, tiny_arch):
        digest = spec(tiny_arch).content_hash
        assert len(digest) == 64
        int(digest, 16)


class TestHashSensitivity:
    def test_iterations_change_hash(self, tiny_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(tiny_arch, iterations=501).content_hash
        )

    def test_seed_changes_hash(self, tiny_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(tiny_arch, seed=8).content_hash
        )

    def test_config_changes_hash(self, tiny_arch):
        other = spec(tiny_arch, config=BalanceConfig.from_label("RaxBs+Hw"))
        assert spec(tiny_arch).content_hash != other.content_hash

    def test_recompile_interval_changes_hash(self, tiny_arch):
        other = spec(
            tiny_arch,
            config=BalanceConfig.from_label("RaxBs").with_interval(50),
        )
        assert spec(tiny_arch).content_hash != other.content_hash

    def test_track_reads_changes_hash(self, tiny_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(tiny_arch, track_reads=True).content_hash
        )

    def test_architecture_changes_hash(self, tiny_arch, small_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(small_arch).content_hash
        )

    def test_workload_params_change_hash_despite_shared_name(self, tiny_arch):
        """Two workloads sharing a display name must not collide."""
        ring = ParallelMultiplication(bits=8)
        packed = ParallelMultiplication(
            bits=8, allocation_policy=AllocationPolicy.LOWEST_FIRST
        )
        assert ring.name == packed.name
        assert (
            spec(tiny_arch, workload=ring).content_hash
            != spec(tiny_arch, workload=packed).content_hash
        )


class TestHashExclusions:
    """Pure-speed knobs must not change the content hash."""

    def test_kernel_hash_excluded(self, tiny_arch):
        assert (
            spec(tiny_arch, kernel="epoch").content_hash
            == spec(tiny_arch).content_hash
        )

    def test_fastforward_hash_excluded(self, tiny_arch):
        assert (
            spec(tiny_arch, fastforward=True).content_hash
            == spec(tiny_arch).content_hash
        )

    def test_settings_round_trip_carries_speed_knobs(self, tiny_arch):
        s = spec(tiny_arch, fastforward=True, kernel="epoch").settings
        assert s.fastforward is True
        assert s.kernel == "epoch"


class TestValidation:
    def test_rejects_non_positive_iterations(self, tiny_arch):
        with pytest.raises(ValueError, match="iterations"):
            spec(tiny_arch, iterations=0)

    def test_rejects_bad_execution_knobs(self, tiny_arch):
        # Refused at construction, before the engine lowers, verifies
        # and retries the job.
        with pytest.raises(ValueError, match="chunk_size"):
            spec(tiny_arch, chunk_size=0)
        with pytest.raises(ValueError, match="kernel"):
            spec(tiny_arch, kernel="magic")

    def test_label_mentions_workload_and_config(self, tiny_arch):
        label = spec(tiny_arch).label
        assert "multiplication-8b" in label
        assert "RaxBs" in label
