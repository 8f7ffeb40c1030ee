"""Tests for repro.core.simulator."""

import numpy as np
import pytest

from repro.array.architecture import default_architecture
from repro.array.executor import replay_assignment
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.balance.software import StrategyKind
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def sim(small_arch):
    return EnduranceSimulator(small_arch, SimulationSettings(seed=11))


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


class TestConservation:
    def test_total_writes_invariant_across_configs(self, sim, workload):
        # Load balancing moves writes; it never creates or destroys them.
        totals = set()
        for label in ("StxSt", "RaxRa", "BsxBs", "StxSt+Hw", "RaxBs+Hw"):
            result = sim.run(
                workload, BalanceConfig.from_label(label), iterations=300
            )
            totals.add(round(result.state.total_writes, 3))
        assert len(totals) == 1

    def test_totals_scale_linearly_with_iterations(self, sim, workload):
        one = sim.run(workload, BalanceConfig(), iterations=100)
        two = sim.run(workload, BalanceConfig(), iterations=200)
        assert two.state.total_writes == pytest.approx(
            2 * one.state.total_writes
        )

    def test_reads_tracked_by_default(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=50)
        assert result.state.total_reads > 0

    def test_track_reads_off_zeroes_reads(self, sim, workload):
        result = sim.run(
            workload,
            BalanceConfig(),
            iterations=50,
            settings=sim.settings.replace(track_reads=False),
        )
        assert result.state.total_reads == 0


class TestAgainstReplay:
    def test_static_run_matches_instruction_replay(self, workload):
        arch = default_architecture(64, 16)
        sim = EnduranceSimulator(arch, SimulationSettings(seed=0))
        result = sim.run(workload, BalanceConfig(), iterations=7)
        expected = ArrayState(arch.geometry)
        mapping = workload.build(arch)
        replay_assignment(arch, mapping.assignment, expected, repetitions=7)
        assert np.allclose(result.state.write_counts, expected.write_counts)
        assert np.allclose(result.state.read_counts, expected.read_counts)

    def test_software_epochs_match_manual_composition(self, workload):
        # Byte-shift is deterministic, so the simulator's epoch loop can be
        # recomposed by hand.
        from repro.balance.mapping import byte_shift_permutation

        arch = default_architecture(64, 16)
        sim = EnduranceSimulator(arch, SimulationSettings(seed=0))
        config = BalanceConfig(
            within=StrategyKind.BYTE_SHIFT, recompile_interval=3
        )
        result = sim.run(workload, config, iterations=7)

        expected = ArrayState(arch.geometry)
        mapping = workload.build(arch)
        for epoch, length in ((0, 3), (1, 3), (2, 1)):
            replay_assignment(
                arch,
                mapping.assignment,
                expected,
                within_map=byte_shift_permutation(arch.lane_size, epoch),
                repetitions=length,
            )
        assert np.allclose(result.state.write_counts, expected.write_counts)


class TestEpochSemantics:
    def test_static_config_is_single_epoch(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=1000)
        assert result.epochs == 1

    def test_hardware_only_is_single_epoch(self, sim, workload):
        result = sim.run(
            workload, BalanceConfig(hardware=True), iterations=1000
        )
        assert result.epochs == 1

    def test_software_configs_epoch_count(self, sim, workload):
        config = BalanceConfig(
            within=StrategyKind.RANDOM, recompile_interval=100
        )
        result = sim.run(workload, config, iterations=250)
        assert result.epochs == 3  # 100 + 100 + 50

    def test_seed_reproducibility(self, small_arch, workload):
        config = BalanceConfig.from_label("RaxRa")
        a = EnduranceSimulator(small_arch, SimulationSettings(seed=5)).run(
            workload, config, iterations=300
        )
        b = EnduranceSimulator(small_arch, SimulationSettings(seed=5)).run(
            workload, config, iterations=300
        )
        assert np.allclose(a.state.write_counts, b.state.write_counts)

    def test_different_seeds_differ(self, small_arch, workload):
        config = BalanceConfig.from_label("RaxRa")
        a = EnduranceSimulator(small_arch, SimulationSettings(seed=1)).run(
            workload, config, iterations=300
        )
        b = EnduranceSimulator(small_arch, SimulationSettings(seed=2)).run(
            workload, config, iterations=300
        )
        assert not np.allclose(a.state.write_counts, b.state.write_counts)

    def test_invalid_iterations_rejected(self, sim, workload):
        with pytest.raises(ValueError):
            sim.run(workload, BalanceConfig(), iterations=0)


class TestHardwarePath:
    def test_hardware_run_matches_explicit_remapper(self, workload):
        # End-to-end: the simulator's Hw path equals the remapper's naive
        # stateful simulation broadcast over lanes.
        from repro.balance.hardware import HardwareRemapper

        arch = default_architecture(64, 8)
        sim = EnduranceSimulator(arch, SimulationSettings(seed=0))
        result = sim.run(
            workload, BalanceConfig(hardware=True), iterations=5
        )
        program = workload.build(arch).distinct_programs()[0]
        remapper = HardwareRemapper(program, arch.lane_size, True)
        writes, reads = remapper.simulate_explicit(5)
        expected_writes = np.outer(writes, np.ones(arch.lane_count))
        assert np.allclose(result.state.write_counts, expected_writes)

    def test_hardware_spreads_multi_role_workload(self, small_arch):
        sim = EnduranceSimulator(small_arch, SimulationSettings(seed=3))
        workload = DotProduct(n_elements=32, bits=8)
        static = sim.run(workload, BalanceConfig(), iterations=200)
        hardware = sim.run(
            workload, BalanceConfig(hardware=True), iterations=200
        )
        assert hardware.state.max_writes <= static.state.max_writes
        assert hardware.state.total_writes == pytest.approx(
            static.state.total_writes
        )

    def test_result_metadata(self, sim, workload):
        config = BalanceConfig.from_label("RaxSt+Hw")
        result = sim.run(workload, config, iterations=120)
        assert result.iterations == 120
        assert result.config is config
        assert result.workload_name == workload.name
        assert result.max_writes_per_iteration > 0
        assert result.iteration_latency_s > 0
        dist = result.write_distribution
        assert "RaxSt+Hw" in dist.label


class TestMappingCache:
    """Regression: the mapping cache must key on parameters, not name."""

    def test_same_name_different_params_do_not_collide(self, sim):
        from repro.synth.bits import AllocationPolicy

        ring = ParallelMultiplication(bits=8)
        packed = ParallelMultiplication(
            bits=8, allocation_policy=AllocationPolicy.LOWEST_FIRST
        )
        assert ring.name == packed.name  # the collision the bug needed
        first = sim.run(ring, BalanceConfig(), iterations=50)
        second = sim.run(packed, BalanceConfig(), iterations=50)
        # LOWEST_FIRST packs the workspace tight; RING sweeps the lane.
        # With the name-keyed cache both runs reused the ring mapping and
        # these distributions came out identical.
        assert not np.array_equal(
            first.state.write_counts, second.state.write_counts
        )

    def test_equal_params_reuse_one_mapping(self, sim, workload):
        sim.run(workload, BalanceConfig(), iterations=20)
        cached = dict(sim._mapping_cache)
        sim.run(ParallelMultiplication(bits=8), BalanceConfig(), iterations=20)
        assert dict(sim._mapping_cache) == cached
        assert len(cached) == 1

    def test_signature_covers_class_and_params(self):
        ring = ParallelMultiplication(bits=8)
        wide = ParallelMultiplication(bits=16)
        assert ring.signature != wide.signature
        assert "ParallelMultiplication" in ring.signature
        assert "bits=8" in ring.signature


class TestResultSurface:
    def test_lane_utilization_exposed_on_result(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=30)
        assert result.lane_utilization == result.mapping.lane_utilization
