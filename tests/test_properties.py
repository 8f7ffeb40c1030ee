"""Cross-cutting property tests (hypothesis) over the whole stack.

These encode the invariants the reproduction's correctness rests on:
load balancing conserves total writes; distributions' statistics stay in
their defined ranges; re-mapping never changes *what* is computed, only
*where* the wear lands.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.balance.software import StrategyKind
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.writedist import WriteDistribution
from repro.workloads.multiply import ParallelMultiplication

strategy_kinds = st.sampled_from(
    [StrategyKind.STATIC, StrategyKind.RANDOM, StrategyKind.BYTE_SHIFT]
)


@st.composite
def balance_configs(draw):
    return BalanceConfig(
        within=draw(strategy_kinds),
        between=draw(strategy_kinds),
        hardware=draw(st.booleans()),
        recompile_interval=draw(st.sampled_from([7, 25, 100])),
    )


class TestConservationProperties:
    @given(config=balance_configs(), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_total_writes_invariant_under_any_config(self, config, seed):
        # Load balancing conserves wear; it only relocates it.
        arch = default_architecture(64, 32)
        workload = ParallelMultiplication(bits=4)
        sim = EnduranceSimulator(
            arch, SimulationSettings(seed=seed, track_reads=False)
        )
        result = sim.run(workload, config, iterations=60)
        static = EnduranceSimulator(
            arch, SimulationSettings(seed=seed, track_reads=False)
        ).run(workload, BalanceConfig(), iterations=60)
        assert result.state.total_writes == pytest.approx(
            static.state.total_writes
        )

    @given(config=balance_configs(), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_balancing_never_increases_lifetime_bound(self, config, seed):
        # No strategy can push the hottest cell below the perfect-balance
        # floor (total / cells), i.e. balance <= 1 always.
        arch = default_architecture(64, 32)
        sim = EnduranceSimulator(
            arch, SimulationSettings(seed=seed, track_reads=False)
        )
        result = sim.run(
            ParallelMultiplication(bits=4), config, 60
        )
        floor = result.state.total_writes / arch.geometry.n_cells
        assert result.state.max_writes >= floor - 1e-9

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_hardware_remapping_weakly_levels(self, seed):
        arch = default_architecture(64, 32)
        workload = ParallelMultiplication(bits=4)
        static = EnduranceSimulator(
            arch, SimulationSettings(seed=seed, track_reads=False)
        ).run(workload, BalanceConfig(), 60)
        hardware = EnduranceSimulator(
            arch, SimulationSettings(seed=seed, track_reads=False)
        ).run(workload, BalanceConfig(hardware=True), 60)
        assert hardware.state.max_writes <= static.state.max_writes + 1e-9


class TestDistributionProperties:
    @given(
        data=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=64,
        )
    )
    @settings(max_examples=50)
    def test_statistics_stay_in_range(self, data):
        side = int(np.sqrt(len(data)))
        counts = np.asarray(data[: side * side]).reshape(side, side)
        if side < 2:
            return
        dist = WriteDistribution(counts, iterations=1)
        assert 0.0 <= dist.balance <= 1.0 + 1e-12
        assert -1e-9 <= dist.gini < 1.0
        assert 0.0 <= dist.cell_utilization <= 1.0
        normalized = dist.normalized()
        assert normalized.max() <= 1.0 + 1e-12

    @given(scale=st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=25)
    def test_statistics_scale_invariant(self, scale):
        rng = np.random.default_rng(0)
        counts = rng.random((8, 8)) * 10
        a = WriteDistribution(counts, iterations=1)
        b = WriteDistribution(counts * scale, iterations=1)
        assert a.balance == pytest.approx(b.balance)
        assert a.gini == pytest.approx(b.gini, abs=1e-9)


class TestRemappingCorrectnessProperties:
    @given(
        x=st.integers(0, 255),
        y=st.integers(0, 255),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_programs_compute_the_same_under_any_layout(self, x, y, seed):
        # The simulator re-maps *physical placement*; the logical program
        # is untouched, so results are layout-independent by construction.
        # This pins that: one program evaluated twice is deterministic and
        # correct regardless of the allocator policy that built it.
        from repro.synth.bits import AllocationPolicy

        arch = default_architecture(256, 8)
        for policy in AllocationPolicy:
            workload = ParallelMultiplication(bits=8, allocation_policy=policy)
            program = workload.build_program(arch)
            outputs, _ = program.evaluate({"a": x, "b": y})
            assert outputs["product"] == x * y
