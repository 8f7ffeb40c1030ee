"""Tests for repro.core.kernel: the batched path IS the epoch path.

The batched kernel's whole contract is bit-identity with the sequential
per-epoch reference (:func:`repro.core.kernel.run_epoch_loop`) — same
permutation stream, same wear-aware decisions, same counters to the last
bit — under any chunking. These tests pin that for the full strategy
grid (including the stateful ``Wa`` path and hardware re-mapping), both
pre-set accounting modes, and both lane orientations. Each run goes
through ``EnduranceSimulator.run`` with the kernel function it calls
substituted: the reference loop, or the batched kernel at a fixed chunk
size.
"""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel
import repro.core.simulator
from repro.array.architecture import CRAM_ROW, PINATUBO, default_architecture
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.software import (
    StrategyKind,
    make_permutation,
    make_permutations,
)
from repro.core.kernel import (
    epoch_lengths,
    epoch_schedule,
    make_epoch_maps,
    run_batched_epochs,
    run_epoch_loop,
)
from repro.core.settings import SimulationSettings
from repro.array.state import ArrayState
from repro.core.simulator import EnduranceSimulator
from repro.verify import VerificationError
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.registry import get_workload


ARCH = default_architecture(64, 16)


def _chunked(chunk_size):
    """The batched kernel at a fixed epochs-per-GEMM."""
    return functools.partial(run_batched_epochs, chunk_size=chunk_size)


def _run(arch, config, *, kernel=run_batched_epochs, seed=3, iterations=40,
         workload=None, track_reads=True):
    """One simulator run with ``kernel`` in place of the batched kernel."""
    sim = EnduranceSimulator(
        arch, SimulationSettings(seed=seed, track_reads=track_reads)
    )
    with mock.patch.object(
        repro.core.simulator, "run_batched_epochs", wraps=kernel
    ) as spy:
        result = sim.run(
            workload or ParallelMultiplication(bits=8),
            config,
            iterations=iterations,
        )
    spy.assert_called_once()
    return result


def _assert_identical(a, b):
    assert np.array_equal(a.state.write_counts, b.state.write_counts)
    assert np.array_equal(a.state.read_counts, b.state.read_counts)
    assert a.epochs == b.epochs


class TestBitIdentity:
    @pytest.mark.parametrize(
        "config", all_configurations(recompile_interval=7),
        ids=lambda c: c.label,
    )
    def test_all_18_configurations(self, config):
        batched = _run(ARCH, config, kernel=_chunked(13))
        sequential = _run(ARCH, config, kernel=run_epoch_loop)
        _assert_identical(batched, sequential)

    @pytest.mark.parametrize("interval", [1, 7, 50])
    @pytest.mark.parametrize("chunk_size", [1, 13, 1024])
    def test_interval_chunk_grid(self, interval, chunk_size):
        config = BalanceConfig.from_label(
            "RaxRa", recompile_interval=interval
        )
        batched = _run(
            ARCH, config, kernel=_chunked(chunk_size), iterations=60,
        )
        sequential = _run(ARCH, config, kernel=run_epoch_loop, iterations=60)
        _assert_identical(batched, sequential)

    @given(
        within=st.sampled_from(
            [StrategyKind.STATIC, StrategyKind.RANDOM,
             StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT]
        ),
        between=st.sampled_from(
            [StrategyKind.STATIC, StrategyKind.RANDOM,
             StrategyKind.BYTE_SHIFT, StrategyKind.WEAR_AWARE]
        ),
        hardware=st.booleans(),
        presets=st.booleans(),
        interval=st.sampled_from([1, 7, 50]),
        chunk_size=st.sampled_from([1, 13, 1024]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_samples_across_the_grid(
        self, within, between, hardware, presets, interval, chunk_size, seed
    ):
        arch = ARCH if presets else PINATUBO.resized(64, 16)
        config = BalanceConfig(
            within=within, between=between, hardware=hardware,
            recompile_interval=interval,
        )
        batched = _run(
            arch, config, kernel=_chunked(chunk_size), seed=seed,
            iterations=55,
        )
        sequential = _run(arch, config, kernel=run_epoch_loop, seed=seed,
                          iterations=55)
        _assert_identical(batched, sequential)

    def test_wear_aware_incremental_wear_multi_group(self):
        # Wa is the stateful path: every epoch's assignment depends on all
        # earlier epochs' wear. A multi-role workload at interval 1
        # maximizes the chances for the incremental wear vector to drift
        # from the state-derived one — it must not, even with hardware
        # re-mapping layered on top.
        workload = DotProduct(n_elements=16, bits=8)
        for hardware in (False, True):
            config = BalanceConfig(
                within=StrategyKind.RANDOM,
                between=StrategyKind.WEAR_AWARE,
                hardware=hardware,
                recompile_interval=1,
            )
            batched = _run(
                ARCH, config, kernel=_chunked(7), iterations=30,
                workload=workload,
            )
            sequential = _run(
                ARCH, config, kernel=run_epoch_loop, iterations=30,
                workload=workload,
            )
            _assert_identical(batched, sequential)

    def test_row_parallel_orientation(self):
        arch = CRAM_ROW.resized(16, 64)
        config = BalanceConfig.from_label("RaxBs+Hw", recompile_interval=5)
        batched = _run(arch, config, kernel=_chunked(3))
        sequential = _run(arch, config, kernel=run_epoch_loop)
        _assert_identical(batched, sequential)

    def test_reads_untracked_parity(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=3)
        batched = _run(ARCH, config, track_reads=False)
        sequential = _run(ARCH, config, kernel=run_epoch_loop,
                          track_reads=False)
        _assert_identical(batched, sequential)
        assert batched.state.total_reads == 0

    def test_chunking_never_changes_results(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=1)
        reference = _run(ARCH, config, iterations=50)
        for chunk_size in (1, 13, 1024):
            other = _run(
                ARCH, config, kernel=_chunked(chunk_size), iterations=50,
            )
            _assert_identical(reference, other)

    def test_mult_heatmap_random_every_iteration(self):
        # The CLI heatmap's hardest case: the paper-scale multiply under
        # RaxRa, recompiled every iteration, on a 256x64 array.
        arch = default_architecture(256, 64)
        config = BalanceConfig.from_label("RaxRa", recompile_interval=1)
        workload = get_workload("mult")
        batched = _run(arch, config, iterations=500, workload=workload)
        sequential = _run(arch, config, kernel=run_epoch_loop,
                          iterations=500, workload=workload)
        _assert_identical(batched, sequential)
        assert batched.epochs == 500


class TestBatchedPermutations:
    @pytest.mark.parametrize(
        "kind",
        [StrategyKind.STATIC, StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT],
    )
    def test_deterministic_rows_match_per_epoch_function(self, kind):
        batch = make_permutations(kind, 48, 6, epoch_start=2)
        for row, epoch in enumerate(range(2, 8)):
            assert np.array_equal(batch[row], make_permutation(kind, 48, epoch))

    def test_random_rows_are_permutations(self):
        batch = make_permutations(
            StrategyKind.RANDOM, 32, 10, rng=np.random.default_rng(0)
        )
        expected = np.arange(32)
        for row in batch:
            assert np.array_equal(np.sort(row), expected)

    def test_random_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            make_permutations(StrategyKind.RANDOM, 8, 2)

    def test_wear_aware_rejected(self):
        with pytest.raises(ValueError, match="stateful"):
            make_permutations(StrategyKind.WEAR_AWARE, 8, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_permutations(StrategyKind.STATIC, 8, -1)

    def test_chunked_draws_equal_per_epoch_draws(self):
        # The contract that makes chunk_size a pure performance knob: one
        # (E, k) block consumes the stream exactly like E per-epoch draws.
        whole_w, whole_b = make_epoch_maps(
            StrategyKind.RANDOM, StrategyKind.RANDOM, 24, 8, 5,
            np.random.default_rng(42),
        )
        rng = np.random.default_rng(42)
        for epoch in range(5):
            one_w, one_b = make_epoch_maps(
                StrategyKind.RANDOM, StrategyKind.RANDOM, 24, 8, 1, rng,
                epoch_start=epoch,
            )
            assert np.array_equal(whole_w[epoch], one_w[0])
            assert np.array_equal(whole_b[epoch], one_b[0])

    def test_wear_aware_between_maps_are_none(self):
        _, between = make_epoch_maps(
            StrategyKind.RANDOM, StrategyKind.WEAR_AWARE, 16, 4, 3,
            np.random.default_rng(0),
        )
        assert between is None


class TestEpochLengths:
    def test_static_is_one_epoch(self):
        lengths = epoch_lengths(BalanceConfig(), 1000)
        assert lengths.tolist() == [1000]

    def test_interval_splits_with_remainder(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=100)
        lengths = epoch_lengths(config, 250)
        assert lengths.tolist() == [100, 100, 50]

    def test_exact_multiple_has_no_remainder_epoch(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=50)
        assert epoch_lengths(config, 100).tolist() == [50, 50]

    def test_non_positive_iterations_rejected(self):
        with pytest.raises(ValueError):
            epoch_lengths(BalanceConfig(), 0)
        with pytest.raises(ValueError):
            epoch_schedule(BalanceConfig(), -1)

    def test_schedule_is_the_lengths_in_closed_form(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=100)
        assert epoch_schedule(config, 250) == (100, 2, 50)
        assert epoch_schedule(config, 60) == (100, 0, 60)
        assert epoch_lengths(config, 60).tolist() == [60]
        assert epoch_schedule(BalanceConfig(), 1000) == (1000, 1, 0)


class TestEpochScheduleMemory:
    def test_batched_schedule_is_o_chunk(self):
        # One int64 per epoch would be 80 MB at 10**7 interval-1 epochs.
        # The per-epoch work is mocked out: identity maps and no program
        # groups, so only the kernel's own epoch bookkeeping runs.
        chunks = []

        def identity_maps(within, between, lane_size, lane_count, count,
                          rng=None, epoch_start=0):
            chunks.append(count)
            return (
                np.broadcast_to(np.arange(lane_size), (count, lane_size)),
                np.broadcast_to(np.arange(lane_count), (count, lane_count)),
            )

        config = BalanceConfig.from_label("BsxBs").with_interval(1)
        state = ArrayState(ARCH.geometry)
        iterations = 10_000_000
        with mock.patch.object(
            repro.core.kernel, "make_epoch_maps", identity_maps
        ):
            tracemalloc.start()
            try:
                epochs = run_batched_epochs(
                    ARCH, config, state, np.random.default_rng(0), {},
                    iterations,
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2**20
        assert epochs == iterations
        assert sum(chunks) == iterations

    def test_chunk_lengths_follow_the_schedule(self):
        # Interval 3 over 3 * 5 + 2 iterations in chunks of 4 epochs: a
        # chunk of four full epochs, then one full and the remainder.
        config = BalanceConfig.from_label("RaxRa", recompile_interval=3)
        lengths = []

        def record(self, profiles, weights, orientation, kind="write"):
            lengths.append(tuple(weights.max(axis=1).tolist()))

        with mock.patch.object(ArrayState, "add_lane_profiles", record):
            _run(ARCH, config, kernel=_chunked(4), iterations=17,
                 track_reads=False)
        assert list(dict.fromkeys(lengths)) == [(3, 3, 3, 3), (3, 2)]


class TestKernelKnob:
    def test_non_positive_chunk_rejected(self):
        # chunk_size is an argument of the kernel alone; no setting
        # reaches it, so the kernel itself refuses a bad value.
        config = BalanceConfig.from_label("RaxRa", recompile_interval=4)
        for bad in (0, -4):
            with pytest.raises(ValueError, match="chunk_size"):
                _run(ARCH, config, kernel=_chunked(bad), iterations=8)

    def test_run_override_beats_simulator_default(self):
        # fastforward is the one setting that picks the path: the
        # simulator's default refuses RaxRa (RPR011), a per-run override
        # runs it on the batched kernel.
        sim = EnduranceSimulator(
            ARCH, SimulationSettings(seed=9, fastforward=True)
        )
        config = BalanceConfig.from_label("RaxRa", recompile_interval=4)
        with pytest.raises(VerificationError, match="RPR011"):
            sim.run(ParallelMultiplication(bits=8), config, iterations=20)
        result = sim.run(
            ParallelMultiplication(bits=8), config, iterations=20,
            settings=sim.settings.replace(fastforward=False),
        )
        _assert_identical(result, _run(ARCH, config, seed=9, iterations=20))
