"""The scratch pool: slot reuse, telemetry counters, provenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.scratch import SCRATCH_POOL, BufferPool
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.engine import JobSpec, ResultStore, execute_spec
from repro.engine.store import blas_implementation
from repro.telemetry import Telemetry, set_telemetry
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def tele():
    """A fresh telemetry registry for the duration of one test."""
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        yield fresh
    finally:
        set_telemetry(previous)


class TestBufferPool:
    def test_same_key_returns_same_buffer(self):
        pool = BufferPool()
        a = pool.get("scratch", (4, 4))
        b = pool.get("scratch", (4, 4))
        assert a is b
        assert pool.hits == 1 and pool.misses == 1

    def test_distinct_shapes_get_distinct_buffers(self):
        pool = BufferPool()
        a = pool.get("scratch", (4, 4))
        b = pool.get("scratch", (2, 4))
        assert a is not b
        assert len(pool) == 2

    def test_distinct_dtypes_get_distinct_buffers(self):
        pool = BufferPool()
        a = pool.get("scratch", (4,), np.float64)
        b = pool.get("scratch", (4,), np.int64)
        assert a.dtype == np.float64 and b.dtype == np.int64
        assert a is not b

    def test_zero_refills(self):
        pool = BufferPool()
        a = pool.get("scratch", (3,), zero=True)
        a[:] = 7.0
        b = pool.get("scratch", (3,), zero=True)
        assert b is a
        assert np.array_equal(b, np.zeros(3))

    def test_without_zero_contents_persist(self):
        pool = BufferPool()
        a = pool.get("scratch", (3,))
        a[:] = 7.0
        assert np.array_equal(pool.get("scratch", (3,)), np.full(3, 7.0))

    def test_clear_drops_buffers(self):
        pool = BufferPool()
        pool.get("scratch", (3,))
        pool.clear()
        assert len(pool) == 0


class TestProcessPool:
    @pytest.mark.parametrize("fastforward", [False, True])
    def test_repeat_run_reuses_the_process_pool(self, tiny_arch, fastforward):
        simulator = EnduranceSimulator(
            tiny_arch, SimulationSettings(fastforward=fastforward)
        )
        config = BalanceConfig.from_label("BsxBs", recompile_interval=1)

        def run():
            return simulator.run(ParallelMultiplication(bits=8), config, 50)

        first = run()
        slots, hits = len(SCRATCH_POOL), SCRATCH_POOL.hits
        second = run()
        assert len(SCRATCH_POOL) == slots, "a repeat run allocates nothing"
        assert SCRATCH_POOL.hits > hits
        assert np.array_equal(first.state.write_counts,
                              second.state.write_counts)


class TestPoolCounters:
    """Every ``get`` lands in telemetry at once; there is no flush step."""

    def test_get_counts_hits_and_misses(self, tele):
        pool = BufferPool()
        pool.get("a", (4,))  # miss
        pool.get("a", (4,))  # hit
        pool.get("a", (4,))  # hit
        assert tele.counters["pool.misses"] == 1
        assert tele.counters["pool.hits"] == 2

    def test_manifest_snapshot_is_current(self, tele, tmp_path, tiny_arch):
        spec = JobSpec.from_settings(
            ParallelMultiplication(bits=8),
            tiny_arch,
            config=BalanceConfig.from_label("RaxRa", recompile_interval=4),
            iterations=40,
            settings=SimulationSettings(seed=1),
        )
        result = execute_spec(spec)
        store = ResultStore(tmp_path)
        store.save(spec, result)
        counters = store.load_manifest(spec)["telemetry"]["counters"]
        used = counters.get("pool.hits", 0) + counters.get("pool.misses", 0)
        assert used > 0, "the batched kernel draws its chunks from the pool"
        for name in ("pool.hits", "pool.misses"):
            assert counters.get(name, 0) == tele.counters.get(name, 0)


class TestProvenance:
    def test_blas_implementation_is_nonempty_string(self):
        label = blas_implementation()
        assert isinstance(label, str) and label
