"""E29 — experiment engine: cached and parallel 18-configuration grids.

Not a paper figure — an infrastructure benchmark for the
``repro.engine`` orchestration subsystem. It runs the Fig. 17a grid
(18 balance configurations, 32-bit multiplication) three ways:

1. serial, in-process (the original ``configuration_grid`` path);
2. through the engine with a cold result store (populates the cache);
3. through the engine again with the store warm (all 18 jobs cached).

The warm pass must be at least 2x faster than the serial pass — that is
the engine's value proposition on re-runs, killed-and-resumed sweeps
and figure regeneration — and bit-identical to it. A ``jobs=2`` pool
pass is timed for the record without a speed assertion (CI boxes may
have a single core, where process-pool overhead dominates).

The horizon is floored at 20,000 iterations (like E11's remap floor):
simulation cost grows with the epoch count while a cache hit's cost is
constant, so a toy horizon would benchmark the disk instead of the
engine. At the paper's 100,000 iterations the cache margin only widens.
"""

import time

import numpy as np

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import configuration_grid
from repro.workloads.multiply import ParallelMultiplication


def _iterations() -> int:
    return max(bench_iterations(20_000), 20_000)


def _grid(**engine_kwargs):
    simulator = EnduranceSimulator(
        default_architecture(), SimulationSettings(seed=7)
    )
    workload = ParallelMultiplication(bits=32)
    start = time.perf_counter()
    entries = configuration_grid(
        simulator, workload, iterations=_iterations(), **engine_kwargs
    )
    return entries, time.perf_counter() - start


def test_bench_e29_engine_cache_speedup(record, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("engine-store"))

    serial, serial_s = _grid()
    cold, cold_s = _grid(cache_dir=cache_dir)
    warm, warm_s = _grid(cache_dir=cache_dir)
    pooled, pooled_s = _grid(jobs=2, cache_dir=str(tmp_path_factory.mktemp("p")))

    for ours, theirs in zip(serial, warm):
        assert ours.label == theirs.label
        assert np.array_equal(
            ours.result.state.write_counts, theirs.result.state.write_counts
        ), ours.label
        assert ours.improvement == theirs.improvement
    for ours, theirs in zip(serial, pooled):
        assert np.array_equal(
            ours.result.state.write_counts, theirs.result.state.write_counts
        ), ours.label

    speedup = serial_s / warm_s
    lines = [
        "E29 experiment engine, 18-config multiplication grid "
        f"({_iterations()} iterations)",
        f"  serial in-process      {serial_s:8.2f} s",
        f"  engine, cold store     {cold_s:8.2f} s",
        f"  engine, warm store     {warm_s:8.2f} s  ({speedup:.1f}x vs serial)",
        f"  engine, jobs=2 pool    {pooled_s:8.2f} s  (timing only)",
        "  warm results bit-identical to serial: yes",
        "  jobs=2 results bit-identical to serial: yes",
    ]
    record("E29_engine", "\n".join(lines))

    assert speedup >= 2.0, (
        f"warm-cache grid only {speedup:.2f}x faster than serial "
        f"({warm_s:.2f}s vs {serial_s:.2f}s)"
    )
