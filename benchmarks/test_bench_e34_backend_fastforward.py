"""E34 — scratch pool and analytic steady-state fast-forward.

Not a paper figure — the infrastructure benchmark for the fast-forward
(``repro.core.fastforward``) and the scratch pool
(``repro.core.scratch``), extending the E30 (batched kernel) and E32
(compiled evaluator) speed trajectory.

Three claims are measured:

1. **Fast-forward speedup.** On a periodic configuration (``Bs x Bs``
   at ``recompile_interval=1``) the per-lane wear delta repeats with
   period ``lcm(lane period, between period)``, so a >= 1M-iteration
   horizon collapses to one weighted GEMM over one period block. The
   answer must be bit-identical to the batched kernel and >= 100x
   faster.
2. **Bitlet-style throughput cross-check.** The closed-form operation
   model predicts total writes = iterations x writes/iteration; the
   fast-forwarded counters must conserve exactly that total (the same
   litmus the fleet layer's capacity model uses).
3. **Warm buffer pool.** A second simulation on the same shapes serves
   its scratch from the pool (hits, no fresh allocations) and must not
   be slower than the cold run by more than noise.

A timing-free bit-identity check (``test_bench_e34_fastforward_identity``)
runs the same equivalence at a CI-sized horizon so the contract is
gated without timing flakiness. Machine-readable results land in
``BENCH_E34.json``.
"""

import json
import time

import numpy as np

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.fastforward import fastforward_period
from repro.core.scratch import SCRATCH_POOL
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication

#: The acceptance criterion demands the 100x claim at a >= 1M-iteration
#: horizon; a smaller horizon would understate the batched kernel's cost
#: and overstate setup overhead on the fast-forward side.
MIN_ITERATIONS = 1_000_000

ROWS, COLS = 256, 64


def _iterations() -> int:
    return max(bench_iterations(MIN_ITERATIONS), MIN_ITERATIONS)


def _run(iterations, *, fastforward):
    simulator = EnduranceSimulator(default_architecture(ROWS, COLS))
    workload = ParallelMultiplication(bits=8)
    config = BalanceConfig.from_label("BsxBs", recompile_interval=1)
    settings = SimulationSettings(seed=7, fastforward=fastforward)
    start = time.perf_counter()
    result = simulator.run(
        workload, config, iterations=iterations, settings=settings
    )
    return result, time.perf_counter() - start


def test_bench_e34_fastforward_identity():
    """Timing-free CI gate: fast-forward == batched, bit for bit."""
    iterations = 5_000
    fast, _ = _run(iterations, fastforward=True)
    slow, _ = _run(iterations, fastforward=False)
    assert np.array_equal(fast.state.write_counts, slow.state.write_counts)
    assert np.array_equal(fast.state.read_counts, slow.state.read_counts)
    assert fast.epochs == slow.epochs == iterations


def test_bench_e34_backend_fastforward(record, results_dir):
    iterations = _iterations()
    fast, fast_s = _run(iterations, fastforward=True)
    slow, slow_s = _run(iterations, fastforward=False)

    assert np.array_equal(fast.state.write_counts, slow.state.write_counts)
    assert np.array_equal(fast.state.read_counts, slow.state.read_counts)
    assert fast.epochs == slow.epochs == iterations
    speedup = slow_s / fast_s

    # Bitlet-style throughput conservation: the closed-form operation
    # model's writes/iteration, multiplied back out, must equal the
    # fast-forwarded counters' total exactly.
    config = BalanceConfig.from_label("BsxBs", recompile_interval=1)
    arch = default_architecture(ROWS, COLS)
    mapping = ParallelMultiplication(bits=8).build(arch)
    writes_per_iteration = sum(
        program.write_counts(
            include_presets=arch.presets_output
        ).sum()
        for program in mapping.assignment.values()
    )
    predicted_total = float(writes_per_iteration * iterations)
    actual_total = float(fast.state.write_counts.sum())
    assert actual_total == predicted_total

    period = fastforward_period(config, arch.lane_size, arch.lane_count)

    # Warm-path micro-benchmark: the second batched run reuses pooled
    # scratch instead of allocating per chunk.
    pool = SCRATCH_POOL
    warm_iterations = 20_000
    _run(warm_iterations, fastforward=False)  # populate the pool
    hits_before = pool.hits
    start = time.perf_counter()
    _run(warm_iterations, fastforward=False)
    warm_s = time.perf_counter() - start
    warm_hits = pool.hits - hits_before
    assert warm_hits > 0, "second run should serve scratch from the pool"

    payload = {
        "experiment": "E34_backend_fastforward",
        "workload": "mult-8b",
        "config": "BsxBs",
        "recompile_interval": 1,
        "iterations": iterations,
        "architecture": {"rows": ROWS, "cols": COLS},
        "seed": 7,
        "period": int(period),
        "epochs_collapsed": int(iterations - period),
        "batched_kernel": {
            "seconds": round(slow_s, 4),
            "iterations_per_second": round(iterations / slow_s, 1),
        },
        "fastforward": {
            "seconds": round(fast_s, 4),
            "iterations_per_second": round(iterations / fast_s, 1),
        },
        "speedup": round(speedup, 2),
        "bit_identical": True,
        "throughput_model_writes": predicted_total,
        "simulated_writes": actual_total,
        "warm_pool": {
            "iterations": warm_iterations,
            "seconds": round(warm_s, 4),
            "pool_hits": int(warm_hits),
        },
    }
    (results_dir / "BENCH_E34.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E34 scratch pool + steady-state fast-forward, mult-8b BsxBs "
        f"interval=1 ({iterations} iterations, {ROWS}x{COLS})",
        f"  joint wear period          {period:8d} epochs",
        f"  batched GEMM     {slow_s:8.2f} s  "
        f"({iterations / slow_s:12.0f} iter/s)",
        f"  fast-forward     {fast_s:8.2f} s  "
        f"({iterations / fast_s:12.0f} iter/s)",
        f"  speedup          {speedup:8.0f}x",
        "  results bit-identical: yes",
        f"  Bitlet cross-check: {actual_total:.0f} writes == "
        f"{writes_per_iteration:.0f}/iter x {iterations} (exact)",
        f"  warm pool rerun  {warm_s:8.2f} s  "
        f"({warm_hits} pooled-buffer hits)",
    ]
    record("E34_backend_fastforward", "\n".join(lines))

    assert speedup >= 100.0, (
        f"fast-forward only {speedup:.1f}x faster than the batched "
        f"kernel ({fast_s:.3f}s vs {slow_s:.3f}s)"
    )
