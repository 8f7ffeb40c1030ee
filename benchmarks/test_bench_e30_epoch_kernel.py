"""E30 — batched epoch kernel: chunked GEMM vs the per-epoch loop.

Not a paper figure — an infrastructure benchmark for the batched epoch
kernel (``repro.core.kernel``). The worst case for the sequential loop is
``Ra x Ra`` at ``recompile_interval=1``: a fresh pair of random
permutations and a full outer-product accumulation every single
iteration. The batched kernel folds whole chunks of epochs into one
scatter plus one GEMM, so the per-epoch Python and allocation overhead
amortizes away while the results stay bit-identical.

Both kernels are timed on the same simulator configuration; the batched
path must be at least 10x faster and produce the exact same counters.
The per-epoch loop is the test-only reference
``repro.core.kernel.run_epoch_loop``; it runs through the same
``EnduranceSimulator.run`` call, substituted for the batched kernel the
simulator calls.
Beyond the plain-text artifact this benchmark writes a machine-readable
``BENCH_E30.json`` (configuration, iterations/second for each kernel,
speedup) so downstream tooling can track the ratio over time.
"""

import json
import time
from unittest import mock

import numpy as np

import repro.core.simulator
from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.kernel import run_batched_epochs, run_epoch_loop
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication

#: Floored like E29: the speedup is an asymptotic claim about per-epoch
#: overhead, and a toy horizon would mostly time simulator setup.
MIN_ITERATIONS = 20_000


def _iterations() -> int:
    return max(bench_iterations(MIN_ITERATIONS), MIN_ITERATIONS)


def _run(kernel):
    simulator = EnduranceSimulator(
        default_architecture(), SimulationSettings(seed=7)
    )
    workload = ParallelMultiplication(bits=32)
    config = BalanceConfig.from_label("RaxRa", recompile_interval=1)
    with mock.patch.object(repro.core.simulator, "run_batched_epochs", kernel):
        start = time.perf_counter()
        result = simulator.run(workload, config, iterations=_iterations())
        return result, time.perf_counter() - start


def test_bench_e30_epoch_kernel_speedup(record, results_dir):
    iterations = _iterations()
    batched, batched_s = _run(run_batched_epochs)
    sequential, sequential_s = _run(run_epoch_loop)

    assert np.array_equal(
        batched.state.write_counts, sequential.state.write_counts
    )
    assert np.array_equal(
        batched.state.read_counts, sequential.state.read_counts
    )
    assert batched.epochs == sequential.epochs == iterations

    speedup = sequential_s / batched_s
    arch = default_architecture()
    payload = {
        "experiment": "E30_epoch_kernel",
        "workload": "mult-32b",
        "config": "RaxRa",
        "recompile_interval": 1,
        "iterations": iterations,
        "architecture": {
            "name": arch.name,
            "rows": arch.geometry.rows,
            "cols": arch.geometry.cols,
        },
        "seed": 7,
        "epoch_kernel": {
            "seconds": round(sequential_s, 4),
            "iterations_per_second": round(iterations / sequential_s, 1),
        },
        "batched_kernel": {
            "seconds": round(batched_s, 4),
            "iterations_per_second": round(iterations / batched_s, 1),
        },
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    (results_dir / "BENCH_E30.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E30 batched epoch kernel, mult-32b RaxRa interval=1 "
        f"({iterations} iterations, {arch.geometry.rows}x"
        f"{arch.geometry.cols})",
        f"  per-epoch loop   {sequential_s:8.2f} s  "
        f"({iterations / sequential_s:10.0f} iter/s)",
        f"  batched GEMM     {batched_s:8.2f} s  "
        f"({iterations / batched_s:10.0f} iter/s)",
        f"  speedup          {speedup:8.1f}x",
        "  results bit-identical: yes",
    ]
    record("E30_epoch_kernel", "\n".join(lines))

    assert speedup >= 10.0, (
        f"batched kernel only {speedup:.2f}x faster than the per-epoch "
        f"loop ({batched_s:.2f}s vs {sequential_s:.2f}s)"
    )
