"""Shared benchmark-harness plumbing.

Every benchmark regenerates one of the paper's tables or figures and
records its plain-text rendering under ``benchmarks/results/`` (so
EXPERIMENTS.md can cite the exact output). Simulation horizons default to
a scaled-down iteration count to keep ``pytest benchmarks/`` quick;
set ``REPRO_BENCH_ITERATIONS`` (e.g. to the paper's 100000) or
``REPRO_BENCH_FULL=1`` for full-fidelity runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper simulates 100,000 iterations; the default here keeps the whole
#: harness in the minutes range while preserving every qualitative shape.
DEFAULT_ITERATIONS = 2_000
PAPER_ITERATIONS = 100_000


def bench_iterations(default: int = DEFAULT_ITERATIONS) -> int:
    """The simulation horizon benchmarks should use."""
    if os.environ.get("REPRO_BENCH_FULL"):
        return PAPER_ITERATIONS
    return int(os.environ.get("REPRO_BENCH_ITERATIONS", default))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def grid_cache():
    """Lazily computed 18-configuration grids, shared across benchmarks.

    Figs. 14-16 (heatmaps), Fig. 17 (improvements) and Table 3 (summary)
    all consume the same simulations, so they are run once per workload.
    """
    from repro.array.architecture import default_architecture
    from repro.core.settings import SimulationSettings
    from repro.core.simulator import EnduranceSimulator
    from repro.core.sweep import configuration_grid
    from repro.workloads.convolution import Convolution
    from repro.workloads.dotproduct import DotProduct
    from repro.workloads.multiply import ParallelMultiplication

    workloads = {
        "mult": lambda: ParallelMultiplication(bits=32),
        "conv": lambda: Convolution(),
        "dot": lambda: DotProduct(n_elements=1024, bits=32),
    }
    cache = {}

    def get(key: str):
        if key not in cache:
            simulator = EnduranceSimulator(
                default_architecture(), SimulationSettings(seed=7)
            )
            cache[key] = configuration_grid(
                simulator, workloads[key](), iterations=bench_iterations()
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def record(results_dir):
    """Write (and echo) one experiment's plain-text artifact."""

    def _record(experiment_id: str, text: str) -> None:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n=== {experiment_id} ===\n{text}")

    return _record
