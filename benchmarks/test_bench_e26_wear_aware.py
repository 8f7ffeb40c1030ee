"""E26 — extension: wear-aware between-lane mapping.

The paper's related work cites WoLFRaM's on-the-fly remapping around wear;
PIM's whole-lane access granularity admits the same idea at lane
granularity: at each recompile, put the heaviest lane roles on the
least-worn physical lanes (greedy min-max). Against the paper's oblivious
strategies, the adaptive policy matches or beats random shuffling on every
imbalanced workload — at the cost of per-lane wear counters.
"""

import pytest

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.balance.software import StrategyKind
from repro.core.lifetime import lifetime_improvement
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.convolution import Convolution
from repro.workloads.dotproduct import DotProduct
from repro.workloads.matvec import MatrixVectorProduct

from conftest import bench_iterations

WORKLOADS = {
    "conv": Convolution(),
    "dot": DotProduct(n_elements=1024, bits=32),
    "matvec": MatrixVectorProduct(elements_per_row=64, bits=8),
}
STRATEGIES = {
    "StxBs": BalanceConfig(between=StrategyKind.BYTE_SHIFT),
    "StxRa": BalanceConfig(between=StrategyKind.RANDOM),
    "StxWa": BalanceConfig(between=StrategyKind.WEAR_AWARE),
}


def test_bench_e26_wear_aware(benchmark, record):
    iterations = bench_iterations(2_000)

    def run_all():
        out = {}
        for workload_name, workload in WORKLOADS.items():
            simulator = EnduranceSimulator(
                default_architecture(),
                SimulationSettings(seed=7, track_reads=False),
            )
            base = simulator.run(
                workload, BalanceConfig(), iterations
            )
            out[workload_name] = {
                label: lifetime_improvement(
                    simulator.run(
                        workload, config, iterations
                    ),
                    base,
                )
                for label, config in STRATEGIES.items()
            }
        return out

    improvements = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (
            workload_name,
            *(f"{values[label]:.3f}x" for label in STRATEGIES),
        )
        for workload_name, values in improvements.items()
    ]
    record(
        "E26_wear_aware",
        format_table(
            ["Workload", *STRATEGIES.keys()],
            rows,
            title=(
                "E26: adaptive wear-aware lane mapping vs the paper's "
                "oblivious strategies (between-lane only)"
            ),
        ),
    )

    for workload_name, values in improvements.items():
        # Wear-aware at least matches random shuffling...
        assert values["StxWa"] >= 0.97 * values["StxRa"], workload_name
        # ...and strictly beats doing nothing on imbalanced workloads.
        assert values["StxWa"] > 1.05, workload_name
    # On convolution it also beats byte shifting (which does nothing).
    assert improvements["conv"]["StxWa"] > improvements["conv"]["StxBs"]
