"""Wear-leveling study: the full 18-configuration grid for one workload.

Reproduces the Figs. 14-17 methodology on a workload of your choice:
simulates every combination of within-lane / between-lane software
strategy (St/Ra/Bs) with hardware re-mapping on or off, prints the
distribution statistics, the Fig. 17-style improvement chart, and the
recompile-frequency trade-off of Section 5.

Run:
    python examples/wear_leveling_study.py [mult|conv|dot]
"""

import sys

from repro import (
    Convolution,
    DotProduct,
    EnduranceSimulator,
    ParallelMultiplication,
    SimulationSettings,
    configuration_grid,
    default_architecture,
    remap_frequency_sweep,
)
from repro.core.report import (
    format_fig17,
    format_heatmap_stats,
    format_remap_frequency,
)

ITERATIONS = 2_000

WORKLOADS = {
    "mult": lambda: ParallelMultiplication(bits=32),
    "conv": lambda: Convolution(),
    "dot": lambda: DotProduct(n_elements=1024, bits=32),
}


def main(argv) -> None:
    key = argv[1] if len(argv) > 1 else "conv"
    if key not in WORKLOADS:
        raise SystemExit(f"unknown workload {key!r}; pick from {sorted(WORKLOADS)}")
    workload = WORKLOADS[key]()
    simulator = EnduranceSimulator(
        default_architecture(), SimulationSettings(seed=7)
    )

    print(f"Simulating {workload.describe()} under 18 configurations "
          f"({ITERATIONS} iterations each)...\n")
    entries = configuration_grid(simulator, workload, iterations=ITERATIONS)

    print(format_heatmap_stats([e.result.write_distribution for e in entries]))
    print()
    print(format_fig17(entries, workload.name))

    best = max(entries, key=lambda e: e.improvement)
    print(f"\nbest configuration: {best.label} "
          f"({best.improvement:.2f}x the static lifetime, "
          f"{best.lifetime.days_to_failure:.1f} days)")

    print("\nHow often must software re-map? (Section 5)")
    improvements = remap_frequency_sweep(
        simulator, workload,
        intervals=(1_000, 100, 50, 10),
        iterations=max(ITERATIONS, 5_000),
    )
    print(format_remap_frequency(improvements))


if __name__ == "__main__":
    main(sys.argv)
