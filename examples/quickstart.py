"""Quickstart: simulate PIM wear and estimate array lifetime.

Runs the paper's headline workload — embarrassingly parallel 32-bit
multiplication on a 1024x1024 column-parallel NVPIM array — under no load
balancing and under the best-performing strategy, then prints the write
distributions and Eq. 4 lifetime estimates.

Run:
    python examples/quickstart.py
"""

from repro import (
    BalanceConfig,
    EnduranceSimulator,
    ParallelMultiplication,
    SimulationSettings,
    default_architecture,
    lifetime_from_result,
    lifetime_improvement,
)

ITERATIONS = 2_000


def main() -> None:
    architecture = default_architecture()  # 1024x1024, CRAM-style, MTJ 1e12
    simulator = EnduranceSimulator(architecture, SimulationSettings(seed=42))
    workload = ParallelMultiplication(bits=32)

    print(f"architecture: {architecture.name}, "
          f"{architecture.geometry.rows}x{architecture.geometry.cols}, "
          f"{architecture.technology.name} "
          f"(endurance {architecture.technology.endurance_writes:.0e})")
    print(f"workload: {workload.describe()}\n")

    baseline = simulator.run(workload, BalanceConfig(), iterations=ITERATIONS)
    balanced = simulator.run(
        workload,
        BalanceConfig.from_label("RaxSt+Hw").with_interval(50),
        iterations=ITERATIONS,
    )

    for result in (baseline, balanced):
        distribution = result.write_distribution
        estimate = lifetime_from_result(result)
        print(f"--- {result.config.label} ---")
        print(distribution.summary())
        print(f"lifetime (Eq. 4): {estimate.days_to_failure:.2f} days "
              f"({estimate.iterations_to_failure:.3e} iterations)")
        print()

    print(f"lifetime improvement from load balancing: "
          f"{lifetime_improvement(balanced, baseline):.2f}x")
    print("\nwear heatmap under RaxSt+Hw (darker = hotter):")
    print(balanced.write_distribution.ascii_heatmap(blocks=(16, 64)))


if __name__ == "__main__":
    main()
