"""E22 — extension: deployment contexts (duty cycle, array farms).

Quantifies the paper's conclusion paragraph: embedded accelerators with
low duty cycles see their ~1-month full-utilization lifetime stretch into
years, while a server accelerator built from many arrays must be replaced
when its weakest few percent die — earlier than any single-array estimate
suggests.
"""

import pytest

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.system import ArrayFarm, lifetime_at_duty_cycle
from repro.workloads.multiply import ParallelMultiplication

from conftest import bench_iterations

DUTY_CYCLES = (1.0, 0.1, 0.01, 0.001)


def test_bench_e22_duty_cycle(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(), SimulationSettings(seed=7, track_reads=False)
    )
    result = simulator.run(
        ParallelMultiplication(bits=32),
        BalanceConfig(),
        iterations=bench_iterations(500),
    )
    estimate = lifetime_from_result(result)

    def sweep():
        return {
            duty: lifetime_at_duty_cycle(estimate, duty)
            for duty in DUTY_CYCLES
        }

    scaled = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            f"{duty:.1%}",
            f"{est.days_to_failure:.1f}",
            f"{est.years_to_failure:.2f}",
        )
        for duty, est in scaled.items()
    ]
    record(
        "E22_duty_cycle",
        format_table(
            ["Duty cycle", "Days to failure", "Years"],
            rows,
            title=(
                "E22a: embedded (low duty) vs server (full duty) lifetimes "
                "— the paper's conclusion contrast"
            ),
        ),
    )

    assert scaled[1.0].days_to_failure < 36  # within Eq. 2's bound
    assert scaled[0.01].years_to_failure > 5  # "several years" at 1%
    assert scaled[0.001].years_to_failure > 50


def test_bench_e22_array_farm(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(), SimulationSettings(seed=7, track_reads=False)
    )
    result = simulator.run(
        ParallelMultiplication(bits=32),
        BalanceConfig(),
        iterations=bench_iterations(500),
    )
    estimate = lifetime_from_result(result)

    def farms():
        out = {}
        for n_arrays in (16, 256, 4096):
            farm = ArrayFarm(n_arrays, sigma=0.25, rng=0)
            out[n_arrays] = farm.replacement_horizon(
                estimate, failure_fraction=0.05
            )
        return out

    horizons = benchmark.pedantic(farms, rounds=1, iterations=1)

    single_days = estimate.days_to_failure
    rows = [
        (
            n_arrays,
            f"{summary.first_seconds / 86400:.1f}",
            f"{summary.horizon_days:.1f}",
            f"{summary.horizon_days / single_days:.2f}",
        )
        for n_arrays, summary in horizons.items()
    ]
    record(
        "E22_array_farm",
        format_table(
            ["Arrays", "First failure (days)", "5% dead (days)",
             "vs single-array estimate"],
            rows,
            title=(
                f"E22b: server accelerator replacement horizon "
                f"(single-array estimate: {single_days:.1f} days, "
                "array-to-array sigma 0.25)"
            ),
        ),
    )

    # Bigger farms hit their first failure sooner and their replacement
    # horizon is below the single-array estimate.
    firsts = [horizons[n].first_seconds for n in (16, 256, 4096)]
    assert firsts[0] > firsts[1] > firsts[2]
    for summary in horizons.values():
        assert summary.horizon_days < single_days
