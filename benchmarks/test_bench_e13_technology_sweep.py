"""E13 — technology contrast: the same workload on MRAM / RRAM / PCM.

Paper context (Section 3.1): with MTJ endurance (1e12) a fully-utilized
array lasts ~35 days; at RRAM's 1e8 it lasts minutes. The simulated
(imbalance-aware) lifetimes must show the same 1e4-1e5x spread.
"""

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.report import format_lifetimes, format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import technology_sweep
from repro.devices.technology import MRAM, PCM, RRAM, RRAM_OPTIMISTIC
from repro.workloads.multiply import ParallelMultiplication

from conftest import bench_iterations


def test_bench_e13_technology_sweep(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(), SimulationSettings(seed=7, track_reads=False)
    )
    result = simulator.run(
        ParallelMultiplication(bits=32),
        BalanceConfig(),
        iterations=bench_iterations(1_000),
    )

    sweep = benchmark.pedantic(
        technology_sweep,
        args=(result, [MRAM, RRAM_OPTIMISTIC, RRAM, PCM]),
        rounds=1,
        iterations=1,
    )

    text = format_lifetimes(sweep)
    rows = [
        ("MRAM (1e12)", "~1 month (Eq.2: 35.56 d)",
         f"{sweep['MRAM'].days_to_failure:.2f} d"),
        ("RRAM (1e8)", "minutes (Eq.2: 5.12 min)",
         f"{sweep['RRAM'].seconds_to_failure / 60:.2f} min"),
        ("PCM (1e7)", "-", f"{sweep['PCM'].seconds_to_failure:.1f} s"),
    ]
    text += "\n\n" + format_table(
        ["Technology", "Paper-scale expectation", "Ours"], rows,
        title="E13: simulated lifetime vs paper expectations",
    )
    record("E13_technology_sweep", text)

    # Lifetime ordering and spread follow endurance exactly.
    assert (
        sweep["MRAM"].days_to_failure
        > sweep["RRAM_OPTIMISTIC"].days_to_failure
        > sweep["RRAM"].days_to_failure
        > sweep["PCM"].days_to_failure
    )
    # MTJ: within the Eq. 2 bound, same order of magnitude.
    assert 5 < sweep["MRAM"].days_to_failure < 35.56
    # RRAM: minutes, not days.
    assert sweep["RRAM"].seconds_to_failure < 600
