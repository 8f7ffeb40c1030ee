"""The paper's primary contribution: NVPIM endurance characterization.

* :mod:`repro.core.writedist` — write-distribution statistics and heatmaps
  (Figs. 5, 14-16);
* :mod:`repro.core.simulator` — the endurance simulator: workload x
  balance configuration x iterations -> per-cell wear (Section 4's
  "instruction-level accurate" simulation, accelerated by exact epoch
  algebra);
* :mod:`repro.core.lifetime` — the lifetime model: Equations 1, 2 and 4,
  and improvement factors (Fig. 17, Table 3);
* :mod:`repro.core.sweep` — configuration grids and the recompile-
  frequency sweep (Section 5);
* :mod:`repro.core.scratch` — the process-wide scratch-buffer pool the
  hot paths draw their per-chunk workspaces from;
* :mod:`repro.core.fastforward` — the analytic steady-state
  fast-forward: periodic configs extrapolate wear in O(period) instead
  of O(iterations), bit-identically;
* :mod:`repro.core.report` — plain-text renderings of every table and
  figure.
"""

from repro.core.fastforward import (
    PERIODIC_KINDS,
    fastforward_eligible,
    fastforward_period,
    run_fastforward_epochs,
    strategy_period,
)
from repro.core.scratch import SCRATCH_POOL, BufferPool
from repro.core.writedist import WriteDistribution
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, SimulationResult
from repro.core.lifetime import (
    LifetimeEstimate,
    array_write_budget,
    eq1_operations_until_total_failure,
    eq2_seconds_until_total_failure,
    lifetime_from_result,
    lifetime_improvement,
)
from repro.core.sweep import (
    configuration_grid,
    remap_frequency_sweep,
    technology_sweep,
)
from repro.core.failure import (
    FailureTimeline,
    cell_failure_times,
    failure_timeline,
    minimum_footprint,
    offset_death_times,
)
from repro.core.system import ArrayFarm, FarmLifetime, lifetime_at_duty_cycle
from repro.core.switching import SwitchingProfile, measure_switching
from repro.core.cluster import ClusterResult, PartitionedDotProduct
from repro.core.accuracy import (
    EVALUATORS,
    AccuracyReport,
    measure_fault_accuracy,
)

__all__ = [
    "WriteDistribution",
    "EnduranceSimulator",
    "SimulationResult",
    "SimulationSettings",
    "LifetimeEstimate",
    "lifetime_from_result",
    "lifetime_improvement",
    "array_write_budget",
    "eq1_operations_until_total_failure",
    "eq2_seconds_until_total_failure",
    "configuration_grid",
    "remap_frequency_sweep",
    "technology_sweep",
    "FailureTimeline",
    "failure_timeline",
    "cell_failure_times",
    "offset_death_times",
    "minimum_footprint",
    "ArrayFarm",
    "FarmLifetime",
    "lifetime_at_duty_cycle",
    "SwitchingProfile",
    "measure_switching",
    "ClusterResult",
    "PartitionedDotProduct",
    "AccuracyReport",
    "measure_fault_accuracy",
    "EVALUATORS",
    "BufferPool",
    "SCRATCH_POOL",
    "PERIODIC_KINDS",
    "fastforward_eligible",
    "fastforward_period",
    "run_fastforward_epochs",
    "strategy_period",
]
