"""Progressive failure: from first dead cell to an unusable array.

The paper's lifetime model (Eq. 4) declares the array dead at its *first*
cell failure, "because at this point the array can produce incorrect
results" (Section 4), and Section 3.3 shows why: one dead cell removes its
offset from every lane. But Section 3.3 also sketches mitigations, and a
natural software one is *fault-aware repacking* — since software already
maintains a logical-to-physical bit map (Fig. 7), it can simply exclude
offsets with failed cells from the map, shrinking the workspace instead of
dying. The array then survives until the usable offsets no longer fit the
workload's minimum footprint.

With a fixed per-iteration wear pattern, the whole timeline has a closed
form: each cell's failure time is ``budget / rate``; an offset dies at the
minimum over its lanes; and the array (with repacking) dies when the
number of surviving offsets drops below the required footprint — an order
statistic of the offset death times. Per-cell endurance variation (the
lognormal model) is what staggers failures and makes repacking valuable:
with perfectly uniform endurance and a perfectly balanced wear pattern,
every cell dies at once and repacking buys nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.array.geometry import Orientation
from repro.core.simulator import SimulationResult
from repro.devices.endurance import EnduranceModel, UniformEndurance


def active_cells(rate_matrix: np.ndarray) -> np.ndarray:
    """Mask of the cells a wear pattern ever writes.

    Raises:
        ValueError: if any rate is negative.
    """
    rates = np.asarray(rate_matrix, dtype=float)
    if np.any(rates < 0):
        raise ValueError("write rates cannot be negative")
    return rates > 0


def cell_failure_times(
    rate_matrix: np.ndarray,
    budgets: np.ndarray,
    *,
    active: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-cell failure time, in iterations, under a fixed wear rate.

    Cells that receive no writes never fail (``inf``), whatever their
    budget.

    Args:
        rate_matrix: Per-cell writes per iteration.
        budgets: Per-cell endurance budgets (same shape).
        active: :func:`active_cells` of ``rate_matrix``, for callers
            that draw many budgets over one rate matrix.
        out: Float64 buffer of the same shape to write the times into.
    """
    rates = np.asarray(rate_matrix, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if rates.shape != budgets.shape:
        raise ValueError(
            f"rates shape {rates.shape} != budgets shape {budgets.shape}"
        )
    if active is None:
        active = active_cells(rates)
    if out is None:
        out = np.empty(rates.shape)
    out.fill(np.inf)
    np.divide(budgets, rates, out=out, where=active)
    return out


def offset_death_times(
    failure_times: np.ndarray, orientation: Orientation
) -> np.ndarray:
    """When each lane offset becomes unusable for all-lane computation.

    An offset dies at the *first* failure among the cells at that offset
    across all lanes (Fig. 11a).
    """
    if orientation is Orientation.COLUMN_PARALLEL:
        return failure_times.min(axis=1)  # offsets are rows
    return failure_times.min(axis=0)


@dataclass(frozen=True)
class FailureTimeline:
    """The progressive-failure summary of one wear pattern.

    Attributes:
        first_failure_iterations: Eq. 4's horizon — the first cell death.
        unusable_iterations: Horizon with fault-aware repacking — when the
            surviving offsets no longer fit ``required_offsets``.
        required_offsets: Minimum lane bits the workload needs.
        total_offsets: Lane size.
        extension_factor: ``unusable / first_failure``.
    """

    first_failure_iterations: float
    unusable_iterations: float
    required_offsets: int
    total_offsets: int

    @property
    def extension_factor(self) -> float:
        """Lifetime multiplier bought by repacking around dead offsets."""
        if self.first_failure_iterations == 0:
            return float("inf")
        return self.unusable_iterations / self.first_failure_iterations

    def usable_offsets_at(
        self, iterations: float, offset_deaths: np.ndarray
    ) -> int:
        """Surviving offsets after ``iterations`` (given the death times)."""
        return int(np.count_nonzero(offset_deaths > iterations))


def failure_timeline(
    result: SimulationResult,
    required_offsets: int,
    endurance_model: Optional[EnduranceModel] = None,
) -> FailureTimeline:
    """Compute the progressive-failure timeline for a simulation's wear.

    The simulation's accumulated write counts give the long-run per-cell
    wear *rate*; the endurance model supplies per-cell budgets. The rate is
    held fixed past the first failures (a documented approximation: as
    offsets die, repacking concentrates the same work on fewer cells, so
    the true timeline is somewhat shorter — this is the optimistic bound).

    Args:
        result: A completed simulation (its config determines how level the
            wear is, and hence how staggered the failures are).
        required_offsets: Minimum usable lane bits for the workload to keep
            running (its compact footprint).
        endurance_model: Budget model; defaults to the architecture
            technology's uniform endurance.

    Raises:
        ValueError: if the workload cannot fit the lane even when healthy.
    """
    architecture = result.architecture
    lane_size = architecture.lane_size
    if not 0 < required_offsets <= lane_size:
        raise ValueError(
            f"required_offsets must be in (0, {lane_size}], "
            f"got {required_offsets}"
        )
    if endurance_model is None:
        endurance_model = UniformEndurance(
            architecture.technology.endurance_writes
        )
    rates = result.state.write_counts / result.iterations
    budgets = endurance_model.sample_budgets(rates.shape)
    times = cell_failure_times(rates, budgets)
    first = float(times.min())

    deaths = offset_death_times(times, architecture.orientation)
    # With repacking, the array survives while at least `required_offsets`
    # offsets are alive: it dies at the k-th offset death, where
    # k = total - required + 1.
    k = lane_size - required_offsets + 1
    order = np.sort(deaths)
    unusable = float(order[k - 1])
    return FailureTimeline(
        first_failure_iterations=first,
        unusable_iterations=unusable,
        required_offsets=required_offsets,
        total_offsets=lane_size,
    )


def minimum_footprint(workload, architecture) -> int:
    """The compact (lowest-first) footprint of a workload's largest lane
    program — the fewest usable offsets that keep it runnable.

    Built with the compact allocation policy regardless of the workload's
    configured policy, since repacking would naturally compact the layout.
    """
    import copy

    from repro.synth.bits import AllocationPolicy

    compact = copy.copy(workload)
    compact.allocation_policy = AllocationPolicy.LOWEST_FIRST
    mapping = compact.build(architecture)
    return max(
        program.footprint for program in mapping.distinct_programs()
    )
