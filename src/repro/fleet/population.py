"""Fleet populations: many arrays, heterogeneous technologies and cohorts.

A fleet is a population of PIM arrays. Each array belongs to a **cohort**
— one (workload, balance-config) pair whose calibrated wear profile is
simulated once and shared by every array in the cohort — and carries a
**technology** preset (MRAM/RRAM/PCM, :mod:`repro.devices.technology`)
plus optional per-cell lognormal endurance variation
(:class:`~repro.devices.endurance.LognormalEndurance`).

The per-array death threshold (iterations until the array is dead) is
computed with *exactly* the closed-form machinery of
:mod:`repro.core.failure` — :func:`cell_failure_times` and
:func:`offset_death_times` over the cohort's per-iteration rate matrix —
so a degenerate one-array fleet reproduces
:func:`repro.core.failure.failure_timeline` bit for bit (pinned by
``tests/test_fleet_service.py``).

Assignment of cohorts and technologies to array slots is deterministic
(largest-remainder proportional allocation, interleaved), so a
population is a pure function of its spec; all randomness lives in the
per-cell endurance draws, whose RNG streams derive from
``(campaign seed, BUDGET_STREAM, array index)`` and are therefore
independent of visitation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.balance.config import BalanceConfig
from repro.core.failure import (
    active_cells,
    cell_failure_times,
    offset_death_times,
)
from repro.devices.endurance import (
    EnduranceModel,
    LognormalEndurance,
    UniformEndurance,
)
from repro.devices.technology import Technology, technology_by_name
from repro.workloads.registry import (
    UnknownWorkloadError,
    get_workload,
    get_workload_factory,
    workload_factories,
)

#: Workload factories a cohort spec may name. Since the registry became
#: the single resolution path this is a live, read-only view of
#: :data:`repro.workloads.registry.workload_factories` — anything
#: registered there (built-ins, trace workloads, user plugins) can serve
#: fleet traffic. The name survives as the stable public alias.
WORKLOAD_FACTORIES = workload_factories

#: Spawn-key tags for the independent RNG streams a campaign derives from
#: its base seed (``np.random.default_rng([seed, TAG, ...])``). Keeping
#: the budget and traffic streams disjoint means per-cell endurance draws
#: never perturb the arrival process and vice versa.
BUDGET_STREAM = 0xB0D6
TRAFFIC_STREAM = 0x7AFF

#: Version of the death-threshold arithmetic. It is part of the key under
#: which a fleet persists its thresholds, so bump it whenever a change to
#: :meth:`Population.death_thresholds` could change a single bit of its
#: output: stored vectors from the old arithmetic then stop matching.
THRESHOLDS_VERSION = 1


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous slice of the fleet.

    Attributes:
        workload: Kernel name (a :data:`WORKLOAD_FACTORIES` key).
        config: Balance-configuration label (``BalanceConfig.from_label``).
        weight: Relative share of arrays *and* of request traffic.
        iterations_per_request: Workload iterations one request costs.
    """

    workload: str
    config: str = "StxSt"
    weight: float = 1.0
    iterations_per_request: int = 1

    def __post_init__(self) -> None:
        try:
            get_workload_factory(self.workload)
        except UnknownWorkloadError as exc:
            # Cohort specs have always raised ValueError; re-wrap with
            # the registry's richer message (suggestion + provenance).
            raise ValueError(str(exc)) from None
        BalanceConfig.from_label(self.config)  # validates the label
        if self.weight <= 0:
            raise ValueError("cohort weight must be positive")
        if self.iterations_per_request <= 0:
            raise ValueError("iterations_per_request must be positive")

    @property
    def key(self) -> str:
        """Stable identifier (also the result-store shard key)."""
        return f"{self.workload}-{self.config}"

    def build_workload(self):
        """A fresh workload instance for this cohort."""
        return get_workload(self.workload)

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "weight": self.weight,
            "iterations_per_request": self.iterations_per_request,
        }


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative description of a fleet population.

    Attributes:
        n_arrays: Population size.
        technology_mix: ``((name, weight), ...)`` technology shares.
        cohorts: The cohort slices (weights double as traffic shares).
        endurance_sigma: Per-cell lognormal endurance spread (0 =
            the paper's uniform-endurance assumption).
        repacking: Die at the fault-aware repacking horizon
            (:func:`repro.core.failure.failure_timeline` semantics)
            instead of at first cell failure.
    """

    n_arrays: int = 64
    technology_mix: Tuple[Tuple[str, float], ...] = (("MRAM", 1.0),)
    cohorts: Tuple[CohortSpec, ...] = (CohortSpec("mult"),)
    endurance_sigma: float = 0.0
    repacking: bool = False

    def __post_init__(self) -> None:
        if self.n_arrays < 1:
            raise ValueError("n_arrays must be positive")
        if not self.technology_mix:
            raise ValueError("technology_mix must not be empty")
        for name, weight in self.technology_mix:
            technology_by_name(name)  # validates the preset
            if weight <= 0:
                raise ValueError(f"technology weight for {name} must be > 0")
        if not self.cohorts:
            raise ValueError("at least one cohort is required")
        keys = [cohort.key for cohort in self.cohorts]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate cohort keys: {sorted(keys)}")
        if self.endurance_sigma < 0:
            raise ValueError("endurance_sigma must be non-negative")

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        return {
            "n_arrays": self.n_arrays,
            "technology_mix": [list(pair) for pair in self.technology_mix],
            "cohorts": [cohort.identity() for cohort in self.cohorts],
            "endurance_sigma": self.endurance_sigma,
            "repacking": self.repacking,
        }

    @property
    def cohort_weights(self) -> np.ndarray:
        """Normalized cohort weights (traffic and population shares)."""
        weights = np.array([c.weight for c in self.cohorts], dtype=float)
        return weights / weights.sum()


def proportional_counts(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` slots over ``weights``.

    Deterministic, exact (counts sum to ``total``), and stable: ties in
    the fractional remainders break toward the earlier entry.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(int)
    remainder = total - int(counts.sum())
    if remainder:
        # Stable sort descending by fractional part; earlier entries win ties.
        fractional = quotas - counts
        order = np.argsort(-fractional, kind="stable")
        for index in order[:remainder]:
            counts[index] += 1
    return counts.tolist()


def interleaved_assignment(weights: Sequence[float], total: int) -> np.ndarray:
    """Per-slot category assignment that interleaves categories evenly.

    Greedy largest-deficit scheduling: slot ``i`` goes to the category
    whose assigned count lags its quota the most. Category totals match
    :func:`proportional_counts`; within any prefix the mix stays close
    to the target, so e.g. an 8-array 50/50 fleet alternates rather than
    splitting into two blocks.
    """
    counts = np.asarray(proportional_counts(weights, total), dtype=int)
    weights = np.asarray(weights, dtype=float)
    share = weights / weights.sum()
    assigned = np.zeros(len(counts), dtype=int)
    out = np.empty(total, dtype=int)
    for slot in range(total):
        deficit = share * (slot + 1) - assigned
        deficit[assigned >= counts] = -np.inf  # category exhausted
        out[slot] = int(np.argmax(deficit))
        assigned[out[slot]] += 1
    return out


@dataclass(frozen=True)
class Population:
    """A concrete fleet population: per-array cohort and technology.

    Built deterministically from a :class:`PopulationSpec` — no RNG is
    consumed — so two builds of the same spec are identical.
    """

    spec: PopulationSpec
    cohort_index: np.ndarray = field(repr=False)
    technology_index: np.ndarray = field(repr=False)
    technologies: Tuple[Technology, ...]
    #: Per-cohort member indices and the normalized cohort weights,
    #: derived once here because the fleet day loop reads them daily.
    cohort_members: Tuple[np.ndarray, ...] = field(repr=False, compare=False)
    cohort_weights: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, spec: PopulationSpec) -> "Population":
        """Assign each array slot a cohort and a technology."""
        cohort_index = interleaved_assignment(
            [c.weight for c in spec.cohorts], spec.n_arrays
        )
        # Lay the interleaved technology sequence over the arrays in
        # cohort-grouped order, not slot order: two lockstep
        # interleavings would correlate perfectly (e.g. a 50/50 cohort
        # split times a 50/50 technology split puts every PCM array in
        # one cohort). Grouping first gives each cohort its own
        # proportional technology mix.
        technology_sequence = interleaved_assignment(
            [w for _, w in spec.technology_mix], spec.n_arrays
        )
        technology_index = np.empty(spec.n_arrays, dtype=int)
        technology_index[np.argsort(cohort_index, kind="stable")] = (
            technology_sequence
        )
        technologies = tuple(
            technology_by_name(name) for name, _ in spec.technology_mix
        )
        cohort_members = tuple(
            _read_only(np.flatnonzero(cohort_index == cohort))
            for cohort in range(len(spec.cohorts))
        )
        return cls(
            spec=spec,
            cohort_index=cohort_index,
            technology_index=technology_index,
            technologies=technologies,
            cohort_members=cohort_members,
            cohort_weights=_read_only(spec.cohort_weights),
        )

    @property
    def n_arrays(self) -> int:
        """Population size."""
        return self.spec.n_arrays

    def arrays_in_cohort(self, cohort: int) -> np.ndarray:
        """Indices of the arrays belonging to cohort ``cohort``."""
        return self.cohort_members[cohort]

    def technology_of(self, array: int) -> Technology:
        """The technology preset of array ``array``."""
        return self.technologies[int(self.technology_index[array])]

    def endurance_model_for(self, array: int, seed: int) -> EnduranceModel:
        """The per-cell endurance model of one array.

        With ``endurance_sigma == 0`` this is the paper's uniform
        assumption at the array's technology endurance; otherwise a
        lognormal with that endurance as the median, seeded from
        ``(seed, BUDGET_STREAM, array)`` so draws are independent of the
        order arrays are processed in.
        """
        technology = self.technology_of(array)
        if self.spec.endurance_sigma == 0:
            return UniformEndurance(technology.endurance_writes)
        return LognormalEndurance(
            technology.endurance_writes,
            sigma=self.spec.endurance_sigma,
            rng=np.random.default_rng([seed, BUDGET_STREAM, array]),
        )

    def death_thresholds(
        self,
        cohort_results: Sequence,
        seed: int,
        required_offsets: Optional[Sequence[Optional[int]]] = None,
    ) -> np.ndarray:
        """Per-array iterations-to-death under each cohort's wear pattern.

        Mirrors :func:`repro.core.failure.failure_timeline` exactly:
        the cohort simulation's accumulated counters give the long-run
        per-cell wear rate, the endurance model supplies per-cell
        budgets, and the array dies at the first cell failure — or,
        with ``repacking``, at the order-statistic repacking horizon
        over ``required_offsets``.

        Args:
            cohort_results: One (possibly store-restored) simulation
                result per cohort, in cohort order.
            seed: Campaign base seed (drives the budget streams).
            required_offsets: Per-cohort minimum footprint; required
                when the spec enables repacking.
        """
        if len(cohort_results) != len(self.spec.cohorts):
            raise ValueError(
                f"expected {len(self.spec.cohorts)} cohort results, "
                f"got {len(cohort_results)}"
            )
        if self.spec.repacking and (
            required_offsets is None
            or any(offsets is None for offsets in required_offsets)
        ):
            raise ValueError("repacking requires per-cohort required_offsets")
        thresholds = np.empty(self.n_arrays, dtype=float)
        for cohort, result in enumerate(cohort_results):
            members = self.arrays_in_cohort(cohort)
            if len(members) == 0:
                continue
            # Once per cohort, not per array: the rate matrix, its active
            # mask (which checks the rates) and the buffers.
            rate = result.state.write_counts / result.iterations
            active = active_cells(rate)
            orientation = result.architecture.orientation
            rank = None
            if self.spec.repacking:
                rank = (
                    result.architecture.lane_size
                    - int(required_offsets[cohort])
                )
            budgets = np.empty(rate.shape)
            times = np.empty(rate.shape)
            for array in members:
                model = self.endurance_model_for(int(array), seed)
                model.sample_budgets(rate.shape, out=budgets)
                cell_failure_times(rate, budgets, active=active, out=times)
                thresholds[array] = _death_time(times, rank, orientation)
        return thresholds


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, locked against writes (it is shared, not copied)."""
    array.flags.writeable = False
    return array


def _death_time(
    times: np.ndarray, rank: Optional[int], orientation
) -> float:
    """An array's death from its per-cell failure times.

    The first cell failure when ``rank`` is ``None``; otherwise the
    repacking horizon, the ``rank``-th (0-based) offset death.
    """
    if rank is None:
        return float(times.min())
    deaths = offset_death_times(times, orientation)
    return float(np.partition(deaths, rank)[rank])
