"""The endurance simulator: workload x balance config x iterations -> wear.

Reproduces the paper's methodology (Section 4): "Due to temporally
fine-grained hardware based re-mapping, each repetition (iteration) of a
benchmark can have a different write distribution. Hence, it is necessary
to fully simulate a large number of iterations. We simulate each benchmark
100,000 times to obtain an estimate of the overall write distribution over
time."

The simulation is exact, not sampled: between software recompiles the
logical wear profile is constant, so an epoch's contribution is an outer
product (``repro.array.executor.accumulate_assignment``); hardware
re-mapping within an epoch is resolved in closed form by the permutation-
cycle algebra (``repro.balance.hardware``). Both paths are property-tested
against naive instruction-by-instruction replay.

Epoch semantics: software strategies re-map at recompile boundaries (every
``recompile_interval`` iterations); recompilation reinstalls the full
logical-to-physical mapping, so hardware re-mapping state restarts from
the new software mapping. Configurations without any software re-mapping
(``St x St``) never recompile and run as one continuous epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.executor import accumulate_assignment
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.balance.hardware import HardwareRemapper
from repro.balance.software import StrategyKind, wear_aware_permutation
from repro.core.fastforward import run_fastforward_epochs
from repro.core.kernel import make_epoch_maps, run_batched_epochs
from repro.core.settings import SimulationSettings
from repro.core.writedist import WriteDistribution
from repro.telemetry import get_telemetry
from repro.verify import (
    VerificationError,
    VerifyReport,
    check_fastforward,
    verify_mapping,
)
from repro.workloads.base import Workload, WorkloadMapping


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes:
        workload_name: Benchmark label.
        config: The balance configuration simulated.
        architecture: Target architecture.
        iterations: Iterations simulated.
        state: Accumulated per-cell counters.
        mapping: The workload mapping (schedule, utilization, programs).
    """

    workload_name: str
    config: BalanceConfig
    architecture: PIMArchitecture
    iterations: int
    state: ArrayState
    mapping: WorkloadMapping
    epochs: int = field(default=1)

    @property
    def write_distribution(self) -> WriteDistribution:
        """The accumulated write distribution."""
        return WriteDistribution(
            self.state.write_counts,
            self.iterations,
            self.architecture.orientation,
            label=f"{self.workload_name} {self.config.label}",
        )

    @property
    def read_distribution(self) -> WriteDistribution:
        """The accumulated read distribution (same machinery)."""
        return WriteDistribution(
            self.state.read_counts,
            self.iterations,
            self.architecture.orientation,
            label=f"{self.workload_name} {self.config.label} (reads)",
        )

    @property
    def max_writes_per_iteration(self) -> float:
        """Hottest cell's write rate — the paper's Eq. 4 denominator."""
        return self.state.max_writes / self.iterations

    @property
    def iteration_latency_s(self) -> float:
        """One iteration's latency (3 ns per sequential op, Section 4)."""
        return self.mapping.iteration_latency_s

    @property
    def lane_utilization(self) -> float:
        """Average lane utilization (Table 3), from the mapping's schedule.

        Exposed directly so results restored from disk (which carry no
        mapping object) present the same surface.
        """
        return self.mapping.lane_utilization


class EnduranceSimulator:
    """Drives workloads through balance configurations on one architecture.

    Args:
        architecture: The PIM array design under test.
        settings: The unified knob set (:class:`SimulationSettings`) —
            seed, kernel, chunk size, read tracking, telemetry options.
    """

    def __init__(
        self,
        architecture: PIMArchitecture,
        settings: Optional[SimulationSettings] = None,
    ) -> None:
        if settings is None:
            settings = SimulationSettings()
        self.settings = settings
        self.architecture = architecture
        self._mapping_cache: Dict[str, WorkloadMapping] = {}
        self._verified: set = set()

    # -- settings convenience views ------------------------------------

    @property
    def seed(self) -> int:
        """The settings' base RNG seed."""
        return self.settings.seed

    @property
    def kernel(self) -> str:
        """The settings' default execution path."""
        return self.settings.kernel

    @property
    def chunk_size(self) -> "int | None":
        """The settings' batched-kernel epochs-per-GEMM."""
        return self.settings.chunk_size

    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        config: BalanceConfig,
        iterations: int = 100_000,
        settings: Optional[SimulationSettings] = None,
    ) -> SimulationResult:
        """Simulate ``iterations`` repetitions under ``config``.

        Args:
            workload: The benchmark kernel.
            config: Load-balancing configuration.
            iterations: Repetitions ("as soon as it computes the final
                results a new set of inputs is loaded and the process
                repeats", Section 4).
            settings: Per-call settings override; defaults to the
                simulator's own :class:`SimulationSettings`.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if config.within is StrategyKind.WEAR_AWARE:
            raise ValueError(
                "wear-aware mapping applies between lanes only (within-lane "
                "roles are identical across a lane, so there is no load "
                "signal to sort by)"
            )
        effective = settings if settings is not None else self.settings
        tele = get_telemetry()
        start = time.perf_counter()
        mapping = self._mapping_for(workload)
        self._verify(mapping, config)
        if effective.fastforward:
            # Refuse, never approximate: non-periodic configs (Ra, Wa)
            # have no steady state to extrapolate (diagnostic RPR011).
            report = VerifyReport(check_fastforward(config))
            if report.errors:
                raise VerificationError(report)
        architecture = self.architecture
        state = ArrayState(architecture.geometry)
        rng = np.random.default_rng(effective.seed)

        remappers: Dict[int, HardwareRemapper] = {}
        groups = self._groups(mapping)
        if config.hardware:
            for key, (program, _) in groups.items():
                remappers[key] = HardwareRemapper(
                    program, architecture.lane_size, architecture.presets_output
                )

        lane_loads = (
            self._lane_loads(mapping)
            if config.between is StrategyKind.WEAR_AWARE
            else None
        )
        with tele.timed_phase("kernel", kernel=effective.kernel):
            if effective.fastforward:
                epochs = run_fastforward_epochs(
                    architecture,
                    config,
                    state,
                    groups,
                    iterations,
                    remappers=remappers if config.hardware else None,
                    track_reads=effective.track_reads,
                )
            elif effective.kernel == "batched":
                epochs = run_batched_epochs(
                    architecture,
                    config,
                    state,
                    rng,
                    groups,
                    iterations,
                    remappers=remappers if config.hardware else None,
                    lane_loads=lane_loads,
                    track_reads=effective.track_reads,
                    chunk_size=effective.chunk_size,
                )
            else:
                epochs = self._run_epoch_loop(
                    mapping,
                    config,
                    state,
                    rng,
                    groups,
                    remappers,
                    lane_loads,
                    iterations,
                    effective.track_reads,
                )

        elapsed = time.perf_counter() - start
        tele.count("sim.runs")
        tele.count("sim.iterations", iterations)
        tele.count("sim.epochs", epochs)
        tele.gauge("sim.epochs_per_s", epochs / elapsed if elapsed > 0 else 0.0)
        if tele.enabled:
            # Full-array reductions are only worth paying for when the
            # event is actually going somewhere.
            tele.emit(
                "simulation",
                workload=mapping.workload_name,
                config=config.label,
                iterations=iterations,
                epochs=epochs,
                kernel=effective.kernel,
                seed=effective.seed,
                seconds=round(elapsed, 6),
                epochs_per_s=round(epochs / elapsed, 2) if elapsed > 0 else 0.0,
                writes=float(state.write_counts.sum()),
                reads=float(state.read_counts.sum()),
            )
        return SimulationResult(
            workload_name=mapping.workload_name,
            config=config,
            architecture=architecture,
            iterations=iterations,
            state=state,
            mapping=mapping,
            epochs=epochs,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run_epoch_loop(
        self,
        mapping: WorkloadMapping,
        config: BalanceConfig,
        state: ArrayState,
        rng: np.random.Generator,
        groups: Dict[int, Tuple[object, List[int]]],
        remappers: Dict[int, HardwareRemapper],
        lane_loads: "np.ndarray | None",
        iterations: int,
        track_reads: bool,
    ) -> int:
        """The sequential per-epoch path — the batched kernel's oracle.

        Permutations come from :func:`make_epoch_maps` one epoch at a
        time, which consumes the random stream exactly as the batched
        kernel's chunked draws do, so both paths are bit-identical.
        """
        architecture = self.architecture
        lane_size = architecture.lane_size
        lane_count = architecture.lane_count
        orientation = architecture.orientation
        epochs = 0
        for epoch, length in self._epochs(config, iterations):
            epochs += 1
            within_maps, between_maps = make_epoch_maps(
                config.within,
                config.between,
                lane_size,
                lane_count,
                1,
                rng,
                epoch_start=epoch,
            )
            within = within_maps[0]
            if between_maps is None:  # wear-aware: resolved against state
                wear = state.lane_view(state.write_counts, orientation).sum(
                    axis=0
                )
                between = wear_aware_permutation(lane_loads, wear)
            else:
                between = between_maps[0]
            if config.hardware:
                self._accumulate_hardware_epoch(
                    state,
                    groups,
                    remappers,
                    within,
                    between,
                    length,
                    track_reads,
                )
            else:
                accumulate_assignment(
                    architecture,
                    mapping.assignment,
                    state,
                    within_map=within,
                    between_map=between,
                    repetitions=float(length),
                    track_reads=track_reads,
                )
        return epochs

    def _verify(self, mapping: WorkloadMapping, config: BalanceConfig) -> None:
        """Statically check the mapping/config pair before simulating.

        Runs :func:`repro.verify.verify_mapping` in wear-only mode (value
        semantics are warnings — a wear simulation never executes gate
        values) and rejects the run on any error. Memoized per
        (mapping, config-label) pair, so repeated runs pay nothing.

        Raises:
            VerificationError: if the static checks report errors.
        """
        key = (id(mapping), config.label)
        if key in self._verified:
            return
        with get_telemetry().timed_phase(
            "verify", workload=mapping.workload_name
        ):
            report = verify_mapping(mapping, config, functional=False)
        if report.errors:
            raise VerificationError(report)
        self._verified.add(key)

    def _mapping_for(self, workload: Workload) -> WorkloadMapping:
        # Keyed by the full parameter signature, not the display name: two
        # instances may share a name yet build different mappings.
        key = workload.signature
        cached = self._mapping_cache.get(key)
        if cached is None or cached.architecture is not self.architecture:
            with get_telemetry().timed_phase(
                "mapping_compile", workload=workload.name
            ):
                cached = workload.build(self.architecture)
            self._mapping_cache[key] = cached
        return cached

    def _lane_loads(self, mapping: WorkloadMapping) -> np.ndarray:
        """Per-logical-lane writes per iteration (the Wa sorting signal)."""
        lane_count = self.architecture.lane_count
        include = self.architecture.presets_output
        loads = np.zeros(lane_count)
        for lane, program in mapping.assignment.items():
            loads[lane] = program.write_counts(include_presets=include).sum()
        return loads

    @staticmethod
    def _groups(mapping: WorkloadMapping) -> Dict[int, Tuple[object, List[int]]]:
        """Lanes grouped by canonical program object."""
        groups: Dict[int, Tuple[object, List[int]]] = {}
        for lane, program in mapping.assignment.items():
            entry = groups.setdefault(id(program), (program, []))
            entry[1].append(lane)
        return groups

    @staticmethod
    def _epochs(config: BalanceConfig, iterations: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(epoch_index, epoch_length)`` pairs covering the run."""
        if not config.needs_recompilation:
            yield 0, iterations
            return
        interval = config.recompile_interval
        full, remainder = divmod(iterations, interval)
        for epoch in range(full):
            yield epoch, interval
        if remainder:
            yield full, remainder

    def _accumulate_hardware_epoch(
        self,
        state: ArrayState,
        groups: Dict[int, Tuple[object, List[int]]],
        remappers: Dict[int, HardwareRemapper],
        within: np.ndarray,
        between: np.ndarray,
        length: int,
        track_reads: bool,
    ) -> None:
        orientation = self.architecture.orientation
        lane_count = self.architecture.lane_count
        for key, (program, lanes) in groups.items():
            writes, reads = remappers[key].profile(length, within)
            lane_weights = np.zeros(lane_count)
            np.add.at(lane_weights, between[np.asarray(lanes)], 1.0)
            state.add_lane_profile(writes, lane_weights, orientation, "write")
            if track_reads:
                state.add_lane_profile(reads, lane_weights, orientation, "read")
