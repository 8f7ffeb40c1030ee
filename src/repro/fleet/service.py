"""The fleet service: a long-lived, checkpointed endurance campaign.

:class:`FleetService` extends the one-shot :class:`ExperimentEngine`
batch model into a job layer for population-scale questions. A campaign
runs in three phases:

1. **Calibrate** — simulate each cohort's wear profile once through the
   experiment engine (store-cached, shard per cohort), giving the
   per-cell write *rates* every array in the cohort shares.
2. **Advance** — a vectorized virtual-day loop: draw the day's request
   count from the traffic model, split it over cohorts, dispatch
   iteration budgets to live arrays (capped by the Bitlet-style
   throughput capacity), and retire arrays whose cumulative iterations
   cross their closed-form death thresholds.
3. **Report** — fold the death days into survival analytics
   (:mod:`repro.fleet.survival`) and a hashable
   :class:`~repro.fleet.report.FleetReport`.

Nothing in the day loop re-simulates wear: thresholds come from
:meth:`Population.death_thresholds`, which reuses the exact
:mod:`repro.core.failure` closed forms — that is what makes a 10,000
array × 10 year campaign tractable *and* what pins the degenerate
one-array case bit-exact to :func:`~repro.core.failure.failure_timeline`.

Campaign state (cumulative iterations, death days, traffic RNG state)
checkpoints through :class:`~repro.fleet.checkpoint.CheckpointManager`;
a killed campaign resumes from its last checkpoint and produces a final
report bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.failure import minimum_footprint
from repro.engine.runner import ExperimentEngine, require_ok
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.fleet.checkpoint import CheckpointManager
from repro.fleet.population import Population, PopulationSpec
from repro.fleet.report import FleetReport
from repro.fleet.survival import (
    annual_replacement_rate,
    canonical_hash,
    capacity_headroom,
    kaplan_meier,
)
from repro.fleet.traffic import (
    TrafficSpec,
    TrafficState,
    capacity_iterations,
    draw_day,
    draw_window,
    rng_state_from_json,
    rng_state_to_json,
    split_requests,
    split_requests_window,
    traffic_rng,
    window_draw_plan,
)
from repro.telemetry import get_telemetry
from repro.verify import VerificationError, verify_fleet_spec

#: The recognized dispatch policies.
DISPATCH_POLICIES = ("even", "least_worn")

#: Safety margin for :func:`no_death_window`: thresholds are shrunk by
#: this relative amount before the days-to-crossing division, which
#: covers the worst-case accumulated rounding of up to ~1e6 consecutive
#: float64 additions (k ulps after k adds, k * 2^-53 ~ 1.1e-10 at
#: k = 1e6) with four orders of magnitude to spare.
WINDOW_MARGIN = 1e-6

#: Hard cap on a single no-death window, keeping the rounding-drift
#: analysis behind :data:`WINDOW_MARGIN` trivially valid.
MAX_WINDOW = 1_000_000


def no_death_window(
    thresholds: np.ndarray,
    cumulative: np.ndarray,
    death_day: np.ndarray,
    per_day_max: np.ndarray,
    horizon: int,
) -> int:
    """Days the campaign can advance with **no possible** death.

    Each live array accumulates at most ``per_day_max`` iterations per
    day (its capacity, optionally tightened by the day's known maximum
    demand under deterministic traffic), so it cannot reach its death
    threshold for at least ``floor((threshold * (1 - margin) -
    cumulative) / per_day_max)`` days; the fleet-wide window is the
    minimum over live arrays, clipped to ``horizon``. The margin makes
    the bound robust to the rounding drift of repeated float64
    accumulation, so *skipping the per-day crossing checks inside the
    window is exact, not approximate* — the per-day loop could not have
    retired any array on those days either.

    Returns 0 when some live array might die within a day (callers fall
    back to per-day stepping) and ``horizon`` when nothing is live.
    """
    if horizon <= 0:
        return 0
    alive = death_day < 0
    if not alive.any():
        return min(horizon, MAX_WINDOW)
    gap = thresholds[alive] * (1.0 - WINDOW_MARGIN) - cumulative[alive]
    rate = per_day_max[alive]
    with np.errstate(divide="ignore"):
        days = np.where(rate > 0, np.floor(gap / np.maximum(rate, 1e-300)), np.inf)
    bound = float(days.min())
    if not np.isfinite(bound):
        return min(horizon, MAX_WINDOW)
    return int(max(0, min(bound, horizon, MAX_WINDOW)))


@dataclass(frozen=True)
class FleetSpec:
    """Everything that determines a fleet campaign's outcome.

    Like :class:`~repro.engine.spec.JobSpec`, execution knobs that
    cannot change results (``fastforward``, ``fleet_workers``,
    ``window``) are carried for convenience but excluded from the
    content hash, so a campaign keeps its identity — and its
    checkpoints — across them.

    Attributes:
        population: The fleet's makeup.
        traffic: The arrival process.
        days: Campaign horizon in virtual days.
        seed: Base seed for every campaign RNG stream.
        dispatch: ``"even"`` splits a cohort's demand uniformly over its
            live arrays; ``"least_worn"`` allocates proportionally to
            remaining endurance headroom (software wear-leveling at
            fleet scale).
        duty_cycle: Fraction of each 86400 s day an array may compute.
        slo: Confidence level for the capacity-headroom analysis.
        rows: Cohort-calibration array rows.
        cols: Cohort-calibration array cols.
        cohort_iterations: Iterations for each cohort's wear simulation.
        fastforward: Calibrate cohorts through the analytic steady-state
            fast-forward when their configs are eligible (hash-excluded;
            bit-identical where accepted, refused via RPR011 otherwise).
        fleet_workers: Accepted for compatibility with callers that
            still pass it (hash-excluded); the only valid value is 1.
            The day loop always runs serially in-process.
        window: Maximum no-death window size in days (hash-excluded;
            0 disables window stepping). When a conservative bound
            proves no array can die for the next N ≥ 2 days, the loop
            advances the whole window with batched arithmetic and
            batched (stream-order-identical) traffic draws instead of
            day-at-a-time bookkeeping. Per-day ``fleet_day`` telemetry
            events collapse into per-window ``fleet_window`` events for
            the days so covered; results are unchanged.
    """

    population: PopulationSpec = PopulationSpec()
    traffic: TrafficSpec = TrafficSpec()
    days: int = 365
    seed: int = 0
    dispatch: str = "even"
    duty_cycle: float = 1.0
    slo: float = 0.999
    rows: int = 1024
    cols: int = 1024
    cohort_iterations: int = 2000
    fastforward: bool = False
    fleet_workers: int = 1
    window: int = 0

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be positive")
        if self.dispatch not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {self.dispatch!r}; "
                f"choose from {DISPATCH_POLICIES}"
            )
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")
        if not 0.0 < self.slo < 1.0:
            raise ValueError("slo must be in (0, 1)")
        if self.cohort_iterations < 1:
            raise ValueError("cohort_iterations must be positive")
        if self.fleet_workers != 1:
            raise ValueError(
                f"fleet_workers={self.fleet_workers} is not supported: the "
                "parallel day loop was removed and the day loop is serial; "
                "fleet_workers must be 1"
            )
        if self.window < 0:
            raise ValueError("window must be non-negative")

    def identity(self) -> dict:
        """The canonical JSON-able dict the content hash covers."""
        return {
            "fleet_version": 1,
            "population": self.population.identity(),
            "traffic": self.traffic.identity(),
            "days": self.days,
            "seed": self.seed,
            "dispatch": self.dispatch,
            "duty_cycle": self.duty_cycle,
            "slo": self.slo,
            "rows": self.rows,
            "cols": self.cols,
            "cohort_iterations": self.cohort_iterations,
        }

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical identity (hex, 64 chars)."""
        return canonical_hash(self.identity())


@dataclass
class _CampaignState:
    """The mutable state the day loop advances (and checkpoints)."""

    day: int
    cumulative: np.ndarray  # float64, iterations served per array
    death_day: np.ndarray  # int64, -1 = alive
    served: int
    dropped: int
    traffic_state: TrafficState
    rng: np.random.Generator

    def to_json(self) -> Dict:
        return {
            "day": int(self.day),
            "cumulative": [float(x) for x in self.cumulative],
            "death_day": [int(d) for d in self.death_day],
            "served": int(self.served),
            "dropped": int(self.dropped),
            "traffic_state": self.traffic_state.to_json(),
            "rng_state": rng_state_to_json(self.rng),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "_CampaignState":
        return cls(
            day=int(payload["day"]),
            cumulative=np.array(payload["cumulative"], dtype=float),
            death_day=np.array(payload["death_day"], dtype=np.int64),
            served=int(payload["served"]),
            dropped=int(payload["dropped"]),
            traffic_state=TrafficState.from_json(payload["traffic_state"]),
            rng=rng_state_from_json(payload["rng_state"]),
        )


class FleetService:
    """Runs fleet campaigns: calibrate, advance, checkpoint, report.

    Args:
        spec: The campaign.
        store: Optional result store for cohort calibrations; shared
            across campaigns, sharded per cohort key
            (:meth:`ResultStore.shard`), so repeated campaigns over the
            same cohorts calibrate from cache.
        checkpoint_dir: Where to keep campaign checkpoints; ``None``
            disables checkpointing (and resuming).
        checkpoint_every: Write a checkpoint after every N completed
            virtual days (0 = only at explicit stops). Not part of the
            campaign identity: any checkpoint cadence resumes to the
            same final report.
        jobs: Worker processes for cohort calibration (engine pool).
    """

    def __init__(
        self,
        spec: FleetSpec,
        store: Optional[ResultStore] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        jobs: int = 1,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.spec = spec
        self.store = store
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, spec.content_hash)
            if checkpoint_dir is not None
            else None
        )
        self.checkpoint_every = checkpoint_every
        self.jobs = jobs
        self.population = Population.build(spec.population)
        self.architecture = default_architecture(spec.rows, spec.cols)

    # -- phase 1: cohort calibration ------------------------------------

    def cohort_specs(self) -> List[JobSpec]:
        """One calibration job per cohort, on the campaign settings."""
        return [
            JobSpec(
                workload=cohort.build_workload(),
                architecture=self.architecture,
                config=BalanceConfig.from_label(cohort.config),
                iterations=self.spec.cohort_iterations,
                seed=self.spec.seed,
                fastforward=self.spec.fastforward,
            )
            for cohort in self.spec.population.cohorts
        ]

    def calibrate(self) -> Dict:
        """Simulate every cohort's wear profile (store-cached).

        Returns a dict with ``results`` (per-cohort simulation results),
        ``required_offsets`` (per-cohort minimum footprints, only
        computed when the population repacks), ``ops_per_iteration``
        (per-cohort write operations per iteration — the Bitlet-style
        cost that converts requests into array-seconds), and engine
        ``statuses`` per cohort for the runtime section.
        """
        results = []
        statuses = []
        for cohort, spec in zip(self.spec.population.cohorts, self.cohort_specs()):
            # Explicit None check: ResultStore defines __len__, so an
            # empty store is falsy and a bare truthiness test would
            # silently disable caching on first use.
            shard = (
                self.store.shard(cohort.key)
                if self.store is not None
                else None
            )
            engine = ExperimentEngine(store=shard, jobs=self.jobs)
            outcome = require_ok([engine.run_one(spec)])[0]
            results.append(outcome.result)
            statuses.append(outcome.status.value)
        required_offsets: List[Optional[int]] = [None] * len(results)
        if self.spec.population.repacking:
            required_offsets = [
                minimum_footprint(cohort.build_workload(), self.architecture)
                for cohort in self.spec.population.cohorts
            ]
        ops_per_iteration = [
            float(result.state.write_counts.sum()) / result.iterations
            for result in results
        ]
        return {
            "results": results,
            "required_offsets": required_offsets,
            "ops_per_iteration": ops_per_iteration,
            "statuses": statuses,
        }

    def _capacities(self, ops_per_iteration: Sequence[float]) -> np.ndarray:
        """Per-array iteration capacity per virtual day.

        An iteration costs ``ops_per_iteration * op_latency_s`` seconds
        of array time; capacity is the duty-cycled day divided by that.
        """
        capacities = np.empty(self.population.n_arrays, dtype=float)
        for array in range(self.population.n_arrays):
            cohort = int(self.population.cohort_index[array])
            latency = (
                ops_per_iteration[cohort]
                * self.population.technology_of(array).op_latency_s
            )
            capacities[array] = capacity_iterations(
                latency, self.spec.duty_cycle
            )
        return capacities

    # -- phase 2: the day loop ------------------------------------------

    def _dispatch(
        self,
        demand_iterations: float,
        alive: np.ndarray,
        state: _CampaignState,
        thresholds: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        """Allocate one cohort-day of demand; returns iterations served."""
        caps = capacities[alive]
        if self.spec.dispatch == "even":
            allocation = np.minimum(demand_iterations / len(alive), caps)
        else:  # least_worn
            headroom = np.maximum(
                thresholds[alive] - state.cumulative[alive], 0.0
            )
            total = headroom.sum()
            if total <= 0:
                # Everyone is at the brink; fall back to an even split.
                share = np.full(len(alive), 1.0 / len(alive))
            else:
                share = headroom / total
            allocation = np.minimum(demand_iterations * share, caps)
        state.cumulative[alive] += allocation
        return float(allocation.sum())

    def _per_day_max(self, capacities: np.ndarray) -> np.ndarray:
        """Per-array upper bound on iterations accumulated in one day.

        Allocations are always capped by capacity; under deterministic
        traffic the day's total demand is known too, tightening the
        bound per cohort. Feeds :func:`no_death_window`.
        """
        per_day = capacities.copy()
        if self.spec.traffic.model == "deterministic":
            requests = int(round(self.spec.traffic.rate))
            for index, cohort in enumerate(self.spec.population.cohorts):
                members = self.population.arrays_in_cohort(index)
                cap = float(requests * cohort.iterations_per_request)
                per_day[members] = np.minimum(per_day[members], cap)
        return per_day

    def _advance_day(
        self,
        state: _CampaignState,
        thresholds: np.ndarray,
        capacities: np.ndarray,
    ) -> int:
        """One virtual day: draw, split, dispatch, retire crossings."""
        spec = self.spec
        day_served = 0
        requests = draw_day(spec.traffic, state.traffic_state, state.rng)
        per_cohort = split_requests(
            requests, spec.population.cohort_weights, state.rng
        )
        for index, cohort in enumerate(spec.population.cohorts):
            cohort_requests = int(per_cohort[index])
            if cohort_requests == 0:
                continue
            members = self.population.arrays_in_cohort(index)
            alive = members[state.death_day[members] < 0]
            if len(alive) == 0:
                state.dropped += cohort_requests
                continue
            demand = float(cohort_requests * cohort.iterations_per_request)
            served_iters = self._dispatch(
                demand, alive, state, thresholds, capacities
            )
            served_requests = min(
                cohort_requests,
                int(served_iters // cohort.iterations_per_request),
            )
            state.served += served_requests
            state.dropped += cohort_requests - served_requests
            day_served += served_requests
            # Threshold crossings retire arrays at this day.
            crossed = alive[state.cumulative[alive] >= thresholds[alive]]
            state.death_day[crossed] = state.day
        return day_served

    def _advance_window(
        self,
        state: _CampaignState,
        window: int,
        thresholds: np.ndarray,
        capacities: np.ndarray,
    ) -> int:
        """Advance ``window`` guaranteed-death-free days in one batch.

        Traffic draws stay stream-identical to per-day stepping: when
        either half of the per-day (draw, split) pair consumes no RNG —
        deterministic traffic, or a single cohort — the other half
        batches into one vectorized call; otherwise the pair interleaves
        per day exactly as the per-day loop would. Live sets are static
        by the no-death guarantee, so per-cohort state is gathered once,
        accumulated compactly (the same elementwise additions the
        per-day loop applies, so bitwise the same values), and scattered
        back once; threshold-crossing checks are provably skippable
        inside the window.
        """
        spec = self.spec
        cohorts = spec.population.cohorts
        weights = spec.population.cohort_weights
        # The batching decision is the declared, statically-checkable
        # plan of repro.fleet.traffic.window_draw_plan — the same
        # procedure repro.verify.check_draw_plan (RPR016) re-proves
        # stream-exact, so the verifier checks the path actually taken.
        plan = window_draw_plan(spec.traffic.model, len(weights))
        if plan["draw"] != "interleaved":
            totals = draw_window(
                spec.traffic, state.traffic_state, state.rng, window
            )
            splits = split_requests_window(totals, weights, state.rng)
        else:
            # Stochastic multi-cohort: the draw and the split alternate
            # on the same generator each day, so batching either one
            # would reorder the stream — interleave exactly as per-day.
            splits = np.empty((window, len(weights)), dtype=np.int64)
            for offset in range(window):
                total = draw_day(spec.traffic, state.traffic_state, state.rng)
                splits[offset] = split_requests(total, weights, state.rng)
        compact: Dict[int, Optional[list]] = {}
        for index in range(len(cohorts)):
            members = self.population.arrays_in_cohort(index)
            alive = members[state.death_day[members] < 0]
            compact[index] = (
                None
                if len(alive) == 0
                else [
                    alive,
                    state.cumulative[alive],
                    capacities[alive],
                    thresholds[alive],
                ]
            )
        window_served = 0
        constant = (
            spec.traffic.model == "deterministic"
            and len(cohorts) == 1
            and spec.dispatch == "even"
            and compact[0] is not None
            and int(splits[0, 0]) > 0
        )
        if constant:
            # Deterministic single-cohort even dispatch: the allocation
            # vector is the same every day of the window, so hoist it
            # and apply `window` repeated in-place additions — bitwise
            # the per-day accumulation, with no per-day bookkeeping.
            cohort_requests = int(splits[0, 0])
            entry = compact[0]
            assert entry is not None
            alive, cumulative, caps, _ = entry
            ipr = cohorts[0].iterations_per_request
            demand = float(cohort_requests * ipr)
            allocation = np.minimum(demand / len(alive), caps)
            for _ in range(window):
                cumulative += allocation
            served_iters = float(allocation.sum())
            served_requests = min(cohort_requests, int(served_iters // ipr))
            state.served += served_requests * window
            state.dropped += (cohort_requests - served_requests) * window
            window_served = served_requests * window
        else:
            for offset in range(window):
                for index, cohort in enumerate(cohorts):
                    cohort_requests = int(splits[offset, index])
                    if cohort_requests == 0:
                        continue
                    entry = compact[index]
                    if entry is None:
                        state.dropped += cohort_requests
                        continue
                    alive, cumulative, caps, thr = entry
                    demand = float(
                        cohort_requests * cohort.iterations_per_request
                    )
                    if spec.dispatch == "even":
                        allocation = np.minimum(demand / len(alive), caps)
                    else:  # least_worn
                        headroom = np.maximum(thr - cumulative, 0.0)
                        total = headroom.sum()
                        if total <= 0:
                            share = np.full(len(alive), 1.0 / len(alive))
                        else:
                            share = headroom / total
                        allocation = np.minimum(demand * share, caps)
                    cumulative += allocation
                    served_iters = float(allocation.sum())
                    served_requests = min(
                        cohort_requests,
                        int(served_iters // cohort.iterations_per_request),
                    )
                    state.served += served_requests
                    state.dropped += cohort_requests - served_requests
                    window_served += served_requests
        for entry in compact.values():
            if entry is not None:
                state.cumulative[entry[0]] = entry[1]
        state.day += window
        return window_served

    def run(
        self,
        stop_after_day: Optional[int] = None,
        resume: bool = True,
    ) -> Optional[FleetReport]:
        """Run (or resume) the campaign.

        Args:
            stop_after_day: Pause after completing this virtual day —
                a checkpoint is written (checkpointing must be enabled)
                and ``None`` is returned. Simulates a mid-campaign kill
                at a checkpoint boundary.
            resume: Continue from the latest matching checkpoint if one
                exists; ``False`` starts over.

        Returns:
            The final :class:`FleetReport`, or ``None`` when paused
            before the horizon.
        """
        spec = self.spec
        if stop_after_day is not None:
            if self.checkpoints is None:
                raise ValueError(
                    "stop_after_day requires a checkpoint_dir to pause into"
                )
            if not 1 <= stop_after_day:
                raise ValueError("stop_after_day must be >= 1")
        start_wall = time.perf_counter()
        tele = get_telemetry()

        # Static whole-campaign verification before any day runs:
        # window-bound soundness, RNG stream discipline, cohort config
        # validity. Memoized per campaign shape, so resumed/repeated runs
        # pay it once.
        verification = verify_fleet_spec(spec)
        if verification.errors:
            tele.count("fleet.rejected")
            raise VerificationError(verification)

        with tele.timed_phase("fleet.calibrate"):
            calibration = self.calibrate()
        thresholds = self.population.death_thresholds(
            calibration["results"],
            spec.seed,
            calibration["required_offsets"],
        )
        capacities = self._capacities(calibration["ops_per_iteration"])

        state = None
        resumed_from = None
        if resume and self.checkpoints is not None:
            latest = self.checkpoints.latest()
            if latest is not None:
                resumed_from, payload = latest
                state = _CampaignState.from_json(payload)
        if state is None:
            state = _CampaignState(
                day=0,
                cumulative=np.zeros(self.population.n_arrays),
                death_day=np.full(self.population.n_arrays, -1, np.int64),
                served=0,
                dropped=0,
                traffic_state=TrafficState(),
                rng=traffic_rng(spec.seed),
            )

        cohorts = spec.population.cohorts
        last_day = spec.days
        if stop_after_day is not None:
            last_day = min(last_day, stop_after_day)

        tele.emit(
            "fleet_start",
            arrays=self.population.n_arrays,
            days=spec.days,
            cohorts=len(cohorts),
            start_day=state.day,
        )
        windows = 0
        window_days = 0
        checkpoints_written = 0
        per_day_max = self._per_day_max(capacities)
        with tele.timed_phase("fleet.advance"):
            while state.day < last_day:
                bound = 0
                if spec.window >= 2:
                    bound = no_death_window(
                        thresholds,
                        state.cumulative,
                        state.death_day,
                        per_day_max,
                        last_day - state.day,
                    )
                    bound = min(bound, spec.window)
                    if self.checkpoints is not None and self.checkpoint_every:
                        # A window never crosses a checkpoint boundary, so
                        # cadenced checkpoints land on the same days as
                        # per-day stepping.
                        bound = min(
                            bound,
                            self.checkpoint_every
                            - state.day % self.checkpoint_every,
                        )
                if bound >= 2:
                    day_served = self._advance_window(
                        state, bound, thresholds, capacities
                    )
                    windows += 1
                    window_days += bound
                    alive_now = int((state.death_day < 0).sum())
                    tele.count("fleet.days", bound)
                    tele.count("fleet.windows")
                    tele.count("fleet.window_days", bound)
                    tele.emit(
                        "fleet_window",
                        day=state.day,
                        days=bound,
                        alive=alive_now,
                        served=day_served,
                    )
                else:
                    state.day += 1
                    day_served = self._advance_day(
                        state, thresholds, capacities
                    )
                    alive_now = int((state.death_day < 0).sum())
                    tele.count("fleet.days")
                    tele.emit(
                        "fleet_day",
                        day=state.day,
                        alive=alive_now,
                        served=day_served,
                    )
                at_boundary = (
                    self.checkpoint_every
                    and state.day % self.checkpoint_every == 0
                )
                at_stop = stop_after_day is not None and state.day == last_day
                if self.checkpoints is not None and (at_boundary or at_stop):
                    self.checkpoints.save(state.day, state.to_json())
                    checkpoints_written += 1
                    tele.count("fleet.checkpoints")
                    tele.emit("fleet_checkpoint", day=state.day)

        if stop_after_day is not None and state.day < spec.days:
            return None

        report = self._build_report(state, calibration, capacities)
        runtime = dict(report.runtime)
        runtime.update(
            wall_s=round(time.perf_counter() - start_wall, 6),
            resumed_from_day=resumed_from,
            checkpoints_written=checkpoints_written,
            calibration_statuses=calibration["statuses"],
            windows=windows,
            window_days=window_days,
        )
        report = replace(report, runtime=runtime)
        tele.count("fleet.deaths", report.n_deaths)
        # Publish the aggregate counters (fleet.*, pool.*, ...) into the
        # trace so `repro-endurance stats` can render them.
        tele.emit("counters", counters=tele.snapshot()["counters"])
        tele.emit(
            "fleet_end",
            days=state.day,
            alive=report.n_alive,
            deaths=report.n_deaths,
        )
        return report

    # -- phase 3: the report --------------------------------------------

    def _demand_arrays(self, ops_per_iteration: Sequence[float]) -> int:
        """Mean-traffic demand, in concurrently-live arrays.

        Converts the long-run mean request rate into array-equivalents
        through each cohort's per-iteration cost and its members' mean
        capacity — the Bitlet litmus inverted for provisioning.
        """
        capacities = self._capacities(ops_per_iteration)
        weights = self.spec.population.cohort_weights
        demand = 0.0
        for index, cohort in enumerate(self.spec.population.cohorts):
            members = self.population.arrays_in_cohort(index)
            if len(members) == 0:
                continue
            mean_capacity = float(capacities[members].mean())
            daily_iterations = (
                self.spec.traffic.mean_rate
                * float(weights[index])
                * cohort.iterations_per_request
            )
            demand += daily_iterations / mean_capacity
        return int(math.ceil(demand))

    def _build_report(
        self,
        state: _CampaignState,
        calibration: Dict,
        capacities: np.ndarray,
    ) -> FleetReport:
        spec = self.spec
        curve = kaplan_meier(state.death_day.tolist(), spec.days)
        headroom = capacity_headroom(
            self.population.n_arrays,
            self._demand_arrays(calibration["ops_per_iteration"]),
            curve.probability_at(spec.days),
            spec.slo,
        )
        runtime: Dict = {}
        if self.store is not None:
            runtime["manifests"] = sum(
                1 for _ in self.store.iter_manifests()
            )
        return FleetReport(
            spec_identity=spec.identity(),
            spec_hash=spec.content_hash,
            days_simulated=int(state.day),
            death_days=[int(d) for d in state.death_day],
            cohort_keys=[
                spec.population.cohorts[int(c)].key
                for c in self.population.cohort_index
            ],
            technology_names=[
                self.population.technology_of(i).name
                for i in range(self.population.n_arrays)
            ],
            curve=curve,
            annual_replacement_rate=annual_replacement_rate(
                state.death_day.tolist(), spec.days
            ),
            requests_served=int(state.served),
            requests_dropped=int(state.dropped),
            headroom=headroom,
            runtime=runtime,
        )


def run_campaign(
    spec: FleetSpec,
    store: Optional[Union[str, ResultStore]] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    jobs: int = 1,
) -> FleetReport:
    """One-call campaign runner (the CLI entry point's workhorse)."""
    if isinstance(store, str):
        store = ResultStore(store)
    service = FleetService(
        spec,
        store=store,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        jobs=jobs,
    )
    report = service.run()
    assert report is not None  # run() without stop_after_day completes
    return report
