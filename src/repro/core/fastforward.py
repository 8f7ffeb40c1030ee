"""Analytic steady-state fast-forward for periodic balance configurations.

The hardware remapper already exploits periodicity *within* an epoch:
renaming advances by a fixed permutation ``tau`` per iteration, so a
million iterations reduce to cycle counting (``repro.balance.hardware``).
This module applies the same idea one level up, *across* epochs. The
deterministic software strategies are pure functions of the epoch index
with short periods:

* ``St`` — identity every epoch: period 1;
* ``Bs`` — shift by ``8 * epoch mod size``: period ``size / gcd(8, size)``;
* ``B1`` — shift by ``epoch mod size``: period ``size``.

For a config whose within- and between-lane strategies are all drawn
from this set, the per-epoch wear delta of full-length epochs repeats
with period ``P = lcm(P_within, P_between)`` — hardware re-mapping
included, because renaming restarts from the software mapping at every
recompile and its profile depends only on ``(epoch length, within map)``.
A run of ``E`` full epochs therefore splits as ``E = q * P + r``, and

``total = q * S_period + S_prefix(r) + S_remainder``

where ``S_period`` sums one period of epoch contributions, ``S_prefix``
the first ``r`` of them, and ``S_remainder`` the final short epoch (if
``iterations`` is not a multiple of the recompile interval). All
quantities are integer-valued float64, so while every counter stays
below 2^53 the analytic sum is **bit-identical** to simulating every
epoch — lifetime and ``failure_timeline`` answers in O(period) time and
memory instead of O(iterations). Past 2^53 counters would round, so the
simulator refuses such horizons up front (diagnostic RPR019 via
:func:`repro.verify.check_count_horizon`).

Random shuffling (``Ra``) draws a fresh permutation per epoch and
wear-aware mapping (``Wa``) feeds accumulated state back into the next
epoch's assignment — neither is periodic, so such configs are refused
(diagnostic RPR011 via :func:`repro.verify.check_fastforward`) rather
than silently approximated.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.balance.hardware import HardwareRemapper
from repro.balance.software import StrategyKind
from repro.core.kernel import epoch_schedule, make_epoch_maps
from repro.core.scratch import SCRATCH_POOL
from repro.synth.program import LaneProgram
from repro.telemetry import get_telemetry

#: Strategies whose per-epoch permutation is a pure periodic function of
#: the epoch index. Ra (fresh randomness per epoch) and Wa (wear-state
#: feedback) are excluded by construction.
PERIODIC_KINDS = frozenset(
    {StrategyKind.STATIC, StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT}
)

#: Bits per byte-shift step (mirrors ``repro.balance.mapping``).
_BITS_PER_BYTE = 8


def strategy_period(kind: StrategyKind, size: int) -> Optional[int]:
    """The epoch period of a software strategy over ``size`` addresses.

    Returns ``None`` for non-periodic strategies (``Ra``, ``Wa``).
    """
    if size < 1:
        raise ValueError("size must be positive")
    if kind is StrategyKind.STATIC:
        return 1
    if kind is StrategyKind.BYTE_SHIFT:
        return size // gcd(_BITS_PER_BYTE, size)
    if kind is StrategyKind.BIT_SHIFT:
        return size
    return None


def fastforward_eligible(config: BalanceConfig) -> bool:
    """Whether ``config``'s epoch deltas are provably periodic."""
    return (
        config.within in PERIODIC_KINDS and config.between in PERIODIC_KINDS
    )


def fastforward_period(
    config: BalanceConfig, lane_size: int, lane_count: int
) -> Optional[int]:
    """The joint epoch period of ``config``, or ``None`` if ineligible.

    The combined within/between mapping repeats when both component
    streams do: ``lcm(P_within, P_between)``. Hardware re-mapping does
    not enter the period — it restarts at every recompile boundary, so
    its epoch profile is a function of the (periodic) within map alone.
    """
    within = strategy_period(config.within, lane_size)
    between = strategy_period(config.between, lane_count)
    if within is None or between is None:
        return None
    return within * between // gcd(within, between)


def run_fastforward_epochs(
    architecture: PIMArchitecture,
    config: BalanceConfig,
    state: ArrayState,
    groups: Dict[int, Tuple[LaneProgram, List[int]]],
    iterations: int,
    *,
    remappers: Optional[Dict[int, HardwareRemapper]] = None,
    track_reads: bool = True,
) -> int:
    """Accumulate a whole run into ``state`` analytically.

    Bit-identical to :func:`repro.core.kernel.run_batched_epochs` (and
    hence to the per-epoch reference :func:`~repro.core.kernel.run_epoch_loop`)
    on eligible configs, at O(period) cost in time and memory: at most
    ``min(P, E)`` full epochs plus one remainder epoch are materialized,
    however many millions the horizon spans. Exact while every counter
    stays below 2**53; the simulator refuses longer horizons (RPR019).

    Args:
        architecture: The PIM design (geometry, orientation, pre-sets).
        config: Load-balancing configuration; must be fast-forward
            eligible (``St``/``Bs``/``B1`` strategies only).
        state: Counters to update.
        groups: ``id(program) -> (program, logical_lanes)``.
        iterations: Total repetitions to account for.
        remappers: Per-group :class:`HardwareRemapper`, required when
            ``config.hardware`` is set.
        track_reads: Also accumulate the read distribution.

    Returns:
        The number of *logical* epochs the run covers (identical to the
        simulated paths' return, for result parity).
    """
    lane_size = architecture.lane_size
    lane_count = architecture.lane_count
    orientation = architecture.orientation
    if not fastforward_eligible(config):
        raise ValueError(
            f"config {config.label} is not fast-forward eligible: "
            "Ra/Wa epoch deltas are not periodic (RPR011)"
        )
    if config.hardware and remappers is None:
        raise ValueError("hardware re-mapping requires remappers")
    # St x St (+Hw) is a single continuous epoch; period 1 by definition.
    interval, full_epochs, remainder = epoch_schedule(config, iterations)

    total_epochs = full_epochs + (1 if remainder else 0)
    period = fastforward_period(config, lane_size, lane_count)
    q, r = divmod(full_epochs, period)
    block = min(period, full_epochs)  # epochs actually materialized
    # Epoch e (mod P) occurs q times, plus once more for the first r
    # phase positions — integer multiplicities, exact in float64.
    multiplicity = q + (np.arange(block, dtype=np.int64) < r)

    # Static per-group profiles (mirrors run_batched_epochs).
    lane_arrays: Dict[int, np.ndarray] = {}
    write_profiles: Dict[int, np.ndarray] = {}
    read_profiles: Dict[int, np.ndarray] = {}
    for key, (program, lanes) in groups.items():
        lane_arrays[key] = np.asarray(lanes, dtype=np.int64)
        if config.hardware:
            continue
        if program.footprint > lane_size:
            raise ValueError(
                f"program {program.name!r} needs {program.footprint} bits, "
                f"lane has {lane_size}"
            )
        write_profiles[key] = program.write_profile(
            lane_size, include_presets=architecture.presets_output
        )
        if track_reads:
            read_profiles[key] = program.read_profile(lane_size)

    def accumulate(
        count: int,
        epoch_start: int,
        epoch_length: int,
        weight_scale: "np.ndarray | float",
    ) -> None:
        """One GEMM covering ``count`` epochs scaled by ``weight_scale``."""
        within_maps, between_maps = make_epoch_maps(
            config.within,
            config.between,
            lane_size,
            lane_count,
            count,
            epoch_start=epoch_start,
        )
        rows = np.arange(count)[:, None]
        for key in groups:
            lanes = lane_arrays[key]
            if config.hardware:
                chunk_lengths = np.full(count, epoch_length, dtype=np.int64)
                profile_writes, profile_reads = remappers[key].profile_many(
                    chunk_lengths, within_maps
                )
                # Remapper profiles carry the epoch length already; the
                # lane weight carries only the period multiplicity.
                weight_values: "np.ndarray | float" = weight_scale
            else:
                profile_writes = SCRATCH_POOL.get(
                    "fastforward.profile_writes", (count, lane_size)
                )
                profile_writes[rows, within_maps] = write_profiles[key]
                if track_reads:
                    profile_reads = SCRATCH_POOL.get(
                        "fastforward.profile_reads", (count, lane_size)
                    )
                    profile_reads[rows, within_maps] = read_profiles[key]
                weight_values = np.multiply(weight_scale, float(epoch_length))
            lane_weights = SCRATCH_POOL.get(
                "fastforward.lane_weights", (count, lane_count), zero=True
            )
            lane_weights[rows, between_maps[:, lanes]] = weight_values
            state.add_lane_profiles(
                profile_writes, lane_weights, orientation, "write"
            )
            if track_reads:
                state.add_lane_profiles(
                    profile_reads, lane_weights, orientation, "read"
                )

    tele = get_telemetry()
    with tele.timed_phase("fastforward", period=period):
        if block:
            accumulate(
                block,
                epoch_start=0,
                epoch_length=interval,
                weight_scale=multiplicity.astype(np.float64)[:, None],
            )
        if remainder:
            accumulate(
                1,
                epoch_start=full_epochs,
                epoch_length=remainder,
                weight_scale=1.0,
            )
    tele.count("fastforward.runs")
    tele.gauge("fastforward.period", period)
    materialized = block + (1 if remainder else 0)
    tele.count("fastforward.epochs_collapsed", total_epochs - materialized)
    return total_epochs
