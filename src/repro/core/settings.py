"""The unified :class:`SimulationSettings` API.

One frozen dataclass carries every knob that shapes *how* a simulation
runs — seed, fast-forward, read tracking, and telemetry options — and
is passed down whole through the simulator, sweeps, job specs, engine,
fleet and CLI. Knobs are validated here, once, so a bad value is
refused where it is written rather than deep inside a run.

Telemetry options (``log_level`` / ``trace_path`` / ``progress``) ride
along for the CLI's benefit; they never influence results and are
excluded from job content hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


@dataclass(frozen=True)
class SimulationSettings:
    """Everything that shapes how (not what) a simulation runs.

    Attributes:
        seed: Base RNG seed; all random streams derive from it.
        fastforward: Use the analytic steady-state fast-forward
            (:mod:`repro.core.fastforward`) instead of the batched
            kernel. Bit-identical on eligible (periodic St/Bs/B1)
            configs; ineligible configs are refused via diagnostic
            RPR011, and horizons whose counts float64 cannot hold
            exactly via RPR019. Hash-excluded — it can never change
            results.
        track_reads: Accumulate the read distribution too (disable to
            halve accumulation cost on large sweeps).
        log_level: Telemetry: stdlib-logging level name to bridge events
            to (``None`` = no logging bridge).
        trace_path: Telemetry: JSONL trace file to append events to.
        progress: Telemetry: render compact progress lines on stderr.
    """

    seed: int = 0
    fastforward: bool = False
    track_reads: bool = True
    log_level: Optional[str] = None
    trace_path: Optional[str] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if (
            self.log_level is not None
            and str(self.log_level).lower() not in _LOG_LEVELS
        ):
            raise ValueError(
                f"log_level must be one of {_LOG_LEVELS}, "
                f"got {self.log_level!r}"
            )

    def replace(self, **changes) -> "SimulationSettings":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)
