"""The unified :class:`SimulationSettings` API.

One frozen dataclass carries every knob that shapes *how* a simulation
runs — seed, kernel, chunk size, read tracking, and telemetry options —
and is passed down whole through the simulator, sweeps, job specs,
engine, fleet and CLI. Execution knobs are validated here, once, so a
bad value is refused where it is written rather than deep inside a
kernel.

Telemetry options (``log_level`` / ``trace_path`` / ``progress``) ride
along for the CLI's benefit; they never influence results and are
excluded from job content hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.accuracy import EVALUATORS
from repro.core.kernel import KERNELS

_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


@dataclass(frozen=True)
class SimulationSettings:
    """Everything that shapes how (not what) a simulation runs.

    Attributes:
        seed: Base RNG seed; all random streams derive from it.
        kernel: Execution path — ``"batched"`` (chunked GEMM) or
            ``"epoch"`` (per-epoch oracle loop). Bit-identical results.
        chunk_size: Batched-kernel epochs per GEMM (``None`` = default,
            otherwise at least 1); a pure speed/memory knob.
        evaluator: Functional-evaluation backend — ``"compiled"`` (SWAR
            bitplane batches) or ``"interpreted"`` (per-instruction
            loop). Bit-identical results; a pure speed knob, so it is
            excluded from job content hashes like the kernel knobs.
        fastforward: Use the analytic steady-state fast-forward
            (:mod:`repro.core.fastforward`) instead of simulating every
            epoch. Bit-identical on eligible (periodic St/Bs/B1)
            configs; ineligible configs are refused via diagnostic
            RPR011. Hash-excluded — it can never change results.
        track_reads: Accumulate the read distribution too (disable to
            halve accumulation cost on large sweeps).
        log_level: Telemetry: stdlib-logging level name to bridge events
            to (``None`` = no logging bridge).
        trace_path: Telemetry: JSONL trace file to append events to.
        progress: Telemetry: render compact progress lines on stderr.
    """

    seed: int = 0
    kernel: str = "batched"
    chunk_size: Optional[int] = None
    evaluator: str = "compiled"
    fastforward: bool = False
    track_reads: bool = True
    log_level: Optional[str] = None
    trace_path: Optional[str] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be None or positive, got {self.chunk_size!r}"
            )
        if self.evaluator not in EVALUATORS:
            raise ValueError(
                f"evaluator must be one of {EVALUATORS}, "
                f"got {self.evaluator!r}"
            )
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
