"""Declarative experiment jobs with stable content hashes.

A :class:`JobSpec` captures everything that determines a simulation's
outcome — workload (by full parameter signature), balance configuration,
architecture, iteration count, seed, and whether reads are tracked — and
hashes it. Two specs with equal hashes produce bit-identical results, so
the hash doubles as the result store's cache key and as the checkpoint
identity for resumable grids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.array.architecture import PIMArchitecture
from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.workloads.base import Workload

#: Bump when the simulation semantics change in a way that invalidates
#: previously cached results.
#:
#: v2: random shuffling (``Ra``) draws argsorted uniform blocks (the
#: batched epoch kernel's convention) instead of ``rng.permutation``, so
#: v1 results with a random strategy are not reproducible anymore.
#:
#: v3: ``compare_ge`` synthesizes carry-only adders instead of full
#: adders whose sum bits were dead writes, shrinking the comparator's
#: gate count — convolution/BNN wear profiles differ from v2.
SPEC_VERSION = 3


@dataclass(frozen=True)
class JobSpec:
    """One unit of simulation work, content-addressable.

    Attributes:
        workload: The benchmark kernel (identified by its ``signature``).
        architecture: Target PIM array.
        config: Load-balancing configuration.
        iterations: Repetitions to simulate.
        seed: Base RNG seed (the simulator derives all streams from it).
        track_reads: Whether the read distribution is accumulated.
        kernel: Execution path (``"batched"``/``"epoch"``). Excluded
            from the content hash: both kernels are bit-identical, so a
            cached result answers either.
        chunk_size: Batched kernel epochs-per-GEMM (``None`` = default).
            Also hash-excluded — it affects speed and memory only.
        fastforward: Run the analytic steady-state fast-forward instead
            of simulating every epoch. Hash-excluded: on eligible
            configs it is bit-identical, and ineligible configs are
            refused (RPR011) rather than approximated.
    """

    workload: Workload
    architecture: PIMArchitecture
    config: BalanceConfig = BalanceConfig()
    iterations: int = 100_000
    seed: int = 0
    track_reads: bool = False
    kernel: str = "batched"
    chunk_size: Optional[int] = None
    fastforward: bool = False

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        self.settings  # building the settings validates kernel/chunk_size

    @classmethod
    def from_settings(
        cls,
        workload: Workload,
        architecture: PIMArchitecture,
        config: BalanceConfig = BalanceConfig(),
        iterations: int = 100_000,
        settings: Optional[SimulationSettings] = None,
    ) -> "JobSpec":
        """Build a spec from a :class:`SimulationSettings`.

        The settings' telemetry options are sink configuration, not
        simulation identity, so they do not appear on the spec (and thus
        never reach the content hash). A spec built this way hashes
        identically to one built field by field.
        """
        settings = settings if settings is not None else SimulationSettings()
        return cls(
            workload=workload,
            architecture=architecture,
            config=config,
            iterations=iterations,
            seed=settings.seed,
            track_reads=settings.track_reads,
            kernel=settings.kernel,
            chunk_size=settings.chunk_size,
            fastforward=settings.fastforward,
        )

    @property
    def settings(self) -> SimulationSettings:
        """The spec's execution knobs as a :class:`SimulationSettings`."""
        return SimulationSettings(
            seed=self.seed,
            kernel=self.kernel,
            chunk_size=self.chunk_size,
            fastforward=self.fastforward,
            track_reads=self.track_reads,
        )

    def identity(self) -> dict:
        """The canonical JSON-able dict the content hash is computed over."""
        arch = self.architecture
        return {
            "spec_version": SPEC_VERSION,
            "workload": self.workload.signature,
            "config": self.config.label,
            "recompile_interval": self.config.recompile_interval,
            "architecture": arch.name,
            "rows": arch.geometry.rows,
            "cols": arch.geometry.cols,
            "orientation": arch.orientation.value,
            "presets_output": arch.presets_output,
            "library": arch.library.name,
            "technology": arch.technology.name,
            "iterations": self.iterations,
            "seed": self.seed,
            "track_reads": self.track_reads,
        }

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical identity (hex, 64 chars)."""
        canonical = json.dumps(self.identity(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable job label for progress reporting."""
        return (
            f"{self.workload.name} {self.config.label} "
            f"x{self.iterations} seed={self.seed}"
        )
