"""Data-dependent switching: when a "write" doesn't actually switch.

The paper (and this reproduction's default accounting) charges every gate
output one write. Physically, an MTJ or filament only *stresses* when its
state changes: a write that re-stores the current value is free or nearly
free for some technologies. Whether that slack helps depends on the data:
this module measures *actual per-cell switch counts* by functionally
evaluating a lane program on sampled operands and comparing each written
value against the cell's previous content.

The headline finding (benchmark E21): on random operands, roughly half of
all gate writes switch the cell, so a switch-only endurance model buys
about 2x — a bounded, data-dependent correction on top of the paper's
conservative accounting, not a change to its conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.accuracy import EVALUATORS
from repro.gates.gate import Gate
from repro.synth.bits import BitVector
from repro.synth.program import (
    ConstBit,
    ExternalBit,
    LaneProgram,
    OperandBit,
    ReadInstr,
    WriteInstr,
)


@dataclass(frozen=True)
class SwitchingProfile:
    """Measured write-vs-switch statistics for a lane program.

    Attributes:
        writes: Per-logical-bit write counts per iteration (the paper's
            accounting; presets excluded — a preset always switches or not
            together with its gate in this model).
        switches: Per-logical-bit *average* state-change counts per
            iteration over the sampled operands.
        samples: Number of operand samples measured.
    """

    writes: np.ndarray
    switches: np.ndarray
    samples: int

    @property
    def switch_fraction(self) -> float:
        """Fraction of writes that actually change the cell state."""
        total_writes = float(self.writes.sum())
        if total_writes == 0:
            return 0.0
        return float(self.switches.sum()) / total_writes

    @property
    def lifetime_factor(self) -> float:
        """Lifetime multiplier if only switches consume endurance.

        Ratio of the hottest cell's write count to the hottest cell's
        switch count (first-failure lifetimes are set by the maxima).
        """
        peak_switches = float(self.switches.max())
        if peak_switches == 0:
            return float("inf")
        return float(self.writes.max()) / peak_switches


def measure_switching(
    program: LaneProgram,
    samples: int = 64,
    rng: "np.random.Generator | int | None" = None,
    externals_width: Optional[Dict[str, int]] = None,
    evaluator: str = "compiled",
) -> SwitchingProfile:
    """Evaluate ``program`` on random operands, counting actual switches.

    Cells start in the 0 state (a fresh/erased array); each write compares
    the new value with the cell's current content and counts a switch only
    on change. State persists across iterations (samples), as it would in
    hardware.

    Args:
        program: The lane program to measure.
        samples: Number of random-operand iterations.
        rng: Seed or generator.
        externals_width: Widths of any external transfer streams the
            program consumes (random bits are supplied per iteration).
        evaluator: ``"compiled"`` counts all iterations at once on uint64
            bitplanes (:meth:`CompiledProgram.switch_counts_batch`, with
            the cross-iteration carry as a draw-axis shift);
            ``"interpreted"`` walks the per-instruction loop. Identical
            RNG stream, bit-identical profiles.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if evaluator not in EVALUATORS:
        raise ValueError(
            f"evaluator must be one of {EVALUATORS}, got {evaluator!r}"
        )
    generator = np.random.default_rng(rng)
    widths = {name: len(addrs) for name, addrs in program.inputs.items()}
    external_widths = dict(externals_width or {})

    writes = program.write_counts().astype(float)

    if evaluator == "compiled":
        operand_draws = {name: [] for name in widths}
        external_rows = {tag: [] for tag in external_widths}
        for _ in range(samples):
            for name, width in widths.items():
                operand_draws[name].append(
                    int(generator.integers(0, 2**width))
                )
            for tag, width in external_widths.items():
                external_rows[tag].append(
                    generator.integers(0, 2, size=width)
                )
        counts = program.compiled().switch_counts_batch(
            operand_draws,
            externals={
                tag: np.asarray(rows) for tag, rows in external_rows.items()
            }
            or None,
            draws=samples,
        )
        return SwitchingProfile(
            writes=writes,
            switches=counts.astype(np.float64) / samples,
            samples=samples,
        )

    switches = np.zeros(program.footprint)
    memory: Dict[int, int] = {}

    def store(address: int, value: int) -> None:
        if memory.get(address, 0) != value:
            switches[address] += 1
        memory[address] = value

    for _ in range(samples):
        operand_bits = {
            name: BitVector.value_bits(
                int(generator.integers(0, 2**width)), width
            )
            for name, width in widths.items()
        }
        externals = {
            tag: [int(b) for b in generator.integers(0, 2, size=width)]
            for tag, width in external_widths.items()
        }
        for instr in program.instructions:
            if isinstance(instr, WriteInstr):
                source = instr.source
                if source is None:
                    value = 0
                elif isinstance(source, ConstBit):
                    value = source.value
                elif isinstance(source, OperandBit):
                    value = operand_bits[source.name][source.index]
                elif isinstance(source, ExternalBit):
                    value = externals[source.tag][source.index]
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown source {source!r}")
                store(instr.address, value)
            elif isinstance(instr, Gate):
                inputs = tuple(memory[a] for a in instr.inputs)
                store(instr.output, instr.evaluate(inputs))
            elif isinstance(instr, ReadInstr):
                memory[instr.address]  # read disturb handled elsewhere
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown instruction {instr!r}")

    return SwitchingProfile(
        writes=writes,
        switches=switches / samples,
        samples=samples,
    )
