"""Reusable scratch buffers for the hot simulation paths.

The batched epoch kernel (E30), the analytic fast-forward (E34) and the
compiled SWAR evaluator (E32) each need per-chunk or per-batch
workspaces of the same few shapes over and over. :class:`BufferPool`
hands back the same array for the same ``(name, shape, dtype)`` slot,
so those workspaces are allocated once per process instead of once per
chunk. :data:`SCRATCH_POOL` is the process-wide instance they share.

Hits and misses are counted straight into the telemetry counters
``pool.hits`` / ``pool.misses``, so any snapshot (a store manifest, the
fleet service's ``counters`` event) is current without a flush step.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.telemetry import get_telemetry


class BufferPool:
    """Named, shape-keyed reusable scratch buffers.

    ``get(name, shape, dtype)`` returns the *same* array for the same
    ``(name, shape, dtype)`` triple on every call, so per-chunk and
    per-batch workspaces stop allocating. Callers own the discipline:
    a pooled buffer must be fully overwritten (or requested with
    ``zero=True``) before use and must never escape to a consumer that
    outlives the next ``get`` of the same slot.
    """

    def __init__(self) -> None:
        self._slots: Dict[Tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, shape, dtype=np.float64, zero: bool = False):
        """The pooled buffer for ``(name, shape, dtype)``.

        Args:
            name: Slot name; the same name may serve several shapes
                (e.g. a final short chunk) — each gets its own buffer.
            shape: Required array shape.
            dtype: Required dtype.
            zero: Zero-fill the buffer before returning it. Without it
                the contents are whatever the previous use left — only
                safe when the caller overwrites every element.
        """
        key = (name, tuple(int(s) for s in shape), np.dtype(dtype).str)
        buffer = self._slots.get(key)
        if buffer is None:
            self.misses += 1
            get_telemetry().count("pool.misses")
            buffer = np.empty(shape, dtype=dtype)
            self._slots[key] = buffer
        else:
            self.hits += 1
            get_telemetry().count("pool.hits")
        if zero:
            buffer[...] = 0
        return buffer

    def clear(self) -> None:
        """Drop every pooled buffer (frees the memory)."""
        self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)


#: The process-wide pool the hot paths draw their scratch from.
SCRATCH_POOL = BufferPool()
