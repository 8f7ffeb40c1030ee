"""Per-cell array state: read/write counters and failure marks.

The paper's simulator "is instruction-level accurate, and each write to
each memory cell is counted" (Section 4). :class:`ArrayState` holds those
counters as numpy matrices in physical ``(row, col)`` coordinates, plus a
failure mask for the Section 3.3 analysis.
"""

from __future__ import annotations

import numpy as np

from repro.array.geometry import ArrayGeometry, Orientation


class ArrayState:
    """Mutable per-cell counters for one PIM array.

    Attributes:
        geometry: The array dimensions.
        write_counts: ``rows x cols`` accumulated cell writes (float64 so
            epoch-extrapolated fractional counts stay exact in expectation).
        read_counts: ``rows x cols`` accumulated cell reads.
        failed: Boolean mask of permanently failed cells.
    """

    def __init__(self, geometry: ArrayGeometry) -> None:
        self.geometry = geometry
        shape = (geometry.rows, geometry.cols)
        self.write_counts = np.zeros(shape, dtype=np.float64)
        self.read_counts = np.zeros(shape, dtype=np.float64)
        self.failed = np.zeros(shape, dtype=bool)
        self._scratch: "np.ndarray | None" = None

    def _scratch_buffer(self) -> np.ndarray:
        """A reusable full-array float64 workspace.

        Bulk accumulation lands products here before adding them into the
        counters, so repeated calls stop allocating a rows x cols
        temporary (8 MB at the paper's 1024 x 1024) per call.
        """
        if self._scratch is None:
            self._scratch = np.empty(
                (self.geometry.rows, self.geometry.cols), dtype=np.float64
            )
        return self._scratch

    @classmethod
    def from_counts(
        cls,
        geometry: ArrayGeometry,
        write_counts: np.ndarray,
        read_counts: "np.ndarray | None" = None,
    ) -> "ArrayState":
        """Adopt existing counter matrices without zero-fill-and-copy.

        The restore hot path: deserialized counters are taken by reference
        (coerced to contiguous float64 only if needed), so rebuilding a
        state costs nothing beyond coercion. ``read_counts=None`` means
        "reads were not tracked" and yields zeros.

        The zero planes (untracked reads, the failure mask) are
        *read-only broadcast views*: restored states feed analyses, not
        further simulation, and faulting in fresh zero pages for every
        cache hit is the dominant cost of a warm-store load on slow VMs.
        """
        shape = (geometry.rows, geometry.cols)
        write_counts = np.ascontiguousarray(write_counts, dtype=np.float64)
        if read_counts is None:
            read_counts = np.broadcast_to(np.float64(0.0), shape)
        else:
            read_counts = np.ascontiguousarray(read_counts, dtype=np.float64)
        if write_counts.shape != shape or read_counts.shape != shape:
            raise ValueError(
                f"counter shape {write_counts.shape}/{read_counts.shape} "
                f"does not match geometry {shape}"
            )
        state = cls.__new__(cls)
        state.geometry = geometry
        state.write_counts = write_counts
        state.read_counts = read_counts
        state.failed = np.broadcast_to(np.bool_(False), shape)
        state._scratch = None
        return state

    # -- single-cell events (exact replay path) -------------------------

    def record_write(self, lane: int, offset: int, orientation: Orientation) -> None:
        """Count one write at lane-wise address ``(lane, offset)``."""
        row, col = self.geometry.cell_of(lane, offset, orientation)
        self.write_counts[row, col] += 1

    def record_read(self, lane: int, offset: int, orientation: Orientation) -> None:
        """Count one read at lane-wise address ``(lane, offset)``."""
        row, col = self.geometry.cell_of(lane, offset, orientation)
        self.read_counts[row, col] += 1

    # -- bulk accumulation (vectorized path) -----------------------------

    def add_lane_profile(
        self,
        offset_counts: np.ndarray,
        lane_weights: np.ndarray,
        orientation: Orientation,
        kind: str = "write",
    ) -> None:
        """Add an outer-product wear profile.

        Every lane ``l`` receives ``offset_counts[o] * lane_weights[l]``
        events at offset ``o``. This is the workhorse of the epoch algebra:
        all lanes running the same program under the same mapping wear
        identically, so their contribution is an outer product.

        Args:
            offset_counts: Per-offset event counts (length = lane size).
            lane_weights: Per-lane multiplicity (length = lane count);
                typically 0/1 membership, scaled by epoch length.
            orientation: Lane orientation.
            kind: ``"write"`` or ``"read"``.
        """
        offset_counts = np.asarray(offset_counts, dtype=np.float64)
        lane_weights = np.asarray(lane_weights, dtype=np.float64)
        if offset_counts.shape != (self.geometry.lane_size(orientation),):
            raise ValueError(
                f"offset_counts length {offset_counts.shape} != lane size "
                f"{self.geometry.lane_size(orientation)}"
            )
        if lane_weights.shape != (self.geometry.lane_count(orientation),):
            raise ValueError(
                f"lane_weights length {lane_weights.shape} != lane count "
                f"{self.geometry.lane_count(orientation)}"
            )
        target = self._target(kind)
        scratch = self._scratch_buffer()
        if orientation is Orientation.COLUMN_PARALLEL:
            # offsets are rows, lanes are columns
            np.multiply.outer(offset_counts, lane_weights, out=scratch)
        else:
            np.multiply.outer(lane_weights, offset_counts, out=scratch)
        target += scratch

    def add_lane_profiles(
        self,
        offset_profiles: np.ndarray,
        lane_weights: np.ndarray,
        orientation: Orientation,
        kind: str = "write",
    ) -> None:
        """Add a whole chunk of epoch outer products with one GEMM.

        The batched form of :meth:`add_lane_profile`: row ``e`` of each
        argument describes one epoch, and the summed contribution

        ``sum_e outer(offset_profiles[e], lane_weights[e])``

        is exactly ``offset_profiles.T @ lane_weights`` — a single
        matrix product instead of ``E`` outer products. All inputs are
        integer-valued float64, so the reduction is exact in any order
        and the result is bit-identical to the per-epoch loop.

        Args:
            offset_profiles: ``(epochs, lane_size)`` per-offset counts.
            lane_weights: ``(epochs, lane_count)`` per-lane multiplicity
                (membership scaled by epoch length).
            orientation: Lane orientation.
            kind: ``"write"`` or ``"read"``.
        """
        offset_profiles = np.asarray(offset_profiles, dtype=np.float64)
        lane_weights = np.asarray(lane_weights, dtype=np.float64)
        if (
            offset_profiles.ndim != 2
            or lane_weights.ndim != 2
            or offset_profiles.shape[0] != lane_weights.shape[0]
        ):
            raise ValueError(
                "offset_profiles and lane_weights must be 2-D with one "
                "row per epoch"
            )
        if offset_profiles.shape[1] != self.geometry.lane_size(orientation):
            raise ValueError(
                f"offset_profiles width {offset_profiles.shape[1]} != lane "
                f"size {self.geometry.lane_size(orientation)}"
            )
        if lane_weights.shape[1] != self.geometry.lane_count(orientation):
            raise ValueError(
                f"lane_weights width {lane_weights.shape[1]} != lane count "
                f"{self.geometry.lane_count(orientation)}"
            )
        target = self._target(kind)
        if orientation is Orientation.COLUMN_PARALLEL:
            a, b = offset_profiles.T, lane_weights
        else:
            a, b = lane_weights.T, offset_profiles
        scratch = self._scratch_buffer()
        np.matmul(a, b, out=scratch)
        target += scratch

    def _target(self, kind: str) -> np.ndarray:
        if kind == "write":
            return self.write_counts
        if kind == "read":
            return self.read_counts
        raise ValueError(f"kind must be 'write' or 'read', got {kind!r}")

    # -- summaries --------------------------------------------------------

    @property
    def max_writes(self) -> float:
        """The hottest cell's write count — the denominator of Eq. 4."""
        return float(self.write_counts.max())

    @property
    def total_writes(self) -> float:
        """Total writes across the array."""
        return float(self.write_counts.sum())

    @property
    def total_reads(self) -> float:
        """Total reads across the array."""
        return float(self.read_counts.sum())

    def lane_view(self, counts: np.ndarray, orientation: Orientation) -> np.ndarray:
        """View a physical counts matrix as ``(offset, lane)``.

        For column-parallel arrays this is the matrix itself (rows are
        offsets); for row-parallel it is the transpose.
        """
        if counts.shape != (self.geometry.rows, self.geometry.cols):
            raise ValueError("counts matrix does not match geometry")
        if orientation is Orientation.COLUMN_PARALLEL:
            return counts
        return counts.T

    def reset(self) -> None:
        """Zero all counters and clear failures."""
        self.write_counts[:] = 0.0
        self.read_counts[:] = 0.0
        self.failed[:] = False
