"""Disk-backed, content-addressed storage for simulation results.

Each completed job is stored under its spec's content hash as a
compressed ``.npz`` (the counter arrays plus result metadata, via
:mod:`repro.core.io`) next to a JSON sidecar recording the spec identity
and timing. Entries are written atomically (temp file + rename, array
payload before sidecar), so a store left behind by a killed run contains
only complete entries — re-running the batch resumes from them.

A store also keeps bare ``.npy`` arrays of derived data under
caller-chosen content keys (:meth:`ResultStore.save_array`), written the
same atomic way but with no sidecar.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.io import LoadedResult, load_result, save_result
from repro.core.simulator import SimulationResult
from repro.engine.spec import JobSpec
from repro.telemetry import get_telemetry

def blas_implementation() -> str:
    """A short label for the BLAS numpy was built against.

    Recorded in per-run manifests so performance regressions are
    attributable across machines. Best-effort: returns ``"unknown"``
    when numpy's build metadata is not introspectable.
    """
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode= parameter
        info = None
    if isinstance(info, dict):
        blas = info.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        if name:
            version = blas.get("version")
            return f"{name} {version}" if version else str(name)
    config = getattr(np, "__config__", None)
    if config is not None:
        for key in (
            "openblas64__info",
            "openblas_info",
            "blas_mkl_info",
            "blis_info",
            "blas_opt_info",
        ):
            if getattr(config, key, None):
                return key[: -len("_info")]
    return "unknown"


class ResultStore:
    """A cache of simulation results keyed by job content hash.

    Args:
        root: Directory to keep entries in (created if missing). Entries
            shard into two-character subdirectories to keep listings flat.
        compress: Deflate entry payloads. Off by default — the store is a
            throughput-critical cache and raw ``.npz`` loads several times
            faster; turn on to trade wall clock for disk on huge grids.
    """

    def __init__(self, root: Union[str, Path], compress: bool = False) -> None:
        self.root = Path(root)
        self.compress = compress
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------

    @staticmethod
    def _hash_of(key: Union[JobSpec, str]) -> str:
        return key.content_hash if isinstance(key, JobSpec) else str(key)

    def path_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the ``.npz`` payload for ``key`` lives."""
        digest = self._hash_of(key)
        return self.root / digest[:2] / f"{digest}.npz"

    def sidecar_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the JSON sidecar for ``key`` lives."""
        digest = self._hash_of(key)
        return self.root / digest[:2] / f"{digest}.json"

    def manifest_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the per-run manifest for ``key`` lives."""
        digest = self._hash_of(key)
        return self.root / digest[:2] / f"{digest}.manifest.json"

    def array_path_for(self, key: str) -> Path:
        """Where the bare array saved under ``key`` lives."""
        return self.root / key[:2] / f"{key}.npy"

    # -- operations -----------------------------------------------------

    def contains(self, key: Union[JobSpec, str]) -> bool:
        """Whether a complete entry (payload and sidecar) exists."""
        return self.path_for(key).exists() and self.sidecar_for(key).exists()

    def load(self, key: Union[JobSpec, str]) -> Optional[LoadedResult]:
        """Return the cached result, or ``None`` on a miss.

        Incomplete or unreadable entries (e.g. from an interrupted save or
        an older format version) count as misses; the caller re-simulates
        and overwrites them.
        """
        if not self.contains(key):
            return None
        try:
            return load_result(str(self.path_for(key)))
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return None

    def save(
        self,
        spec: JobSpec,
        result: SimulationResult,
        wall_s: Optional[float] = None,
    ) -> Path:
        """Atomically persist ``result`` under ``spec``'s hash."""
        path = self.path_for(spec)
        _replace_atomically(
            path,
            lambda tmp: save_result(result, str(tmp), compress=self.compress),
        )
        sidecar = self.sidecar_for(spec)
        record = {
            "spec": spec.identity(),
            "content_hash": spec.content_hash,
            "wall_s": wall_s,
        }
        tmp_sidecar = sidecar.with_suffix(".tmp.json")
        tmp_sidecar.write_text(
            json.dumps(record, indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp_sidecar, sidecar)
        self._write_manifest(spec, wall_s)
        return path

    def load_array(self, key: str) -> Optional[np.ndarray]:
        """The array saved under ``key``, or ``None`` on a miss.

        Unreadable entries count as misses, as in :meth:`load`; checking
        the shape and dtype is the caller's part.
        """
        try:
            array = np.load(self.array_path_for(key), allow_pickle=False)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            return None
        if not isinstance(array, np.ndarray):  # an .npz archive
            array.close()
            return None
        return array

    def save_array(self, key: str, array: np.ndarray) -> Path:
        """Atomically persist a bare array under a caller-chosen ``key``.

        Array entries carry no sidecar and no manifest: they are derived
        data, not simulation results, so :meth:`hashes`, ``len`` and
        :meth:`iter_manifests` do not list them. :meth:`clear` removes
        them.
        """
        path = self.array_path_for(key)
        _replace_atomically(
            path, lambda tmp: np.save(tmp, array, allow_pickle=False)
        )
        return path

    def _write_manifest(self, spec: JobSpec, wall_s: Optional[float]) -> None:
        """Write the run manifest next to the entry (atomic, best-effort).

        The manifest records how the result was produced — spec hash,
        seed, fast-forward flag, numpy/BLAS provenance, wall
        time — plus a snapshot of the producing process's telemetry
        aggregates. In pool mode that is the worker's own registry, so
        the snapshot describes (at least) exactly the runs that worker
        performed.
        """
        manifest = {
            "content_hash": spec.content_hash,
            "label": spec.label,
            "seed": spec.seed,
            "fastforward": getattr(spec, "fastforward", False),
            "numpy_version": np.__version__,
            "blas": blas_implementation(),
            "iterations": spec.iterations,
            "track_reads": spec.track_reads,
            "wall_s": wall_s,
            "telemetry": get_telemetry().snapshot(),
        }
        path = self.manifest_for(spec)
        tmp = path.with_suffix(".tmp.json")
        tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, path)

    def load_manifest(self, key: Union[JobSpec, str]) -> Optional[dict]:
        """The per-run manifest for ``key``, or ``None`` when absent."""
        path = self.manifest_for(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def iter_manifests(self) -> Iterator[Tuple[str, dict]]:
        """Stream ``(content_hash, manifest)`` for every run manifest.

        Walks the whole store — including shard sub-stores created with
        :meth:`shard` — in sorted path order, so aggregation over the
        stream is deterministic. Unreadable manifests are skipped: the
        stream is an observability surface, not a correctness one.
        This is the primitive fleet-scale consumers aggregate from.
        """
        for path in sorted(self.root.rglob("*.manifest.json")):
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            yield path.name[: -len(".manifest.json")], manifest

    # -- sharding -------------------------------------------------------

    def shard(self, name: str) -> "ResultStore":
        """A sub-store rooted at ``root/shards/<name>`` (created lazily).

        Shards partition one store by a caller-chosen key — the fleet
        service shards by array cohort — while :meth:`iter_manifests`
        on the parent still streams over every shard. Shard names are
        slugged to filesystem-safe characters; two names that slug
        identically share a shard.
        """
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", name.strip()).strip("_")
        if not slug:
            raise ValueError(f"shard name {name!r} has no usable characters")
        return ResultStore(
            self.root / "shards" / slug, compress=self.compress
        )

    # -- introspection --------------------------------------------------

    def hashes(self) -> Iterator[str]:
        """Content hashes of every complete entry."""
        for sidecar in sorted(self.root.glob("*/*.json")):
            if sidecar.name.endswith(".manifest.json"):
                continue
            if sidecar.with_suffix(".npz").exists():
                yield sidecar.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.hashes())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for digest in list(self.hashes()):
            self.path_for(digest).unlink(missing_ok=True)
            self.sidecar_for(digest).unlink(missing_ok=True)
            self.manifest_for(digest).unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*/*.npy"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


def _replace_atomically(path: Path, write: Callable[[Path], None]) -> None:
    """Write ``path`` through a temp file and ``os.replace``.

    ``write`` fills the temp path, which keeps ``path``'s suffix; readers
    see the old entry or the new one, never a partial file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp{path.suffix}"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
