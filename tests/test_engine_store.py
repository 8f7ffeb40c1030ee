"""ResultStore round-trips: the engine's transport format must be exact."""

import json

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.io import restore_result, result_metadata
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.engine import JobSpec, ResultStore
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


@pytest.fixture
def spec(small_arch, workload):
    return JobSpec(
        workload=workload,
        architecture=small_arch,
        config=BalanceConfig.from_label("RaxBs+Hw"),
        iterations=250,
        seed=3,
        track_reads=True,
    )


@pytest.fixture
def result(small_arch, spec):
    simulator = EnduranceSimulator(
        small_arch, SimulationSettings(seed=spec.seed, track_reads=True)
    )
    return simulator.run(
        spec.workload, spec.config, spec.iterations
    )


class TestRoundTrip:
    def test_counters_bit_exact(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        assert np.array_equal(loaded.state.write_counts, result.state.write_counts)
        assert np.array_equal(loaded.state.read_counts, result.state.read_counts)
        assert loaded.state.write_counts.dtype == result.state.write_counts.dtype

    def test_metadata_survives(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        assert loaded.config.label == result.config.label
        assert loaded.config.recompile_interval == result.config.recompile_interval
        assert loaded.epochs == result.epochs
        assert loaded.iterations == result.iterations
        assert loaded.workload_name == result.workload_name
        assert loaded.iteration_latency_s == result.iteration_latency_s
        assert loaded.lane_utilization == result.lane_utilization

    def test_write_distribution_bit_exact(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        ours = loaded.write_distribution
        theirs = result.write_distribution
        assert np.array_equal(ours.counts, theirs.counts)
        assert ours.label == theirs.label
        assert loaded.max_writes_per_iteration == result.max_writes_per_iteration

    def test_in_memory_transport_matches_disk(self, tmp_path, spec, result):
        """restore_result over raw arrays equals the save/load path."""
        shipped = restore_result(
            result_metadata(result),
            result.state.write_counts,
            result.state.read_counts,
        )
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        assert np.array_equal(
            shipped.state.write_counts, loaded.state.write_counts
        )
        assert shipped.iteration_latency_s == loaded.iteration_latency_s

    def test_restore_rejects_alien_version(self, result):
        metadata = result_metadata(result)
        metadata["format_version"] = 999
        with pytest.raises(ValueError, match="unsupported result format"):
            restore_result(
                metadata,
                result.state.write_counts,
                result.state.read_counts,
            )


class TestStoreSemantics:
    def test_miss_returns_none(self, tmp_path, spec):
        store = ResultStore(tmp_path)
        assert store.load(spec) is None
        assert not store.contains(spec)

    def test_contains_after_save(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=1.25)
        assert store.contains(spec)
        assert len(store) == 1
        assert list(store.hashes()) == [spec.content_hash]

    def test_sidecar_records_identity_and_timing(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=1.25)
        record = json.loads(store.sidecar_for(spec).read_text())
        assert record["content_hash"] == spec.content_hash
        assert record["wall_s"] == 1.25
        assert record["spec"] == spec.identity()

    def test_payload_without_sidecar_is_incomplete(self, tmp_path, spec, result):
        """An interrupted save (no sidecar yet) must read as a miss."""
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.sidecar_for(spec).unlink()
        assert not store.contains(spec)
        assert store.load(spec) is None

    def test_corrupt_payload_is_a_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.path_for(spec).write_bytes(b"not an npz")
        assert store.load(spec) is None

    def test_truncated_payload_is_a_miss(self, tmp_path, spec, result):
        # A zip prefix with a destroyed central directory raises
        # zipfile.BadZipFile, not ValueError — it must still read as a miss.
        store = ResultStore(tmp_path)
        store.save(spec, result)
        path = store.path_for(spec)
        path.write_bytes(path.read_bytes()[:100])
        assert store.load(spec) is None

    def test_clear(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.load(spec) is None

    def test_array_entries(self, tmp_path, spec, result):
        # Bare arrays round-trip under their own key, stay out of the
        # result listings and go with clear().
        store = ResultStore(tmp_path)
        store.save(spec, result)
        assert store.load_array("ab12") is None
        vector = np.array([1.5, np.inf, 0.0])
        path = store.save_array("ab12", vector)
        assert path == tmp_path / "ab" / "ab12.npy"
        assert np.array_equal(store.load_array("ab12"), vector)
        assert len(store) == 1
        assert list(store.hashes()) == [spec.content_hash]
        assert [h for h, _ in store.iter_manifests()] == [spec.content_hash]
        assert store.clear() == 2
        assert not path.exists()
        assert store.load_array("ab12") is None

    @pytest.mark.parametrize(
        "damage", [b"", b"\x93NUMPY", b"garbage" * 9, b"PK\x03\x04"]
    )
    def test_unreadable_array_is_a_miss(self, tmp_path, damage):
        store = ResultStore(tmp_path)
        store.save_array("cd34", np.ones(3)).write_bytes(damage)
        assert store.load_array("cd34") is None

    def test_npz_under_array_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save_array("ef56", np.ones(3))
        with open(path, "wb") as handle:
            np.savez(handle, a=np.ones(3))
        assert store.load_array("ef56") is None

    def test_no_temp_files_left_behind(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.save_array("ab12", np.ones(3))
        leftovers = [
            p for p in tmp_path.rglob("*") if "tmp" in p.name
        ]
        assert leftovers == []


class TestManifestReadApi:
    def test_load_manifest_round_trip(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=0.5)
        manifest = store.load_manifest(spec)
        assert manifest is not None
        assert manifest["content_hash"] == spec.content_hash
        assert manifest["seed"] == spec.seed
        assert manifest["iterations"] == spec.iterations
        assert manifest["wall_s"] == 0.5
        assert "telemetry" in manifest

    def test_manifest_records_backend_provenance(
        self, tmp_path, spec, result
    ):
        import numpy as np

        from repro.engine.store import blas_implementation
        from repro.verify.schemas import MANIFEST_KEYS

        store = ResultStore(tmp_path)
        store.save(spec, result)
        manifest = store.load_manifest(spec)
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["fastforward"] == spec.fastforward
        assert manifest["numpy_version"] == np.__version__
        assert manifest["blas"] == blas_implementation()
        assert isinstance(manifest["blas"], str) and manifest["blas"]

    def test_load_manifest_missing_is_none(self, tmp_path, spec):
        store = ResultStore(tmp_path)
        assert store.load_manifest(spec) is None

    def test_iter_manifests_streams_every_entry(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=0.5)
        entries = dict(store.iter_manifests())
        assert spec.content_hash in entries
        assert entries[spec.content_hash] == store.load_manifest(spec)

    def test_iter_manifests_skips_unreadable(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.manifest_for(spec).write_text("{broken json")
        assert list(store.iter_manifests()) == []

    def test_iter_manifests_is_sorted_and_deterministic(
        self, tmp_path, spec, result
    ):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        other = JobSpec(
            workload=spec.workload,
            architecture=spec.architecture,
            config=spec.config,
            iterations=spec.iterations,
            seed=spec.seed + 1,
        )
        store.save(other, result)
        first = [digest for digest, _ in store.iter_manifests()]
        second = [digest for digest, _ in store.iter_manifests()]
        assert first == second
        assert set(first) == {spec.content_hash, other.content_hash}


class TestSharding:
    def test_shard_is_isolated_sub_store(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        shard = store.shard("mult-StxSt")
        shard.save(spec, result)
        assert shard.contains(spec)
        assert not store.contains(spec)  # parent hashes() stays clean
        assert len(store) == 0
        assert shard.root == store.root / "shards" / "mult-StxSt"

    def test_parent_iter_manifests_covers_shards(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.shard("cohort-a").save(spec, result)
        entries = dict(store.iter_manifests())
        assert spec.content_hash in entries

    def test_shard_names_are_slugged(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = store.shard("conv/RaxBs+Hw")
        assert shard.root.name == "conv_RaxBs_Hw"

    def test_unusable_shard_name_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="no usable characters"):
            store.shard("///")

    def test_shard_inherits_compression(self, tmp_path):
        store = ResultStore(tmp_path, compress=True)
        assert store.shard("a").compress is True
