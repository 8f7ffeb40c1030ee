"""Tests for repro.core.cluster: partitioned dot-products across arrays."""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.cluster import PartitionedDotProduct
from repro.gates.library import NAND_LIBRARY


@pytest.fixture
def cluster():
    return PartitionedDotProduct(elements_per_array=32, n_arrays=4, bits=8)


class TestWorkloadConstruction:
    def test_aggregator_does_more_work(self, small_arch, cluster):
        aggregator = cluster.aggregator_workload().build(small_arch)
        slice_mapping = cluster.slice_workload().build(small_arch)
        assert (
            aggregator.writes_per_iteration
            > slice_mapping.writes_per_iteration
        )

    def test_slice_lane0_ships_its_partial(self, small_arch, cluster):
        # Non-aggregator lane 0 must read its final sum out (send), not
        # keep it: its program has a tagged send, no 'sum' output.
        mapping = cluster.slice_workload().build(small_arch)
        program = mapping.assignment[0]
        assert "sum" not in program.outputs

    def test_aggregator_extra_receives_extend_the_sum(
        self, small_arch, cluster
    ):
        aggregator = cluster.aggregator_workload().build(small_arch)
        program = aggregator.assignment[0]
        # Local rounds (log2 32 = 5) + 3 inter-array receives: the final
        # sum is 2b + 8 bits wide.
        assert len(program.outputs["sum"]) == 16 + 5 + 3

    def test_needs_two_arrays(self):
        with pytest.raises(ValueError):
            PartitionedDotProduct(n_arrays=1)


class TestClusterRuns:
    def test_fixed_role_imbalance(self, small_arch, cluster):
        result = cluster.run(small_arch, BalanceConfig(), iterations=100)
        assert result.n_arrays == 4
        assert result.wear_imbalance > 1.05
        lifetimes = result.lifetimes()
        # The aggregator (index 0) is the weakest link.
        assert lifetimes[0].iterations_to_failure == min(
            e.iterations_to_failure for e in lifetimes
        )

    def test_rotation_levels_the_cluster(self, small_arch, cluster):
        fixed = cluster.run(small_arch, BalanceConfig(), iterations=100)
        rotated = cluster.run(
            small_arch, BalanceConfig(), iterations=100,
            rotate_aggregator=True,
        )
        assert rotated.wear_imbalance < fixed.wear_imbalance
        assert rotated.wear_imbalance == pytest.approx(1.0, abs=1e-6)
        assert (
            rotated.cluster_iterations_to_failure
            > fixed.cluster_iterations_to_failure
        )

    def test_rotation_conserves_total_writes(self, small_arch, cluster):
        fixed = cluster.run(small_arch, BalanceConfig(), iterations=100)
        rotated = cluster.run(
            small_arch, BalanceConfig(), iterations=100,
            rotate_aggregator=True,
        )
        total = lambda r: sum(x.state.total_writes for x in r.results)
        assert total(rotated) == pytest.approx(total(fixed))

    def test_rotation_requires_divisible_iterations(self, small_arch, cluster):
        with pytest.raises(ValueError, match="divisible"):
            cluster.run(
                small_arch, BalanceConfig(), iterations=101,
                rotate_aggregator=True,
            )

    def test_invalid_iterations(self, small_arch, cluster):
        with pytest.raises(ValueError):
            cluster.run(small_arch, BalanceConfig(), iterations=0)


class TestFunctionalSanity:
    def test_slice_partial_sums_are_correct(self, cluster):
        # The slice workload's lane-0 program still computes a correct
        # local dot-product partial; check via the base functional wiring.
        from repro.workloads.base import evaluate_networked

        base = cluster.base
        programs, order = base.build_functional(NAND_LIBRARY)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=base.n_elements)
        b = rng.integers(0, 256, size=base.n_elements)
        operands = {
            lane: {"a": int(a[lane]), "b": int(b[lane])}
            for lane in range(base.n_elements)
        }
        outputs, _ = evaluate_networked(programs, operands, order)
        assert outputs[0]["sum"] == int(np.dot(a, b))


class TestSettingsPath:
    """The cluster runs through :class:`SimulationSettings`, not the
    deprecated per-kwarg aliases, and reproduces their wear exactly."""

    #: SHA-256 over the four arrays' write counts (RaxRa, seed 5, 100
    #: iterations on 128x128), as produced by the legacy-kwarg path.
    PINNED = {
        False: "514f3ff0c542b788eb43e6e494e7a7bb"
        "3e03474eebe32fd1e1b9137c0e559052",
        True: "49e47a6e546d5f612eceedf1edd1e06f"
        "bb9d2f157789b6261ef2b403a1bd5458",
    }

    @pytest.mark.parametrize("rotate", [False, True])
    def test_no_deprecation_and_unchanged_wear(
        self, small_arch, cluster, rotate
    ):
        import hashlib
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = cluster.run(
                small_arch,
                BalanceConfig.from_label("RaxRa"),
                iterations=100,
                rotate_aggregator=rotate,
                seed=5,
            )
        digest = hashlib.sha256()
        for array in result.results:
            digest.update(np.ascontiguousarray(array.state.write_counts))
            assert not array.state.read_counts.any()
        assert digest.hexdigest() == self.PINNED[rotate]
