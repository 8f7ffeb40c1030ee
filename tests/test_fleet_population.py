"""Population assembly and the closed-form death thresholds."""

import copy

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.failure import (
    failure_timeline,
    minimum_footprint,
    offset_death_times,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance, UniformEndurance
from repro.fleet import (
    BUDGET_STREAM,
    CohortSpec,
    Population,
    PopulationSpec,
    interleaved_assignment,
    proportional_counts,
)
from repro.workloads.vectoradd import VectorAdd


@pytest.fixture(scope="module")
def add_result():
    arch_module = pytest.importorskip("repro.array.architecture")
    arch = arch_module.default_architecture(128, 128)
    sim = EnduranceSimulator(arch, SimulationSettings(seed=0))
    return sim.run(VectorAdd(bits=32), BalanceConfig(), 200)


@pytest.fixture(scope="module")
def add_bs_result():
    arch_module = pytest.importorskip("repro.array.architecture")
    arch = arch_module.default_architecture(128, 128)
    sim = EnduranceSimulator(arch, SimulationSettings(seed=1))
    return sim.run(
        VectorAdd(bits=32), BalanceConfig.from_label("BsxBs"), 200
    )


def per_array_reference(population, results, seed, required_offsets):
    """The one-array-at-a-time threshold arithmetic of failure_timeline.

    Spelled out independently of the endurance models and of
    cell_failure_times: budgets are ``median * exp(normal(0, sigma))`` on
    each array's own stream, and idle cells never fail.
    """
    sigma = population.spec.endurance_sigma
    thresholds = np.empty(population.n_arrays)
    for array in range(population.n_arrays):
        cohort = int(population.cohort_index[array])
        result = results[cohort]
        rate = result.state.write_counts / result.iterations
        endurance = float(population.technology_of(array).endurance_writes)
        if sigma == 0:
            budgets = np.full(rate.shape, endurance)
        else:
            rng = np.random.default_rng([seed, BUDGET_STREAM, array])
            budgets = endurance * np.exp(
                rng.normal(0.0, sigma, size=rate.shape)
            )
        times = np.full(rate.shape, np.inf)
        active = rate > 0
        times[active] = budgets[active] / rate[active]
        if not population.spec.repacking:
            thresholds[array] = float(times.min())
            continue
        deaths = np.sort(
            offset_death_times(times, result.architecture.orientation)
        )
        k = result.architecture.lane_size - required_offsets[cohort] + 1
        thresholds[array] = float(deaths[k - 1])
    return thresholds


class TestApportionment:
    def test_counts_sum_to_total(self):
        assert sum(proportional_counts([3, 2, 1], 100)) == 100
        assert sum(proportional_counts([0.1, 0.9], 7)) == 7

    def test_exact_split(self):
        assert proportional_counts([1, 1], 10) == [5, 5]
        assert proportional_counts([2, 1, 1], 8) == [4, 2, 2]

    def test_largest_remainder_breaks_ties_to_earlier(self):
        # 3 slots over equal thirds: quotas are all 1.0, no remainder.
        assert proportional_counts([1, 1, 1], 3) == [1, 1, 1]
        # 1 slot over equal halves: earlier entry wins the tie.
        assert proportional_counts([1, 1], 1) == [1, 0]

    def test_rejects_degenerate_weights(self):
        with pytest.raises(ValueError):
            proportional_counts([0, 0], 4)
        with pytest.raises(ValueError):
            proportional_counts([-1, 2], 4)

    def test_interleaving_alternates_even_mixes(self):
        assignment = interleaved_assignment([1, 1], 8)
        assert assignment.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_interleaving_matches_proportional_totals(self):
        weights = [5, 2, 3]
        assignment = interleaved_assignment(weights, 41)
        counts = np.bincount(assignment, minlength=3).tolist()
        assert counts == proportional_counts(weights, 41)


class TestSpecs:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CohortSpec("sorting")

    def test_bad_config_label_rejected(self):
        with pytest.raises(Exception):
            CohortSpec("add", config="NotAConfig")

    def test_duplicate_cohort_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate cohort keys"):
            PopulationSpec(
                cohorts=(CohortSpec("add"), CohortSpec("add"))
            )

    def test_unknown_technology_rejected(self):
        with pytest.raises(KeyError):
            PopulationSpec(technology_mix=(("FeRAM", 1.0),))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PopulationSpec(endurance_sigma=-0.1)

    def test_identity_is_json_able_and_stable(self):
        import json

        spec = PopulationSpec(
            n_arrays=10,
            technology_mix=(("MRAM", 2.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv", weight=2.0)),
            endurance_sigma=0.25,
        )
        a = json.dumps(spec.identity(), sort_keys=True)
        b = json.dumps(spec.identity(), sort_keys=True)
        assert a == b


class TestPopulationBuild:
    def test_build_is_deterministic(self):
        spec = PopulationSpec(
            n_arrays=12,
            technology_mix=(("MRAM", 1.0), ("RRAM", 1.0), ("PCM", 2.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
        )
        a = Population.build(spec)
        b = Population.build(spec)
        assert np.array_equal(a.cohort_index, b.cohort_index)
        assert np.array_equal(a.technology_index, b.technology_index)

    def test_technology_shares_respected(self):
        spec = PopulationSpec(
            n_arrays=8, technology_mix=(("MRAM", 3.0), ("PCM", 1.0))
        )
        population = Population.build(spec)
        names = [
            population.technology_of(i).name for i in range(8)
        ]
        assert names.count("MRAM") == 6
        assert names.count("PCM") == 2

    def test_technology_mix_decorrelated_from_cohorts(self):
        # Two lockstep 50/50 interleavings would put every PCM array in
        # one cohort; each cohort must get its own proportional mix.
        spec = PopulationSpec(
            n_arrays=8,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
        )
        population = Population.build(spec)
        for cohort in range(2):
            members = population.arrays_in_cohort(cohort)
            names = [population.technology_of(i).name for i in members]
            assert names.count("MRAM") == 2
            assert names.count("PCM") == 2

    def test_cohort_members_built_once_and_locked(self):
        spec = PopulationSpec(
            n_arrays=8,
            cohorts=(CohortSpec("add", weight=3.0), CohortSpec("conv")),
        )
        population = Population.build(spec)
        for cohort in range(2):
            members = population.arrays_in_cohort(cohort)
            assert members is population.arrays_in_cohort(cohort)
            assert np.array_equal(
                members, np.flatnonzero(population.cohort_index == cohort)
            )
            with pytest.raises(ValueError):
                members[0] = 0
        assert np.array_equal(population.cohort_weights, spec.cohort_weights)
        assert not population.cohort_weights.flags.writeable

    def test_uniform_model_when_sigma_zero(self):
        population = Population.build(PopulationSpec(n_arrays=2))
        model = population.endurance_model_for(0, seed=5)
        assert isinstance(model, UniformEndurance)

    def test_lognormal_models_differ_per_array_not_per_call(self):
        population = Population.build(
            PopulationSpec(n_arrays=2, endurance_sigma=0.3)
        )
        a1 = population.endurance_model_for(0, seed=5).sample_budgets((4, 4))
        a2 = population.endurance_model_for(0, seed=5).sample_budgets((4, 4))
        b = population.endurance_model_for(1, seed=5).sample_budgets((4, 4))
        assert np.array_equal(a1, a2)  # fresh stream per call, same seed
        assert not np.array_equal(a1, b)  # distinct stream per array


class TestDeathThresholds:
    """The fleet must reproduce failure_timeline bit for bit."""

    def test_uniform_matches_first_failure(self, add_result):
        population = Population.build(
            PopulationSpec(n_arrays=1, cohorts=(CohortSpec("add"),))
        )
        thresholds = population.death_thresholds([add_result], seed=0)
        closed_form = failure_timeline(add_result, required_offsets=1)
        assert thresholds[0] == closed_form.first_failure_iterations

    def test_lognormal_matches_first_failure_bit_exact(self, add_result):
        sigma = 0.35
        population = Population.build(
            PopulationSpec(
                n_arrays=1,
                cohorts=(CohortSpec("add"),),
                endurance_sigma=sigma,
            )
        )
        seed = 11
        thresholds = population.death_thresholds([add_result], seed=seed)
        model = LognormalEndurance(
            add_result.architecture.technology.endurance_writes,
            sigma=sigma,
            rng=np.random.default_rng([seed, BUDGET_STREAM, 0]),
        )
        closed_form = failure_timeline(
            add_result, required_offsets=1, endurance_model=model
        )
        assert thresholds[0] == closed_form.first_failure_iterations

    def test_repacking_matches_unusable_horizon(self, add_result):
        sigma = 0.35
        population = Population.build(
            PopulationSpec(
                n_arrays=1,
                cohorts=(CohortSpec("add"),),
                endurance_sigma=sigma,
                repacking=True,
            )
        )
        seed = 11
        footprint = minimum_footprint(
            VectorAdd(bits=32), add_result.architecture
        )
        thresholds = population.death_thresholds(
            [add_result], seed=seed, required_offsets=[footprint]
        )
        model = LognormalEndurance(
            add_result.architecture.technology.endurance_writes,
            sigma=sigma,
            rng=np.random.default_rng([seed, BUDGET_STREAM, 0]),
        )
        closed_form = failure_timeline(
            add_result, required_offsets=footprint, endurance_model=model
        )
        assert thresholds[0] == closed_form.unusable_iterations

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("repacking", [False, True])
    @pytest.mark.parametrize("sigma", [0.0, 0.4, 300.0])
    def test_mixed_fleet_matches_per_array_reference(
        self, add_result, add_bs_result, sigma, repacking
    ):
        # sigma 0 is the uniform model; sigma 300 underflows some
        # budgets to 0 and overflows others to inf.
        population = Population.build(
            PopulationSpec(
                n_arrays=64,
                technology_mix=(("MRAM", 1.0), ("PCM", 1.0), ("RRAM", 0.5)),
                cohorts=(CohortSpec("add"), CohortSpec("add", "BsxBs")),
                endurance_sigma=sigma,
                repacking=repacking,
            )
        )
        results = [add_result, add_bs_result]
        footprint = minimum_footprint(
            VectorAdd(bits=32), add_result.architecture
        )
        offsets = [footprint, footprint]
        thresholds = population.death_thresholds(results, 5, offsets)
        expected = per_array_reference(population, results, 5, offsets)
        assert thresholds.dtype == np.float64
        assert np.array_equal(thresholds, expected)
        if sigma == 300.0:
            assert (thresholds == 0).any()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_idle_cells_never_fail(self, add_result):
        # Cells the cohort never writes stay +inf even when every
        # budget underflows to 0.
        population = Population.build(
            PopulationSpec(
                n_arrays=8,
                cohorts=(CohortSpec("add"),),
                endurance_sigma=300.0,
            )
        )
        idle = copy.deepcopy(add_result)
        idle.state.write_counts[:] = 0
        assert np.isinf(population.death_thresholds([idle], seed=2)).all()
        uniform = Population.build(PopulationSpec(n_arrays=2))
        assert np.isinf(uniform.death_thresholds([idle], seed=2)).all()

    def test_negative_rates_rejected(self, add_result):
        population = Population.build(PopulationSpec(n_arrays=2))
        bad = copy.deepcopy(add_result)
        bad.state.write_counts[0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            population.death_thresholds([bad], seed=0)

    def test_repacking_requires_offsets(self, add_result):
        population = Population.build(
            PopulationSpec(
                n_arrays=1, cohorts=(CohortSpec("add"),), repacking=True
            )
        )
        with pytest.raises(ValueError, match="required_offsets"):
            population.death_thresholds([add_result], seed=0)

    def test_result_count_mismatch_rejected(self, add_result):
        population = Population.build(PopulationSpec(n_arrays=1))
        with pytest.raises(ValueError, match="cohort results"):
            population.death_thresholds([add_result, add_result], seed=0)
