"""FleetService campaigns: the degenerate closed-form pin, checkpoint
kill/resume determinism, store sharding, and dispatch policies."""

from unittest import mock

import numpy as np
import pytest

from repro.core.failure import failure_timeline
from repro.devices.endurance import UniformEndurance
from repro.engine import ResultStore
from repro.fleet import (
    CohortSpec,
    FleetService,
    FleetSpec,
    Population,
    PopulationSpec,
    TrafficSpec,
    capacity_iterations,
    kaplan_meier,
    run_campaign,
)
from repro.telemetry import capture


def one_array_spec(**overrides):
    """A single-array, deterministic-traffic PCM fleet (dies in days)."""
    defaults = dict(
        population=PopulationSpec(
            n_arrays=1,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add"),),
        ),
        traffic=TrafficSpec(model="deterministic", rate=5e5),
        days=10,
        seed=3,
        rows=128,
        cols=128,
        cohort_iterations=200,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def small_fleet_spec(**overrides):
    """A 4-array PCM fleet with endurance variation."""
    defaults = dict(
        population=PopulationSpec(
            n_arrays=4,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add"),),
            endurance_sigma=0.5,
        ),
        traffic=TrafficSpec(model="poisson", rate=2e5),
        days=12,
        seed=3,
        rows=128,
        cols=128,
        cohort_iterations=200,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestDegenerateClosedFormPin:
    """One array + deterministic traffic must reproduce failure_timeline."""

    def test_death_day_matches_closed_form_accumulation(self):
        spec = one_array_spec()
        service = FleetService(spec)
        calibration = service.calibrate()
        result = calibration["results"][0]

        # The closed-form lifetime for this array's technology.
        technology = service.population.technology_of(0)
        timeline = failure_timeline(
            result,
            required_offsets=1,
            endurance_model=UniformEndurance(technology.endurance_writes),
        )
        threshold = timeline.first_failure_iterations

        # Replay the day loop's arithmetic exactly: one array takes the
        # whole (integer) daily request count, clipped at capacity.
        daily_iterations = min(
            float(int(round(spec.traffic.rate))),
            capacity_iterations(
                calibration["ops_per_iteration"][0] * technology.op_latency_s,
                spec.duty_cycle,
            ),
        )
        cumulative, expected_day = 0.0, None
        for day in range(1, spec.days + 1):
            cumulative += daily_iterations
            if cumulative >= threshold:
                expected_day = day
                break
        assert expected_day is not None  # the spec is tuned to die

        report = service.run()
        assert report.death_days == [expected_day]
        assert report.curve.days == [expected_day]
        assert report.curve.survival == [0.0]

    def test_curve_is_bit_exact_kaplan_meier_of_closed_form_day(self):
        report = FleetService(one_array_spec()).run()
        [death_day] = report.death_days
        expected = kaplan_meier([death_day], report.spec_identity["days"])
        assert report.curve.content_hash() == expected.content_hash()

    def test_deterministic_campaign_is_rng_free_and_reproducible(self):
        a = FleetService(one_array_spec()).run()
        b = FleetService(one_array_spec()).run()
        assert a.content_hash() == b.content_hash()
        assert a.to_json()["report_hash"] == b.to_json()["report_hash"]

    def test_report_hash_ignores_runtime(self):
        a = FleetService(one_array_spec()).run()
        b = FleetService(one_array_spec(), jobs=1).run()
        assert a.runtime["wall_s"] != b.runtime["wall_s"] or True
        assert a.content_hash() == b.content_hash()


class TestCheckpointResume:
    def test_pause_then_resume_matches_uninterrupted(self, tmp_path):
        spec = small_fleet_spec()
        uninterrupted = FleetService(spec).run()

        paused = FleetService(
            spec, checkpoint_dir=tmp_path, checkpoint_every=2
        ).run(stop_after_day=5)
        assert paused is None

        resumed_service = FleetService(spec, checkpoint_dir=tmp_path)
        resumed = resumed_service.run()
        assert resumed is not None
        assert resumed.content_hash() == uninterrupted.content_hash()
        assert resumed.runtime["resumed_from_day"] == 5

    def test_resume_false_starts_over_to_the_same_report(self, tmp_path):
        spec = small_fleet_spec()
        FleetService(
            spec, checkpoint_dir=tmp_path, checkpoint_every=3
        ).run(stop_after_day=3)
        fresh = FleetService(spec, checkpoint_dir=tmp_path).run(resume=False)
        straight = FleetService(spec).run()
        assert fresh.content_hash() == straight.content_hash()
        assert fresh.runtime["resumed_from_day"] is None

    def test_checkpoint_cadence_writes_expected_files(self, tmp_path):
        spec = small_fleet_spec(days=9)
        service = FleetService(
            spec, checkpoint_dir=tmp_path, checkpoint_every=3
        )
        report = service.run()
        assert report.runtime["checkpoints_written"] == 3
        assert service.checkpoints.days() == [3, 6, 9]

    def test_stop_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            FleetService(small_fleet_spec()).run(stop_after_day=2)

    def test_stale_checkpoint_from_other_spec_is_ignored(self, tmp_path):
        spec_a = small_fleet_spec(seed=3)
        spec_b = small_fleet_spec(seed=4)
        FleetService(
            spec_a, checkpoint_dir=tmp_path, checkpoint_every=2
        ).run(stop_after_day=2)
        # A different campaign sharing the directory must not resume
        # from spec_a's checkpoint.
        report = FleetService(spec_b, checkpoint_dir=tmp_path).run()
        assert report.runtime["resumed_from_day"] is None


class TestSpecIdentity:
    def test_execution_knobs_excluded_from_hash(self):
        base = one_array_spec()
        assert base.content_hash == one_array_spec(fastforward=True).content_hash
        assert base.content_hash == one_array_spec(window=5).content_hash

    def test_result_changing_knobs_change_hash(self):
        base = one_array_spec()
        assert base.content_hash != one_array_spec(seed=4).content_hash
        assert base.content_hash != one_array_spec(days=11).content_hash
        assert (
            base.content_hash
            != one_array_spec(dispatch="least_worn").content_hash
        )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            one_array_spec(dispatch="round_robin")
        with pytest.raises(ValueError, match="duty_cycle"):
            one_array_spec(duty_cycle=0.0)
        with pytest.raises(ValueError, match="slo"):
            one_array_spec(slo=1.0)
        with pytest.raises(ValueError, match="days"):
            one_array_spec(days=0)
        with pytest.raises(ValueError, match="cohort_iterations"):
            one_array_spec(cohort_iterations=0)


class TestStoreIntegration:
    def test_calibration_shards_by_cohort_and_caches(self, tmp_path):
        spec = one_array_spec()
        store = ResultStore(tmp_path)
        cold = FleetService(spec, store=store).run()
        assert cold.runtime["calibration_statuses"] == ["completed"]
        assert (store.root / "shards" / "add-StxSt").is_dir()
        assert cold.runtime["manifests"] >= 1

        warm = FleetService(spec, store=store).run()
        assert warm.runtime["calibration_statuses"] == ["cached"]
        assert warm.content_hash() == cold.content_hash()

    def test_run_campaign_accepts_store_path(self, tmp_path):
        report = run_campaign(one_array_spec(), store=str(tmp_path))
        assert report.runtime["manifests"] >= 1


def threshold_entries(store):
    """The persisted threshold vectors in ``store``."""
    return sorted(store.shard("fleet-thresholds").root.glob("*/*.npy"))


class TestThresholdCache:
    """Death thresholds persist in the store, keyed by what they read."""

    def test_warm_run_loads_thresholds(self, tmp_path):
        spec = small_fleet_spec()
        store = ResultStore(tmp_path)
        cold = FleetService(spec, store=store).run()
        assert cold.runtime["thresholds"] == "computed"
        [entry] = threshold_entries(store)
        assert entry.parent.name == entry.stem[:2]
        with mock.patch.object(
            Population, "death_thresholds", side_effect=AssertionError
        ):
            warm = FleetService(spec, store=store).run()
        assert warm.runtime["thresholds"] == "cached"
        assert warm.content_hash() == cold.content_hash()

    def test_no_store_always_computes(self):
        report = FleetService(small_fleet_spec()).run()
        assert report.runtime["thresholds"] == "computed"

    def test_entry_holds_the_computed_vector(self, tmp_path):
        spec = small_fleet_spec()
        store = ResultStore(tmp_path)
        service = FleetService(spec, store=store)
        service.run()
        calibration = service.calibrate()
        expected = service.population.death_thresholds(
            calibration["results"], spec.seed,
            calibration["required_offsets"],
        )
        [entry] = threshold_entries(store)
        stored = np.load(entry)
        assert stored.dtype == np.float64
        assert np.array_equal(stored, expected)

    def test_store_listings_unchanged(self, tmp_path):
        # Two cohorts: two calibration manifests, no top-level entries,
        # and the threshold vector adds neither a sidecar nor a manifest.
        spec = small_fleet_spec(
            population=PopulationSpec(
                n_arrays=4,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("add"), CohortSpec("add", "BsxBs")),
                endurance_sigma=0.5,
            )
        )
        store = ResultStore(tmp_path)
        for expected in ("computed", "cached"):
            report = FleetService(spec, store=store).run()
            assert report.runtime["thresholds"] == expected
            assert report.runtime["manifests"] == 2
            assert len(store) == 0
            assert list(store.hashes()) == []
            shard = store.shard("fleet-thresholds")
            assert len(shard) == 0
            assert list(shard.iter_manifests()) == []

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "garbage", "wrong_shape", "wrong_dtype", "empty"],
    )
    def test_damaged_entry_is_recomputed_and_overwritten(
        self, tmp_path, damage
    ):
        spec = small_fleet_spec()
        store = ResultStore(tmp_path)
        cold = FleetService(spec, store=store).run()
        [entry] = threshold_entries(store)
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[: len(good) - 9])
        elif damage == "garbage":
            entry.write_bytes(b"\x00not an npy file" * 8)
        elif damage == "wrong_shape":
            np.save(entry, np.ones(spec.population.n_arrays + 1))
        elif damage == "wrong_dtype":
            np.save(entry, np.ones(spec.population.n_arrays, np.float32))
        else:
            entry.write_bytes(b"")
        repaired = FleetService(spec, store=store).run()
        assert repaired.runtime["thresholds"] == "computed"
        assert repaired.content_hash() == cold.content_hash()
        assert entry.read_bytes() == good
        again = FleetService(spec, store=store).run()
        assert again.runtime["thresholds"] == "cached"
        assert not list(entry.parent.glob(".*tmp*"))

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=4),
            dict(cohort_iterations=150),
            dict(
                population=PopulationSpec(
                    n_arrays=4,
                    technology_mix=(("PCM", 1.0),),
                    cohorts=(CohortSpec("add"),),
                    endurance_sigma=0.6,
                )
            ),
            dict(
                population=PopulationSpec(
                    n_arrays=4,
                    technology_mix=(("PCM", 1.0), ("RRAM", 1.0)),
                    cohorts=(CohortSpec("add"),),
                    endurance_sigma=0.5,
                )
            ),
            dict(
                population=PopulationSpec(
                    n_arrays=4,
                    technology_mix=(("PCM", 1.0),),
                    cohorts=(CohortSpec("add"),),
                    endurance_sigma=0.5,
                    repacking=True,
                )
            ),
        ],
        ids=["seed", "cohort_iterations", "sigma", "technology_mix",
             "repacking"],
    )
    def test_threshold_inputs_miss(self, tmp_path, change):
        store = ResultStore(tmp_path)
        FleetService(small_fleet_spec(), store=store).run()
        report = FleetService(small_fleet_spec(**change), store=store).run()
        assert report.runtime["thresholds"] == "computed"
        assert len(threshold_entries(store)) == 2

    @pytest.mark.parametrize(
        "change",
        [
            dict(days=5),
            dict(traffic=TrafficSpec(model="deterministic", rate=2e5)),
            dict(dispatch="least_worn"),
            dict(window=4),
        ],
        ids=["days", "traffic", "dispatch", "window"],
    )
    def test_campaign_knobs_hit(self, tmp_path, change):
        store = ResultStore(tmp_path)
        FleetService(small_fleet_spec(), store=store).run()
        report = FleetService(small_fleet_spec(**change), store=store).run()
        assert report.runtime["thresholds"] == "cached"
        assert len(threshold_entries(store)) == 1
        assert (
            report.content_hash()
            == FleetService(small_fleet_spec(**change)).run().content_hash()
        )

    def test_telemetry_phase_and_counters(self, tmp_path):
        from repro.telemetry import get_telemetry

        tele = get_telemetry()
        spec = small_fleet_spec()
        store = ResultStore(tmp_path)
        before = dict(tele.counters)

        def delta(name):
            return tele.counters.get(name, 0) - before.get(name, 0)

        FleetService(spec, store=store).run()
        FleetService(spec, store=store).run()
        FleetService(spec).run()
        assert delta("fleet.thresholds_misses") == 1
        assert delta("fleet.thresholds_hits") == 1
        assert "fleet.thresholds" in tele.snapshot()["phases"]


class TestDispatchAndCapacity:
    def test_least_worn_levels_wear_across_the_cohort(self):
        # Even dispatch lets weak arrays die first; least_worn shifts
        # load toward fresh arrays so the cohort retires together.
        def death_spread(dispatch):
            spec = small_fleet_spec(
                traffic=TrafficSpec(model="deterministic", rate=2e5),
                days=40,
                dispatch=dispatch,
            )
            days = FleetService(spec).run().death_days
            assert all(d >= 0 for d in days)  # everyone dies in 40 days
            return max(days) - min(days)

        assert death_spread("least_worn") < death_spread("even")

    def test_capacity_pressure_drops_requests(self):
        spec = one_array_spec(duty_cycle=1e-6, days=2)
        report = FleetService(spec).run()
        assert report.requests_dropped > 0
        assert report.requests_served < 2 * int(round(spec.traffic.rate))

    def test_dead_cohort_drops_everything(self):
        # After the single array dies (day 2), all later traffic drops.
        report = FleetService(one_array_spec(days=6)).run()
        assert report.death_days == [2]
        assert report.requests_dropped >= 4 * int(
            round(5e5)
        )  # days 3..6 fully dropped


class TestTelemetry:
    def test_campaign_emits_fleet_events(self):
        spec = one_array_spec(days=3)
        with capture() as sink:
            FleetService(spec).run()
        [start] = sink.of("fleet_start")
        assert start["arrays"] == 1
        assert start["days"] == 3
        days = sink.of("fleet_day")
        assert [r["day"] for r in days] == [1, 2, 3]
        assert all("alive" in r and "served" in r for r in days)
        [end] = sink.of("fleet_end")
        assert end["deaths"] == 1
        assert end["alive"] == 0

    def test_checkpoint_events_fire_at_boundaries(self, tmp_path):
        spec = small_fleet_spec(days=4)
        with capture() as sink:
            FleetService(
                spec, checkpoint_dir=tmp_path, checkpoint_every=2
            ).run()
        assert [r["day"] for r in sink.of("fleet_checkpoint")] == [2, 4]


class TestReportShape:
    def test_census_and_json_are_consistent(self):
        spec = small_fleet_spec(days=6)
        report = FleetService(spec).run()
        assert report.n_arrays == 4
        assert report.n_deaths + report.n_alive == 4
        assert report.deaths_by(report.technology_names) == {
            "PCM": {"dead": report.n_deaths, "total": 4}
        }
        payload = report.to_json()
        assert payload["report_hash"] == report.content_hash()
        assert payload["curve"]["horizon_days"] == 6
        assert len(payload["death_days"]) == 4
        assert isinstance(report.annual_replacement_rate, float)
        assert np.isfinite(report.annual_replacement_rate)


class TestVerificationGate:
    """Every campaign passes through verify_fleet_spec before a single
    day runs: a statically unsound spec is rejected up front."""

    def test_unsound_window_rejected_before_running(self):
        from repro.verify import VerificationError

        spec = small_fleet_spec(window=2_000_000)  # > MAX_WINDOW
        with capture() as sink:
            with pytest.raises(VerificationError) as err:
                FleetService(spec).run()
        assert "RPR014" in err.value.report.codes()
        # rejection happened statically: no fleet day ever started
        assert sink.of("fleet_start") == []
        assert sink.of("fleet_day") == []
        # the findings were published for the stats census
        [event] = sink.of("verify_report")
        assert "RPR014" in event["codes"]

    def test_rejection_is_counted(self):
        from repro.telemetry import get_telemetry
        from repro.verify import VerificationError

        tele = get_telemetry()
        before = tele.counters.get("fleet.rejected", 0)
        with pytest.raises(VerificationError):
            FleetService(small_fleet_spec(window=2_000_000)).run()
        assert tele.counters.get("fleet.rejected", 0) == before + 1

    def test_clean_spec_verifies_quietly_and_runs(self):
        with capture() as sink:
            report = FleetService(small_fleet_spec(days=3)).run()
        assert report.n_arrays == 4
        # a clean verification emits no verify_report event
        assert sink.of("verify_report") == []

    def test_gate_verdict_is_memoized_per_spec(self):
        from repro.verify import verify_fleet_spec

        spec = small_fleet_spec()
        first = verify_fleet_spec(spec)
        assert verify_fleet_spec(spec) is first
        assert verify_fleet_spec(spec, use_cache=False) is not first
