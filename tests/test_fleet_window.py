"""The no-death window stepper: the bound itself, bit-identity against
per-day stepping, kill/resume drills, checkpoint days and telemetry.

The headline claim under test: ``window`` is a pure execution knob —
for every traffic model and dispatch policy, the final report hash is
bit-identical across per-day, windowed, and killed-then-resumed
executions.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ResultStore
from repro.fleet import (
    CohortSpec,
    FleetService,
    FleetSpec,
    PopulationSpec,
    TrafficSpec,
    no_death_window,
)
from repro.fleet.service import MAX_WINDOW
from repro.telemetry import capture


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One calibration store for the module: every campaign here shares
    cohort geometry and seed, so calibration simulates exactly once."""
    return ResultStore(tmp_path_factory.mktemp("fleet-window-store"))


def fleet_spec(**overrides):
    """A 12-array PCM fleet tuned so deaths happen mid-campaign."""
    defaults = dict(
        population=PopulationSpec(
            n_arrays=12,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
            endurance_sigma=0.5,
        ),
        traffic=TrafficSpec(model="poisson", rate=8e5),
        days=25,
        seed=3,
        rows=128,
        cols=128,
        cohort_iterations=200,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestNoDeathWindow:
    def test_bound_counts_full_safe_days(self):
        thresholds = np.array([100.0, 1000.0])
        cumulative = np.array([0.0, 0.0])
        death_day = np.array([-1, -1], dtype=np.int64)
        per_day = np.array([10.0, 10.0])
        # The nearer array has ~10 safe days (margin shaves none here).
        bound = no_death_window(
            thresholds, cumulative, death_day, per_day, 365
        )
        assert bound == 9  # floor((100 * (1 - 1e-6)) / 10) = 9

    def test_imminent_death_gives_zero(self):
        bound = no_death_window(
            np.array([10.0]),
            np.array([9.5]),
            np.array([-1], dtype=np.int64),
            np.array([10.0]),
            365,
        )
        assert bound == 0

    def test_dead_arrays_are_ignored(self):
        # One dead array at the brink must not shrink the bound.
        bound = no_death_window(
            np.array([10.0, 1e9]),
            np.array([9.9, 0.0]),
            np.array([4, -1], dtype=np.int64),
            np.array([10.0, 1.0]),
            50,
        )
        assert bound == 50

    def test_everything_dead_spans_horizon(self):
        bound = no_death_window(
            np.array([10.0]),
            np.array([20.0]),
            np.array([2], dtype=np.int64),
            np.array([10.0]),
            123,
        )
        assert bound == 123

    def test_zero_rate_arrays_never_cross(self):
        bound = no_death_window(
            np.array([10.0]),
            np.array([0.0]),
            np.array([-1], dtype=np.int64),
            np.array([0.0]),
            7,
        )
        assert bound == 7

    def test_clipped_to_horizon_and_cap(self):
        thresholds = np.array([1e18])
        args = (
            thresholds,
            np.array([0.0]),
            np.array([-1], dtype=np.int64),
            np.array([1.0]),
        )
        assert no_death_window(*args, 10) == 10
        assert no_death_window(*args, 10**9) == MAX_WINDOW
        assert no_death_window(*args, 0) == 0


class TestWindowIdentity:
    """The acceptance matrix: all traffic models x both dispatches."""

    @pytest.mark.parametrize("model", ["deterministic", "poisson", "bursty"])
    @pytest.mark.parametrize("dispatch", ["even", "least_worn"])
    def test_hash_identical_per_day_and_windowed(self, model, dispatch, store):
        spec = fleet_spec(
            traffic=TrafficSpec(model=model, rate=8e5), dispatch=dispatch
        )
        serial = FleetService(spec, store=store).run()
        windowed = FleetService(
            dataclasses.replace(spec, window=8), store=store
        ).run()
        assert serial.content_hash() == windowed.content_hash()
        # The matrix is only meaningful if the campaign exercises the
        # crossing machinery: every array dies mid-horizon here.
        assert serial.n_deaths == 12
        assert serial.runtime["windows"] == 0
        assert windowed.runtime["windows"] >= 1
        assert windowed.runtime["window_days"] >= 2

    def test_single_array_fleet_windowed_is_identical(self, store):
        spec = fleet_spec(
            population=PopulationSpec(
                n_arrays=1,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("add"),),
            ),
            traffic=TrafficSpec(model="deterministic", rate=5e5),
            days=10,
        )
        serial = FleetService(spec, store=store).run()
        windowed = FleetService(
            dataclasses.replace(spec, window=10), store=store
        ).run()
        assert serial.content_hash() == windowed.content_hash()
        assert windowed.runtime["windows"] >= 1


class TestWindowInvarianceProperty:
    @given(
        n_arrays=st.integers(2, 10),
        sigma=st.sampled_from([0.0, 0.3, 0.5]),
        model=st.sampled_from(["deterministic", "poisson", "bursty"]),
        dispatch=st.sampled_from(["even", "least_worn"]),
        rate=st.sampled_from([2e5, 8e5]),
        days=st.integers(3, 12),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_specs_hash_identically_per_day_and_windowed(
        self, store, n_arrays, sigma, model, dispatch, rate, days
    ):
        # seed/rows/cohorts stay fixed so calibration is one cache hit;
        # everything the day loop consumes varies.
        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=n_arrays,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("add"), CohortSpec("conv")),
                endurance_sigma=sigma,
            ),
            traffic=TrafficSpec(model=model, rate=rate),
            days=days,
            seed=3,
            rows=128,
            cols=128,
            cohort_iterations=200,
            dispatch=dispatch,
        )
        hashes = {
            window: FleetService(
                dataclasses.replace(spec, window=window), store=store
            )
            .run()
            .content_hash()
            for window in (0, 2, days)
        }
        assert len(set(hashes.values())) == 1, hashes


class TestWindowKillResume:
    def test_per_day_pause_resumes_windowed(self, store, tmp_path):
        spec = fleet_spec()
        uninterrupted = FleetService(spec, store=store).run()

        ckpt = str(tmp_path / "ckpt")
        paused = FleetService(
            spec,
            store=store,
            checkpoint_dir=ckpt,
            checkpoint_every=4,
        ).run(stop_after_day=8)
        assert paused is None

        resumed = FleetService(
            dataclasses.replace(spec, window=6),
            store=store,
            checkpoint_dir=ckpt,
        ).run()
        assert resumed.runtime["resumed_from_day"] == 8
        assert resumed.content_hash() == uninterrupted.content_hash()

    def test_windowed_checkpoints_land_on_the_same_days(
        self, store, tmp_path
    ):
        spec = fleet_spec(
            traffic=TrafficSpec(model="deterministic", rate=8e5)
        )
        serial_dir = tmp_path / "serial"
        window_dir = tmp_path / "window"
        FleetService(
            spec,
            store=store,
            checkpoint_dir=str(serial_dir),
            checkpoint_every=5,
        ).run()
        FleetService(
            dataclasses.replace(spec, window=10),
            store=store,
            checkpoint_dir=str(window_dir),
            checkpoint_every=5,
        ).run()
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        window_files = sorted(p.name for p in window_dir.iterdir())
        assert serial_files == window_files
        assert serial_files  # the cadence actually wrote checkpoints


class TestWindowTelemetry:
    def test_window_events_replace_day_events_inside_windows(self, store):
        spec = fleet_spec(
            traffic=TrafficSpec(model="deterministic", rate=8e5),
            window=10,
        )
        with capture() as sink:
            report = FleetService(spec, store=store).run()
        windows = sink.of("fleet_window")
        days = sink.of("fleet_day")
        assert windows, "windowed campaign emitted no fleet_window events"
        covered = sum(event["days"] for event in windows)
        assert covered == report.runtime["window_days"]
        assert covered + len(days) == spec.days
        for event in windows:
            assert event["days"] >= 2
            assert {"day", "alive", "served"} <= event.keys()

    def test_counters_event_carries_fleet_counters(self, store):
        with capture() as sink:
            FleetService(fleet_spec(), store=store).run()
        [counters] = sink.of("counters")[-1:]
        assert counters["counters"]["fleet.days"] >= 25


class TestSpecValidation:
    @pytest.mark.parametrize("workers", [0, 2, 8])
    def test_fleet_workers_other_than_one_rejected(self, workers):
        with pytest.raises(ValueError, match="parallel day loop was removed"):
            fleet_spec(fleet_workers=workers)

    def test_fleet_workers_one_keeps_the_identity(self):
        # The hash this spec had while fleet_workers still selected a
        # parallel day loop: dropping the loop must not re-key campaigns
        # or orphan their checkpoints.
        spec = fleet_spec(fleet_workers=1)
        assert spec.content_hash == (
            "5982fd7a637adeaed407e2aa57832ce47a92964c5f39076b99aa15042d927a16"
        )

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            fleet_spec(window=-1)

    def test_execution_knobs_stay_out_of_the_identity(self):
        plain = fleet_spec()
        tuned = fleet_spec(window=50)
        assert plain.content_hash == tuned.content_hash
        assert "fleet_workers" not in plain.identity()
        assert "window" not in plain.identity()
