"""E36 — the no-death window stepper, measured like for like.

Not a paper figure — the performance benchmark for the fleet day loop's
``window`` knob. One spec, one machine, one run: the E33 fleet (512
MRAM/PCM arrays, two cohorts, Poisson traffic, seed 7) over a ten-year
horizon, advanced per day (``window=0``) and through the no-death window
stepper (``window=3650``). Two claims, measured separately:

1. **Identity (timing-free, the CI gate).** ``window`` is a pure
   execution knob: the E33 campaign must hash bit-identically per day
   and windowed, and (when the horizons line up) match the report hash
   pinned in ``BENCH_E33.json``.

2. **Timing.** For both settings the benchmark records the
   ``fleet.advance`` phase (the day loop itself) and the wall time of a
   whole warm-store run (day loop and report; the cohort calibrations
   and the death thresholds come back from the store, so the wall no
   longer includes drawing the thresholds). The two settings alternate
   over ``REPEATS`` runs and the medians are recorded. The headline ``speedup`` is the ratio
   of the two ``fleet.advance`` medians, so numerator and denominator
   share the spec; nothing about timing is asserted.
"""

import dataclasses
import json
import statistics
import time

from conftest import bench_iterations
from repro.engine import ResultStore
from repro.fleet import (
    CohortSpec,
    FleetService,
    FleetSpec,
    PopulationSpec,
    TrafficSpec,
)
from repro.telemetry import capture

N_ARRAYS = 512
E33_DAYS = 365
DAYS = 3650
WINDOW = 3650
REPEATS = 5


def _spec(**overrides) -> FleetSpec:
    base = dict(
        population=PopulationSpec(
            n_arrays=N_ARRAYS,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(
                CohortSpec("add", weight=1.0),
                CohortSpec("conv", weight=1.0),
            ),
            endurance_sigma=0.3,
        ),
        traffic=TrafficSpec(model="poisson", rate=4e6),
        days=E33_DAYS,
        seed=7,
        rows=128,
        cols=128,
        cohort_iterations=max(bench_iterations(2_000), 500),
    )
    base.update(overrides)
    return FleetSpec(**base)


def _e33_baseline(results_dir):
    """The pinned E33 payload, if this checkout carries one."""
    path = results_dir / "BENCH_E33.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def test_bench_e36_window_identity(results_dir, tmp_path_factory):
    """Per-day and windowed executions are bit-identical."""
    store = ResultStore(tmp_path_factory.mktemp("fleet-window-identity"))
    spec = _spec()
    hashes = {}
    for window in (0, 2, E33_DAYS):
        report = FleetService(
            dataclasses.replace(spec, window=window), store=store
        ).run()
        hashes[f"window={window}"] = report.content_hash()
    assert len(set(hashes.values())) == 1, hashes

    baseline = _e33_baseline(results_dir)
    if (
        baseline is not None
        and baseline["fleet"]["cohort_iterations"] == spec.cohort_iterations
    ):
        assert hashes["window=0"] == baseline["report_hash"], (
            "the day loop changed the pinned E33 report hash"
        )


def _timed_run(spec, store):
    """One warm-store campaign: (report, fleet.advance s, wall s)."""
    with capture() as sink:
        start = time.perf_counter()
        report = FleetService(spec, store=store).run()
        wall_s = time.perf_counter() - start
    [advance_s] = [
        event["seconds"]
        for event in sink.of("phase")
        if event["name"] == "fleet.advance"
    ]
    return report, advance_s, wall_s


def test_bench_e36_window_timing(record, results_dir, tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("fleet-window-bench"))
    per_day_spec = _spec(days=DAYS)
    windowed_spec = dataclasses.replace(per_day_spec, window=WINDOW)
    FleetService(per_day_spec, store=store).run()  # calibrate untimed

    runs = {"per_day": [], "windowed": []}
    reports = {}
    for repeat in range(REPEATS):
        order = [("per_day", per_day_spec), ("windowed", windowed_spec)]
        if repeat % 2:
            order.reverse()
        for label, spec in order:
            report, advance_s, wall_s = _timed_run(spec, store)
            reports[label] = report
            runs[label].append((advance_s, wall_s))
    assert (
        reports["per_day"].content_hash()
        == reports["windowed"].content_hash()
    )
    windowed_report = reports["windowed"]
    assert windowed_report.runtime["windows"] >= 1
    assert reports["per_day"].runtime["windows"] == 0

    def summary(label):
        advance = statistics.median(a for a, _ in runs[label])
        wall = statistics.median(w for _, w in runs[label])
        return {
            "fleet_advance": {
                "seconds": round(advance, 4),
                "array_days_per_second": round(N_ARRAYS * DAYS / advance, 1),
            },
            "wall": {"seconds": round(wall, 4)},
        }

    per_day = summary("per_day")
    windowed = summary("windowed")
    advance_speedup = (
        per_day["fleet_advance"]["seconds"]
        / windowed["fleet_advance"]["seconds"]
    )
    wall_speedup = per_day["wall"]["seconds"] / windowed["wall"]["seconds"]

    payload = {
        "experiment": "E36_fleet_window",
        "fleet": {
            "arrays": N_ARRAYS,
            "days": DAYS,
            "cohorts": ["add-StxSt", "conv-StxSt"],
            "technology_mix": ["MRAM", "PCM"],
            "endurance_sigma": 0.3,
            "traffic": "poisson",
            "rate_per_day": 4e6,
            "dispatch": "even",
            "cohort_iterations": per_day_spec.cohort_iterations,
            "seed": 7,
        },
        "repeats": REPEATS,
        "statistic": "median",
        "per_day": {"window": 0, **per_day},
        "windowed": {
            "window": WINDOW,
            "windows": windowed_report.runtime["windows"],
            "window_days": windowed_report.runtime["window_days"],
            **windowed,
        },
        "deaths": windowed_report.n_deaths,
        "wall_speedup": round(wall_speedup, 2),
        "speedup_basis": "fleet.advance median, same spec, same run",
        "speedup": round(advance_speedup, 2),
        "bit_identical": True,
    }
    (results_dir / "BENCH_E36.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    def line(label, row):
        advance_s = row["fleet_advance"]["seconds"]
        return (
            f"    {label:<12} fleet.advance {advance_s:7.3f} s"
            f"   wall {row['wall']['seconds']:7.3f} s"
        )

    lines = [
        f"E36 no-death window stepper, {N_ARRAYS} arrays x {DAYS} days "
        f"(E33 fleet, poisson traffic, even dispatch; median of {REPEATS})",
        line("window=0", per_day),
        line(f"window={WINDOW}", windowed),
        f"  windowed run: {windowed_report.runtime['windows']} windows "
        f"covering {windowed_report.runtime['window_days']} of {DAYS} days, "
        f"{windowed_report.n_deaths} deaths",
        f"  fleet.advance speedup {advance_speedup:.2f}x, "
        f"wall speedup {wall_speedup:.2f}x (same spec, same run)",
        "  per-day and windowed reports bit-identical: yes",
    ]
    record("E36_fleet_window", "\n".join(lines))
