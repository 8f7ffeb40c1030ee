"""E33 — fleet service: campaign throughput and warm-resume speedup.

Not a paper figure — an infrastructure benchmark for the ``repro.fleet``
subsystem. A mixed MRAM/PCM fleet (two workload cohorts, lognormal
endurance variation, Poisson traffic) runs a one-year campaign three
ways:

1. cold — empty result store, full calibration plus the whole day loop
   (a checkpoint is written late in the campaign for pass 3);
2. warm — same store, so both cohort calibrations and the per-array
   death thresholds come back cached;
3. resumed — a fresh service picks up the late checkpoint and simulates
   only the remaining days on the warm store.

All three must produce bit-identical fleet reports — that is the
resume-determinism claim at benchmark scale — and the resumed pass must
beat the cold pass by at least 1.3x (it skips calibration, the
threshold draws *and* most of the day loop). Beyond the plain-text
artifact the benchmark writes a
machine-readable ``BENCH_E33.json`` (fleet shape, simulated
array-days/second, warm and resumed speedups) so downstream tooling can
track fleet-layer throughput over time.
"""

import json
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

N_ARRAYS = 512
DAYS = 365
CHECKPOINT_DAY = 300


def _spec() -> FleetSpec:
    return FleetSpec(
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
        days=DAYS,
        seed=7,
        rows=128,
        cols=128,
        cohort_iterations=max(bench_iterations(2_000), 500),
    )


def test_bench_e33_fleet_throughput(record, results_dir, tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("fleet-store"))
    checkpoint_dir = str(tmp_path_factory.mktemp("fleet-ckpt"))
    spec = _spec()

    # Leave a late checkpoint behind (untimed) for the resumed pass.
    FleetService(spec, store=store, checkpoint_dir=checkpoint_dir).run(
        stop_after_day=CHECKPOINT_DAY
    )

    # The timed cold pass runs the full campaign on a *fresh* store.
    cold_store = ResultStore(tmp_path_factory.mktemp("fleet-cold"))
    start = time.perf_counter()
    cold_report = FleetService(spec, store=cold_store).run()
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm_report = FleetService(spec, store=cold_store).run()
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    resumed_report = FleetService(
        spec, store=store, checkpoint_dir=checkpoint_dir
    ).run()
    resumed_s = time.perf_counter() - start

    assert warm_report.content_hash() == cold_report.content_hash()
    assert resumed_report.content_hash() == cold_report.content_hash()
    assert resumed_report.runtime["resumed_from_day"] == CHECKPOINT_DAY
    assert warm_report.runtime["calibration_statuses"] == [
        "cached",
        "cached",
    ]

    array_days = N_ARRAYS * DAYS
    warm_speedup = cold_s / warm_s
    resumed_speedup = cold_s / resumed_s
    payload = {
        "experiment": "E33_fleet",
        "fleet": {
            "arrays": N_ARRAYS,
            "days": DAYS,
            "cohorts": ["add-StxSt", "conv-StxSt"],
            "technology_mix": ["MRAM", "PCM"],
            "endurance_sigma": 0.3,
            "traffic": "poisson",
            "rate_per_day": 4e6,
            "cohort_iterations": spec.cohort_iterations,
            "seed": 7,
        },
        "cold": {
            "seconds": round(cold_s, 4),
            "array_days_per_second": round(array_days / cold_s, 1),
        },
        "warm_store": {
            "seconds": round(warm_s, 4),
            "speedup": round(warm_speedup, 2),
        },
        "resumed_from_day": {
            "day": CHECKPOINT_DAY,
            "seconds": round(resumed_s, 4),
            "speedup": round(resumed_speedup, 2),
        },
        "deaths": cold_report.n_deaths,
        "survival_curve_hash": cold_report.curve.content_hash(),
        "report_hash": cold_report.content_hash(),
        "bit_identical": True,
    }
    (results_dir / "BENCH_E33.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E33 fleet service, {N_ARRAYS} arrays x {DAYS} virtual days "
        f"(2 cohorts, MRAM/PCM, sigma=0.3, Poisson)",
        f"  cold (full)        {cold_s:8.2f} s  "
        f"({array_days / cold_s:10.0f} array-days/s)",
        f"  warm store         {warm_s:8.2f} s  ({warm_speedup:.1f}x)",
        f"  resumed @ day {CHECKPOINT_DAY}  {resumed_s:8.2f} s  "
        f"({resumed_speedup:.1f}x)",
        f"  deaths             {cold_report.n_deaths}/{N_ARRAYS}",
        f"  survival curve     {cold_report.curve.content_hash()[:12]}",
        "  warm and resumed reports bit-identical to cold: yes",
    ]
    record("E33_fleet", "\n".join(lines))

    assert resumed_speedup >= 1.3, (
        f"resumed campaign only {resumed_speedup:.2f}x faster than cold "
        f"({resumed_s:.2f}s vs {cold_s:.2f}s)"
    )
