"""Per-layer metrics: where each comes from and what it should move.

The layers are the modules of ``src/repro``. Each row of
:data:`LAYER_METRICS` names a metric, its unit and which way is better
(as ``BENCHMARK.json`` lists them), where the traced run reads it, and
which end-to-end metric it should move on which workload. Performance
claims cite these rows by metric name.

Span times are *self* times, so the span metrics of a pass plus its
``unattributed_s`` add up to the pass's wall time. Counts come from the
program's telemetry snapshot, taken before and after each pass.
"""

from __future__ import annotations

from typing import Dict, List

FIG17, TRACE, FLEET = "fig17-grid", "trace-gemv", "fleet-decade"

# (metric, unit, better, source, should move, mainly on)
LAYER_METRICS = [
    # workloads.trace
    ("trace.parse_s", "s", "lower", "span trace.parse",
     "cold_s, warm_s", TRACE),
    ("trace.build_s", "s", "lower",
     "span trace.build (lowering, without its build-time verify)",
     "cold_s, warm_s", TRACE),
    # synth: a trace's gate synthesis runs inside its lowering
    # (trace.build_s), so synth.build_s covers the hand-built kernels.
    ("synth.build_s", "s", "lower",
     "span synth.build (Workload.build of the hand-built kernels)",
     "cold_s, warm_s", f"{FIG17}; {FLEET} cold"),
    ("synth.programs_compiled", "count", "lower", "counter compile.programs",
     "cold_s, warm_s", TRACE),
    # verify
    ("verify.mapping_s", "s", "lower", "span verify.mapping",
     "cold_s, warm_s", f"{TRACE}, {FIG17}"),
    ("verify.spec_s", "s", "lower", "span verify.spec (engine pre-dispatch)",
     "cold_s, warm_s", TRACE),
    ("verify.network_s", "s", "lower", "span verify.network",
     "cold_s, warm_s", TRACE),
    ("verify.fleet_s", "s", "lower", "span verify.fleet",
     "cold_s", FLEET),
    ("verify.runs", "count", "lower", "counter verify.runs",
     "cold_s, warm_s", f"{TRACE}, {FIG17}"),
    # core kernel
    ("kernel.batched_s", "s", "lower", "span kernel.batched",
     "cold_s, warm_s", FIG17),
    ("kernel.fastforward_s", "s", "lower", "span kernel.fastforward",
     "cold_s, warm_s; peak_rss_mb", FIG17),
    ("kernel.epochs", "count", "lower", "counter sim.epochs",
     "cold_s", FIG17),
    ("kernel.gemms", "count", "lower", "counter kernel.gemms",
     "cold_s", FIG17),
    ("kernel.iterations", "count", "higher", "counter sim.iterations",
     "base of kernel.iters_per_s", FIG17),
    ("kernel.iters_per_s", "1/s", "higher",
     "kernel.iterations / (kernel.batched_s + kernel.fastforward_s)",
     "cold_s, warm_s", FIG17),
    # core simulator and lifetime model
    ("sim.run_self_s", "s", "lower", "span sim.run",
     "cold_s, warm_s", FIG17),
    ("lifetime.s", "s", "lower", "span lifetime",
     "cold_s, warm_s", FIG17),
    # engine and result store
    ("engine.run_self_s", "s", "lower", "span engine.run",
     "cold_s, warm_s", f"{TRACE}, {FLEET}"),
    ("engine.jobs", "count", "lower", "counter engine.jobs",
     "base of engine.cache_hit_ratio", f"{TRACE}, {FLEET}"),
    ("engine.cache_hits", "count", "higher", "counter engine.cache_hits",
     "warm_s", f"{TRACE}, {FLEET}"),
    ("engine.cache_hit_ratio", "ratio", "higher",
     "engine.cache_hits / engine.jobs", "warm_s", f"{TRACE}, {FLEET}"),
    ("store.save_s", "s", "lower", "span store.save",
     "cold_s", f"{TRACE}, {FLEET}"),
    ("store.load_s", "s", "lower", "span store.load (hits and misses)",
     "warm_s", f"{TRACE}, {FLEET}"),
    ("store.saves", "count", "lower", "calls of store.save",
     "cold_s", f"{TRACE}, {FLEET}"),
    ("store.loads", "count", "lower", "calls of store.load (cache probes)",
     "warm_s", f"{TRACE}, {FLEET}"),
    ("store.bytes_written", "B", "lower", "growth of the store directory",
     "cold_s", f"{TRACE}, {FLEET}"),
    # fleet
    ("fleet.population_build_s", "s", "lower", "span fleet.population_build",
     "setup_s, warm_s", FLEET),
    ("fleet.calibrate_s", "s", "lower",
     "span fleet.calibrate (self; its engine and simulator calls are "
     "their own layers)", "cold_s, warm_s", FLEET),
    ("fleet.thresholds_s", "s", "lower", "span fleet.thresholds",
     "cold_s, warm_s, resume_s", FLEET),
    ("fleet.advance_s", "s", "lower", "phase fleet.advance of the program",
     "cold_s, warm_s, resume_s", FLEET),
    ("fleet.array_days", "count", "higher", "counter fleet.days x arrays",
     "base of fleet.array_days_per_s", FLEET),
    ("fleet.array_days_per_s", "1/s", "higher",
     "fleet.array_days / fleet.advance_s", "cold_s, warm_s, resume_s",
     FLEET),
    ("fleet.report_s", "s", "lower",
     "span fleet.report (kaplan_meier, replacement rate, headroom)",
     "cold_s, warm_s, resume_s", FLEET),
    ("fleet.checkpoint_save_s", "s", "lower", "span fleet.checkpoint_save",
     "cold_s, warm_s", FLEET),
    ("fleet.checkpoint_load_s", "s", "lower", "span fleet.checkpoint_load",
     "resume_s", FLEET),
    ("fleet.days", "count", "higher", "counter fleet.days",
     "cold_s, warm_s, resume_s", FLEET),
    ("fleet.windows", "count", "higher", "counter fleet.windows",
     "cold_s, warm_s, resume_s", FLEET),
    ("fleet.checkpoints", "count", "lower", "counter fleet.checkpoints",
     "cold_s, warm_s", FLEET),
    # residual
    ("traced_wall_s", "s", "lower", "sum of the traced passes' wall times",
     "base of unattributed_share", "all"),
    ("unattributed_s", "s", "lower",
     "traced wall time minus the time its top-level spans cover",
     "n/a", "all"),
    ("unattributed_share", "ratio", "lower",
     "unattributed_s / traced_wall_s", "n/a", "all"),
    ("tracing_overhead_s", "s", "lower",
     "median traced cold_s minus median untraced cold_s", "n/a", "all"),
]

#: metric -> span name whose summed self time it reports.
SPAN_OF = {
    "trace.parse_s": "trace.parse",
    "trace.build_s": "trace.build",
    "synth.build_s": "synth.build",
    "verify.mapping_s": "verify.mapping",
    "verify.spec_s": "verify.spec",
    "verify.network_s": "verify.network",
    "verify.fleet_s": "verify.fleet",
    "kernel.batched_s": "kernel.batched",
    "kernel.fastforward_s": "kernel.fastforward",
    "sim.run_self_s": "sim.run",
    "lifetime.s": "lifetime",
    "engine.run_self_s": "engine.run",
    "store.save_s": "store.save",
    "store.load_s": "store.load",
    "fleet.population_build_s": "fleet.population_build",
    "fleet.calibrate_s": "fleet.calibrate",
    "fleet.thresholds_s": "fleet.thresholds",
    "fleet.report_s": "fleet.report",
    "fleet.checkpoint_save_s": "fleet.checkpoint_save",
    "fleet.checkpoint_load_s": "fleet.checkpoint_load",
}

#: metric -> telemetry counter it reports (summed over the passes).
COUNTER_OF = {
    "synth.programs_compiled": "compile.programs",
    "verify.runs": "verify.runs",
    "kernel.epochs": "sim.epochs",
    "kernel.gemms": "kernel.gemms",
    "kernel.iterations": "sim.iterations",
    "engine.jobs": "engine.jobs",
    "engine.cache_hits": "engine.cache_hits",
    "fleet.days": "fleet.days",
    "fleet.windows": "fleet.windows",
    "fleet.checkpoints": "fleet.checkpoints",
}


def layer_of(metric: str) -> str:
    """The module a time metric belongs to, for the layer shares."""
    if metric.startswith("trace."):
        return "workloads.trace"
    if metric.startswith("store."):
        return "engine.store"
    if metric.startswith("fleet."):
        return metric[: -len("_s")]
    return {"sim.run_self_s": "core.simulator",
            "lifetime.s": "core.lifetime"}.get(metric, metric.split(".")[0])


#: The predicted largest layer of each workload.
PREDICTIONS = {
    FIG17: ("kernel is the largest layer", ("kernel",)),
    TRACE: ("verify plus lowering is the largest",
            ("verify", "workloads.trace")),
    FLEET: ("fleet.thresholds is the largest", ("fleet.thresholds",)),
}


def pass_metrics(round_result: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced round, summed over its passes."""
    metrics = {name: 0.0 for name, *_ in LAYER_METRICS}
    arrays = round_result["extra"].get("arrays", 0)
    for record in round_result["passes"].values():
        ledger = record["ledger"]
        for metric, span in SPAN_OF.items():
            metrics[metric] += ledger["self_s"].get(span, 0.0)
        for metric, counter in COUNTER_OF.items():
            metrics[metric] += record["counters"].get(counter, 0)
        metrics["store.saves"] += ledger["calls"].get("store.save", 0)
        metrics["store.loads"] += ledger["calls"].get("store.load", 0)
        metrics["store.bytes_written"] += record["store_bytes_written"]
        metrics["fleet.advance_s"] += record["phases"].get("fleet.advance", 0.0)
        metrics["traced_wall_s"] += record["wall_s"]
        metrics["unattributed_s"] += record["wall_s"] - ledger["top_s"]
    kernel_s = metrics["kernel.batched_s"] + metrics["kernel.fastforward_s"]
    if kernel_s > 0:
        metrics["kernel.iters_per_s"] = metrics["kernel.iterations"] / kernel_s
    if metrics["engine.jobs"]:
        metrics["engine.cache_hit_ratio"] = (
            metrics["engine.cache_hits"] / metrics["engine.jobs"]
        )
    metrics["fleet.array_days"] = metrics["fleet.days"] * arrays
    if metrics["fleet.advance_s"] > 0:
        metrics["fleet.array_days_per_s"] = (
            metrics["fleet.array_days"] / metrics["fleet.advance_s"]
        )
    if metrics["traced_wall_s"] > 0:
        metrics["unattributed_share"] = (
            metrics["unattributed_s"] / metrics["traced_wall_s"]
        )
    return metrics


def layer_shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Seconds per layer. ``fleet.advance`` is the program's own phase and
    lies inside ``unattributed_s``, as no span covers the day loop."""
    shares: Dict[str, float] = {}
    for metric in list(SPAN_OF) + ["fleet.advance_s"]:
        layer = layer_of(metric)
        shares[layer] = shares.get(layer, 0.0) + metrics[metric]
    return shares


def check_prediction(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Lines stating the measured layer shares against the prediction."""
    claim, predicted = PREDICTIONS[workload]
    shares = layer_shares(metrics)
    wall = metrics["traced_wall_s"] or 1.0
    joined = " + ".join(predicted)
    predicted_s = sum(shares[layer] for layer in predicted)
    others = sorted(
        ((seconds, layer) for layer, seconds in shares.items()
         if layer not in predicted),
        reverse=True,
    )
    top_s, top = others[0]
    held = predicted_s > top_s
    lines = [
        f"prediction on {workload}: {claim} -- "
        f"{'held' if held else 'FAILED'}: {joined} {predicted_s:.3f} s "
        f"({predicted_s / wall:.1%} of traced wall), largest other "
        f"{top} {top_s:.3f} s ({top_s / wall:.1%})"
    ]
    lines += [
        f"  layer {layer:18s} {seconds:9.4f} s  {seconds / wall:6.1%}"
        for seconds, layer in sorted(
            ((s, layer) for layer, s in shares.items()), reverse=True
        )
        if seconds > 0
    ]
    return lines
