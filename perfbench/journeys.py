"""One round of one benchmark journey, run in a fresh process.

``run.py`` starts this file once per round with a JSON request::

    python3 perfbench/journeys.py '{"workload": "fig17-grid", "seed": 7,
        "trace": false, "spawned_at": <time.monotonic()>, "src": "...",
        "work_dir": "...", "result": "..."}'

The round sets up (imports ``repro`` from the checkout's ``src`` and
builds the inputs), runs the journey's timed passes, checks every
operation's output and writes one JSON result file. An operation is one
grid cell, one engine job or one fleet pass; it fails when it raises,
returns an engine ``FAILED`` status or fails its output check.
"""

from __future__ import annotations

import collections
import fractions
import gc
import hashlib
import json
import re
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: The paper's Fig. 17 horizon is 100,000 iterations. Half of it, on the
#: conv grid alone, lets a run hold enough rounds for a steady median; the
#: mult-32b grid is left out because verification, not the kernel,
#: dominates it.
GRID_ITERATIONS = 50_000
#: E34's fast-forward shape at 100x its horizon: ``epoch_lengths``
#: materialises one int64 per iteration, which sets the peak RSS.
PROJECTION_ITERATIONS = 100_000_000
#: GEMV rows, columns and operand bits: half the rows of the 8x8x8
#: sizing, so that a run holds enough rounds for a steady median.
TRACE_GEMV = (4, 8, 8)
TRACE_ITERATIONS = 2_000
#: One cell a pass, so that a run holds enough rounds for a steady median
#: of the cold pass, whose first-touch costs vary most.
TRACE_COLD = ("StxSt",)
#: Not in the store after the cold pass, so only reuse of lowering or
#: verification can speed the warm pass up.
TRACE_WARM = ("RaxRa",)
FLEET_ARRAYS = 2_048
FLEET_DAYS = 3_650
FLEET_RESUME_DAY = 3_000


def digest(array) -> str:
    """Short SHA-256 of a counter matrix (bit-exact identity)."""
    import numpy as np

    data = np.ascontiguousarray(array, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left, self.right = left, right

    def combined(self) -> int:
        return self.left * 3 + self.right


_ITEM = re.compile(r"(\w+)-(\d+)")


def probe_work() -> float:
    """Time a fixed ~1.5 ms mix of interpreter and numpy work, in seconds.

    :class:`HostSampler` runs it from a signal handler. The interpreter
    part walks many code paths (JSON, regular expressions, fractions,
    string formatting, sets, counters, slotted objects, dict sorting):
    on a shared host a busy neighbour slows code with a large footprint
    more than a tight loop, and the program's code footprint is large.
    The collector is off while it runs, so the program's live objects
    neither slow it nor see it.
    """
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(30):
            record = {f"k{i}": i, "v": [i, i + 1], "s": "x" * (i % 7)}
            total += len(json.dumps(record, sort_keys=True))
            total += int(_ITEM.match(f"item-{i}").group(2))
            total += len({i, i + 1, i * 2} | {3, 4})
            total += int(fractions.Fraction(i + 1, 7) * 7)
            total += _Pair(i, 2).combined()
            total += len("{:>8}|{:.3f}".format(i, i / 3))
            counts = collections.Counter("abracadabra"[: i % 11 + 1])
            total += counts.most_common(1)[0][1]
        table = {}
        for i in range(500):
            table[(i * 7919) % 503] = str(i)
        total += sum(sorted(table, key=table.__getitem__)[::3])
        values = np.sin(np.arange(10_000, dtype=np.float64) * 1e-3)
        for _ in range(2):
            values = np.sort(values[::-1] * 1.000001)
        total += float(values[0])
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


class HostSampler:
    """Samples the speed of the host all through the round.

    The speed of a shared host changes from second to second. Every
    ``INTERVAL_S`` of wall time a SIGALRM handler runs :func:`probe_work`
    and adds up how long the probe took and how long the handler ran,
    so a pass can take the handler's time out of its own and divide by
    the mean probe time seen while it ran (see README.md).
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.probes = 0
        self.probe_s = 0.0
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls the alarm interrupts, as if it never came.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.probe_s += probe_work()
        self.probes += 1
        self.handler_s += time.perf_counter() - start

    def reading(self) -> tuple:
        """Counters to subtract from a later reading."""
        return self.probes, self.probe_s, self.handler_s

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def directory_bytes(path: Path) -> int:
    """Total size of the files below ``path`` (0 if it does not exist)."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Round:
    """Bookkeeping for the passes, operations and checks of one round."""

    def __init__(self, request: dict, sampler: HostSampler) -> None:
        self.request = request
        self.sampler = sampler
        self.seed = int(request["seed"])
        self.work = Path(request["work_dir"])
        self.passes: dict = {}
        self.errors: list = []
        self.digests: dict = {}
        self.improvements: dict = {}
        self.extra: dict = {}
        self.setup_s = None
        self.setup_probe = None
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        self.pins = (
            pins["workloads"][request["workload"]]
            if self.seed == pins["seed"]
            else None
        )
        self.recorder = None
        if request["trace"]:
            from tracing import SpanRecorder, install

            self.recorder = SpanRecorder()
            install(self.recorder)
        from repro.telemetry import get_telemetry

        self.telemetry = get_telemetry()

    # -- timing ---------------------------------------------------------

    def first_job(self) -> None:
        """Set-up ends here: the process is about to make its first job."""
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.request["spawned_at"]
            self.setup_probe = self.sampler.reading()

    def begin(self, name: str, store: "Path | None" = None) -> None:
        """Open pass ``name``; segments are timed with :meth:`timed`."""
        self.first_job()
        self.passes[name] = {
            "wall_s": 0.0, "probes": 0, "probe_s": 0.0, "handler_s": 0.0,
            "attempted": 0, "failed": 0,
            "_snapshot": self.telemetry.snapshot(),
            "_store": store,
            "_store_bytes": directory_bytes(store) if store else 0,
        }
        self.current = name
        if self.recorder is not None:
            self.recorder.pass_id = name

    def timed(self, func, *args, **kwargs):
        """Call ``func`` inside the open pass's wall clock.

        Output checks run between timed segments, so the pass time is the
        program's work alone. The host probes that ran meanwhile are
        counted with the segment.
        """
        record = self.passes[self.current]
        before = self.sampler.reading()
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            record["wall_s"] += time.perf_counter() - start
            for key, old, new in zip(("probes", "probe_s", "handler_s"),
                                     before, self.sampler.reading()):
                record[key] += new - old

    def end(self) -> None:
        """Close the open pass and record its counter and phase deltas."""
        record = self.passes[self.current]
        before = record.pop("_snapshot")
        after = self.telemetry.snapshot()
        record["counters"] = {
            name: value - before["counters"].get(name, 0)
            for name, value in after["counters"].items()
            if value != before["counters"].get(name, 0)
        }
        record["phases"] = {
            name: entry["seconds"]
            - before["phases"].get(name, {}).get("seconds", 0.0)
            for name, entry in after["phases"].items()
        }
        store = record.pop("_store")
        bytes_before = record.pop("_store_bytes")
        record["store_bytes_written"] = (
            directory_bytes(store) - bytes_before if store else 0
        )
        if self.recorder is not None:
            record["ledger"] = self.recorder.pass_ledger(self.current)
            self.recorder.pass_id = "untimed"

    # -- operations -----------------------------------------------------

    def operation(self, name: str, ok: bool, why: str = "") -> bool:
        """Count one operation of the open pass; record why it failed."""
        record = self.passes[self.current]
        record["attempted"] += 1
        if not ok:
            record["failed"] += 1
            self.errors.append(f"{self.current} {name}: {why}")
        return ok

    def failed_block(self, names, error: BaseException) -> None:
        """Every operation in ``names`` failed because a call raised."""
        why = "".join(
            traceback.format_exception_only(type(error), error)
        ).strip()
        traceback.print_exc(file=sys.stderr)
        for name in names:
            self.operation(name, False, why)

    def check_digest(self, name: str, value: str) -> bool:
        """Record a cell digest; pinned at the pin seed, and identical in
        every pass of the round that repeats the cell."""
        seen = self.digests.setdefault(name, value)
        if seen != value:
            return self.operation(
                name, False, f"digest {value} differs from {seen} this round"
            )
        if self.pins is not None:
            pinned = self.pins["digests"].get(name)
            if pinned != value:
                return self.operation(
                    name, False, f"digest {value}, pinned {pinned}"
                )
        return True

    def check_improvement(self, name: str, value: float) -> bool:
        """Record an improvement; StxSt is exactly 1.0, and the table is
        pinned at the pin seed."""
        self.improvements.setdefault(name, value)
        if value is None:
            return self.operation(name, False, "no improvement computed")
        if name.endswith("/StxSt") and value != 1.0:
            return self.operation(name, False, f"StxSt improvement {value!r}")
        if self.pins is not None:
            pinned = self.pins["improvements"].get(name)
            if pinned != value:
                return self.operation(
                    name, False, f"improvement {value!r}, pinned {pinned!r}"
                )
        return True

    def result(self) -> dict:
        out = {
            "setup_s": self.setup_s,
            "setup_probes": self.setup_probe[0],
            "setup_probe_s": self.setup_probe[1],
            "setup_handler_s": self.setup_probe[2],
            "passes": self.passes,
            "errors": self.errors,
            "digests": self.digests,
            "improvements": self.improvements,
            "extra": self.extra,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        if self.recorder is not None:
            out["spans"] = self.recorder.spans
        return out


# ----------------------------------------------------------------------
# fig17-grid: the paper's configuration grid plus a lifetime projection
# ----------------------------------------------------------------------


def fig17_grid(run: Round) -> None:
    from repro import (
        BalanceConfig,
        Convolution,
        EnduranceSimulator,
        ParallelMultiplication,
        SimulationSettings,
        all_configurations,
        configuration_grid,
        default_architecture,
    )

    architecture = default_architecture()
    workloads = (("conv", Convolution()),)
    settings = SimulationSettings(seed=run.seed)
    projection_architecture = default_architecture(256, 64)
    projection_workload = ParallelMultiplication(bits=8)
    projection_config = BalanceConfig.from_label(
        "BsxBs", recompile_interval=1
    )
    projection_settings = settings.replace(fastforward=True)
    labels = [config.label for config in all_configurations()]

    for name in ("cold", "warm"):
        run.begin(name)
        simulator = EnduranceSimulator(architecture, settings)
        for key, workload in workloads:
            cells = [f"{key}/{label}" for label in labels]
            try:
                grid = run.timed(
                    configuration_grid, simulator, workload,
                    iterations=GRID_ITERATIONS,
                )
            except Exception as error:
                run.failed_block(cells, error)
                continue
            for cell, entry in zip(cells, grid):
                if (run.check_digest(cell, digest(entry.result.state.write_counts))
                        and run.check_improvement(cell, entry.improvement)):
                    run.operation(cell, True)
            del grid
        cell = "projection/BsxBs-1"
        try:
            projector = EnduranceSimulator(
                projection_architecture, projection_settings
            )
            result = run.timed(
                projector.run, projection_workload, projection_config,
                iterations=PROJECTION_ITERATIONS,
            )
        except Exception as error:
            run.failed_block([cell], error)
        else:
            # The E34 Bitlet cross-check: fast-forwarded wear conserves
            # writes-per-iteration x iterations exactly.
            include = projection_architecture.presets_output
            per_iteration = sum(
                float(program.write_counts(include_presets=include).sum())
                for program in result.mapping.assignment.values()
            )
            total = float(result.state.write_counts.sum())
            expected = per_iteration * PROJECTION_ITERATIONS
            if (run.check_digest(cell, digest(result.state.write_counts))
                    and run.operation(
                        cell, total == expected,
                        f"{total!r} writes, model says {expected!r}")):
                run.extra["projection_writes"] = total
            del result
        run.end()


# ----------------------------------------------------------------------
# trace-gemv: the trace frontend through the engine and its store
# ----------------------------------------------------------------------


def trace_gemv(run: Round) -> None:
    import repro.core.lifetime as lifetime
    from repro import BalanceConfig, TraceWorkload, default_architecture
    from repro.engine import ExperimentEngine, JobSpec, JobStatus, ResultStore
    from repro.workloads.trace import gemv_trace_lines

    text = "\n".join(gemv_trace_lines(*TRACE_GEMV)) + "\n"
    architecture = default_architecture(256, 64)
    store_dir = run.work / "store"
    baseline = None

    def grid(labels):
        nonlocal baseline
        workload = TraceWorkload.from_text(
            text, name="gemv-{}x{}x{}".format(*TRACE_GEMV)
        )
        engine = ExperimentEngine(store=ResultStore(store_dir), jobs=1)
        specs = [
            JobSpec(
                workload=workload,
                architecture=architecture,
                config=BalanceConfig.from_label(label),
                iterations=TRACE_ITERATIONS,
                seed=run.seed,
            )
            for label in labels
        ]
        outcomes = engine.run(specs)
        if baseline is None and outcomes[0].ok:
            baseline = outcomes[0].result
        improvements = [
            lifetime.lifetime_improvement(outcome.result, baseline)
            if outcome.ok and baseline is not None else None
            for outcome in outcomes
        ]
        return outcomes, improvements

    for name, labels in (("cold", TRACE_COLD), ("warm", TRACE_WARM)):
        run.begin(name, store=store_dir)
        cells = [f"gemv/{label}" for label in labels]
        try:
            outcomes, improvements = run.timed(grid, labels)
        except Exception as error:
            run.failed_block(cells, error)
            run.end()
            continue
        for cell, outcome, improvement in zip(cells, outcomes, improvements):
            if outcome.status is JobStatus.FAILED:
                tail = (outcome.error or "unknown error").strip()
                run.operation(cell, False, tail.splitlines()[-1])
            elif outcome.status is not JobStatus.COMPLETED:
                run.operation(cell, False, f"status {outcome.status.value}")
            elif (run.check_digest(cell, digest(outcome.result.state.write_counts))
                    and run.check_improvement(cell, improvement)):
                run.operation(cell, True)
        run.end()


# ----------------------------------------------------------------------
# fleet-decade: the E33 campaign run cold, warm and resumed
# ----------------------------------------------------------------------


def fleet_decade(run: Round) -> None:
    from repro.engine import ResultStore
    from repro.fleet import (
        CohortSpec,
        FleetService,
        FleetSpec,
        PopulationSpec,
        TrafficSpec,
    )

    spec = FleetSpec(
        population=PopulationSpec(
            n_arrays=FLEET_ARRAYS,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add", weight=1.0),
                     CohortSpec("conv", weight=1.0)),
            endurance_sigma=0.3,
        ),
        traffic=TrafficSpec(model="poisson", rate=4e6),
        dispatch="even",
        days=FLEET_DAYS,
        seed=run.seed,
        rows=128,
        cols=128,
        fleet_workers=1,
    )
    store_dir = run.work / "store"

    def service(checkpoints: str, every: int) -> FleetService:
        return FleetService(
            spec,
            store=ResultStore(store_dir),
            checkpoint_dir=str(run.work / checkpoints),
            checkpoint_every=every,
        )

    cold_service = service("cold", 365)
    run.extra["arrays"] = FLEET_ARRAYS
    for name in ("cold", "warm", "resume"):
        if name == "resume":
            # Untimed: leave a late checkpoint behind, as a killed
            # campaign would.
            try:
                service("resume", 0).run(stop_after_day=FLEET_RESUME_DAY)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        run.begin(name, store=store_dir)
        try:
            if name == "cold":
                report = run.timed(cold_service.run)
            else:
                report = run.timed(
                    lambda: service(name, 365 if name == "warm" else 0).run()
                )
        except Exception as error:
            run.failed_block([name], error)
            run.end()
            continue
        run.end()
        if name == "resume" and (
            report.runtime.get("resumed_from_day") != FLEET_RESUME_DAY
        ):
            run.operation(name, False, "did not resume from the checkpoint")
            continue
        # Warm and resumed reports must be bit-identical to the cold one.
        if run.check_digest("report", report.content_hash()[:16]):
            run.operation(name, True)
        run.extra["deaths"] = report.n_deaths


JOURNEYS = {
    "fig17-grid": fig17_grid,
    "trace-gemv": trace_gemv,
    "fleet-decade": fleet_decade,
}


def main() -> int:
    request = json.loads(sys.argv[1])
    # The probe uses numpy, so it is imported before the first alarm
    # (repro imports it anyway: set-up does the same work).
    import numpy  # noqa: F401

    sampler = HostSampler()
    import repro

    source = Path(repro.__file__).resolve()
    if Path(request["src"]).resolve() not in source.parents:
        print(f"repro imported from {source}, not the checkout",
              file=sys.stderr)
        return 2
    run = Round(request, sampler)
    try:
        JOURNEYS[request["workload"]](run)
    finally:
        sampler.stop()
    Path(request["result"]).write_text(
        json.dumps(run.result()), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
