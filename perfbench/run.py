"""The repository benchmark: three user journeys, timed end to end and
per layer (see README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig17-grid --seed 7 --seconds 45 \\
        --trace 0

This script byte-compiles ``src``, then runs rounds until ``--seconds`` is
used up (at least two). Each round is a fresh process (``journeys.py``);
end-to-end figures are medians over the rounds of host-normalised times
(wall times scaled by the speed of the host sampled through the pass). With ``--trace 1`` every
other round is traced, and the per-layer figures are medians over the
traced rounds. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import LAYER_METRICS, check_prediction, pass_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

MIN_ROUNDS = 2
#: A run must exit within 180 s; no round starts that could end later.
HARD_LIMIT_S = 150.0
PASSES = ("cold", "warm", "resume")
#: Nominal time of ``journeys.probe_work``: times are reported as on a
#: host that runs the probe in this many seconds.
PROBE_S = 0.002


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed output)."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path.name} is missing")
    bench = json.loads(path.read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != [row[:3] for row in LAYER_METRICS]:
        raise BenchmarkError(
            "BENCHMARK.json per_layer disagrees with layers.LAYER_METRICS"
        )
    return bench


def provenance(seed: int) -> dict:
    """What a later comparison must hold equal."""
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def run_round(workload: str, seed: int, traced: bool, index: int,
              deadline: float) -> dict:
    """One fresh process running one round; returns its result."""
    work = WORK / f"round{index}"
    work.mkdir(parents=True)
    result_path = WORK / f"round{index}.json"
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    request = {
        "workload": workload, "seed": seed, "trace": traced,
        "work_dir": str(work), "result": str(result_path), "src": str(SRC),
    }
    request["spawned_at"] = time.monotonic()
    try:
        # run() kills the child on timeout and waits for it to end.
        process = subprocess.run(
            [sys.executable, str(HERE / "journeys.py"), json.dumps(request)],
            cwd=ROOT, env=env, stdout=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"round {index} timed out") from error
    if process.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(
            f"round {index} exited with code {process.returncode}"
        )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(work)
    result["traced"] = traced
    return result


def run_rounds(workload: str, seed: int, seconds: float,
               trace: bool) -> list:
    """Rounds until ``seconds`` is used up; with tracing every other
    round is traced, starting with a traced one."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds, longest = [], 0.0
    while True:
        began = time.monotonic()
        rounds.append(run_round(
            workload, seed, trace and len(rounds) % 2 == 0, len(rounds),
            deadline,
        ))
        longest = max(longest, time.monotonic() - began)
        finish = time.monotonic() + longest
        if finish > deadline or (
            len(rounds) >= MIN_ROUNDS and finish - start > seconds
        ):
            return rounds


def cross_round_failures(rounds: list) -> list:
    """Outputs of later rounds that differ from the first round's."""
    first = rounds[0]
    problems = []
    for index, result in enumerate(rounds[1:], start=1):
        for table in ("digests", "improvements"):
            for name, value in result[table].items():
                if first[table].get(name, value) != value:
                    problems.append(
                        f"round {index} {name}: {value!r} != round 0 "
                        f"{first[table][name]!r}"
                    )
    return problems


def host_time(wall_s: float, probes: int, probe_s: float,
              handler_s: float) -> float:
    """A wall time as on the nominal host: the probe handler's time is
    taken out, and the rest is scaled by ``PROBE_S`` over the mean probe
    time seen meanwhile. A stretch too short for any probe (a pass that
    failed at once) is left as measured."""
    if probes == 0:
        return wall_s
    return (wall_s - handler_s) * PROBE_S / (probe_s / probes)


def pass_time(record: dict) -> float:
    return host_time(record["wall_s"], record["probes"], record["probe_s"],
                     record["handler_s"])


def setup_time(result: dict) -> float:
    return host_time(result["setup_s"], result["setup_probes"],
                     result["setup_probe_s"], result["setup_handler_s"])


def median(values):
    return statistics.median(values) if values else float("nan")


def sample_summary(values) -> str:
    return f"median of {len(values)}, range {min(values):.4f}..{max(values):.4f}"


def summarize(workload: str, seed: int, trace: bool, rounds: list,
              bench: dict) -> dict:
    """Print the human-readable report; return the result line's fields."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(p["attempted"] for r in rounds
                    for p in r["passes"].values())
    failed = sum(p["failed"] for r in rounds for p in r["passes"].values())
    errors = [e for r in rounds for e in r["errors"]]
    mismatches = cross_round_failures(rounds)
    failed += len(mismatches)
    errors += mismatches

    def pass_times(results, name, normalised=True):
        return [pass_time(r["passes"][name]) if normalised
                else r["passes"][name]["wall_s"]
                for r in results if name in r["passes"]]

    origin = provenance(seed)
    print(f"perfbench {workload} seed {seed}: {len(rounds)} rounds "
          f"({len(traced)} traced)")
    print("provenance " + json.dumps(origin, sort_keys=True))
    end_to_end = {}
    if plain:
        series = {
            "setup_s": [setup_time(r) for r in plain],
            **{f"{name}_s": pass_times(plain, name) for name in PASSES},
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, values in series.items():
            if values:
                end_to_end[name] = median(values)
                unit = "MB" if name == "peak_rss_mb" else "s"
                print(f"  {name:14s} {end_to_end[name]:10.4f} {unit:5s} "
                      f"{sample_summary(values)}")
        probes = [p["probe_s"] / p["probes"] for r in plain
                  for p in r["passes"].values() if p["probes"]]
        if probes:
            print(f"  times as on a host with a {PROBE_S * 1e3:g} ms probe; "
                  f"probe means per pass {sample_summary(probes)} s; raw "
                  "wall " + ", ".join(
                      f"{name} {median(pass_times(plain, name, False)):.4f} s"
                      for name in PASSES if pass_times(plain, name)
                  ))
    share = failed / attempted if attempted else 1.0
    print(f"  {'failed_share':14s} {share:10.4f}       "
          f"{failed} failed / {attempted} attempted")
    for error in errors[:20]:
        print(f"  failure: {error}")
    extra = rounds[0]["extra"]
    if extra:
        print("  outputs " + json.dumps(extra, sort_keys=True))

    layer = {}
    if traced:
        per_round = [pass_metrics(r) for r in traced]
        layer = {name: median([m[name] for m in per_round])
                 for name, *_ in LAYER_METRICS}
        layer["tracing_overhead_s"] = (
            median(pass_times(traced, "cold"))
            - median(pass_times(plain, "cold"))
            if plain else float("nan")
        )
        print(f"  per layer, median of {len(traced)} traced rounds "
              "(all passes of a round summed):")
        for name, unit, _better, source, moves, where in LAYER_METRICS:
            print(f"    {name:26s} {layer[name]:14.4f} {unit:6s} "
                  f"moves {moves} on {where}  [{source}]")
        for name in PASSES:
            walls = pass_times(traced, name, normalised=False)
            if walls:
                residual = median([
                    r["passes"][name]["wall_s"]
                    - r["passes"][name]["ledger"]["top_s"]
                    for r in traced
                ])
                print(f"    {name} pass: wall {median(walls):.4f} s, "
                      f"unattributed {residual:.4f} s "
                      f"({residual / median(walls):.1%})")
        for line in check_prediction(workload, per_round[0]):
            print("  " + line)

    names = (bench["per_layer"] if trace else bench["end_to_end"])
    values = layer if trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "provenance": origin, "end_to_end": end_to_end,
        "per_layer": layer, "attempted": attempted, "failed": failed,
        "errors": errors, "rounds": [
            {key: value for key, value in r.items() if key != "spans"}
            for r in rounds
        ],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    if traced:
        with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w",
                  encoding="utf-8") as spans:
            for index, r in enumerate(rounds):
                for name, start, end, parent, pass_id in r.get("spans", []):
                    spans.write(json.dumps({
                        "round": index, "pass": pass_id, "name": name,
                        "start": start, "end": end, "parent": parent,
                    }) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt: subprocess.run kills and reaps
    # the round process, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bench = load_benchmark()
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no program source at {SRC}")
        # The build: byte-compile the program so every round imports it
        # the same way.
        if not compileall.compile_dir(str(SRC), quiet=1):
            raise BenchmarkError("byte-compiling src failed")
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        try:
            rounds = run_rounds(args.workload, args.seed, args.seconds,
                                bool(args.trace))
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        result = summarize(args.workload, args.seed, bool(args.trace),
                           rounds, bench)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
