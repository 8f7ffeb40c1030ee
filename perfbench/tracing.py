"""Layer spans recorded from outside the program.

The traced run wraps the public functions of each simulator layer where
the calling module binds them (``repro.core.simulator.verify_mapping``,
``repro.fleet.service.kaplan_meier``, ...). Each call records one span:
name, start, end, parent span and the id of the pass it ran in. Spans
stay in memory; ``run.py`` writes them out when the run ends.

Nothing here edits code under ``src/``: the wrappers call straight
through, so results are unchanged and only host time is added.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Collects nested spans for a single-threaded process."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None, pass id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.pass_id: Optional[str] = None

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def pass_ledger(self, pass_id: str) -> Dict:
        """Self time, inclusive time and calls per span name for one pass.

        A span's self time is its duration minus the durations of its
        direct children; calls are strictly nested in one thread, so the
        children never overlap and the self times of a pass add up to the
        time its top-level spans cover.
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span[3] is not None and span[4] == pass_id:
                child_time[span[3]] = (
                    child_time.get(span[3], 0.0) + span[2] - span[1]
                )
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        top_s = 0.0
        for index, (name, start, end, parent, owner) in enumerate(self.spans):
            if owner != pass_id:
                continue
            duration = end - start
            self_s[name] = (
                self_s.get(name, 0.0) + duration - child_time.get(index, 0.0)
            )
            total_s[name] = total_s.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                top_s += duration
        return {"self_s": self_s, "total_s": total_s, "calls": calls,
                "top_s": top_s}


def _patch(recorder: SpanRecorder, owner, attribute: str, name: str) -> None:
    """Replace ``owner.attribute`` by a traced wrapper of itself."""
    raw = vars(owner).get(attribute) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attribute,
                classmethod(recorder.wrap(name, raw.__func__)))
    else:
        setattr(owner, attribute,
                recorder.wrap(name, getattr(owner, attribute)))


def _hand_built_workloads(base, excluded) -> List[type]:
    """Every ``Workload`` subclass that defines its own ``build``."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not excluded and "build" in vars(cls):
            found.append(cls)
    return found


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark journeys cross."""
    import repro.core.lifetime
    import repro.core.simulator
    import repro.core.sweep
    import repro.engine.runner
    import repro.fleet.service
    import repro.verify
    import repro.workloads.trace.lowering
    from repro.core.simulator import EnduranceSimulator
    from repro.engine.runner import ExperimentEngine
    from repro.engine.store import ResultStore
    from repro.fleet.checkpoint import CheckpointManager
    from repro.fleet.population import Population
    from repro.fleet.service import FleetService
    from repro.workloads.base import Workload
    from repro.workloads.trace.lowering import TraceWorkload

    patches = [
        # workloads.trace: parsing, and lowering (its build-time
        # verify_network is imported from repro.verify at call time).
        (repro.workloads.trace.lowering, "parse_trace", "trace.parse"),
        (TraceWorkload, "build", "trace.build"),
        # verify
        (repro.verify, "verify_network", "verify.network"),
        (repro.core.simulator, "verify_mapping", "verify.mapping"),
        (repro.engine.runner, "verify_spec", "verify.spec"),
        (repro.fleet.service, "verify_fleet_spec", "verify.fleet"),
        # core: kernel, simulator, lifetime model
        (repro.core.simulator, "run_batched_epochs", "kernel.batched"),
        (repro.core.simulator, "run_fastforward_epochs",
         "kernel.fastforward"),
        (EnduranceSimulator, "run", "sim.run"),
        (repro.core.sweep, "lifetime_from_result", "lifetime"),
        (repro.core.sweep, "lifetime_improvement", "lifetime"),
        (repro.core.lifetime, "lifetime_improvement", "lifetime"),
        # engine and its result store
        (ExperimentEngine, "run", "engine.run"),
        (ResultStore, "save", "store.save"),
        (ResultStore, "load", "store.load"),
        # fleet
        (Population, "build", "fleet.population_build"),
        (Population, "death_thresholds", "fleet.thresholds"),
        (FleetService, "calibrate", "fleet.calibrate"),
        (repro.fleet.service, "kaplan_meier", "fleet.report"),
        (repro.fleet.service, "annual_replacement_rate", "fleet.report"),
        (repro.fleet.service, "capacity_headroom", "fleet.report"),
        (CheckpointManager, "save", "fleet.checkpoint_save"),
        (CheckpointManager, "latest", "fleet.checkpoint_load"),
    ]
    # synth: gate synthesis of the hand-built kernels.
    patches += [
        (cls, "build", "synth.build")
        for cls in _hand_built_workloads(Workload, TraceWorkload)
    ]
    for owner, attribute, name in patches:
        _patch(recorder, owner, attribute, name)
