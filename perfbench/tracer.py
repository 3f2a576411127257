"""Per-layer tracing from outside the program.

:class:`Tracer` wraps each layer's public entry point at the binding the
program actually calls (a class attribute, or a module attribute a caller
imported by name) and records one span per call.  Spans nest on a stack,
so a layer's time is its *self* time: the part of its spans not covered by
a child span of another layer.  A call into a layer that is already on top
of the stack (``evaluate_fast`` delegating to ``evaluate``) is the same
piece of work and records no second span.  Spans stay in memory until
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path

#: Every counter a traced run reports, so each workload prints the same
#: names whether or not it reached the layer.
COUNTERS = (
    "core.compile.calls", "core.compile.s",
    "core.predict.calls", "core.predict.s",
    "core.pipeline.calls", "core.pipeline.s",
    "sweep3d.plans", "sweep3d.plan_s",
    "simmpi.capture.calls", "simmpi.capture.s", "simmpi.capture.events",
    "simmpi.capture.trace_bytes", "simmpi.capture.periodic",
    "simmpi.capture.full", "simmpi.capture.cache",
    "simmpi.record.calls", "simmpi.record.s", "simmpi.record.events",
    "simmpi.steady.calls", "simmpi.steady.s", "simmpi.steady.refused",
    "simmpi.replay.calls", "simmpi.replay.s", "simmpi.replay.events",
    "simmpi.replay_batch.calls", "simmpi.replay_batch.s",
    "simmpi.replay_batch.samples", "simmpi.replay_batch.events",
    "simnet.noise.calls", "simnet.noise.s", "simnet.noise.values",
    "simmpi.engine.calls", "simmpi.engine.s",
    "experiments.study.calls", "experiments.study.s",
    "experiments.artifacts.calls", "experiments.artifacts.s",
    "experiments.artifacts.bytes",
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        #: Inclusive seconds per study name (``experiments.study_s.<study>``).
        self.study_s: dict[str, float] = defaultdict(float)
        #: ``(layer, start, end, parent index or -1)`` per finished span.
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Every trace ``compile_trace`` captured that is still alive.
        self._traces: weakref.WeakSet = weakref.WeakSet()
        #: Inclusive duration of the most recently closed span.
        self.last_seconds = 0.0

    # -- spans ----------------------------------------------------------

    def span(self, layer: str, func, *args, **kwargs):
        """Call ``func`` inside a span of ``layer``; returns its result."""
        index = len(self.spans)
        parent = self._stack[-1][2] if self._stack else -1
        start = time.perf_counter()
        self.spans.append((layer, start, start, parent))
        self._stack.append([layer, 0.0, index])   # [layer, child seconds, span]
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            child_s = self._stack.pop()[1]
            self.spans[index] = (layer, start, end, parent)
            self.last_seconds = duration = end - start
            self.counters[f"{layer}.calls"] += 1
            self.counters[f"{layer}.s"] += duration - child_s
            if self._stack:
                self._stack[-1][1] += duration

    # -- wrappers -------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``after(args, result)`` runs once the span has closed, to record
        counts from the call's arguments and result.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._spanned(original, layer, after))

    def _spanned(self, original, layer: str, after=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == layer:
                return original(*args, **kwargs)
            result = self.span(layer, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry point (call after ``import repro.api``)."""
        from repro.core.evaluation.compiler import CompiledExecutor
        from repro.core.templates.pipeline import PipelineStrategy
        from repro.experiments.study import StudyContext, StudyRunner
        from repro.simmpi.trace import CompiledTrace, TraceRecorder
        from repro.simnet.noise import NoiseModel
        from repro.sweep3d import driver
        from repro.sweep3d.driver import SimulationPlan

        count = self.counters
        self.wrap(StudyContext, "compiled_model", "core.compile")
        self.wrap(CompiledExecutor, "predict", "core.predict")
        self.wrap(PipelineStrategy, "evaluate", "core.pipeline")
        self.wrap(PipelineStrategy, "evaluate_fast", "core.pipeline")

        def plan_built(args, result):
            # The plan's own engine is the reference tier; counting its
            # calls shows a fast path silently falling back to it.  The
            # patch dies with the plan, so it is not undone.
            engine = args[0].engine
            engine.run = self._spanned(engine.run, "simmpi.engine")

        self.wrap(SimulationPlan, "__init__", "sweep3d.plan", plan_built)

        def captured(args, trace):
            # A plan memoises its trace, so only a trace not seen before
            # was captured by this call; its mode is the plan's record.
            if trace not in self._traces:
                self._traces.add(trace)
                count[f"simmpi.capture.{args[0].last_capture.mode}"] += 1
                count["simmpi.capture.events"] += trace.n_events
                count["simmpi.capture.trace_bytes"] += trace.nbytes

        self.wrap(SimulationPlan, "compile_trace", "simmpi.capture", captured)

        def recorded(args, trace):
            count["simmpi.record.events"] += trace.n_events

        self.wrap(TraceRecorder, "record", "simmpi.record", recorded)

        def replayed(args, result):
            count["simmpi.replay.events"] += args[0].n_events

        self.wrap(CompiledTrace, "replay", "simmpi.replay", replayed)

        def batch_replayed(args, result):
            count["simmpi.replay_batch.samples"] += result.n_samples
            count["simmpi.replay_batch.events"] += args[0].n_events

        self.wrap(CompiledTrace, "replay_batch", "simmpi.replay_batch",
                  batch_replayed)

        def perturbed(args, result):
            count["simnet.noise.values"] += result.size

        self.wrap(NoiseModel, "perturb_batch", "simnet.noise", perturbed)
        self.wrap(NoiseModel, "perturb_batch_multi", "simnet.noise", perturbed)

        def steady_accepted(args, result):
            count["simmpi.steady.accepted"] += 1

        # The driver imported steady_replay by name; patch that binding.
        self.wrap(driver, "steady_replay", "simmpi.steady", steady_accepted)

        def study_run(args, result):
            self.study_s[result.spec.study] += self.last_seconds

        self.wrap(StudyRunner, "_run_one", "experiments.study", study_run)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every counter plus the derived ratios and per-study seconds."""
        count = self.counters
        out = {name: float(count.get(name, 0.0)) for name in COUNTERS}
        out["sweep3d.plans"] = float(count.get("sweep3d.plan.calls", 0.0))
        out["sweep3d.plan_s"] = float(count.get("sweep3d.plan.s", 0.0))
        captures = sum(out[f"simmpi.capture.{mode}"]
                       for mode in ("periodic", "full", "cache"))
        out["simmpi.capture.periodic_ratio"] = \
            out["simmpi.capture.periodic"] / captures if captures else 0.0
        steady = out["simmpi.steady.calls"]
        accepted = count.get("simmpi.steady.accepted", 0.0)
        out["simmpi.steady.refused"] = steady - accepted
        out["simmpi.steady.accept_ratio"] = accepted / steady if steady else 0.0
        out["simmpi.trace.live_bytes"] = float(
            sum(trace.nbytes for trace in self._traces))
        for study, seconds in self.study_s.items():
            out[f"experiments.study_s.{study}"] = seconds
        return out

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps(
            [{"layer": layer, "start": start, "end": end, "parent": parent}
             for layer, start, end, parent in self.spans]))
