"""Spans and counts recorded from outside the program.

Each wrapper is patched where its caller looks the function up: the CLI
module for the functions `track` and `run` call directly, `scenestream.pipeline`
for the stages of `run`, `scenestream.tracking` for the tracker's helpers,
and `SortTracker.step` on the class. Spans (name, start, end, parent) and
counts stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from statistics import median

# (module, attribute, span name). A name ending in "#count" is counted, not spanned.
TRACE_POINTS = (
    ("scenestream.cli", "parse_stream", "streams.parse_stream"),
    ("scenestream.cli", "track_stream", "pipeline.track_stream"),
    ("scenestream.cli", "write_tracks", "pipeline.write_tracks"),
    ("scenestream.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("scenestream.pipeline", "generate_stream", "synth.generate_stream"),
    ("scenestream.pipeline", "track_stream", "pipeline.track_stream"),
    ("scenestream.pipeline", "write_tracks", "pipeline.write_tracks"),
    ("scenestream.pipeline", "tracking_oracle_report", "pipeline.tracking_oracle_report"),
    ("scenestream.pipeline", "evaluate_actions", "evaluation.evaluate_actions"),
    ("scenestream.pipeline", "evaluate_boxes", "evaluation.evaluate_boxes"),
    ("scenestream.pipeline", "generate_tie_clips", "synth.generate_tie_clips"),
    ("scenestream.pipeline", "summarize_clip", "kinematics.summarize_clip"),
    ("scenestream.pipeline", "build_signature", "signatures.build_signature"),
    ("scenestream.pipeline", "featurize", "signatures.featurize"),
    ("scenestream.pipeline", "lda_fit", "signatures.lda_fit"),
    # run_pipeline imports write_stream inside the function, from the module
    ("scenestream.streams", "write_stream", "streams.write_stream"),
    ("scenestream.tracking", "predict", "tracking.predict"),
    ("scenestream.tracking", "associate", "tracking.associate"),
    ("scenestream.tracking", "update", "tracking.update"),
    ("scenestream.tracking", "new_track", "tracking.new_track"),
    ("scenestream.tracking", "iou", "tracking.iou#count"),
    ("scenestream.tracking", "linear_sum_assignment", "tracking.lsa#count"),
)


class Tracer:
    """Span stack, span list, counts and garbage-collector pauses."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.gc_pauses: list[float] = []
        self._gc_start = 0.0

    def clear(self):
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.gc_pauses.clear()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)

    def install(self):
        """Patch every trace point, the tracker's step and the GC callback."""
        import importlib

        from scenestream.tracking import SortTracker

        for module_name, attr, name in TRACE_POINTS:
            base = name.split("#")[0]
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if name.endswith("#count"):
                setattr(module, attr, self.count(base, fn))
            elif base == "tracking.associate":
                setattr(module, attr, self._associate(self.span(base, fn)))
            else:
                setattr(module, attr, self.span(base, fn))
        SortTracker.step = self.span("tracking.step", SortTracker.step)
        gc.callbacks.append(self._on_gc)

    def _associate(self, traced):
        counts = self.counts

        def associate(track_boxes, det_boxes, iou_threshold):
            if len(track_boxes) and len(det_boxes):
                counts["tracking.associate.nonempty"] += 1
            return traced(track_boxes, det_boxes, iou_threshold)
        return associate

    # ------------------------------------------------------------ summaries

    def rep_summary(self, factor: float) -> dict:
        """Per-layer numbers of one body, times scaled by `factor`."""
        names, spans = self.names, self.spans
        inclusive, child_time = Counter(), [0.0] * len(spans)
        calls = Counter()
        for span in spans:
            dur = span[2] - span[1]
            if span[3] >= 0:
                child_time[span[3]] += dur
        self_time = Counter()
        for i, span in enumerate(spans):
            name = names[span[0]]
            dur = span[2] - span[1]
            inclusive[name] += dur
            self_time[name] += dur - child_time[i]
            calls[name] += 1
        step_id = self._name_ids.get("tracking.step")
        steps = [s[2] - s[1] for s in spans if s[0] == step_id]
        growth = []
        for i, span in enumerate(spans):
            if names[span[0]] != "pipeline.track_stream":
                continue
            own = [s[2] - s[1] for s in spans if s[3] == i and s[0] == step_id]
            tenth = len(own) // 10
            if tenth:
                growth.append(median(own[-tenth:]) / median(own[:tenth]))
        return {
            "inclusive_s": {k: v * factor for k, v in inclusive.items()},
            "self_s": {k: v * factor for k, v in self_time.items()},
            "calls": dict(calls),
            "counts": dict(self.counts),
            "step_max_ms": max(steps) * factor * 1e3 if steps else 0.0,
            "step_p50_growth": median(growth) if growth else 0.0,
            "gc_pause_s": sum(self.gc_pauses) * factor,
            "gc_max_pause_ms": max(self.gc_pauses, default=0.0) * factor * 1e3,
            "gc_collections": len(self.gc_pauses),
        }

    def dump_spans(self) -> list:
        return [[self.names[s[0]], s[1], s[2], s[3]] for s in self.spans]


class StepTimer:
    """The only instrumentation of an untraced run: a clock read around each step."""

    def __init__(self):
        self.samples: list[float] = []

    def install(self):
        from scenestream.tracking import SortTracker

        step, samples, clock = SortTracker.step, self.samples, time.perf_counter

        def timed_step(tracker, frame):
            t0 = clock()
            out = step(tracker, frame)
            samples.append(clock() - t0)
            return out
        SortTracker.step = timed_step
