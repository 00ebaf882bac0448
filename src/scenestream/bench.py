"""Throughput benchmark for the analytics layer.

Measures the per-frame latency of the tracking stage (`pipeline.track_row`)
and the per-window latency of the step stage (`signatures.step_summary` over
`signatures.stream_steps`), against the 0.08 s spatial and 0.33 s temporal
real-time budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .pipeline import track_row
from .signatures import step_summary, stream_steps
from .streams import VideoStream
from .tracking import SortTracker

SPATIAL_BUDGET_S = 0.08  # per-frame tracking stage
TEMPORAL_BUDGET_S = 0.33  # per-window action characterization
DEFAULT_WINDOW_S = 5.0


@dataclass(frozen=True)
class StageLatency:
    count: int
    p50_s: float
    p95_s: float
    mean_s: float
    max_s: float
    budget_s: float

    @property
    def within_budget(self) -> bool:
        return self.p95_s < self.budget_s

    def to_dict(self) -> dict:
        return {"count": self.count, "p50_s": self.p50_s, "p95_s": self.p95_s,
                "mean_s": self.mean_s, "max_s": self.max_s,
                "budget_s": self.budget_s, "within_budget": self.within_budget}


def _latency(samples, budget) -> StageLatency:
    arr = np.asarray(samples)
    return StageLatency(count=len(arr),
                        p50_s=float(np.percentile(arr, 50)),
                        p95_s=float(np.percentile(arr, 95)),
                        mean_s=float(arr.mean()),
                        max_s=float(arr.max()),
                        budget_s=budget)


@dataclass(frozen=True)
class BenchReport:
    per_frame: StageLatency
    per_window: StageLatency
    n_frames: int
    fps: float

    def to_dict(self) -> dict:
        return {"n_frames": self.n_frames, "fps": self.fps,
                "per_frame": self.per_frame.to_dict(),
                "per_window": self.per_window.to_dict()}


def bench_stream(stream: VideoStream, window_s: float = DEFAULT_WINDOW_S) -> BenchReport:
    """Replay a stream through the default tracker, timing each frame's row,
    then time `step_summary` on each of the stream's `window_s` steps."""
    steps = stream_steps(stream, window_s)
    tracker = SortTracker()
    frame_lat, window_lat = [], []
    for fr in stream.frames:
        t0 = time.perf_counter()
        track_row(tracker, fr)
        frame_lat.append(time.perf_counter() - t0)
    for frames in steps:
        t0 = time.perf_counter()
        step_summary(frames)
        window_lat.append(time.perf_counter() - t0)
    return BenchReport(per_frame=_latency(frame_lat, SPATIAL_BUDGET_S),
                       per_window=_latency(window_lat, TEMPORAL_BUDGET_S),
                       n_frames=len(stream.frames), fps=stream.fps)
