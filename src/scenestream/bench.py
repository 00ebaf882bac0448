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
from .signatures import check_step, step_summary, stream_steps
from .streams import VideoStream
from .tracking import SortTracker

SPATIAL_BUDGET_S = 0.08  # per-frame tracking stage
TEMPORAL_BUDGET_S = 0.33  # per-window action characterization
DEFAULT_WINDOW_S = 5.0


def _latency(samples, budget) -> dict:
    """count, p50_s, p95_s, mean_s and max_s of latency `samples` in seconds,
    with the `budget_s` their p95 is held to and whether it is `within_budget`."""
    arr = np.asarray(samples)
    p95 = float(np.percentile(arr, 95))
    return {"count": len(arr), "p50_s": float(np.percentile(arr, 50)), "p95_s": p95,
            "mean_s": float(arr.mean()), "max_s": float(arr.max()),
            "budget_s": budget, "within_budget": p95 < budget}


@dataclass(frozen=True)
class BenchReport:
    per_frame: dict  # see `_latency`
    per_window: dict
    n_frames: int
    fps: float

    def to_dict(self) -> dict:
        return {"n_frames": self.n_frames, "fps": self.fps,
                "per_frame": self.per_frame, "per_window": self.per_window}


def bench_stream(stream: VideoStream, window_s: float = DEFAULT_WINDOW_S) -> BenchReport:
    """Replay a stream through the default tracker, timing each frame's row,
    then time `step_summary` on each of the stream's `window_s` steps."""
    check_step("window_s", window_s, stream.fps)
    tracker = SortTracker()
    frame_lat, window_lat = [], []
    for fr in stream.frames:
        t0 = time.perf_counter()
        track_row(tracker, fr)
        frame_lat.append(time.perf_counter() - t0)
    for frames in stream_steps(stream, stream.frames, window_s):
        t0 = time.perf_counter()
        step_summary(frames)
        window_lat.append(time.perf_counter() - t0)
    return BenchReport(per_frame=_latency(frame_lat, SPATIAL_BUDGET_S),
                       per_window=_latency(window_lat, TEMPORAL_BUDGET_S),
                       n_frames=len(stream.frames), fps=stream.fps)
