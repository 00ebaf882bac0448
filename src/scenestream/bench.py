"""Throughput benchmark for the analytics layer.

Measures the per-frame latency of the tracking stage (`pipeline.track_row`)
and the per-window latency of the step stage (`signatures.step_summary` over
`signatures.stream_steps`), against the 0.08 s spatial and 0.33 s temporal
real-time budgets.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

import numpy as np

from .pipeline import track_row
from .signatures import check_step, step_summary, stream_steps
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


def bench_stream(stream, window_s: float = DEFAULT_WINDOW_S) -> BenchReport:
    """Replay a (header, frames) stream through the default tracker in one pass
    over its frames, timing each frame's row, then passing the frame on to
    `stream_steps` and timing `step_summary` on each `window_s` step it closes."""
    header, frames = stream
    check_step("window_s", window_s, header.fps)
    tracker = SortTracker()
    frame_lat, window_lat = array("d"), array("d")

    def tracked():
        for fr in frames:
            t0 = time.perf_counter()
            track_row(tracker, fr)
            frame_lat.append(time.perf_counter() - t0)
            yield fr

    for step in stream_steps(header, tracked(), window_s):
        t0 = time.perf_counter()
        step_summary(step)
        window_lat.append(time.perf_counter() - t0)
    return BenchReport(per_frame=_latency(frame_lat, SPATIAL_BUDGET_S),
                       per_window=_latency(window_lat, TEMPORAL_BUDGET_S),
                       n_frames=len(frame_lat), fps=header.fps)
