"""Throughput benchmark for the analytics layer.

Measures the per-frame latency of the tracking stage (`pipeline.track_row`),
and the latency of temporal action characterization over fixed windows,
against the 0.08 s spatial and 0.33 s temporal real-time budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import check_finite
from .pipeline import track_row
from .signatures import majority_action
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
    if not samples:
        return StageLatency(count=0, p50_s=0.0, p95_s=0.0, mean_s=0.0,
                            max_s=0.0, budget_s=budget)
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


def _characterize_window(frames) -> dict:
    """Temporal summary of one window: action histogram and tool activity."""
    histogram = {}
    tool_total = 0
    for fr in frames:
        if fr.action is not None:
            histogram[fr.action] = histogram.get(fr.action, 0) + 1
        tool_total += sum(1 for d in fr.detections if d.category != "hand")
    return {"majority_action": majority_action(histogram), "histogram": histogram,
            "mean_tool_count": tool_total / max(len(frames), 1)}


def bench_stream(stream: VideoStream, window_s: float = DEFAULT_WINDOW_S) -> BenchReport:
    """Replay a stream through the default tracker, timing each frame's row,
    and time the per-window action characterization."""
    check_finite("window_s", window_s)
    tracker = SortTracker()
    frame_lat, window_lat = [], []
    for fr in stream.frames:
        t0 = time.perf_counter()
        track_row(tracker, fr)
        frame_lat.append(time.perf_counter() - t0)
    window_len = max(int(round(window_s * stream.fps)), 1)
    for start in range(0, len(stream.frames), window_len):
        window = stream.frames[start:start + window_len]
        t0 = time.perf_counter()
        _characterize_window(window)
        window_lat.append(time.perf_counter() - t0)
    return BenchReport(per_frame=_latency(frame_lat, SPATIAL_BUDGET_S),
                       per_window=_latency(window_lat, TEMPORAL_BUDGET_S),
                       n_frames=len(stream.frames), fps=stream.fps)
