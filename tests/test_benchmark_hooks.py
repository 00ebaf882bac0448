"""The benchmark's traced run patches program functions by name; a refactor
that moves or renames one of them must fail here rather than silently
zeroing a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


def test_every_trace_point_resolves():
    points = _trace_points()
    assert points
    missing = [(module_name, attr) for module_name, attr, _ in points
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert missing == []


def test_benchmark_entry_points_exist():
    from scenestream.bench import bench_stream
    from scenestream.tracking import SortTracker

    assert callable(SortTracker.step)
    assert callable(bench_stream)


def test_tracker_step_calls_the_traced_kernels(monkeypatch):
    # the traced run patches these module attributes; `step` must look them
    # up there, or their per-layer metrics read 0
    from scenestream import BBox, Detection, FrameRecord, tracking

    calls = {"predict": 0, "update": 0, "new_track": 0}

    def counted(name):
        real = getattr(tracking, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(tracking, name, counted(name))

    def frame(k, boxes):
        dets = tuple(Detection(box=b, category="hand", confidence=0.9) for b in boxes)
        return FrameRecord(frame_index=k, timestamp_s=k / 30.0, detections=dets)

    left, right = BBox(100, 100, 160, 160), BBox(400, 100, 460, 160)
    late = BBox(700, 300, 760, 360)
    tracker = tracking.SortTracker()
    for k in range(8):
        tracker.step(frame(k, [left, right] + ([late] if k >= 5 else [])))
    births = tracker._next_id - 1
    assert births == 3
    assert calls == {"predict": 8, "update": 7, "new_track": births}
