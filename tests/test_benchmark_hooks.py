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
