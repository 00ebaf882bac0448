"""The benchmark's traced run patches program functions by name; a refactor
that moves or renames one of them must fail here rather than silently
zeroing a per-layer metric."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_points():
    return _perfbench_module("tracing").TRACE_POINTS


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


def test_benchmark_reads_the_bench_report_and_truth_boxes(tmp_path):
    # the worker records bench_stream(parse_stream(path)).to_dict(); the set-up
    # writes generate_stream's truth.to_dict(), whose "true_boxes" the tracks
    # check reads frame by frame as {hand id: [x0, y0, x1, y1]}
    from scenestream.bench import bench_stream
    from scenestream.streams import parse_stream, write_stream
    from scenestream.synth import SynthSpec, generate_stream

    stream, truth = generate_stream(SynthSpec(seed=2, fps=10.0, duration_s=3.0,
                                              with_keypoints=True), 0)
    write_stream(stream, tmp_path / "input.jsonl")
    report = bench_stream(parse_stream(tmp_path / "input.jsonl")).to_dict()
    assert {"per_frame", "per_window"} <= report.keys()
    true_boxes = json.loads(json.dumps(truth.to_dict()))["true_boxes"]
    assert len(true_boxes) == len(stream[1])
    hands = {str(h) for h in truth.hand_ids}
    for frame in true_boxes:
        assert set(frame) == hands
        assert all(len(box) == 4 and all(isinstance(v, float) for v in box)
                   for box in frame.values())


def test_track_workload_set_up_builds_its_stream(monkeypatch):
    # the set-up process turns each track workload into a SynthSpec; a setting
    # it passes that the program no longer takes must fail here, not in the benchmark
    from scenestream.synth import generate_stream

    workloads = _perfbench_module("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # synth_input imports it
    synth_input = _perfbench_module("synth_input")
    for name, workload in workloads.TRACK_WORKLOADS.items():
        assert synth_input.synth_spec(name, 1).duration_s == workload["duration_s"]
        (_, frames), truth = generate_stream(synth_input.synth_spec(name, 1, 0.2), 0)
        assert len(frames) == round(0.2 * workload["fps"])
        assert len(truth.hand_ids) == (workload["lanes"] or 2)


def test_benchmark_run_configs_pass_the_config_check():
    # the run-bundle workload sends keys `run` does not read (eval.alpha);
    # the check must accept every key of the default config
    from scenestream.pipeline import DEFAULT_RUN_CONFIG, _config_value

    workloads = _perfbench_module("workloads")
    for warmup in (False, True):
        config = workloads.run_config(1, warmup)
        assert _config_value("", DEFAULT_RUN_CONFIG, config)["seed"] == 1


def test_tracker_step_calls_the_traced_kernels(monkeypatch):
    # the traced run patches these module attributes; `step` must look them
    # up there, or their per-layer metrics read 0
    from scenestream import Detection, FrameRecord, box, tracking

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

    left, right = box(100, 100, 160, 160), box(400, 100, 460, 160)
    late = box(700, 300, 760, 360)
    tracker = tracking.SortTracker()
    for k in range(8):
        tracker.step(frame(k, [left, right] + ([late] if k >= 5 else [])))
    births = tracker._next_id - 1
    assert births == 3
    assert calls == {"predict": 8, "update": 7, "new_track": births}


def test_run_pipeline_calls_every_traced_stage(monkeypatch, tmp_path):
    # the traced run-bundle patches these attributes on the modules `run`
    # looks them up in; a stage that stops calling one would zero its metric
    from scenestream.pipeline import run_pipeline

    points = [(module_name, attr) for module_name, attr, _ in _trace_points()
              if module_name in ("scenestream.pipeline", "scenestream.streams")]
    calls = dict.fromkeys(points, 0)

    def counted(point, real):
        def wrapper(*args, **kwargs):
            calls[point] += 1
            return real(*args, **kwargs)
        return wrapper

    for point in points:
        module = importlib.import_module(point[0])
        monkeypatch.setattr(module, point[1], counted(point, getattr(module, point[1])))
    run_pipeline(_perfbench_module("workloads").run_config(1, warmup=True), tmp_path / "b")
    assert points
    assert [point for point, n in calls.items() if n == 0] == []


def test_traced_associate_is_called_once_per_step_and_bench_times_track_row(monkeypatch):
    # the traced run spans `tracking.associate` as the tracker's association:
    # `track_row` pairs keypoint entries through the detection each track
    # took, with no call of its own, so the span sees one call per step, on
    # keypoint frames too. `bench_stream` times `track_row`, the stage `track`
    # and `run` run per frame, and `step_summary`, the stage `signature` and
    # `eval actions` run per step
    from scenestream import bench, tracking
    from scenestream.pipeline import track_stream
    from scenestream.signatures import timeline_from_stream
    from scenestream.synth import SynthSpec, generate_stream

    calls = {"associate": 0, "step": 0, "track_row": 0, "step_summary": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(tracking, "associate", counted("associate", tracking.associate))
    monkeypatch.setattr(tracking.SortTracker, "step", counted("step", tracking.SortTracker.step))
    monkeypatch.setattr(bench, "track_row", counted("track_row", bench.track_row))
    monkeypatch.setattr(bench, "step_summary", counted("step_summary", bench.step_summary))
    stream, _ = generate_stream(SynthSpec(seed=2, fps=10.0, duration_s=3.0,
                                          with_keypoints=True), 0)
    n = len(stream[1])
    assert sum("kps" in row for row in track_stream(stream[1])) > n // 2
    assert calls == {"associate": n, "step": n, "track_row": 0, "step_summary": 0}
    bench.bench_stream(stream)
    assert calls == {"associate": 2 * n, "step": 2 * n, "track_row": n,
                     "step_summary": len(timeline_from_stream(*stream, 5.0).labels)}


def test_traced_bodies_write_the_bytes_of_untraced_ones(monkeypatch, tmp_path):
    # the traced benchmark runs `track` and `run` through perfbench's wrappers;
    # a wrapper that no longer fits the function it wraps (such as the traced
    # `associate`, which passes its arguments by position) fails only there
    import gc

    from scenestream import tracking
    from scenestream.cli import main
    from scenestream.streams import write_stream
    from scenestream.synth import CorruptionSpec, SynthSpec, generate_stream

    tracing, workloads = _perfbench_module("tracing"), _perfbench_module("workloads")
    stream, _ = generate_stream(SynthSpec(seed=3, fps=10.0, duration_s=4.0, with_keypoints=True,
                                          corruption=CorruptionSpec(dropout_rate=0.2)), 0)
    write_stream(stream, tmp_path / "s.jsonl")
    (tmp_path / "config.json").write_text(json.dumps(workloads.run_config(1, warmup=True)))

    def outputs(name):
        tracks, bundle = tmp_path / f"{name}.tracks.jsonl", tmp_path / name
        assert main(["track", "--in", str(tmp_path / "s.jsonl"), "--out", str(tracks),
                     *workloads.TRACKER_ARGS]) == 0
        assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(bundle)]) == 0
        return tracks.read_bytes(), [(p.relative_to(bundle), p.read_bytes())
                                     for p in sorted(bundle.rglob("*")) if p.is_file()]

    want = outputs("plain")
    for module_name, attr, _ in tracing.TRACE_POINTS:  # restored when the test ends
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(tracking.SortTracker, "step", tracking.SortTracker.step)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = outputs("traced")
    finally:
        gc.callbacks.remove(tracer._on_gc)
    assert got == want
    assert tracer.counts["tracking.associate.nonempty"] > 0
    assert {"tracking.step", "tracking.associate", "pipeline.write_tracks"} <= set(tracer.names)
