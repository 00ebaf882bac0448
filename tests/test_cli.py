import contextlib
import copy
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import scaled_noise
from scenestream import tracking
from scenestream.bench import bench_stream
from scenestream.cli import main
from scenestream.errors import DataWarning, StreamFormatError
from scenestream.kinematics import SUMMARY_FIELDS
from scenestream.pipeline import (
    DEFAULT_RUN_CONFIG,
    _row_line,
    clips_from_tracks,
    read_streams,
    read_tracks,
    track_stream,
    tracking_oracle_report,
    write_tracks,
)
from scenestream.streams import (
    ACTION_LABELS,
    CATEGORIES,
    Detection,
    FrameRecord,
    VideoStream,
    box,
    open_stream,
    write_stream,
)
from scenestream.signatures import timeline_from_stream
from scenestream.synth import CorruptionSpec, HandMotionSpec, SynthSpec, generate_stream
from scenestream.tracking import TrackerConfig


def synth_args(out_dir, extra=()):
    return ["synth", "--seed", "3", "--n-videos", "1", "--fps", "30",
            "--duration", "4", "--out", str(out_dir), *extra]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_synth_track_roundtrip(tmp_path, capsys):
    assert main(synth_args(tmp_path / "streams", ("--with-keypoints",))) == 0
    stream_path = next((tmp_path / "streams").glob("synth-*.jsonl"))
    tracks_path = tmp_path / "tracks.jsonl"
    assert main(["track", "--in", str(stream_path), "--out", str(tracks_path)]) == 0
    header, rows = read_tracks(tracks_path)
    rows = list(rows)
    assert header.video_id.startswith("synth-3")
    assert len(rows) == 120
    emitted = [r for r in rows if r["tracks"]]
    assert emitted, "tracker never emitted"
    assert any("kps" in r for r in rows)


def test_cli_track_coasts_past_left_edge(tmp_path):
    # a hand leaves over the left edge; its coasting prediction crosses x = 0
    # while the only detection left is far away
    def frame(k, b):
        det = Detection(box=b, category="hand", confidence=1.0)
        return FrameRecord(frame_index=k, timestamp_s=k / 30.0, detections=(det,))

    frames = [frame(k, box(150 - 10 * k, 100, 190 - 10 * k, 140)) for k in range(12)]
    frames += [frame(k, box(900, 500, 940, 540)) for k in range(12, 40)]
    header = VideoStream(video_id="left-exit", fps=30.0, width=1280, height=720)
    stream_path, tracks_path = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
    write_stream((header, frames), stream_path)
    assert main(["track", "--in", str(stream_path), "--out", str(tracks_path),
                 "--min-hits", "1"]) == 0
    rows = list(read_tracks(tracks_path)[1])
    assert [r["frame"] for r in rows] == list(range(40))
    assert all(len(r["tracks"]) == 1 for r in rows)


def _keypoint_stream_file(path, seconds):
    """A 2-hand keypoint stream (dropout 0.05, jitter 2 px) written to `path`."""
    spec = SynthSpec(seed=1, fps=30.0, duration_s=seconds, with_keypoints=True,
                     corruption=CorruptionSpec(dropout_rate=0.05, jitter_sigma=2.0))
    stream, _ = generate_stream(spec, 0)
    write_stream(stream, path)
    return path


def test_cli_track_memory_is_flat_in_stream_length(tmp_path):
    import tracemalloc

    short = _keypoint_stream_file(tmp_path / "short.jsonl", 20.0)
    long = _keypoint_stream_file(tmp_path / "long.jsonl", 80.0)
    argv = ["track", "--out", str(tmp_path / "t.jsonl"), "--in"]
    assert main([*argv, str(short)]) == 0  # lazy imports stay out of the peaks

    def peak(path):
        tracemalloc.start()
        try:
            assert main([*argv, str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short_peak, long_peak = peak(short), peak(long)
    assert long_peak <= 1.5 * short_peak, (short_peak, long_peak)


def test_eval_boxes_memory_grows_by_under_64_bytes_per_predicted_box(tmp_path):
    import tracemalloc

    # AP keeps 9 bytes a predicted box, its confidence in an array('d') and its
    # true-positive flag in a bytearray, and ranks one class's boxes at a time; a
    # (confidence, is_tp) tuple a box took the peak up by about 160 bytes a box
    short = _keypoint_stream_file(tmp_path / "short.jsonl", 20.0)
    long = _keypoint_stream_file(tmp_path / "long.jsonl", 80.0)

    def peak(path):
        argv = ["eval", "boxes", "--pred", str(path), "--truth", str(path),
                "--out", str(tmp_path / "report.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def boxes(path):
        return sum(len(fr.detections) for fr in open_stream(path)[1])

    peak(short)  # lazy imports stay out of the peaks
    growth = (peak(long) - peak(short)) / (boxes(long) - boxes(short))
    assert growth <= 64, growth


def test_skill_memory_grows_by_under_1_5_kb_per_tracks_row(tmp_path):
    import tracemalloc

    # `skill` reads its tracks rows once, keeping per hand and row a frame, a
    # centroid, a size and nine skill points in typed arrays until the clips are
    # sliced; holding every decoded row, keypoints included, took the peak up by
    # 10.7 KB a row, and holding those numbers as tuples and lists by 3.6 KB
    def files(seconds):
        stream = _keypoint_stream_file(tmp_path / f"{seconds}.jsonl", seconds)
        tracks, clips = tmp_path / f"{seconds}.tracks.jsonl", tmp_path / f"{seconds}.clips.json"
        assert main(["track", "--in", str(stream), "--out", str(tracks)]) == 0
        header, rows = read_tracks(tracks)
        frames = [row["frame"] for row in rows]
        clips.write_text(json.dumps([{"video_id": header.video_id, "start": frames[0],
                                      "end": frames[-1], "operator_id": "o",
                                      "experience": "trainee", "knot_count": 1}]))
        return tracks, clips, len(frames)

    def peak(tracks, clips, _):
        argv = ["skill", "--tracks", str(tracks), "--clips", str(clips),
                "--out", str(tmp_path / "skill.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = files(20.0), files(80.0)
    peak(*short)  # lazy imports stay out of the peaks
    growth = (peak(*long) - peak(*short)) / (long[2] - short[2])
    assert growth <= 1.5 * 1024, growth


def _peak_growth_per_frame(argv, seconds_option, fps=30.0):
    """How much the tracemalloc peak of `main(argv)` grows per generated frame
    from a 20-s to an 80-s stream, `seconds_option(seconds)` giving the options
    that set the stream's length."""
    import tracemalloc

    def peak(seconds):
        tracemalloc.start()
        try:
            assert main([*argv, *seconds_option(seconds)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20.0)  # lazy imports stay out of the peaks
    return (peak(80.0) - peak(20.0)) / (60.0 * fps)


def test_bench_memory_grows_by_under_512_bytes_per_generated_frame(tmp_path):
    # `bench` without --in tracks and steps the generator's frames as they are
    # made, and the ground truth it does not read is never built: holding the
    # frames in a list, and the truth's boxes, took the peak up by about 1.3 KB a frame
    growth = _peak_growth_per_frame(["bench", "--out", str(tmp_path / "b.json")],
                                    lambda seconds: ["--minutes", str(seconds / 60.0)])
    assert growth <= 512, growth


def test_synth_memory_grows_by_under_512_bytes_per_keypoint_frame(tmp_path):
    # `synth` writes each frame's line as the generator makes the frame, and the
    # truth sidecar's boxes a block of frames at a time. Holding the frames in
    # a list took the peak up by about 4.5 KB a frame, and dumping the whole
    # sidecar at once by about 2.2 KB
    growth = _peak_growth_per_frame(
        ["synth", "--with-keypoints", "--dropout", "0.05", "--jitter", "2",
         "--out", str(tmp_path)], lambda seconds: ["--duration", str(seconds)])
    assert growth <= 512, growth


def test_synth_that_fails_midway_leaves_no_stream_file(tmp_path, capsys):
    # frames are made as the stream file is written, so a box that a jitter of
    # 1e6 px pushes past the frame's left edge fails the write, which removes
    # `<path>.tmp`: no stream file is left, as when every frame was made first
    out = tmp_path / "out"
    assert main(["synth", "--jitter", "1e6", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("invariant violation: box x_max must be >= 0")
    assert list(out.iterdir()) == []


# the command's peak resident set in kB, printed after it runs: VmHWM, as on
# Linux a child's ru_maxrss starts from its parent's peak (here the test run's)
_PEAK_RSS = ("import sys; from scenestream.cli import main; code = main(sys.argv[1:]); "
             "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')));"
             " sys.exit(code)")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_eval_peak_memory_is_within_twice_track_memory(tmp_path):
    # `eval` merges the frames of its two streams as it reads them, as `track`
    # reads its one, so neither holds a whole stream; on 3 minutes of keypoint
    # stream, reading both whole took about 2.6 times `track`'s peak. The step
    # stage holds one step's frames at a time: holding every step's took `eval
    # actions` and `signature` to about 1.6 times `track`'s peak. `bench --in`
    # tracks each frame and passes it on to the step stage: holding the whole
    # stream took it to about 1.6 times too
    (tmp_path / "d").mkdir()
    stream = str(_keypoint_stream_file(tmp_path / "d" / "s.jsonl", 180.0))

    def peak_kib(*argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv,
                               "--out", str(tmp_path / "out")],
                              env={**os.environ, "PYTHONPATH": str(_SRC)},
                              capture_output=True, text=True, check=True)
        return int(proc.stdout.split()[-2])

    track = peak_kib("track", "--in", stream)
    for mode in ("keypoints", "boxes"):
        assert peak_kib("eval", mode, "--pred", stream, "--truth", stream) <= 2 * track, mode
    assert peak_kib("eval", "actions", "--pred", stream, "--truth", stream) <= 1.25 * track
    assert peak_kib("signature", "--streams", str(tmp_path / "d")) <= 1.25 * track
    assert peak_kib("bench", "--in", stream) <= 1.25 * track


def test_cli_track_out_of_order_stream_matches_sorted_stream(tmp_path):
    in_order = _keypoint_stream_file(tmp_path / "sorted.jsonl", 12.0)
    lines = in_order.read_text().splitlines()
    lines[301], lines[302] = lines[302], lines[301]  # frames 300 and 301, past a block
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(lines) + "\n")
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    assert main(["track", "--in", str(in_order), "--out", str(want)]) == 0
    with pytest.warns(DataWarning, match="re-sorted"):
        assert main(["track", "--in", str(shuffled), "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_out_of_order_frames_read_from_a_pipe_name_their_line(tmp_path, capsys):
    # a pipe is read once, so `track` cannot re-sort it from a second read: it
    # names the first late frame, here past the first block of rows written
    lines = [json.dumps({"video_id": "v", "fps": 30.0})]
    order = [*range(300), 301, 300, *range(302, 310)]
    lines += [json.dumps({"frame": k, "t": k / 30.0, "dets": []}) for k in order]
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "t.jsonl"
    try:
        assert main(["track", "--in", f"/dev/fd/{read_end}", "--out", str(out)]) == 1
    finally:
        os.close(read_end)
    err = capsys.readouterr().err
    assert err.startswith("input error: line 303: frame_index 300 is not above the frame "
                          f"before it in /dev/fd/{read_end}; only a regular file is re-sorted")
    assert "Traceback" not in err
    assert not out.exists()
    regular = tmp_path / "s.jsonl"  # the same lines in a file are re-sorted
    regular.write_text("\n".join(lines) + "\n")
    with pytest.warns(DataWarning, match="re-sorted"):
        assert main(["track", "--in", str(regular), "--out", str(out)]) == 0


def test_cli_track_reads_crlf_line_endings(tmp_path):
    path = _keypoint_stream_file(tmp_path / "s.jsonl", 2.0)
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    assert main(["track", "--in", str(path), "--out", str(want)]) == 0
    assert main(["track", "--in", str(crlf), "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_cli_track_malformed_line_leaves_no_output(tmp_path, capsys):
    path = _keypoint_stream_file(tmp_path / "s.jsonl", 11.0)
    lines = path.read_text().splitlines()
    lines[301] = "{not json"  # after 300 good frames
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.jsonl"
    assert main(["track", "--in", str(path), "--out", str(out)]) == 1
    assert "line 302:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]
    out.write_text("earlier tracks\n")
    assert main(["track", "--in", str(path), "--out", str(out)]) == 1
    assert out.read_text() == "earlier tracks\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl", "t.jsonl"]


@pytest.mark.parametrize("header, frame_5_t, message", [
    ({}, 0.5, "line 7: FrameRecord.timestamp_s"),
    ({"metadata": {"duration_s": 10.0}}, 5 / 30.0, "line 11: metadata duration_s"),
])
def test_cli_track_invariant_error_names_its_line(tmp_path, capsys, header, frame_5_t,
                                                  message):
    # ten empty frames on lines 2-11; frame 5 sits on line 7
    lines = [json.dumps({"video_id": "v", "fps": 30.0, **header})]
    lines += [json.dumps({"frame": k, "t": frame_5_t if k == 5 else k / 30.0, "dets": []})
              for k in range(10)]
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["track", "--in", str(path), "--out", str(tmp_path / "t.jsonl")]) == 2
    assert message in capsys.readouterr().err


def test_cli_skill_from_tracks(tmp_path):
    spec = SynthSpec(seed=4, n_videos=1, fps=30.0, duration_s=6.0, with_keypoints=True)
    (stream, frames), _ = generate_stream(spec, 0)
    rows = track_stream(frames, TrackerConfig(min_hits=1))
    tracks_path = tmp_path / "t.jsonl"
    write_tracks(stream, rows, tracks_path)
    clips = [{"video_id": stream.video_id, "start": 0, "end": 170,
              "operator_id": "op-1", "experience": "trainee", "knot_count": 4}]
    clips_path = tmp_path / "clips.json"
    clips_path.write_text(json.dumps(clips))
    out_csv = tmp_path / "summary.csv"
    cents = tmp_path / "centroids.json"
    assert main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                 "--out", str(out_csv), "--centroids", str(cents)]) == 0
    table = read_csv(out_csv)
    assert table[0] == ["video_id", "operator_id", "experience", "knot_count", "hand",
                        *SUMMARY_FIELDS]
    assert len(table) == 3  # header + left + right
    data = json.loads(cents.read_text())
    assert "trainee" in data["centroids"]


def test_clips_from_tracks_explicit_and_inferred(tmp_path):
    spec = SynthSpec(seed=5, n_videos=1, fps=30.0, duration_s=5.0)
    (stream, frames), _ = generate_stream(spec, 0)
    rows = list(track_stream(frames, TrackerConfig(min_hits=1)))
    base = {"video_id": stream.video_id, "start": 0, "end": 140,
            "operator_id": "o", "experience": "experienced", "knot_count": 3}
    inferred = clips_from_tracks(stream, rows, [base], "clips.json")[0]
    assert inferred.left is not None and inferred.right is not None
    # left hand sits left of right hand by mean centroid x
    assert inferred.left.points[:, 0].mean() < inferred.right.points[:, 0].mean()
    ids = sorted({tid for row in rows for tid in row["tracks"]})
    assert len(ids) == 2
    as_inferred, swapped = (
        clips_from_tracks(stream, rows, [{**base, "left_track": left, "right_track": right}],
                          "clips.json")[0]
        for left, right in (ids, ids[::-1]))
    if not np.array_equal(as_inferred.left.points, inferred.left.points):
        as_inferred, swapped = swapped, as_inferred
    # one order of the two track ids names the hands as inferred, the other swaps them
    assert np.array_equal(as_inferred.right.points, inferred.right.points)
    assert np.array_equal(swapped.left.points, inferred.right.points)
    assert np.array_equal(swapped.right.points, inferred.left.points)


def test_tracking_oracle_report_clean_stream():
    spec = SynthSpec(seed=6, n_videos=1, fps=30.0, duration_s=5.0)
    (_, frames), truth = generate_stream(spec, 0)
    report = tracking_oracle_report(track_stream(frames, TrackerConfig(min_hits=1)), truth)
    assert report["bijection"] is True
    assert report["id_switches"] == 0


def test_tracking_oracle_report_is_no_bijection_when_more_ids_than_hands():
    # at dropout 0.5, 10 track ids follow the 2 hands, each id one hand and each
    # hand mostly its own id: that is no bijection
    spec = SynthSpec(seed=3, n_videos=1, fps=30.0, duration_s=120.0,
                     corruption=CorruptionSpec(dropout_rate=0.5, jitter_sigma=4.0))
    (_, frames), truth = generate_stream(spec, 0)
    report = tracking_oracle_report(track_stream(frames, TrackerConfig()), truth)
    assert (report["n_truth_ids"], report["n_matched_track_ids"]) == (2, 10)
    assert report["id_switches"] == 8
    assert report["bijection"] is False


def test_cli_signature_and_featurize_and_lda(tmp_path, capsys):
    streams_dir = tmp_path / "streams"
    for seed, label in ((11, "a"), (12, "b"), (13, "c")):
        assert main(["synth", "--seed", str(seed), "--n-videos", "2", "--fps", "10",
                     "--duration", "30", "--out", str(streams_dir)]) == 0
    class_map = {}
    for path in streams_dir.glob("*.jsonl"):
        vid = path.stem
        class_map[vid] = {"11": "a", "12": "b", "13": "c"}[vid.split("-")[1]]
    (tmp_path / "classes.json").write_text(json.dumps(class_map))

    sig_csv = tmp_path / "signature.csv"
    assert main(["signature", "--streams", str(streams_dir), "--class-map",
                 str(tmp_path / "classes.json"), "--out", str(sig_csv)]) == 0
    table = read_csv(sig_csv)
    assert table[0][0] == "class"
    assert len(table) > 100

    feat_csv = tmp_path / "features.csv"
    assert main(["featurize", "--streams", str(streams_dir), "--class-map",
                 str(tmp_path / "classes.json"), "--out", str(feat_csv)]) == 0
    table = read_csv(feat_csv)
    assert len(table[0]) == 2 + 30
    assert len(table) == 1 + 6

    proj_csv = tmp_path / "proj.csv"
    weights_csv = tmp_path / "weights.csv"
    assert main(["lda", "--features", str(feat_csv), "--out", str(proj_csv),
                 "--weights", str(weights_csv)]) == 0
    proj = read_csv(proj_csv)
    assert proj[0] == ["video_id", "label", "x", "y"]
    assert len(proj) == 7
    weights = read_csv(weights_csv)
    assert len(weights) == 31


@pytest.mark.parametrize("command", ["signature", "featurize"])
def test_cli_names_a_video_that_is_all_background(tmp_path, capsys, command):
    streams_dir, out = tmp_path / "streams", tmp_path / "out.csv"
    streams_dir.mkdir()
    frames = tuple(FrameRecord(frame_index=k, timestamp_s=k / 10, detections=(),
                               action="background") for k in range(12))
    write_stream((VideoStream(video_id="allbg", fps=10.0, width=640, height=480), frames),
                 streams_dir / "allbg.jsonl")
    assert main([command, "--streams", str(streams_dir), "--out", str(out)]) == 2
    assert "allbg" in capsys.readouterr().err
    assert not out.exists()


def test_cli_filter(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    entries = [
        {"video_id": "good", "title": "open appendectomy", "umls": ["appendix"],
         "search_terms": ["appendectomy"], "duration_s": 400.0},
        {"video_id": "long", "title": "appendectomy", "umls": ["appendix"],
         "search_terms": ["appendectomy"], "duration_s": 4000.0},
        {"video_id": "other-umls", "title": "appendectomy", "umls": ["colon"],
         "search_terms": ["appendectomy"], "duration_s": 400.0},
        {"video_id": "other-terms", "title": "appendectomy", "umls": ["appendix"],
         "search_terms": ["colectomy"], "duration_s": 400.0},
    ]
    catalog.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    assert main(["filter", "--catalog", str(catalog), "--rule", "appendectomy"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["good"]
    selected = tmp_path / "selected.txt"
    assert main(["filter", "--catalog", str(catalog), "--rule", "appendectomy",
                 "--out", str(selected)]) == 0
    assert capsys.readouterr().out == f"{selected}\n"
    assert selected.read_text() == "good\n"


def _catalog_entry(**changes):
    """A catalog entry `filter --rule appendectomy` selects, with `changes`;
    a change to ... drops the field."""
    entry = {"video_id": "good", "title": "open appendectomy", "umls": ["appendix"],
             "search_terms": ["appendectomy"], "duration_s": 400.0, **changes}
    return {k: v for k, v in entry.items() if v is not ...}


@pytest.mark.parametrize("line, message", [
    ([1, 2], "line 2: catalog entry must be an object"),
    ("x", "line 2: catalog entry must be an object"),
    (_catalog_entry(duration_s="x"), "line 2: catalog entry 'duration_s' must be a finite number"),
    (_catalog_entry(duration_s=True), "line 2: catalog entry 'duration_s'"),
    (_catalog_entry(umls="appendix"), "line 2: catalog entry 'umls' must be a list of strings"),
    (_catalog_entry(search_terms=["a", 3]), "line 2: catalog entry 'search_terms'"),
    (_catalog_entry(title=["open"]), "line 2: catalog entry 'title' must be a string"),
    (_catalog_entry(video_id=5), "line 2: catalog entry 'video_id' must be a string"),
    (_catalog_entry(video_id=...), "line 2: catalog entry 'video_id' must be a string"),
    (_catalog_entry(video_id=None), "line 2: catalog entry 'video_id' must be a string"),
])
def test_cli_filter_rejects_malformed_catalog_entry(tmp_path, capsys, line, message):
    catalog, out = tmp_path / "catalog.jsonl", tmp_path / "selected.txt"
    catalog.write_text(json.dumps(_catalog_entry()) + "\n" + json.dumps(line) + "\n")
    assert main(["filter", "--catalog", str(catalog), "--rule", "appendectomy",
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_filter_warns_and_excludes_entry_missing_a_field(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    entries = [_catalog_entry(), _catalog_entry(video_id="no-terms", search_terms=...),
               _catalog_entry(video_id="null-title", title=None)]
    catalog.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    with pytest.warns(DataWarning, match="missing metadata"):
        assert main(["filter", "--catalog", str(catalog), "--rule", "appendectomy"]) == 0
    assert capsys.readouterr().out.split() == ["good"]


def test_cli_prints_each_warning_as_one_line(tmp_path):
    # pytest records the warnings of its own process, so they are printed in a new one
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(json.dumps(_catalog_entry(video_id="miss-umls", umls=...)) + "\n")
    argv = ["filter", "--catalog", str(catalog), "--rule", "appendectomy"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from scenestream.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0 and proc.stdout == ""
    assert proc.stderr == "DataWarning: video miss-umls missing metadata ['umls']; excluded\n"
    # main restores the format it replaced, on success and on an input error
    before = warnings.formatwarning
    with pytest.warns(DataWarning, match="missing metadata"):
        assert main(argv) == 0
    assert main(["filter", "--catalog", str(tmp_path / "none.jsonl"),
                 "--rule", "appendectomy"]) == 1
    assert warnings.formatwarning is before


@pytest.mark.parametrize("class_map", [["x"], {"synth-1-0000": 1},
                                       {"synth-1-0000": "a", "synth-2-0000": 2}])
@pytest.mark.parametrize("command", ["signature", "featurize"])
def test_cli_rejects_class_map_that_is_not_an_object_of_strings(sweep_inputs, tmp_path, capsys,
                                                                 command, class_map):
    map_path, out = tmp_path / "classes.json", tmp_path / "out.csv"
    map_path.write_text(json.dumps(class_map))
    assert main([*sweep_inputs[command][0], "--class-map", str(map_path),
                 "--out", str(out)]) == 1
    assert "class map must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_cli_warns_of_class_map_keys_that_name_no_stream(sweep_inputs, tmp_path):
    # the streams are v1 and v2, whose video ids are synth-1-0000 and synth-2-0000
    outputs = []
    for name, class_map in (("good", {"synth-1-0000": "a"}),
                            ("typo", {"synth-1-0000": "a", "synth-2-000o": "b",
                                      "synth-1-000O": "c"})):
        map_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        map_path.write_text(json.dumps(class_map))
        with warnings.catch_warnings(record=True) as caught:
            assert main([*sweep_inputs["signature"][0], "--class-map", str(map_path),
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        assert [str(w.message) for w in caught if issubclass(w.category, DataWarning)] == (
            [] if name == "good" else
            ["class map keys name no stream: ['synth-1-000O', 'synth-2-000o']"])
    assert outputs[0] == outputs[1]  # synth-2-0000 lands in class "all" either way


def test_cli_eval_all_modes(tmp_path):
    streams_dir = tmp_path / "s"
    assert main(["synth", "--seed", "8", "--n-videos", "1", "--fps", "15",
                 "--duration", "6", "--with-keypoints", "--out", str(streams_dir)]) == 0
    stream_path = next(streams_dir.glob("*.jsonl"))
    for mode in ("actions", "boxes", "keypoints"):
        out = tmp_path / f"report_{mode}.json"
        assert main(["eval", mode, "--pred", str(stream_path), "--truth",
                     str(stream_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        if mode == "actions":
            assert report["accuracy"] == 1.0
        elif mode == "boxes":
            assert report["hand_ap"] == 1.0
        else:
            assert report["mean_pck"] == 1.0


def test_cli_eval_actions_on_background_only_streams_has_no_macro_means(tmp_path):
    frames = tuple(FrameRecord(frame_index=k, timestamp_s=k / 10, detections=(),
                               action="background") for k in range(12))
    paths = {}
    for side in ("pred", "truth"):
        paths[side] = tmp_path / f"{side}.jsonl"
        write_stream((VideoStream(video_id=side, fps=10.0, width=640, height=480), frames),
                     paths[side])
    out = tmp_path / "report.json"
    with pytest.warns(DataWarning, match="absent from both"):
        assert main(["eval", "actions", "--pred", str(paths["pred"]),
                     "--truth", str(paths["truth"]), "--out", str(out)]) == 0
    # no surgical action is present, so the macro means are undefined and left out
    assert json.loads(out.read_text()) == {
        "strata": {}, "action_precision": {"background": 1.0},
        "action_recall": {"background": 1.0}, "accuracy": 1.0}


# (fps, frame) of a one-frame stream whose step lists would number past the cap:
# 3.3e10 one-second steps at 30 fps, or 1e300 at 1e-300 fps
_FAR_STREAMS = {"far-frame": (30.0, 10 ** 12), "tiny-fps": (1e-300, 0)}
# a new process, its address space capped at 1 GiB so that an uncapped step
# list fails fast rather than filling the machine's memory
_CAPPED = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
           "from scenestream.cli import main; sys.exit(main(sys.argv[1:]))")


# (signature's 5 s step is below the 1e300 s frame period, which check_step rejects)
@pytest.mark.parametrize("name, command", [("far-frame", "eval"), ("tiny-fps", "eval"),
                                           ("far-frame", "signature")])
def test_cli_stream_of_too_many_steps_is_an_invariant_violation(tmp_path, name, command):
    fps, frame = _FAR_STREAMS[name]
    (tmp_path / "d").mkdir()
    stream = tmp_path / "d" / "v.jsonl"
    stream.write_text(json.dumps({"video_id": "v", "fps": fps}) + "\n"
                      + json.dumps({"frame": frame, "t": frame / fps, "dets": []}) + "\n")
    out = tmp_path / "out"
    argv = (["eval", "actions", "--pred", stream, "--truth", stream] if command == "eval"
            else ["signature", "--streams", tmp_path / "d"])
    proc = subprocess.run([sys.executable, "-c", _CAPPED, *map(str, argv), "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invariant violation: stream v lasts ")
    assert "more than 10000000 steps of" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("iou", ["0", "-0.5", "1.5", "nan"])
def test_cli_eval_boxes_rejects_iou_out_of_range(tmp_path, capsys, iou):
    stream_path = Path(__file__).resolve().parent.parent / "docs" / "golden_stream.jsonl"
    out = tmp_path / "report.json"
    assert main(["eval", "boxes", "--pred", str(stream_path), "--truth", str(stream_path),
                 "--iou", iou, "--out", str(out)]) == 2
    assert "iou_thresh must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bench_small(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--minutes", "0.05", "--fps", "30", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["per_frame"]["count"] == 90
    assert "PASS" in capsys.readouterr().out


def _bench_counts(path, out):
    """n_frames and the per-frame and per-window counts that `bench --in` writes."""
    assert main(["bench", "--in", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    return report["n_frames"], report["per_frame"]["count"], report["per_window"]["count"]


def test_cli_bench_in_re_sorts_a_file_and_rejects_a_pipe_as_track_does(tmp_path, capsys):
    # `bench --in` reads its file once through `read_streams`, tracking each
    # frame and then stepping it: a late frame in a regular file is re-sorted
    # on a second read, and in a pipe, which is read once, an input error
    def text(order):
        lines = [json.dumps({"frame": k, "t": k / 30.0, "action": "cutting",
                             "dets": [["hand", 0.9, 10.0 + k, 10.0, 50.0 + k, 50.0]]})
                 for k in order]
        return "\n".join([json.dumps({"video_id": "v", "fps": 30.0}), *lines]) + "\n"

    shuffled, in_order = tmp_path / "shuffled.jsonl", tmp_path / "sorted.jsonl"
    shuffled.write_text(text([*range(300), 301, 300, *range(302, 310)]))
    in_order.write_text(text(range(310)))
    out = tmp_path / "bench.json"
    want = _bench_counts(in_order, out)
    steps = len(timeline_from_stream(*open_stream(in_order), 5.0).labels)
    assert want == (310, 310, steps) and steps == 3
    with pytest.warns(DataWarning, match="re-sorted"):
        assert _bench_counts(shuffled, out) == want
    with warnings.catch_warnings(record=True) as caught:  # once, under any filter
        warnings.simplefilter("always")
        report = read_streams([shuffled], bench_stream)
    assert [str(w.message) for w in caught] == [
        f"stream {shuffled} had out-of-order frames; re-sorted by frame_index"]
    assert (report.n_frames, report.per_frame["count"], report.per_window["count"]) == want
    out.unlink()
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(shuffled.read_text())
    try:
        assert main(["bench", "--in", f"/dev/fd/{read_end}", "--out", str(out)]) == 1
    finally:
        os.close(read_end)
    err = capsys.readouterr().err
    assert err.startswith("input error: line 303: frame_index 300 is not above the frame "
                          f"before it in /dev/fd/{read_end}; only a regular file is re-sorted")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_run_produces_bundle(tmp_path):
    config = {"synth": {"n_videos": 1, "duration_s": 6.0},
              "skill": {"operators_per_group": 2, "clips_per_operator": 2,
                        "clip_duration_s": 4.0},
              "signature": {"n_per_class": 4}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "bundle"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for artifact in manifest.values():
        assert (out_dir / artifact).exists()
    written = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
    assert written - {"manifest.json"} == set(manifest.values())
    tracking = json.loads((out_dir / "tracking_report.json").read_text())
    assert tracking[0]["bijection"] in (True, False)


def test_cli_run_tracks_keypoints_as_track_does(tmp_path):
    # keypoints made in memory (run) and parsed from the stream file (track)
    # reach the tracks file as the same bytes
    config = {"synth": {"n_videos": 1, "duration_s": 3.0, "with_keypoints": True},
              "skill": {"operators_per_group": 2, "clips_per_operator": 1,
                        "clip_duration_s": 2.0},
              "signature": {"n_per_class": 2}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", str(cfg_path), "--out", str(bundle)]) == 0
    tracks = next((bundle / "tracks").glob("*.tracks.jsonl"))
    stream_path = bundle / "streams" / tracks.name.replace(".tracks.jsonl", ".jsonl")
    out = tmp_path / "tracked.jsonl"
    assert main(["track", "--in", str(stream_path), "--out", str(out), "--iou", "0.3",
                 "--max-age", "30", "--min-hits", "3"]) == 0
    assert '"kps"' in out.read_text()
    assert out.read_bytes() == tracks.read_bytes()


def test_cli_track_keeps_keypoint_text(tmp_path):
    # ints, exponents and spacing stay as written; the numbers are the input's.
    # The last line has a backslash, so its keypoints are written as floats.
    texts = ["[" + ", ".join(f"[{110 + k}, 1.2e2, 1]" for k in range(21)) + "]",
             "[ " + " ,".join(f"[ {110 + k}.5 ,  1.25E+2,1 ]" for k in range(21)) + " ]"]
    box = [100, 100, 180, 170]
    lines = [json.dumps({"video_id": "v", "fps": 30.0, "width": 640, "height": 480})]
    for k in range(4):
        lines.append(f'{{"frame": {k}, "t": {k / 30.0!r}, "dets": [["hand", 0.9, 100, 100, '
                     f'180, 170]], "kps": [{{"box": {box}, "points": {texts[k % 2]}}}], '
                     '"action": null' + (', "action_probs": {"a\\"b": 1}}' if k == 3 else "}"))
    stream_path = tmp_path / "s.jsonl"
    stream_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.jsonl"
    assert main(["track", "--in", str(stream_path), "--out", str(out), "--min-hits", "1"]) == 0
    written = out.read_text().splitlines()[1:]
    for k, line in enumerate(written):
        numbers = json.loads(texts[k % 2])
        as_floats = json.dumps([[float(v) for v in row] for row in numbers])
        assert f'"kps": {{"1": {as_floats if k == 3 else texts[k % 2]}}}' in line
        assert json.loads(line)["kps"]["1"] == numbers
    _, rows = read_tracks(out)  # the tracks file is valid for `skill`
    assert len(list(rows)) == 4


def test_cli_track_keeps_the_keypoint_entry_eval_keypoints_pairs(tmp_path):
    # two keypoint entries over one hand: the first overlaps it at IoU 1.0,
    # the second at 0.67. The track keeps the first, and `eval keypoints`
    # pairs the track's box with that same entry of the stream
    det = [100, 100, 180, 170]
    entries = [{"box": det, "points": [[110 + k, 120, 1] for k in range(21)]},
               {"box": [116, 100, 196, 170], "points": [[150 + k, 160, 1] for k in range(21)]}]
    header = json.dumps({"video_id": "v", "fps": 30.0})
    stream_path, out = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
    stream_path.write_text("\n".join([header, *(json.dumps(
        {"frame": k, "t": k / 30.0, "dets": [["hand", 0.9, *det]], "kps": entries})
        for k in range(3))]) + "\n")
    assert main(["track", "--in", str(stream_path), "--out", str(out), "--min-hits", "1"]) == 0
    rows = list(read_tracks(out)[1])
    assert [row["kps"] for row in rows] == [{"1": entries[0]["points"]}] * 3
    # the tracks as predicted hands: each track box owns the keypoints it kept
    pred_path, report = tmp_path / "pred.jsonl", tmp_path / "pck.json"
    pred_path.write_text("\n".join([header, *(json.dumps(
        {"frame": row["frame"], "t": row["t"], "dets": [["hand", 1.0, *row["tracks"]["1"]]],
         "kps": [{"box": row["tracks"]["1"], "points": row["kps"]["1"]}]})
        for row in rows)]) + "\n")
    assert main(["eval", "keypoints", "--pred", str(pred_path), "--truth", str(stream_path),
                 "--out", str(report)]) == 0
    # the paired entry scores every keypoint, the unpaired one none
    assert json.loads(report.read_text())["mean_pck"] == 0.5


@pytest.mark.parametrize("value", ['"1.5"', "true", "null", "1" + "0" * 399, "NaN"],
                         ids=["string", "bool", "null", "oversized-int", "nan"])
def test_cli_track_rejects_keypoint_value_that_is_not_a_number(tmp_path, capsys, value):
    objs = _golden_with_keypoints()
    objs[1]["kps"][0]["points"][11][2] = "v"
    text = json.dumps(objs[1]).replace('"v"', value)
    stream_path = tmp_path / "s.jsonl"
    stream_path.write_text("\n".join([json.dumps(objs[0]), text,
                                      *map(json.dumps, objs[2:])]) + "\n")
    out = tmp_path / "t.jsonl"
    assert main(["track", "--in", str(stream_path), "--out", str(out)]) == 1
    assert "line 2: kps points must list" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_byte_identical(tmp_path):
    config = {"synth": {"n_videos": 1, "duration_s": 5.0},
              "skill": {"operators_per_group": 2, "clips_per_operator": 2,
                        "clip_duration_s": 3.0},
              "signature": {"n_per_class": 3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def _number_keys(config, prefix=""):
    """The dotted keys of a run config's number values (not true/false)."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _number_keys(value, f"{prefix}{key}.")
        elif type(value) in (int, float):
            yield prefix + key


def _nested(key, value):
    """The run config that sets the dotted `key` to `value`."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


@pytest.mark.parametrize("config, key", [
    ({"skill": {"metric": "bogus"}}, "skill.metric"),
    ({"skill": {"clip_duration_s": "abc"}}, "skill.clip_duration_s"),
    ({"seed": "abc"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ([1, 2], "run config must be an object"),
    ({"synth": 5}, "synth"),
    ({"tracker": {"max_age": 2.5}}, "tracker.max_age"),
    ({"synth": {"with_keypoints": "no"}}, "synth.with_keypoints"),
    ({"eval": {"iou": None}}, "eval.iou"),
    ({"signature": {"n_per_class": 0}}, "signature.n_per_class"),
    ({"signature": {"n_per_class": 1}}, "signature.n_per_class"),
    ({"signature": {"window": 4}}, "signature.window"),
    ({"signature": {"window": -1}}, "signature.window"),
    ({"eval": {"iou": 1.5}}, "eval.iou"),
    ({"eval": {"iou": 0}}, "eval.iou"),
    ({"eval": {"iou": -1}}, "eval.iou"),
    ({"skill": {"metrc": "pose"}}, "skill.metrc"),
    ({"sed": 3}, "sed"),
    ({"eval": {"alpha": 0}}, "eval.alpha"),
    ({"eval": {"alpha": -1}}, "eval.alpha"),
    # values of the right kind that a stage's spec rejects
    ({"synth": {"dropout": 1.5}}, "run config: synth: dropout_rate must be in [0,1)"),
    ({"synth": {"jitter": -1}},
     "run config: synth: jitter_sigma must be a finite number >= 0, got -1.0"),
    ({"synth": {"n_videos": 0}}, "run config: synth: n_videos must be >= 1"),
    ({"tracker": {"iou": 1.5}}, "run config: tracker: iou_threshold must be in (0,1), got 1.5"),
    ({"tracker": {"max_age": 0}}, "run config: tracker: max_age and min_hits must be positive"),
    ({"skill": {"operators_per_group": 0}}, "run config: skill: cohort sizes must be >= 1"),
    # every number key, integers included, refuses a JSON integer past the float range
    *((_nested(key, 10 ** 400), f"run config: {key} must be a finite number")
      for key in _number_keys(DEFAULT_RUN_CONFIG)),
])
def test_cli_run_rejects_malformed_config(tmp_path, capsys, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "bundle"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_skill_and_run_accept_the_same_metric_names():
    from scenestream.cli import build_parser
    from scenestream.kinematics import SKILL_METRICS
    from scenestream.pipeline import DEFAULT_RUN_CONFIG, _config_value

    def cli_accepts(name):
        try:
            build_parser().parse_args(["skill", "--tracks", "t", "--clips", "c",
                                       "--out", "o", "--metric", name])
        except SystemExit:
            return False
        return True

    def run_accepts(name):
        try:
            _config_value("", DEFAULT_RUN_CONFIG, {"skill": {"metric": name}})
        except StreamFormatError:
            return False
        return True

    candidates = {*SKILL_METRICS, "bogus", "integrated_pose_distance", ""}
    accepted = {name for name in candidates if cli_accepts(name)}
    assert accepted == {name for name in candidates if run_accepts(name)}
    assert accepted == set(SKILL_METRICS)
    assert {"distance", "pose", "distance_per_knot", "pose_per_knot"} <= accepted


def test_zero_corruption_pipeline_recovers_ground_truth(monkeypatch):
    # with perfect detections and vanishing measurement noise the tracker is
    # an identity: emitted boxes equal true boxes, so downstream kinematics
    # and sequence features reproduce the generator's totals
    spec = SynthSpec(seed=31, n_videos=1, fps=30.0, duration_s=40.0)
    (stream, frames), truth = generate_stream(spec, 0)
    frames = list(frames)
    q, r = scaled_noise(1e-6, 1e-12)
    monkeypatch.setattr(tracking, "_PROCESS_VAR", q)
    monkeypatch.setattr(tracking, "_MEASUREMENT_VAR", r)
    rows = track_stream(frames, TrackerConfig(min_hits=1))

    from scenestream.pipeline import _hands_by_track
    from scenestream.kinematics import path_distance, clip_mean_hand_size
    trajectories, _, _ = _hands_by_track(rows)
    assert len(trajectories) == len(truth.hand_ids)
    got_lengths = sorted(
        path_distance(t, clip_mean_hand_size(t)) for t in trajectories.values())
    want_lengths = sorted(truth.path_hand_lengths.values())
    assert got_lengths == pytest.approx(want_lengths, rel=1e-6)

    from scenestream.signatures import Timeline, quartile_aggregate, timeline_from_stream
    tl = timeline_from_stream(stream, frames, resolution_s=5.0)
    # rebuild the sequence from the sidecar's per-frame actions
    steps = []
    per_step = int(5.0 * spec.fps)
    for lo in range(0, len(truth.actions), per_step):
        window = truth.actions[lo:lo + per_step]
        steps.append(max(set(window), key=window.count))
    assert list(tl.labels) == steps
    want = Timeline(video_id="t", labels=steps, tools=tl.tools)
    assert np.array_equal(quartile_aggregate(tl.indicators()),
                          quartile_aggregate(want.indicators()))


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert main(["track", "--in", str(missing), "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"video_id": "v", "fps": 30}\n'
                   '{"frame": 0, "t": 0.0, "dets": [["hand", 0.9, 9, 0, 2, 2]]}\n')
    assert main(["track", "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["synth", "--seed", "1", "--duration", "0", "--out",
                 str(tmp_path / "x")]) == 2


# ------------------------------------------------------- malformed inputs

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden_stream.jsonl"


def _golden_with_keypoints():
    """The golden stream's objects, with one keypoint entry on frame 0."""
    objs = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    objs[1]["kps"] = [{"points": [[110.0 + k, 120.0 + k, 1] for k in range(21)],
                       "box": [100, 100, 180, 170]}]
    return objs


def _leaf_fields(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaf_fields(value, path + (key,))]


# every field a reader converts: header numbers and metadata, and every
# scalar of the frame lines (the header's video_id and the contents of
# metadata are free-form)
_BASE = _golden_with_keypoints()
_FIELDS = ([(0, (key,)) for key in ("fps", "width", "height", "metadata")]
           + [(line, path) for line in range(1, len(_BASE))
              for path in _leaf_fields(_BASE[line])])


def _parses_as_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_MALFORMED = st.one_of(
    st.text(min_size=1, max_size=6).filter(
        lambda t: not _parses_as_number(t) and t not in ACTION_LABELS + CATEGORIES),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), min_size=1),
    st.just(10 ** 399),  # an integer past the float range
    st.sampled_from([float("nan"), True, False, "0", "0.9"]))  # not JSON numbers, or not finite


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_MALFORMED)
def test_malformed_field_is_an_input_error_with_line_number(field, value):
    line, path = field
    assume(not (path == ("metadata",) and isinstance(value, dict)))  # valid metadata
    objs = copy.deepcopy(_BASE)
    target = objs[line]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        stream_path = Path(tmp) / "s.jsonl"
        stream_path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
        with contextlib.redirect_stderr(stderr):  # an escaping exception fails the test
            code = main(["track", "--in", str(stream_path), "--out", str(Path(tmp) / "t")])
    assert code in (1, 2)
    assert f"line {line + 1}:" in stderr.getvalue()


@pytest.mark.parametrize("line, changes", [
    (1, {"frame": 0.4}),  # would truncate to 0
    (1, {"frame": 0.0}),
    (1, {"frame": "0"}),
    (1, {"frame": False}),
    (1, {"t": float("nan")}),  # NaN passes every comparison with frame / fps
    (1, {"t": float("inf")}),
    (1, {"t": "0.0"}),
    (1, {"dets": [["hand", "0.9", True, 100, 180, 170]]}),
    (1, {"dets": [["hand", 0.9, 100, 100, "180", 170]]}),
    (1, {"dets": [["hand", False, 100, 100, 180, 170]]}),
    (2, {"dets": [["hand", None, 102, 101, 182, None]]}),
    (1, {"kps": [{"points": [[110.0, 120.0, 1]] * 21, "box": [100, 100, 180, True]}]}),
    (0, {"fps": "30"}),
    (0, {"width": 640.0}),
    (0, {"metadata": False}),  # only a missing key means empty metadata
    (0, {"metadata": 0}),
    (0, {"metadata": None}),
])
def test_value_of_the_wrong_json_type_is_an_input_error(tmp_path, capsys, line, changes):
    objs = copy.deepcopy(_BASE)
    objs[line].update(changes)
    stream_path = tmp_path / "s.jsonl"
    stream_path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
    out = tmp_path / "t.jsonl"
    assert main(["track", "--in", str(stream_path), "--out", str(out)]) == 1
    assert f"line {line + 1}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order, line", [((0, 1, 1, 2), 5), ((0, 1, 2, 0), 6), ((2, 0, 1, 2), 6)])
@pytest.mark.parametrize("command", ["track", "eval"])
def test_duplicate_frame_names_the_line_of_its_second_occurrence(tmp_path, capsys, command,
                                                                 order, line):
    # the blank line 2 counts: frames sit on lines 3-6
    lines = [json.dumps({"video_id": "v", "fps": 30.0}), ""]
    lines += [json.dumps({"frame": k, "t": k / 30.0, "dets": []}) for k in order]
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    argv = (["track", "--in", str(path), "--out", out] if command == "track" else
            ["eval", "actions", "--pred", str(path), "--truth", str(path), "--out", out])
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"invariant violation: line {line}: duplicate "
                                       f"frame_index {order[line - 3]} in {path}\n")


@pytest.mark.parametrize("mode", ["actions", "boxes", "keypoints"])
def test_eval_pairs_frames_by_index_only_at_one_frame_rate(tmp_path, capsys, mode):
    # boxes and keypoints pair frame k of each stream, which at 30 and 25 fps
    # lie 1/150 s apart per frame; actions are scored per second of each stream
    pred, truth, out = tmp_path / "pred.jsonl", tmp_path / "truth.jsonl", tmp_path / "out"
    for path, fps in ((pred, 30.0), (truth, 25.0)):
        path.write_text("\n".join([json.dumps({"video_id": "v", "fps": fps}), *(
            json.dumps({"frame": k, "t": k / fps, "dets": [_HAND], "action": "cutting"})
            for k in range(60))]) + "\n")
    code = main(["eval", mode, "--pred", str(pred), "--truth", str(truth), "--out", str(out)])
    err = capsys.readouterr().err
    if mode == "actions":
        assert code == 0 and json.loads(out.read_text())["accuracy"] == 1.0
    else:
        assert (code, err) == (1, "input error: pred fps 30.0 and truth fps 25.0 differ\n")
        assert not out.exists()


def test_duplicate_frame_read_from_a_pipe_names_its_line(tmp_path, capsys):
    # as with `--pred <(cmd)`, the stream can be read once, so it is not re-sorted:
    # the repeated frame is out of order, an input error naming its line, as in `track`
    lines = [json.dumps({"video_id": "v", "fps": 30.0})]
    lines += [json.dumps({"frame": k, "t": k / 30.0, "dets": []}) for k in (0, 1, 0)]
    truth = tmp_path / "truth.jsonl"
    truth.write_text("\n".join(lines[:3]) + "\n")
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    pred = f"/dev/fd/{read_end}"
    try:
        assert main(["eval", "actions", "--pred", pred, "--truth", str(truth),
                     "--out", str(tmp_path / "out")]) == 1
    finally:
        os.close(read_end)
    assert capsys.readouterr().err == (f"input error: line 4: frame_index 0 is not above the "
                                       f"frame before it in {pred}; only a regular file is "
                                       "re-sorted, so sort the frames first\n")


def test_golden_with_keypoints_tracks(tmp_path):
    stream_path = tmp_path / "s.jsonl"
    stream_path.write_text("\n".join(json.dumps(o) for o in _BASE) + "\n")
    assert main(["track", "--in", str(stream_path), "--out", str(tmp_path / "t")]) == 0


# a box [x_min, y_min, x_max, y_max] that breaks one invariant, and the message
_BAD_BOXES = {
    "negative": ([-1, 100, 180, 170], "box x_min must be >= 0, got -1.0"),
    "crossed x": ([180, 100, 100, 170], "box x_min must be < x_max, got 180.0 >= 100.0"),
    "crossed y": ([100, 170, 180, 100], "box y_min must be < y_max, got 170.0 >= 100.0"),
    "Infinity": ([100, 100, float("inf"), 170], "box x_max must be finite, got inf"),
    "-Infinity": ([100, float("-inf"), 180, 170], "box y_min must be finite, got -inf"),
    "NaN": ([100, 100, 180, float("nan")], "box y_max must be finite, got nan"),
}


@pytest.mark.parametrize("bad", list(_BAD_BOXES))
@pytest.mark.parametrize("place", ["dets", "kps"])
@pytest.mark.parametrize("command", ["track", "eval boxes"])
def test_bad_box_is_an_invariant_violation_naming_its_line(tmp_path, capsys, command, place,
                                                           bad):
    # the bad box sits in frame 1, on line 3; json.dumps writes Infinity and NaN
    corners, message = _BAD_BOXES[bad]
    good = [json.dumps({"video_id": "v", "fps": 30.0})]
    good += [json.dumps({"frame": k, "t": k / 30.0, "dets": [_HAND]}) for k in range(3)]
    entry = ({"dets": [["hand", 0.9, *corners]]} if place == "dets" else
             {"kps": [{"points": [[110.0, 120.0, 1]] * 21, "box": corners}]})
    lines = list(good)
    lines[2] = json.dumps({"frame": 1, "t": 1 / 30.0, "dets": [_HAND], **entry})
    bad_path, good_path = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    bad_path.write_text("\n".join(lines) + "\n")
    good_path.write_text("\n".join(good) + "\n")
    out = str(tmp_path / "out")
    argv = (["track", "--in", str(bad_path), "--out", out] if command == "track" else
            ["eval", "boxes", "--pred", str(bad_path), "--truth", str(good_path), "--out", out])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"invariant violation: line 3: {message} in {bad_path}\n"


def _skill_inputs(tmp_path):
    spec = SynthSpec(seed=4, n_videos=1, fps=15.0, duration_s=6.0, with_keypoints=True)
    (stream, frames), _ = generate_stream(spec, 0)
    tracks_path = tmp_path / "t.jsonl"
    write_tracks(stream, track_stream(frames, TrackerConfig(min_hits=1)), tracks_path)
    clip = {"video_id": stream.video_id, "start": 0, "end": 80,
            "operator_id": "op-1", "experience": "trainee", "knot_count": 4}
    return tracks_path, clip


def _run_skill(tmp_path, tracks_path, clips, name):
    clips_path = tmp_path / f"{name}.json"
    clips_path.write_text(json.dumps(clips))
    out = tmp_path / f"{name}.csv"
    code = main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                 "--out", str(out)])
    return code, out


@pytest.mark.parametrize("changes, message", [
    ({"video_id": "other"}, "clip 2 is for video 'other'"),
    ({"knot_count": "many"}, "clip 2 needs"),
    ({"start": None}, "clip 2 needs"),  # None: the key is missing
    ({"end": float("inf")}, "clip 2 needs"),  # written as 1e400, which parses as inf
    ({"start": "5"}, "clip 2 needs"),
    ({"knot_count": True}, "clip 2 needs"),
    ({"end": 1.7}, "clip 2 needs"),
    ({"start": 80}, "clip 2: TieClip needs start < end"),
    ({"experience": "expert"}, "clip 2: TieClip.experience"),
    ({"knot_count": 0}, "clip 2: TieClip.knot_count"),
    ({"start": 5000, "end": 6000}, "clip 2: no frame"),  # the tracks hold frames 0-89
    ({"left_track": 1, "right_track": 1}, "clip 2: left_track and right_track both name track 1"),
    ({"left_track": 2, "right_track": "2"},
     "clip 2: left_track and right_track both name track 2"),
    ({"start": 80, "end": 50}, "clip 2: TieClip needs start < end"),
    ({"knot_count": 10 ** 400}, "clip 2: TieClip.knot_count"),  # past the float range
])
def test_cli_skill_rejects_bad_clip(tmp_path, capsys, recwarn, changes, message):
    tracks_path, clip = _skill_inputs(tmp_path)
    bad = {k: v for k, v in {**clip, **changes}.items() if v is not None}
    clips_path = tmp_path / "bad.json"
    clips_path.write_text(json.dumps([clip, bad]).replace("Infinity", "1e400"))
    out = tmp_path / "bad.csv"
    assert main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    # a clip's own fields are checked before its tracks are sliced and its hands looked for
    assert [str(w.message) for w in recwarn if issubclass(w.category, DataWarning)] == []


def test_cli_skill_warns_when_an_explicit_track_is_not_in_range(tmp_path):
    # the tracks hold ids 1 and 2; the named hand is left missing, the other
    # keeps its id, and a hand not named stays missing as before
    tracks_path, clip = _skill_inputs(tmp_path)
    with pytest.warns(DataWarning) as caught:
        code, out = _run_skill(tmp_path, tracks_path, [
            clip, {**clip, "left_track": 1, "right_track": 99}, {**clip, "right_track": 2}],
            "ids")
    assert code == 0
    assert [str(w.message) for w in caught] == [
        "clip 2: right_track 99 has fewer than 2 frames in [0, 80]; hand missing",
        "clip 3: left_track not given; hand missing"]
    table = list(csv.reader(out.read_text().splitlines()))[1:]  # left, right per clip
    assert [row[5] == "" for row in table] == [False, False, False, True, True, False]


@pytest.mark.parametrize("clips, message", [
    (5, "a clip list must be a JSON list"), ({"clips": []}, "a clip list must be a JSON list"),
    ("x", "a clip list must be a JSON list"), ([None, 7], "clip 1 needs to be an object"),
    (["CLIP", [1]], "clip 2 needs to be an object"),
])
def test_cli_skill_rejects_clip_list_that_is_not_a_list_of_objects(tmp_path, capsys,
                                                                   clips, message):
    tracks_path, clip = _skill_inputs(tmp_path)
    if isinstance(clips, list):
        clips = [clip if c == "CLIP" else c for c in clips]
    code, out = _run_skill(tmp_path, tracks_path, clips, "shape")
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("index, replacement, message", [
    (2, "{not json", "line 4:"),  # file lines count the blank first line
    (0, '{"video_id": "v"}', "line 2:"),  # a header without fps
    (2, '{"frame": 0, "t": 0.0, "tracks": {"1": "abc"}}', "line 4: tracks row needs 'tracks'"),
    (3, '{"t": 0.0, "tracks": {}}', "line 5: tracks row needs an integer 'frame'"),
    (4, '{"frame": 3, "t": 0.2, "tracks": {"1": [1, 2, 3, 4]}, "kps": {"1": [[0, 0, 1]]}}',
     "line 6: tracks row 'kps'"),
    (1, '{"frame": 0, "t": 0.0, "tracks": {"1": [50, 50, 10, 10]}}',  # inverted corners
     "line 3: tracks row needs 'tracks'"),
    (1, json.dumps({"frame": 0, "t": 0.0, "tracks": {"1": [1, 2, 3, 4]},  # a NaN keypoint
                    "kps": {"1": [[float("nan"), 0, 1]] + [[0, 0, 1]] * 20}}),
     "line 3: tracks row 'kps'"),
    pytest.param(1, json.dumps({"frame": 0, "t": 0.0, "tracks": {"1": [1, 2, 3, 10 ** 399]}}),
                 "line 3: tracks row needs 'tracks'", id="oversized-box-corner"),
    pytest.param(1, json.dumps({"frame": 2 ** 64, "t": 0.0, "tracks": {}}),
                 "line 3: tracks row needs an integer 'frame'", id="frame-past-int64"),
    pytest.param(1, json.dumps({"frame": 0, "t": 0.0, "tracks": {"abc": [1, 2, 3, 4]}}),
                 "line 3: tracks row needs 'tracks'", id="track-id-not-an-integer"),
    pytest.param(1, json.dumps({"frame": 0, "t": 0.0, "tracks": {"1": [1, 2, 3, 4]},
                                "kps": {"2": [[0, 0, 1]] * 21}}),
                 "line 3: tracks row 'kps' names track 2, which its 'tracks' lacks",
                 id="kps-track-not-in-row"),
])
def test_cli_skill_reports_bad_tracks_line(tmp_path, capsys, index, replacement, message):
    tracks_path, clip = _skill_inputs(tmp_path)
    lines = tracks_path.read_text().splitlines()
    lines[index] = replacement
    tracks_path.write_text("\n".join(["", *lines]) + "\n")
    code, _ = _run_skill(tmp_path, tracks_path, [clip], "badline")
    assert code == 1
    assert message in capsys.readouterr().err


def test_cli_lda_reproduces_run_bundle(tmp_path):
    # one LDA stage: `lda` over the bundle's feature table writes the
    # bundle's projection and weights byte for byte
    config = {"synth": {"n_videos": 1, "duration_s": 2.0},
              "skill": {"operators_per_group": 2, "clips_per_operator": 1,
                        "clip_duration_s": 2.0},
              "signature": {"n_per_class": 5}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    bundle = tmp_path / "bundle"
    assert main(["run", "--config", str(cfg_path), "--out", str(bundle)]) == 0
    proj, weights = tmp_path / "proj.csv", tmp_path / "weights.csv"
    assert main(["lda", "--features", str(bundle / "features.csv"), "--out", str(proj),
                 "--weights", str(weights)]) == 0
    assert proj.read_bytes() == (bundle / "lda_projection.csv").read_bytes()
    assert weights.read_bytes() == (bundle / "lda_weights.csv").read_bytes()


def test_cli_lda_reports_bad_feature_line(tmp_path, capsys):
    from scenestream.pipeline import features_stage
    from scenestream.synth import generate_procedure_sequences

    features_path = tmp_path / "features.csv"
    features_stage(generate_procedure_sequences(seed=1, n_per_class=2), features_path)
    lines = features_path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = "abc"  # the first feature of the second video
    lines[2] = ",".join(cells)
    features_path.write_text("\n".join(lines) + "\n")
    assert main(["lda", "--features", str(features_path), "--out", str(tmp_path / "p.csv"),
                 "--weights", str(tmp_path / "w.csv")]) == 1
    assert "line 3:" in capsys.readouterr().err


def test_cli_lda_skips_blank_feature_lines(tmp_path):
    from scenestream.pipeline import features_stage
    from scenestream.synth import generate_procedure_sequences

    features_path, spaced_path = tmp_path / "features.csv", tmp_path / "spaced.csv"
    features_stage(generate_procedure_sequences(seed=1, n_per_class=2), features_path)
    lines = features_path.read_text().splitlines()
    spaced_path.write_text("\n".join([lines[0], "", *lines[1:3], "  ", *lines[3:], ""]) + "\n")
    outputs = []
    for path in (features_path, spaced_path):
        proj, weights = tmp_path / f"{path.stem}.proj.csv", tmp_path / f"{path.stem}.w.csv"
        assert main(["lda", "--features", str(path), "--out", str(proj),
                     "--weights", str(weights)]) == 0
        outputs.append([proj.read_bytes(), weights.read_bytes()])
    assert outputs[0] == outputs[1]


_HAND = ["hand", 0.9, 100, 100, 180, 170]


def _stream_text(header=None, **changes):
    """A stream of one frame with one hand, `changes` made to the frame (a
    change to ... drops the key)."""
    frame = {"frame": 0, "t": 0.0, "dets": [_HAND], **changes}
    return "\n".join([json.dumps(header or {"video_id": "v", "fps": 30.0}),
                      json.dumps({k: v for k, v in frame.items() if v is not ...})]) + "\n"


def _feature_text(row):
    """A feature table of one good row, then `row` on line 3."""
    from scenestream.signatures import FEATURE_NAMES

    return "\n".join([",".join(["video_id", "label", *FEATURE_NAMES]),
                      "a,x," + ",".join(["0.5"] * 30), row]) + "\n"


def _tracks_text(*frames):
    """A tracks file of one hand at the given frames, in that order."""
    return "\n".join(json.dumps(line) for line in (
        {"video_id": "v", "fps": 30.0},
        *({"frame": k, "t": k / 30.0, "tracks": {"1": [1, 2, 30, 40]}} for k in frames))) + "\n"


_TRACK = ["track", "--in", "@s.jsonl"]
_SKILL = ["skill", "--tracks", "@t.jsonl", "--clips", "@c.json"]
_CLIP = {"video_id": "v", "start": 0, "end": 1, "operator_id": "o", "experience": "trainee",
         "knot_count": 1}
_BAD_ROW = json.dumps({"frame": 4, "t": 4 / 30.0, "tracks": {"1": [1, 2, "30", 40]}}) + "\n"
_LDA = ["lda", "--features", "@f.csv", "--weights", "@w.csv"]
_ROW_SHAPE = "line 3: a feature row needs a video id, a class label and 30 values"
_SKILL_FILES = {"t.jsonl": "\n".join(json.dumps(line) for line in (
    {"video_id": "v", "fps": 30.0}, {"frame": 0, "t": 0.0, "tracks": {}})) + "\n", "c.json": "[]"}
# six rows of three classes, which `lda` projects
_LDA_TABLE = _feature_text("\n".join(
    f"v{i},{'xyyzz'[i]}," + ",".join(str((i * 7 + k * 3) % 11 / 20) for k in range(30))
    for i in range(5)))
# name: (argv, with "@" before a file name, {file name: text}, the message after
# "input error: ", with "@" before a file name)
_INPUT_ERRORS = {
    "dets entry of 5": (_TRACK, {"s.jsonl": _stream_text(dets=[_HAND[:5]])},
                        "line 2: det entry must be [cls, conf, x0, y0, x1, y1]"),
    "dets entry not a list": (_TRACK, {"s.jsonl": _stream_text(dets=["hand"])},
                              "line 2: det entry must be [cls, conf, x0, y0, x1, y1]"),
    "kps entry without points": (_TRACK, {"s.jsonl": _stream_text(kps=[{"box": _HAND[2:]}])},
                                 "line 2: kps entry must be an object with 'points' and 'box'"),
    "kps entry without box": (_TRACK, {"s.jsonl": _stream_text(
        kps=[{"points": [[110.0, 120.0, 1]] * 21}])},
        "line 2: kps entry must be an object with 'points' and 'box'"),
    "frame line without frame": (_TRACK, {"s.jsonl": _stream_text(frame=...)},
                                 "line 2: frame record needs 'frame' and 't'"),
    "frame line without t": (_TRACK, {"s.jsonl": _stream_text(t=...)},
                             "line 2: frame record needs 'frame' and 't'"),
    "header without video_id": (_TRACK, {"s.jsonl": _stream_text({"fps": 30.0})},
                                "line 1: first line must be a header with video_id and fps"),
    "header without fps": (_TRACK, {"s.jsonl": _stream_text({"video_id": "v"})},
                           "line 1: first line must be a header with video_id and fps"),
    "empty tracks file": (["skill", "--tracks", "@t.jsonl", "--clips", "@c.json"],
                          {"t.jsonl": "", "c.json": "[]"}, "empty tracks file in @t.jsonl\n"),
    "tracks rows out of order": (["skill", "--tracks", "@t.jsonl", "--clips", "@c.json"], {
        "t.jsonl": _tracks_text(0, 2, 1), "c.json": "[]"},
        "line 4: tracks row frame 1 is not above the frame before it in @t.jsonl\n"),
    "tracks row repeated": (["skill", "--tracks", "@t.jsonl", "--clips", "@c.json"], {
        "t.jsonl": _tracks_text(0, 1, 1), "c.json": "[]"},
        "line 4: tracks row frame 1 is not above the frame before it"),
    # skill checks the tracks header, then the clip list's JSON and that it is a
    # list, then each tracks row as it reads it, then each clip against the rows;
    # each message names the file it is about
    "tracks header and clip list both not JSON on line 1": (_SKILL, {
        "t.jsonl": "{\n" + _tracks_text(0).split("\n", 1)[1], "c.json": "[{"},
        "line 1: invalid JSON: Expecting property name enclosed in double quotes "
        "in @t.jsonl\n"),
    "bad tracks row past the last clip": (_SKILL, {
        "t.jsonl": _tracks_text(0, 1, 2, 3) + _BAD_ROW, "c.json": json.dumps([_CLIP])},
        "line 6: tracks row needs 'tracks' mapping integer track ids to [x_min, y_min, x_max, "
        "y_max] with 0 <= x_min < x_max and 0 <= y_min < y_max in @t.jsonl\n"),
    "bad clip": (_SKILL, {
        "t.jsonl": _tracks_text(0, 1), "c.json": json.dumps([{**_CLIP, "knot_count": None}])},
        "clip 1 needs to be an object with video_id, operator_id, experience and integer "
        "start, end and knot_count; check knot_count in @c.json\n"),
    "bad tracks row and bad clip": (_SKILL, {
        "t.jsonl": _tracks_text(0, 1, 2, 3) + _BAD_ROW,
        "c.json": json.dumps([{**_CLIP, "knot_count": None}])},
        "line 6: tracks row needs 'tracks' mapping integer track ids"),
    "bad tracks row and a clip list not JSON": (_SKILL, {
        "t.jsonl": _tracks_text(0, 1, 2, 3) + _BAD_ROW, "c.json": "[{"},
        "line 1: invalid JSON: Expecting property name enclosed in double quotes "
        "in @c.json\n"),
    "bad tracks row and a clip list not a list": (_SKILL, {
        "t.jsonl": _tracks_text(0, 1, 2, 3) + _BAD_ROW, "c.json": json.dumps(_CLIP)},
        "a clip list must be a JSON list of clip objects in @c.json\n"),
    "bad stream file among streams": (["signature", "--streams", "@d"], {
        "d/a.jsonl": _stream_text(), "d/b.jsonl": _stream_text(t=...)},
        "line 2: frame record needs 'frame' and 't': 't' in @d/b.jsonl\n"),
    "bad truth file": (["eval", "actions", "--pred", "@p.jsonl", "--truth", "@t.jsonl"], {
        "p.jsonl": _stream_text(), "t.jsonl": _stream_text(t=...)},
        "line 2: frame record needs 'frame' and 't': 't' in @t.jsonl\n"),
    "streams without stream files": (["signature", "--streams", "@d"],
                                     {"d/v.truth.jsonl": "{}\n"}, "no stream files found in "),
    "feature columns": (_LDA, {"f.csv": "video_id,label,a\n"}, "unexpected feature columns in "),
    "feature row of one cell": (_LDA, {"f.csv": _feature_text("b")}, _ROW_SHAPE),
    "feature row of 10 values": (_LDA, {"f.csv": _feature_text("b,x," + ",".join(["0.5"] * 10))},
                                 _ROW_SHAPE),
    "unlabelled feature row": (_LDA, {"f.csv": _feature_text("b,," + ",".join(["0.5"] * 30))},
                               _ROW_SHAPE),
    "feature quartile above 1": (_LDA, {"f.csv": _feature_text(
        "b,x,1.5," + ",".join(["0.5"] * 29))},
        "line 3: quartile action features must lie in [0,1]"),
    "feature transition below 0": (_LDA, {"f.csv": _feature_text(
        "b,x," + ",".join(["0.5"] * 29) + ",-0.5")},
        "line 3: transition features must lie in [0,1]"),
    "filter --out in a missing directory": (
        ["filter", "--catalog", "@c.jsonl", "--rule", "appendectomy", "--out", "@no/out.txt"],
        {"c.jsonl": json.dumps(_catalog_entry()) + "\n"},
        "cannot write @no/out.txt: directory @no does not exist"),
    "track --out in a missing directory": (
        [*_TRACK, "--out", "@no/t.jsonl"], {"s.jsonl": _stream_text()},
        "cannot write @no/t.jsonl: directory @no does not exist"),
    "track --out an existing directory": (
        [*_TRACK, "--out", "@d"], {"s.jsonl": _stream_text(), "d/keep.txt": ""},
        "cannot write @d: it is a directory"),
    "skill --centroids in a missing directory": (
        ["skill", "--tracks", "@t.jsonl", "--clips", "@c.json", "--out", "@o.csv",
         "--centroids", "@no/c.json"], _SKILL_FILES,
        "cannot write @no/c.json: directory @no does not exist"),
    "lda --weights in a missing directory": (
        ["lda", "--features", "@f.csv", "--out", "@p.csv", "--weights", "@no/w.csv"],
        {"f.csv": _LDA_TABLE}, "cannot write @no/w.csv: directory @no does not exist"),
    "bench --out in a missing directory": (
        ["bench", "--minutes", "0.02", "--out", "@no/b.json"], {},
        "cannot write @no/b.json: directory @no does not exist"),
    "synth --out an existing file": (["synth", "--duration", "1", "--out", "@f"], {"f": ""},
                                     "cannot write @f: @f is not a directory"),
    "run --out under an existing file": (["run", "--out", "@f/b"], {"f": ""},
                                         "cannot write @f/b: @f is not a directory"),
    "bench --in": (["bench", "--in", "@s.jsonl"], {"s.jsonl": _stream_text(t=...)},
                   "line 2: frame record needs 'frame' and 't'"),
}


@pytest.mark.parametrize("fps", [0, -30])
@pytest.mark.parametrize("command", ["track", "eval", "bench"])
def test_cli_header_fps_not_above_0_is_an_invariant_violation(tmp_path, capsys, command, fps):
    path = tmp_path / "s.jsonl"
    path.write_text(_stream_text({"video_id": "v", "fps": fps}))
    argv = {"track": ["track", "--in", str(path)],
            "eval": ["eval", "actions", "--pred", str(path), "--truth", str(path)],
            "bench": ["bench", "--in", str(path)]}[command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("invariant violation: line 1: VideoStream.fps must "
                                       f"be > 0, got {float(fps)!r} in {path}\n")
    assert list(tmp_path.iterdir()) == [path]


# headers the stream reader rejects, each with the exit code `track` gives it
_BAD_HEADERS = {
    "metadata not an object": ({"video_id": "v", "fps": 30.0, "metadata": 5}, 1),
    "width not an integer": ({"video_id": "v", "fps": 30.0, "width": "x"}, 1),
    "fps a string": ({"video_id": "v", "fps": "30"}, 1),
    "fps 0": ({"video_id": "v", "fps": 0}, 2),
    "duration_s not a number": ({"video_id": "v", "fps": 30.0,
                                 "metadata": {"duration_s": "abc"}}, 1),
    "no fps": ({"video_id": "v"}, 1),
}


@pytest.mark.parametrize("header, code", list(_BAD_HEADERS.values()), ids=list(_BAD_HEADERS))
def test_cli_tracks_header_gets_the_stream_header_verdict(tmp_path, capsys, header, code):
    # a tracks file starts with the header line a stream file does, and `skill`
    # checks it as `track` does: the same exit code and line-1 message, each
    # naming its own file
    stream_path, tracks_path, clips_path = (tmp_path / n for n in ("s.jsonl", "t.jsonl", "c.json"))
    stream_path.write_text(_stream_text(header))
    tracks_path.write_text("\n".join([json.dumps(header), *_tracks_text(0).splitlines()[1:]]))
    clips_path.write_text("[]")
    assert main(["track", "--in", str(stream_path), "--out", str(tmp_path / "out.jsonl")]) == code
    track_err = capsys.readouterr().err
    assert main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                 "--out", str(tmp_path / "out.csv")]) == code
    skill_err = capsys.readouterr().err
    verdict = "input error" if code == 1 else "invariant violation"
    assert skill_err.startswith(f"{verdict}: line 1: "), skill_err
    assert skill_err.endswith(f" in {tracks_path}\n"), skill_err
    assert (skill_err.replace(f" in {tracks_path}", "")
            == track_err.replace(f" in {stream_path}", ""))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "s.jsonl", "t.jsonl"]


def test_cli_skill_errors_on_line_1_of_either_file_name_that_file(tmp_path, capsys):
    # the same JSON error on line 1 of the tracks file and of the clip list
    # reads differently: each message ends naming the file it is about
    tracks_path, clips_path = tmp_path / "t.jsonl", tmp_path / "c.json"
    errors = []
    for tracks, clips in (("{\n", "[]"), (_tracks_text(0), "[{")):
        tracks_path.write_text(tracks)
        clips_path.write_text(clips)
        assert main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                     "--out", str(tmp_path / "out.csv")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] != errors[1]
    assert errors[0].startswith("input error: line 1: invalid JSON: "), errors[0]
    assert errors[0].endswith(f" in {tracks_path}\n"), errors[0]
    assert errors[1] == errors[0].replace(str(tracks_path), str(clips_path))


@pytest.mark.parametrize("argv, files, message", list(_INPUT_ERRORS.values()),
                         ids=list(_INPUT_ERRORS))
def test_cli_input_error_exits_1_with_its_message(tmp_path, capsys, argv, files, message):
    # each bad input, or output path, exits 1 naming the line where the file
    # is read line by line, with no traceback, and leaves no output file
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    before = sorted(tmp_path.rglob("*"))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    out = [] if "--out" in argv else ["--out", str(tmp_path / "out")]
    assert main([*argv, *out]) == 1
    err = capsys.readouterr().err
    message = message.replace("@", f"{tmp_path}/")
    assert err.startswith(f"input error: {message}") and "Traceback" not in err, err
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------- README commands

def test_readme_commands_parse():
    # every `scenestream ...` line of README's sh blocks, backslash continuations
    # joined and `#` comments dropped, parses: a flag deleted or renamed in the
    # CLI but left in the docs fails here
    from scenestream.cli import build_parser

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [words[1:] for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                for words in [shlex.split(line, comments=True)]
                if words[:1] == ["scenestream"]]
    assert {argv[0] for argv in commands} == {name for name, _ in _subparsers(build_parser())}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: scenestream {' '.join(argv)}")


def test_readme_run_config_is_the_default():
    # README's one json block shows `run`'s config: a key or default changed
    # in the pipeline but not in the docs fails here
    from scenestream.pipeline import DEFAULT_RUN_CONFIG

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```json\n(.*?)```", text, re.S)
    assert json.loads(block) == DEFAULT_RUN_CONFIG


# ---------------------------------------------------------------- numeric option sweep

def _subparsers(parser):
    import argparse

    return [p for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            for p in a.choices.items()]


def _numeric_options():
    """(subcommand, option) for every int or float option of the CLI, those
    of eval's modes included."""
    from scenestream.cli import build_parser

    return [(name, action.option_strings[-1])
            for name, parser in _subparsers(build_parser())
            for p in [parser, *(mode for _, mode in _subparsers(parser))]
            for action in p._actions if action.type in (int, float)]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """1-2 s inputs for every subcommand with a numeric option."""
    root = tmp_path_factory.mktemp("sweep")
    streams = root / "streams"
    streams.mkdir()
    for seed in (1, 2):
        spec = SynthSpec(seed=seed, fps=15.0, duration_s=2.0, with_keypoints=True)
        write_stream(generate_stream(spec, 0)[0], streams / f"v{seed}.jsonl")
    stream = streams / "v1.jsonl"
    tracks_path, clip = _skill_inputs(root)
    clips = root / "clips.json"
    clips.write_text(json.dumps([clip]))
    return {  # argument lists per subcommand; eval runs each mode
        "synth": [["synth", "--duration", "1"]],
        "track": [["track", "--in", str(stream)]],
        "skill": [["skill", "--tracks", str(tracks_path), "--clips", str(clips)]],
        "signature": [["signature", "--streams", str(streams)]],
        "featurize": [["featurize", "--streams", str(streams)]],
        "eval": [["eval", mode, "--pred", str(stream), "--truth", str(stream)]
                 for mode in ("actions", "boxes", "keypoints")],
        "bench": [["bench", "--minutes", "0.02"]],
    }


@pytest.mark.parametrize("command, option", _numeric_options())
def test_cli_numeric_option_sweep_exits_cleanly(sweep_inputs, tmp_path, capsys,
                                                command, option):
    # every exit is 0, 1 or 2 with no traceback, and a rejected value writes
    # nothing; argparse turns a non-integer for an int option into exit 2
    for base in sweep_inputs[command]:
        for value in ("0", "-1", "nan", "inf"):
            out = tmp_path / f"{base[1]}{option}{value}.out"
            try:
                code = main([*base, option, value, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 1, 2), (base, option, value)
            if code == 2:
                assert not out.exists(), (base, option, value)


@pytest.mark.parametrize("mode, option, value", [
    ("actions", "--iou", "0.5"), ("actions", "--alpha", "0.2"), ("keypoints", "--iou", "0.5"),
    ("boxes", "--alpha", "-1"), ("boxes", "--ref", "pred"),
])
def test_cli_eval_option_of_another_mode_exits_2(sweep_inputs, tmp_path, mode, option, value):
    base = next(b for b in sweep_inputs["eval"] if b[1] == mode)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*base, option, value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("synth", "--fps", "nan"), ("synth", "--duration", "nan"), ("synth", "--duration", "inf"),
    ("synth", "--jitter", "nan"), ("synth", "--conf-sigma", "nan"), ("synth", "--seed", "-1"),
    ("synth", "--conf-mean", "nan"),
    ("bench", "--minutes", "nan"), ("bench", "--minutes", "inf"), ("bench", "--fps", "nan"),
    ("bench", "--window", "nan"), ("bench", "--window", "inf"), ("bench", "--window", "0"),
    ("bench", "--window", "-1"), ("bench", "--window", "0.01"),
    ("signature", "--resolution", "0"), ("signature", "--resolution", "nan"),
    ("signature", "--resolution", "0.01"),
    ("featurize", "--resolution", "inf"), ("featurize", "--resolution", "0.01"),
    ("eval", "--alpha", "-1"), ("eval", "--alpha", "0"), ("eval", "--alpha", "inf"),
    ("eval", "--alpha", "nan"),
])
def test_cli_rejects_non_finite_or_out_of_range_number(sweep_inputs, tmp_path, capsys,
                                                       command, option, value):
    base = sweep_inputs[command][-1]  # eval: keypoints
    out = tmp_path / "out"
    assert main([*base, option, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert "must be" in capsys.readouterr().err


# ---------------------------------------------------------------- side-file shape sweep

@pytest.mark.parametrize("command, option", [
    ("skill", "--clips"), ("signature", "--class-map"), ("featurize", "--class-map"),
    ("filter", "--catalog")])
def test_cli_side_file_shape_sweep_exits_cleanly(sweep_inputs, tmp_path, capsys,
                                                 command, option):
    # a JSON side file of any top-level shape is read or rejected with exit 1,
    # never a traceback, and a rejected file writes nothing
    base = (["filter", "--rule", "appendectomy"] if command == "filter"
            else sweep_inputs[command][0][:3])  # the subcommand and its first input
    for k, value in enumerate([5, "x", None, [], {}]):
        side, out = tmp_path / f"side{k}.json", tmp_path / f"out{k}"
        side.write_text(json.dumps(value) + "\n")
        code = main([*base, option, str(side), "--out", str(out)])
        assert code in (0, 1), (command, value)
        assert "Traceback" not in capsys.readouterr().err
        if code == 1:
            assert not out.exists(), (command, value)


# ---------------------------------------------------------------- spoiled input files

_BIG_INT = "1" * 5000  # past the 4300 digits that int() converts from text
_INPUT_OPTIONS = ("--in", "--tracks", "--clips", "--class-map", "--catalog", "--config",
                  "--features", "--pred", "--truth")
_WHOLE_FILE_JSON = ("--clips", "--class-map", "--config")  # one JSON value, not lines


@pytest.fixture(scope="module")
def option_inputs(sweep_inputs, tmp_path_factory):
    """{input option: (argv with None where its file goes, a good file for it)}."""
    from scenestream.pipeline import features_stage
    from scenestream.synth import generate_procedure_sequences

    root = tmp_path_factory.mktemp("inputs")
    stream = sweep_inputs["track"][0][2]
    _, _, tracks, _, clips = sweep_inputs["skill"][0]
    streams = sweep_inputs["signature"][0][2]
    class_map, catalog = root / "classes.json", root / "catalog.jsonl"
    class_map.write_text(json.dumps({"synth-1-0000": "a"}) + "\n")
    catalog.write_text(json.dumps({"video_id": "a", "title": "appendix", "umls": ["append"],
                                   "search_terms": ["append"], "duration_s": 600}) + "\n")
    config, features = root / "config.json", root / "features.csv"
    config.write_text(json.dumps({"seed": 3}) + "\n")
    features_stage(generate_procedure_sequences(seed=1, n_per_class=2), features)
    return {
        "--in": (["track", "--in", None], stream),
        "--tracks": (["skill", "--tracks", None, "--clips", clips], tracks),
        "--clips": (["skill", "--tracks", tracks, "--clips", None], clips),
        "--class-map": (["signature", "--streams", streams, "--class-map", None], class_map),
        "--catalog": (["filter", "--rule", "appendectomy", "--catalog", None], catalog),
        "--config": (["run", "--config", None], config),
        "--features": (["lda", "--features", None], features),
        "--pred": (["eval", "actions", "--pred", None, "--truth", stream], stream),
        "--truth": (["eval", "boxes", "--pred", stream, "--truth", None], stream),
    }


_SPOILS = {"big integer": b'"n": ' + _BIG_INT.encode() + b", ", "non-UTF-8 byte": b"\xff",
           "deep nesting": b'"n": ' + b"[" * 100000 + b"]" * 100000 + b", ", "directory": None}


@pytest.mark.parametrize("option, spoil", [(option, spoil) for option in _INPUT_OPTIONS
                                           for spoil in _SPOILS
                                           if (option, spoil) != ("--features", "deep nesting")])
def test_cli_spoiled_input_file_exits_1_naming_its_line(option_inputs, tmp_path, capsys,
                                                         option, spoil):
    # into the last JSON object (or last CSV cell) of a good file goes a
    # 5000-digit integer, a 0xff byte or a list nested past the recursion
    # limit; or the option names a directory
    argv, good = option_inputs[option]
    data = Path(good).read_bytes()
    at = (data.rstrip().rfind(b",") if option == "--features" else data.rfind(b"{")) + 1
    line = data.count(b"\n", 0, at) + 1
    bad = tmp_path / "bad"
    if spoil == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(data[:at] + (_BIG_INT.encode() if (option, spoil) == (
            "--features", "big integer") else _SPOILS[spoil]) + data[at:])
    out, weights = tmp_path / "out", tmp_path / "w.csv"  # lda writes both
    argv = [str(bad) if a is None else str(a) for a in argv]
    argv += ["--weights", str(weights)] if option == "--features" else []
    assert main([*argv, "--out", str(out)]) == 1, (option, spoil)
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err, err
    if spoil == "non-UTF-8 byte" or (spoil != "directory" and option not in _WHOLE_FILE_JSON):
        assert err.startswith(f"input error: line {line}: "), err
    assert not out.exists() and not weights.exists()


# ---------------------------------------------------------------- row lines and cold imports

def _lanes(n):
    return tuple(HandMotionSpec(region=(60.0 + 103.0 * i, 150.0, 90.0 + 103.0 * i, 570.0))
                 for i in range(n))


def test_row_line_is_the_sorted_json_of_its_row():
    # 12 lanes: track ids pass 10, and "10" sorts before "2" as a JSON key
    spec = SynthSpec(seed=3, fps=30.0, duration_s=2.0, hands=_lanes(12), with_keypoints=True,
                     corruption=CorruptionSpec(dropout_rate=0.1, jitter_sigma=2.0))
    rows = list(track_stream(generate_stream(spec, 0)[0][1]))
    assert max(max(map(int, r["tracks"]), default=0) for r in rows) >= 12
    assert any("kps" in r for r in rows)
    for row in rows + [{key: r[key] for key in ("frame", "t", "tracks")} for r in rows]:
        kps = row.get("kps", {})
        want = json.dumps(dict(row, kps={tid: f"@{tid}" for tid in kps}) if kps else row,
                          sort_keys=True)
        for tid, kp in kps.items():
            want = want.replace(f'"@{tid}"', kp.points_text)
        assert _row_line(row) == want


_SRC = Path(__file__).resolve().parent.parent / "src"
_COLD = """
import json, sys
import scenestream.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
imported = scipy_modules()
code = scenestream.cli.main(sys.argv[1:])
print(json.dumps([imported, code, scipy_modules()]))
"""


@pytest.mark.parametrize("argv, code, message", [
    (["run", "--config", "{cfg}", "--out", "{out}"], 1,
     "input error: run config: synth: duration_s * fps must round to at most 10000000 "
     "frames, got 20000000000.0\n"),
    (["run", "--config", "{skill_cfg}", "--out", "{out}"], 1,
     "input error: run config: skill: clip_duration_s * fps must round to at most "
     "10000000 frames, got 30000000000000.0\n"),
    (["synth", "--fps", "1e9", "--duration", "20", "--out", "{out}"], 2,
     "invariant violation: duration_s * fps must round to at most 10000000 frames, "
     "got 20000000000.0\n"),
    (["bench", "--fps", "1e9", "--minutes", "1", "--out", "{out}"], 2,
     "invariant violation: duration_s * fps must round to at most 10000000 frames, "
     "got 60000000000.0\n"),
], ids=["run", "run-skill", "synth", "bench"])
def test_cli_rejects_a_synthetic_video_past_the_frame_cap(tmp_path, argv, code, message):
    # a new process with a timeout, as these inputs once ran without end
    cfg, skill_cfg = tmp_path / "cfg.json", tmp_path / "skill_cfg.json"
    cfg.write_text(json.dumps({"synth": {"fps": 1e9}}))
    skill_cfg.write_text(json.dumps({"skill": {"clip_duration_s": 1e12}}))
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg, skill_cfg=skill_cfg, out=out) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from scenestream.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True, text=True,
        timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (code, message, "")
    assert not out.exists()


def _cold_run(argv) -> bool:
    """Run one CLI command in a new process; whether it loaded scipy. Importing
    the CLI loads none of it."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-c", _COLD, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    imported, code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert imported == [] and code == 0
    return bool(loaded)


def test_scipy_loads_only_when_the_solver_or_lda_runs(tmp_path):
    from scenestream.pipeline import features_stage
    from scenestream.synth import generate_procedure_sequences

    two = SynthSpec(seed=5, fps=30.0, duration_s=4.0, with_keypoints=True,
                    corruption=CorruptionSpec(jitter_sigma=2.0))
    crowded = SynthSpec(seed=7, fps=30.0, duration_s=3.0, hands=_lanes(12),
                        corruption=CorruptionSpec(dropout_rate=0.05, jitter_sigma=2.0))
    features = tmp_path / "features.csv"
    features_stage(generate_procedure_sequences(seed=1, n_per_class=3), features)
    write_stream(generate_stream(two, 0)[0], tmp_path / "two.jsonl")
    write_stream(generate_stream(crowded, 0)[0], tmp_path / "crowded.jsonl")
    # two keypoint entries over one hand, both at IoU >= 0.5 with its track:
    # the entry on the hand's box follows the track with no assignment solve
    det = [100, 100, 180, 170]
    entries = [{"box": owner, "points": [[110 + k, 120, 1] for k in range(21)]}
               for owner in (det, [116, 100, 196, 170])]
    lines = [json.dumps({"video_id": "v", "fps": 30.0}), *(
        json.dumps({"frame": k, "t": k / 30.0, "dets": [["hand", 0.9, *det]], "kps": entries})
        for k in range(30))]
    (tmp_path / "entries.jsonl").write_text("\n".join(lines) + "\n")
    for name, wants_scipy in (("two", False), ("crowded", True), ("entries", False)):
        argv = ["track", "--in", tmp_path / f"{name}.jsonl"]
        assert _cold_run(argv + ["--out", tmp_path / f"{name}.cold"]) is wants_scipy
        assert main(list(map(str, argv + ["--out", tmp_path / f"{name}.warm"]))) == 0
        cold = (tmp_path / f"{name}.cold").read_bytes()
        assert cold == (tmp_path / f"{name}.warm").read_bytes()
    outs = {side: [tmp_path / f"proj.{side}.csv", tmp_path / f"weights.{side}.csv"]
            for side in ("cold", "warm")}
    lda = ["lda", "--features", features]
    assert _cold_run(lda + ["--out", outs["cold"][0], "--weights", outs["cold"][1]])
    assert main(list(map(str, lda + ["--out", outs["warm"][0],
                                      "--weights", outs["warm"][1]]))) == 0
    assert [p.read_bytes() for p in outs["cold"]] == [p.read_bytes() for p in outs["warm"]]
