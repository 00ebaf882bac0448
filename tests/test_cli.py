import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenestream.cli import main
from scenestream.pipeline import (
    clips_from_tracks,
    read_tracks,
    track_stream,
    tracking_oracle_report,
    write_tracks,
)
from scenestream.streams import (
    ACTION_LABELS,
    CATEGORIES,
    BBox,
    Detection,
    FrameRecord,
    VideoStream,
    write_stream,
)
from scenestream.synth import SynthSpec, generate_stream
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
    assert header["video_id"].startswith("synth-3")
    assert len(rows) == 120
    emitted = [r for r in rows if r["tracks"]]
    assert emitted, "tracker never emitted"
    assert any("kps" in r for r in rows)


def test_cli_track_coasts_past_left_edge(tmp_path):
    # a hand leaves over the left edge; its coasting prediction crosses x = 0
    # while the only detection left is far away
    def frame(k, box):
        det = Detection(box=box, category="hand", confidence=1.0)
        return FrameRecord(frame_index=k, timestamp_s=k / 30.0, detections=(det,))

    frames = [frame(k, BBox(150 - 10 * k, 100, 190 - 10 * k, 140)) for k in range(12)]
    frames += [frame(k, BBox(900, 500, 940, 540)) for k in range(12, 40)]
    stream = VideoStream(video_id="left-exit", fps=30.0, width=1280, height=720,
                         frames=tuple(frames))
    stream_path, tracks_path = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
    write_stream(stream, stream_path)
    assert main(["track", "--in", str(stream_path), "--out", str(tracks_path),
                 "--min-hits", "1"]) == 0
    _, rows = read_tracks(tracks_path)
    assert [r["frame"] for r in rows] == list(range(40))
    assert all(len(r["tracks"]) == 1 for r in rows)


def test_cli_skill_from_tracks(tmp_path):
    spec = SynthSpec(seed=4, n_videos=1, fps=30.0, duration_s=6.0, with_keypoints=True)
    stream, _ = generate_stream(spec, 0)
    rows = track_stream(stream, TrackerConfig(min_hits=1))
    tracks_path = tmp_path / "t.jsonl"
    write_tracks(stream, rows, tracks_path)
    clips = [{"video_id": stream.video_id, "start": 0, "end": 170,
              "operator_id": "op-1", "experience": "trainee", "knot_count": 4}]
    clips_path = tmp_path / "clips.json"
    clips_path.write_text(json.dumps(clips))
    out_csv = tmp_path / "summary.csv"
    cents = tmp_path / "centroids.json"
    assert main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                 "--fps", "30", "--out", str(out_csv), "--centroids", str(cents)]) == 0
    table = read_csv(out_csv)
    assert table[0][:5] == ["video_id", "operator_id", "experience", "knot_count", "hand"]
    assert len(table) == 3  # header + left + right
    data = json.loads(cents.read_text())
    assert "trainee" in data["centroids"]


def test_clips_from_tracks_explicit_and_inferred(tmp_path):
    spec = SynthSpec(seed=5, n_videos=1, fps=30.0, duration_s=5.0)
    stream, _ = generate_stream(spec, 0)
    rows = track_stream(stream, TrackerConfig(min_hits=1))
    header = {"video_id": stream.video_id}
    base = {"video_id": stream.video_id, "start": 0, "end": 140,
            "operator_id": "o", "experience": "experienced", "knot_count": 3}
    inferred = clips_from_tracks(header, rows, [base])[0]
    assert inferred.left is not None and inferred.right is not None
    # left hand sits left of right hand by mean centroid x
    assert inferred.left.centroids[:, 0].mean() < inferred.right.centroids[:, 0].mean()
    explicit = clips_from_tracks(header, rows, [
        {**base, "left_track": inferred.right.track_id,
         "right_track": inferred.left.track_id}])[0]
    assert explicit.left.track_id == inferred.right.track_id


def test_tracking_oracle_report_clean_stream():
    spec = SynthSpec(seed=6, n_videos=1, fps=30.0, duration_s=5.0)
    stream, truth = generate_stream(spec, 0)
    report = tracking_oracle_report(track_stream(stream, TrackerConfig(min_hits=1)), truth)
    assert report["bijection"] is True
    assert report["id_switches"] == 0


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


def test_cli_filter(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    entries = [
        {"video_id": "good", "title": "open appendectomy", "umls": ["appendix"],
         "search_terms": ["appendectomy"], "duration_s": 400.0},
        {"video_id": "long", "title": "appendectomy", "umls": ["appendix"],
         "search_terms": ["appendectomy"], "duration_s": 4000.0},
    ]
    catalog.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    assert main(["filter", "--catalog", str(catalog), "--rule", "appendectomy"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["good"]


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


def test_cli_bench_small(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--minutes", "0.05", "--fps", "30", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["per_frame"]["count"] == 90
    assert "PASS" in capsys.readouterr().out


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


def test_zero_corruption_pipeline_recovers_ground_truth():
    # with perfect detections and vanishing measurement noise the tracker is
    # an identity: emitted boxes equal true boxes, so downstream kinematics
    # and sequence features reproduce the generator's totals
    spec = SynthSpec(seed=31, n_videos=1, fps=30.0, duration_s=40.0)
    stream, truth = generate_stream(spec, 0)
    config = TrackerConfig(measurement_noise=1e-12, process_noise=1e-6, min_hits=1)
    rows = track_stream(stream, config)

    from scenestream.pipeline import _trajectories_by_track
    from scenestream.kinematics import path_distance, clip_mean_hand_size
    trajectories = _trajectories_by_track(rows)
    assert len(trajectories) == len(truth.hand_ids)
    got_lengths = sorted(
        path_distance(t, clip_mean_hand_size(t)) for t in trajectories.values())
    want_lengths = sorted(truth.path_hand_lengths.values())
    assert got_lengths == pytest.approx(want_lengths, rel=1e-6)

    from scenestream.signatures import action_sequence_from_stream, quartile_aggregate
    seq = action_sequence_from_stream(stream, resolution_s=5.0)
    # rebuild the sequence from the sidecar's per-frame actions
    steps = []
    per_step = int(5.0 * spec.fps)
    for lo in range(0, len(truth.actions), per_step):
        window = truth.actions[lo:lo + per_step]
        steps.append(max(set(window), key=window.count))
    assert list(seq.labels) == steps
    from scenestream.signatures import ActionSequence
    want_quart = quartile_aggregate(ActionSequence(video_id="t", labels=tuple(steps)))
    assert np.array_equal(quartile_aggregate(seq), want_quart)


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
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), min_size=1))


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


def test_golden_with_keypoints_tracks(tmp_path):
    stream_path = tmp_path / "s.jsonl"
    stream_path.write_text("\n".join(json.dumps(o) for o in _BASE) + "\n")
    assert main(["track", "--in", str(stream_path), "--out", str(tmp_path / "t")]) == 0


def _skill_inputs(tmp_path, fps=15.0):
    spec = SynthSpec(seed=4, n_videos=1, fps=fps, duration_s=6.0, with_keypoints=True)
    stream, _ = generate_stream(spec, 0)
    tracks_path = tmp_path / "t.jsonl"
    write_tracks(stream, track_stream(stream, TrackerConfig(min_hits=1)), tracks_path)
    clip = {"video_id": stream.video_id, "start": 0, "end": 80,
            "operator_id": "op-1", "experience": "trainee", "knot_count": 4}
    return tracks_path, clip


def _run_skill(tmp_path, tracks_path, clips, name, *extra):
    clips_path = tmp_path / f"{name}.json"
    clips_path.write_text(json.dumps(clips))
    out = tmp_path / f"{name}.csv"
    code = main(["skill", "--tracks", str(tracks_path), "--clips", str(clips_path),
                 "--out", str(out), *extra])
    return code, out


def test_cli_skill_fps_defaults_to_tracks_header(tmp_path):
    tracks_path, clip = _skill_inputs(tmp_path, fps=15.0)
    code, derived = _run_skill(tmp_path, tracks_path, [clip], "derived")
    assert code == 0
    _, explicit = _run_skill(tmp_path, tracks_path, [clip], "explicit", "--fps", "15")
    _, other = _run_skill(tmp_path, tracks_path, [clip], "other", "--fps", "30")
    assert derived.read_bytes() == explicit.read_bytes()
    assert derived.read_bytes() != other.read_bytes()  # velocities scale with fps


@pytest.mark.parametrize("changes, message", [
    ({"video_id": "other"}, "clip 2 is for video 'other'"),
    ({"knot_count": "many"}, "clip 2 needs"),
    ({"start": None}, "clip 2 needs"),  # None: the key is missing
])
def test_cli_skill_rejects_bad_clip(tmp_path, capsys, changes, message):
    tracks_path, clip = _skill_inputs(tmp_path)
    bad = {k: v for k, v in {**clip, **changes}.items() if v is not None}
    code, out = _run_skill(tmp_path, tracks_path, [clip, bad], "bad")
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
