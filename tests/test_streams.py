import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_iou
from scenestream import streams
from scenestream.cli import main
from scenestream.errors import FrameOrderError
from scenestream.synth import SynthSpec, generate_stream
from scenestream import (
    DataWarning,
    Detection,
    FrameRecord,
    HandKeypoints,
    InvariantError,
    StreamFormatError,
    VideoStream,
    box,
    hand_size,
    iou,
    parse_stream,
    write_stream,
)

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden_stream.jsonl"


def make_stream_lines(frames, fps=30.0, video_id="v1"):
    header = {"video_id": video_id, "fps": fps, "width": 640, "height": 480}
    lines = [json.dumps(header)]
    for f in frames:
        lines.append(json.dumps(f))
    return "\n".join(lines) + "\n"


def frame_obj(idx, fps=30.0, dets=(), action="cutting"):
    return {"frame": idx, "t": idx / fps, "dets": list(dets), "action": action}


# ---------------------------------------------------------------- geometry

def test_bbox_invariants():
    with pytest.raises(InvariantError, match="x_min must be < x_max"):
        box(5, 0, 2, 2)
    with pytest.raises(InvariantError, match="y_min must be < y_max"):
        box(0, 2, 2, 2)
    with pytest.raises(InvariantError, match=">= 0"):
        box(-1, 0, 2, 2)
    with pytest.raises(InvariantError, match="finite"):
        box(0, 0, math.inf, 2)
    with pytest.raises(InvariantError, match="y_min must be finite"):
        box(0, math.nan, 2, 2)
    assert box(1, 2, 3, 4) == (1.0, 2.0, 3.0, 4.0)


def test_iou_identity_is_one():
    b = box(3, 4, 10, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0
    # shared edge still has zero overlap area
    assert iou(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0


def test_iou_worked_example_matches_grid_oracle():
    a, b = box(0, 0, 2, 2), box(1, 1, 3, 3)
    expected = grid_iou(a, b)
    assert expected == pytest.approx(1 / 7, abs=1e-12)
    assert iou(a, b) == pytest.approx(expected, abs=1e-3)


quarter_boxes = st.builds(
    lambda x0, y0, w, h: box(x0 / 4, y0 / 4, (x0 + w) / 4, (y0 + h) / 4),
    st.integers(0, 160), st.integers(0, 160), st.integers(1, 120), st.integers(1, 120),
)


@settings(max_examples=200, deadline=None)
@given(a=quarter_boxes, b=quarter_boxes)
def test_iou_properties_against_grid_oracle(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)
    assert (v == 1.0) == (a == b)
    assert v == pytest.approx(grid_iou(a, b), abs=1e-3)


def test_hand_size():
    assert hand_size(box(0, 0, 10, 10)) == 10
    # (height + width) / 2 applied directly
    assert hand_size(box(0, 0, 20, 10)) == 15
    assert hand_size(box(5, 7, 25, 17)) == 15  # translation leaves it unchanged


# ---------------------------------------------------------------- types

def test_detection_validation():
    b = box(0, 0, 1, 1)
    with pytest.raises(InvariantError, match="category"):
        Detection(box=b, category="scalpel")
    with pytest.raises(InvariantError, match="confidence"):
        Detection(box=b, category="hand", confidence=1.5)
    assert Detection(b, "hand") == (b, "hand", 1.0)
    # the box is made from its corners, and checked before category and confidence
    made = Detection([0, 0, 1, 1], "hand")
    assert made == (b, "hand", 1.0) and type(made.box) is tuple
    with pytest.raises(InvariantError, match="box x_min must be < x_max"):
        Detection((50.0, 0.0, 20.0, 10.0), "hand")
    with pytest.raises(InvariantError, match="box y_min must be finite"):
        Detection(box=(0.0, math.nan, 1.0, 1.0), category="scalpel", confidence=2.0)


def test_stream_built_from_constructors_round_trips(tmp_path):
    frames = tuple(
        FrameRecord(frame_index=k, timestamp_s=k / 10.0, action="cutting",
                    detections=(Detection((10 + k, 20, 60, 80.5), "hand", 0.75),
                                Detection(box=[0, 0, 5, 5], category="forceps")))
        for k in range(3))
    header = VideoStream(video_id="built", fps=10.0, width=640, height=480)
    path = tmp_path / "built.jsonl"
    write_stream((header, frames), path)
    again, again_frames = parse_stream(path)
    assert (again.video_id, again.fps, again.width, again.height) == ("built", 10.0, 640, 480)
    assert [(fr.frame_index, fr.timestamp_s, fr.detections, fr.action) for fr in again_frames] \
        == [(fr.frame_index, fr.timestamp_s, fr.detections, fr.action) for fr in frames]


def test_keypoints_validation():
    b = box(0, 0, 10, 10)
    with pytest.raises(InvariantError, match="21"):
        HandKeypoints(points=np.zeros((5, 3)), owner_box=b)
    with pytest.raises(InvariantError, match="finite"):
        HandKeypoints(points=[[float("nan"), 0.0, 1.0]] + [[0.0, 0.0, 1.0]] * 20, owner_box=b)
    with pytest.raises(InvariantError, match="x_min must be < x_max"):
        HandKeypoints(points=np.ones((21, 3)), owner_box=(10, 0, 0, 10))
    with pytest.raises(InvariantError, match="y_max must be finite"):
        HandKeypoints(points=np.ones((21, 3)), owner_box=(0, 0, 10, math.nan))
    kp = HandKeypoints(points=np.ones((21, 3)), owner_box=b)
    assert kp.points.shape == (21, 3)
    assert not kp.points.flags.writeable
    assert kp.points_text == json.dumps(kp.points.tolist())
    # rows decoded from JSON keep their text, and the array is made from it
    rows = [[k, 2 * k, 1] for k in range(21)]
    text = json.dumps(rows)
    parsed = HandKeypoints.from_json(rows, b, text)
    assert parsed.points_text == text
    assert parsed.points.dtype == float and not parsed.points.flags.writeable
    assert parsed.points.tolist() == rows
    assert HandKeypoints.from_json(rows, b).points_text == json.dumps(parsed.points.tolist())
    with pytest.raises(AttributeError):
        parsed.owner_box = box(0, 0, 5, 5)


def test_frame_record_validation():
    with pytest.raises(InvariantError, match="frame_index"):
        FrameRecord(frame_index=-1, timestamp_s=0.0)
    with pytest.raises(InvariantError, match="action"):
        FrameRecord(frame_index=0, timestamp_s=0.0, action="resting")


def test_frame_record_is_a_checked_tuple():
    det = Detection(box=(1, 2, 30, 40), category="hand")
    fr = FrameRecord(frame_index=2, timestamp_s=0.5, detections=[det], action="tying")
    assert fr.detections == (det,) and fr.keypoints == () and type(fr.detections) is tuple
    same = FrameRecord(2, 0.5, (det,), [], "tying")
    assert fr == same and hash(fr) == hash(same) and fr == (2, 0.5, (det,), (), "tying")
    assert fr != FrameRecord(frame_index=2, timestamp_s=0.5, detections=[det])
    with pytest.raises(AttributeError):
        fr.action = "cutting"
    with pytest.raises(InvariantError, match="frame_index must be >= 0, got -3"):
        FrameRecord(-3, 0.0, [det])
    with pytest.raises(InvariantError, match="action"):
        FrameRecord(0, 0.0, action="Tying")


def test_video_stream_timestamp_invariant(tmp_path):
    # a header holds no frames: both readers check each frame as its line is read
    path = tmp_path / "s.jsonl"
    good, bad = frame_obj(3), {**frame_obj(3), "t": 0.2}
    path.write_text(make_stream_lines([good]))
    assert [fr.frame_index for fr in parse_stream(path)[1]] == [3]
    path.write_text(make_stream_lines([bad]))
    for read in (parse_stream, lambda p: list(streams.open_stream(p)[1])):
        with pytest.raises(InvariantError, match="line 2: FrameRecord.timestamp_s"):
            read(path)
    path.write_text(make_stream_lines([good, good]))
    with pytest.raises(InvariantError, match="line 3: duplicate frame_index 3"):
        parse_stream(path)
    with pytest.raises(FrameOrderError, match="line 3: frame_index 3 is not above"):
        list(streams.open_stream(path)[1])
    with pytest.raises(InvariantError, match="VideoStream.fps must be > 0"):
        VideoStream(video_id="v", fps=0.0, width=0, height=0)


# ---------------------------------------------------------------- parsing

def test_parse_golden_stream():
    stream, frames = parse_stream(GOLDEN)
    assert stream.video_id == "golden-01"
    assert len(frames) == 3
    assert frames[0].detections[0].category == "hand"
    assert frames[0].action == "cutting"


def test_parse_three_frame_roundtrip(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(make_stream_lines([frame_obj(i) for i in range(3)]))
    stream = parse_stream(path)
    assert len(stream[1]) == 3

    out, again = tmp_path / "copy.jsonl", tmp_path / "again.jsonl"
    write_stream(stream, out)
    write_stream(parse_stream(out), again)
    assert again.read_bytes() == out.read_bytes()


def test_boxes_are_exact_tuples_wherever_they_are_made(tmp_path):
    # `tracking._overlap_scores` unpacks each detection box once per track (144
    # times a frame at 12 hands). Unpacking 4 values took 15 ns from an exact
    # tuple and 69 ns from a tuple subclass (py3.11.7, 2-CPU Xeon VM), so every
    # box stays an exact tuple of 4 floats.
    from scenestream.pipeline import truth_stream_from_ground_truth

    def assert_exact(boxes):
        boxes = list(boxes)
        assert boxes
        for b in boxes:
            assert type(b) is tuple and len(b) == 4 and all(type(v) is float for v in b), b

    def frame_boxes(frames):
        return [d.box for fr in frames for d in fr.detections]

    def owner_boxes(frames):
        return [k.owner_box for fr in frames for k in fr.keypoints]

    stream, truth = generate_stream(SynthSpec(seed=2, duration_s=1.0, with_keypoints=True), 0)
    assert_exact(frame_boxes(stream[1]))
    assert_exact(owner_boxes(stream[1]))
    assert_exact(b for frame in truth.true_boxes for b in frame.values())
    assert_exact(frame_boxes(truth_stream_from_ground_truth(stream, truth)[1]))
    path = tmp_path / "s.jsonl"
    write_stream(stream, path)
    _, parsed = parse_stream(path)
    assert_exact(frame_boxes(parsed))
    assert_exact(owner_boxes(parsed))
    _, frames = streams.open_stream(path)
    frames = list(frames)
    assert_exact(frame_boxes(frames))
    assert_exact(owner_boxes(frames))
    assert_exact([HandKeypoints(np.ones((21, 3)), [0, 0, 10, 10]).owner_box])
    assert_exact([HandKeypoints.from_json([[0, 0, 1]] * 21, box(0, 0, 10, 10)).owner_box])


def test_parse_reports_bbox_invariant_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    frames = [frame_obj(0, dets=[["hand", 0.9, 50, 10, 20, 30]])]
    path.write_text(make_stream_lines(frames))
    with pytest.raises(InvariantError, match=r"line 2: box "):
        parse_stream(path)


def test_parse_out_of_order_resorts_with_warning(tmp_path):
    path = tmp_path / "ooo.jsonl"
    order = [4, 0, 3, 1, 2]
    path.write_text(make_stream_lines([frame_obj(i) for i in order]))
    with pytest.warns(DataWarning, match="re-sorted"):
        _, frames = parse_stream(path)
    assert [f.frame_index for f in frames] == sorted(order)


def test_parse_duplicate_frame_is_error(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(make_stream_lines([frame_obj(0), frame_obj(1), frame_obj(1)]))
    with pytest.raises(InvariantError, match="line 4: duplicate frame_index 1"):
        parse_stream(path)


def test_parse_empty_and_headless(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(StreamFormatError, match="empty"):
        parse_stream(empty)
    header_only = tmp_path / "h.jsonl"
    header_only.write_text(make_stream_lines([]))
    with pytest.raises(StreamFormatError, match="no frames"):
        parse_stream(header_only)


def test_parse_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(make_stream_lines([frame_obj(0)]) + "{oops\n")
    with pytest.raises(StreamFormatError, match="line 3"):
        parse_stream(path)


def test_parse_null_confidence_defaults_to_one(tmp_path):
    path = tmp_path / "conf.jsonl"
    frames = [frame_obj(0, dets=[["hand", None, 0, 0, 10, 10]])]
    path.write_text(make_stream_lines(frames))
    _, frames = parse_stream(path)
    assert frames[0].detections[0].confidence == 1.0


def test_parse_timestamp_mismatch_is_invariant_error(tmp_path):
    path = tmp_path / "ts.jsonl"
    bad = {"frame": 1, "t": 0.5, "dets": [], "action": None}
    path.write_text(make_stream_lines([frame_obj(0), bad]))
    with pytest.raises(InvariantError, match="timestamp_s"):
        parse_stream(path)


def test_parse_non_numeric_duration_reports_header_line(tmp_path):
    path = tmp_path / "dur.jsonl"
    header = {"video_id": "v", "fps": 30, "metadata": {"duration_s": "abc"}}
    path.write_text(json.dumps(header) + "\n" + json.dumps(frame_obj(0)) + "\n")
    with pytest.raises(StreamFormatError, match="line 1: header metadata.duration_s"):
        parse_stream(path)


@pytest.mark.parametrize("duration", ["true", "1" + "0" * 399, "NaN"],
                         ids=["bool", "oversized-int", "nan"])
def test_parse_duration_that_is_not_a_finite_number_reports_header_line(tmp_path, duration):
    path = tmp_path / "dur.jsonl"
    header = '{"video_id": "v", "fps": 30, "metadata": {"duration_s": %s}}' % duration
    path.write_text(header + "\n" + json.dumps(frame_obj(0)) + "\n")
    with pytest.raises(StreamFormatError, match="line 1: header metadata.duration_s"):
        parse_stream(path)


def test_parse_stream_checks_each_frame_once(tmp_path, monkeypatch):
    import scenestream.streams as streams

    calls = {"timestamp": 0, "duration": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(streams, "_check_timestamp", counted("timestamp", streams._check_timestamp))
    monkeypatch.setattr(streams, "_check_duration", counted("duration", streams._check_duration))
    path = tmp_path / "s.jsonl"
    header = {"video_id": "v", "fps": 30.0, "metadata": {"duration_s": 0.2}}
    path.write_text(json.dumps(header) + "\n"
                    + "\n".join(json.dumps(frame_obj(i)) for i in (3, 0, 5, 1)) + "\n")
    with pytest.warns(DataWarning, match="re-sorted"):
        _, frames = parse_stream(path)
    assert [fr.frame_index for fr in frames] == [0, 1, 3, 5]
    assert calls == {"timestamp": 4, "duration": 1}
    # read without re-sorting, the same frames in decreasing order stop at the first
    path.write_text(json.dumps(header) + "\n"
                    + "\n".join(json.dumps(frame_obj(i)) for i in (5, 3, 1, 0)) + "\n")
    with pytest.raises(FrameOrderError, match="line 3: frame_index 3 is not above"):
        list(streams.open_stream(path)[1])


def test_header_duration_s_sets_the_timeline_steps(tmp_path):
    # 150 frames at 30 fps span 5.0 s; a header duration_s of 5.02 is within
    # a frame of that span, and its last 0.02 s make a second 5-s step. A
    # duration_s of null is no duration, as the reader takes it
    from scenestream.signatures import timeline_from_stream

    path = tmp_path / "s.jsonl"
    for metadata, labels in [({}, ("cutting",)), ({"duration_s": None}, ("cutting",)),
                             ({"duration_s": 5.02}, ("cutting", "background"))]:
        header = {"video_id": "v", "fps": 30.0, "metadata": metadata}
        path.write_text(json.dumps(header) + "\n"
                        + "\n".join(json.dumps(frame_obj(i)) for i in range(150)) + "\n")
        assert timeline_from_stream(*parse_stream(path), resolution_s=5.0).labels == labels


def test_a_duration_s_one_frame_period_off_the_span_passes_up_to_rounding():
    # frames up to `last` span (last + 1) / fps; a duration_s of last / fps or
    # (last + 2) / fps is one frame period off it, which float rounding put past
    # 1 / fps in 5724 of these 16000 cases. Two periods off is rejected
    for fps in (24.0, 25.0, 30.0, 60.0):
        for last in range(2000):
            for periods in (last, last + 2, last - 1, last + 3):
                metadata = {"duration_s": periods / fps}
                if abs(periods - (last + 1)) == 1:
                    streams._check_duration(metadata, last, fps)
                else:
                    with pytest.raises(InvariantError, match="inconsistent with frame span"):
                        streams._check_duration(metadata, last, fps)


_EXTRA = st.sampled_from([{}, {"note": "points"}, {"meta": {"points": [[1, 2, 3]]}},
                          {"note": 'a "points": [1] \\ b'}, {"points2": [1]}])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                        st.floats(-1e6, 1e6, allow_nan=False)),
                              min_size=3, max_size=3), min_size=21, max_size=21),
       n_entries=st.integers(1, 3), points_first=st.booleans(),
       separators=st.sampled_from([(", ", ": "), (",", ":"), (" , ", " :  ")]),
       entry_extra=_EXTRA, frame_extra=_EXTRA, escaped=st.booleans())
def test_parsed_keypoint_text_decodes_to_its_rows(tmp_path_factory, rows, n_entries,
                                                  points_first, separators, entry_extra,
                                                  frame_extra, escaped):
    # however the line is written, a keypoint's points_text holds its own rows;
    # `escaped` writes the first entry's key as "p\u006fints" next to a decoy
    # key x"points, so only the decoy reads as a points key by its text
    entries = []
    for i in range(n_entries):
        entry_rows = [[v + i if isinstance(v, int) else v for v in row] for row in rows]
        items = [("points", entry_rows), ("box", [1, 2, 30, 40])]
        entries.append(dict(items if points_first else items[::-1], **entry_extra))
    if escaped:
        entries[0]['x"points'] = [[9, 9, 9]] * 21
    frame = {"frame": 0, "t": 0.0, "kps": entries, **frame_extra}
    line = json.dumps(frame, separators=separators)
    if escaped:
        line = line.replace('"points"', '"p\\u006fints"', 1)
    path = tmp_path_factory.mktemp("kps") / "s.jsonl"
    path.write_text(json.dumps({"video_id": "v", "fps": 30.0}) + "\n" + line + "\n")
    (parsed,) = parse_stream(path)[1]
    assert [json.loads(kp.points_text) for kp in parsed.keypoints] == [
        e["points"] for e in entries]
    assert [kp.points.tolist() for kp in parsed.keypoints] == [
        [[float(v) for v in row] for row in e["points"]] for e in entries]

_TRIPLES = [[110.5 + k, 120 + k, 1] for k in range(21)]
_GOOD = json.dumps(_TRIPLES)
_OTHER = json.dumps([[200 + k, 210.25, 0] for k in range(21)])
_BAD_ROWS = ("input error: line 2: kps points must list exactly 21 [x, y, v] triples of "
             "finite numbers\n")


def _with(value):
    """_GOOD with the x of its fourth triple written as `value`."""
    rows = [json.dumps(row) for row in _TRIPLES]
    rows[3] = f"[{value}, 123, 1]"
    return "[" + ", ".join(rows) + "]"


def _floats(points_text):
    return json.dumps([[float(v) for v in row] for row in json.loads(points_text)])


def _kps_line(points=_GOOD, entry="", frame=""):
    return ('{"frame": 0, "t": 0.0, "dets": [["hand", 0.9, 100, 100, 180, 170]], '
            f'{frame}"kps": [{{"points": {points}, {entry}"box": [100, 100, 180, 170]}}]}}')


def in_file(err, path):
    """Standard error `err` of a command with the error it reports, if any,
    naming the stream file `path` it was read from, as every read error does."""
    return err and f"{err[:-1]} in {path}\n"


# id: (frame line, exit code of `track`, its stderr, the keypoint text of its tracks row)
_VERDICTS = {
    "1.1e2": (_kps_line(_with("1.1e2")), 0, "", _with("1.1e2")),
    "17 digits": (_kps_line(_with("12345678901234567")), 0, "", _with("12345678901234567")),
    "1e100": (_kps_line(_with("1e100")), 0, "", _with("1e100")),
    "1e999": (_kps_line(_with("1e999")), 1, _BAD_ROWS, None),
    "NaN": (_kps_line(_with("NaN")), 1, _BAD_ROWS, None),
    "Infinity": (_kps_line(_with("Infinity")), 1, _BAD_ROWS, None),
    "true": (_kps_line(_with("true")), 1, _BAD_ROWS, None),
    "20 triples": (_kps_line(json.dumps(_TRIPLES[:20])), 1, _BAD_ROWS, None),
    "22 triples": (_kps_line(json.dumps(_TRIPLES + _TRIPLES[:1])), 1, _BAD_ROWS, None),
    "2-number triple": (_kps_line(_GOOD.replace("[113.5, 123, 1]", "[113.5, 123]")), 1,
                        _BAD_ROWS, None),
    "nested key": (_kps_line(entry=f'"meta": {{"points": {_OTHER}}}, '), 0, "", _floats(_GOOD)),
    "top-level key": (_kps_line(frame=f'"points": {_OTHER}, '), 0, "", _floats(_GOOD)),
    "two keys": (_kps_line(entry=f'"points": {_OTHER}, '), 0, "", _floats(_OTHER)),
    "backslash": (_kps_line(frame='"note": "a\\\\b", '), 0, "", _floats(_GOOD)),
    "whitespace": (_kps_line(_GOOD.replace(", ", " ,  ").replace("[", "[ ")), 0, "",
                   _GOOD.replace(", ", " ,  ").replace("[", "[ ")),
}


@pytest.mark.parametrize("case", sorted(_VERDICTS))
def test_keypoint_text_checks_give_the_verdict_of_decoding(tmp_path, capsys, case):
    # every line here is either outside the strict number form, so it is
    # decoded in full, or within it; each must exit and report as a full
    # decode with keypoint_rows does
    line, code, err, text = _VERDICTS[case]
    path, out = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
    path.write_text('{"video_id": "v", "fps": 30.0}\n' + line + "\n")
    assert main(["track", "--in", str(path), "--out", str(out), "--min-hits", "1"]) == code
    assert capsys.readouterr().err == in_file(err, path)
    if text is not None:
        assert f'"kps": {{"1": {text}}}' in out.read_text().splitlines()[1]


def test_written_keypoint_lines_are_not_decoded_in_full(tmp_path, monkeypatch):
    spec = SynthSpec(seed=2, fps=10.0, duration_s=2.0, with_keypoints=True)
    stream, _ = generate_stream(spec, 0)
    write_stream(stream, tmp_path / "s.jsonl")
    decoded = []
    monkeypatch.setattr(streams, "_decode",
                        lambda line, line_no: decoded.append(line_no) or json.loads(line))
    _, parsed = parse_stream(tmp_path / "s.jsonl")
    assert decoded == [1]  # the header alone
    assert sum(len(fr.keypoints) for fr in parsed) > 20
    assert [kp.points.tolist() for fr in parsed for kp in fr.keypoints] == [
        kp.points.tolist() for fr in stream[1] for kp in fr.keypoints]


# ---------------------------------------------------------------- one-pass parsing

# the keypoint pattern as it was before its quantifiers were made possessive
_OLD_NUMBER = r"-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+|)(?:[eE][-+]?[0-9]{1,2}|)"
_OLD_TRIPLE = rf"\[{_OLD_NUMBER}, {_OLD_NUMBER}, {_OLD_NUMBER}\]"
_OLD_POINTS = re.compile(rf'"points"[ \t\n\r]*:[ \t\n\r]*(?:(\[{_OLD_TRIPLE}(?:, {_OLD_TRIPLE})'
                         r'{20}\])|([^"}]*\]))?')


def _matches(pattern, text):
    return [(m.span(), m.span(1), m.span(2), m[1], m[2]) for m in pattern.finditer(text)]


def _points_text(values, n=21, sep=", "):
    """A `points` value of n triples, whose x values cycle through `values`."""
    rows = [f"[{values[k % len(values)]}{sep}{100 + k}{sep}1]" for k in range(n)]
    return "[" + ", ".join(rows) + "]"


_ADVERSARIAL = [
    "0", "00", "007", "-0", "-00", "-0.0", "0.5", "1.5", "1234567890123456",
    "12345678901234567", "1234567890123456.5", "1e10", "1e100", "1E+05", "1e-07",
    "1e", "1e+", "1.", ".5", "+1", "-", "--1", "1.5e", "1.5e1.5", "1.e5", "0x10",
    "true", "NaN", "Infinity", "-Infinity", "1 ", " 1",
]


def _adversarial_lines():
    for value in _ADVERSARIAL:
        yield f'{{"kps": [{{"points": {_points_text([value])}, "box": [1, 2, 3, 4]}}]}}'
        yield f'{{"kps": [{{"points": {_points_text(["1", value, "2.5"])}}}]}}'
    for n in (20, 21, 22):
        yield f'{{"kps": [{{"points": {_points_text(["1.5"], n)}}}]}}'
    yield f'{{"kps": [{{"points": {_points_text(["1"], sep="  ,  ")}}}]}}'
    yield f'{{"kps": [{{"points": {_points_text(["1"]).replace(", ", ",")}}}]}}'
    yield '{"note": "a \\"points\\": [[1, 2, 3]] in a string", "points": [[1, 2, 3]]}'
    yield f'{{"note": "\\"points\\": {_points_text(["1"])}", "kps": []}}'
    yield f'{{"kps": [{{"points" :  {_points_text(["2"])}, "points": [[1, 2]]}}]}}'


def test_possessive_keypoint_pattern_matches_as_the_old_one_on_adversarial_lines():
    lines = list(_adversarial_lines())
    assert sum(m[1] is not None for line in lines for m in _OLD_POINTS.finditer(line)) > 20
    for line in lines:
        assert _matches(streams._POINTS, line) == _matches(_OLD_POINTS, line), line


_NUMBER_TEXT = st.one_of(
    st.from_regex(r"\A-?[0-9]{1,18}(\.[0-9]{0,3})?([eE][-+]?[0-9]{0,3})?\Z"),
    st.text("0123456789-+.eE ,[]tru", max_size=8))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_NUMBER_TEXT, min_size=1, max_size=6), n=st.integers(19, 23),
       sep=st.sampled_from([", ", ",", " , "]),
       tail=st.sampled_from(["}", ', "box": [1]}', "]"]))
def test_possessive_keypoint_pattern_matches_as_the_old_one_on_random_triples(values, n, sep,
                                                                              tail):
    line = f'{{"kps": [{{"points": {_points_text(values, n, sep)}{tail}]}}'
    assert _matches(streams._POINTS, line) == _matches(_OLD_POINTS, line)


def _det_line(det):
    return ('{"frame": 0, "t": 0.0, "dets": [["hand", 0.9, 100.0, 100.0, 180.0, 170.0], '
            + det + '], "kps": [], "action": null}')


def _owner_box_line(corners):
    return ('{"frame": 0, "t": 0.0, "dets": [["hand", 0.9, 100.0, 100.0, 180.0, 170.0]], '
            f'"kps": [{{"points": {_GOOD}, "box": {corners}}}]}}')


_BIG = "1" + "0" * 399
# the entry under test as written with integer corners; each also runs with
# its short integers written as floats, the form a written stream has
_PARITY_ENTRIES = {
    "conf true": (_det_line, '["hand", true, 1, 2, 30, 40]'),
    "conf 1.5": (_det_line, '["hand", 1.5, 1, 2, 30, 40]'),
    "conf NaN": (_det_line, '["hand", NaN, 1, 2, 30, 40]'),
    "conf 400 digits": (_det_line, f'["hand", {_BIG}, 1, 2, 30, 40]'),
    "conf null": (_det_line, '["hand", null, 1, 2, 30, 40]'),
    "conf 1": (_det_line, '["hand", 1, 1, 2, 30, 40]'),
    "category 5": (_det_line, '[5, 0.5, 1, 2, 30, 40]'),
    "category null": (_det_line, '[null, 0.5, 1, 2, 30, 40]'),
    "category Hand": (_det_line, '["Hand", 0.5, 1, 2, 30, 40]'),
    "corner true": (_det_line, '["hand", 0.5, 1, true, 30, 40]'),
    "corner string": (_det_line, '["hand", 0.5, 1, 2, "1", 40]'),
    "corner 400 digits": (_det_line, f'["hand", 0.5, 1, 2, 30, {_BIG}]'),
    "5 entries": (_det_line, '["hand", 0.5, 1, 2, 30]'),
    "7 entries": (_det_line, '["hand", 0.5, 1, 2, 30, 40, 50]'),
    "object det": (_det_line, '{"cls": "hand"}'),
    "kps box 3 numbers": (_owner_box_line, "[100, 100, 180]"),
    "kps box bool corner": (_owner_box_line, "[100, false, 180, 170]"),
    "kps box crossed": (_owner_box_line, "[180, 100, 100, 170]"),
    "kps box y crossed": (_owner_box_line, "[100, 170, 180, 170]"),
    "kps box NaN": (_owner_box_line, "[100, 100, NaN, 170]"),
    "kps box 400 digits": (_owner_box_line, f"[100, 100, 180, {_BIG}]"),
    "kps box negative": (_owner_box_line, "[-1, 100, 180, 170]"),
    "kps box object": (_owner_box_line, '{"x": 1}'),
    "category 5 and conf true": (_det_line, '[5, true, 1, 2, 30, 40]'),
    "category 5 and conf 1.5": (_det_line, '[5, 1.5, 1, 2, 30, 40]'),
    "conf 1.5 and crossed": (_det_line, '["hand", 1.5, 30, 2, 1, 40]'),
    "conf -0.5": (_det_line, '["hand", -0.5, 1, 2, 30, 40]'),
    "corner NaN": (_det_line, '["hand", 0.5, 1, NaN, 30, 40]'),
    "corner negative": (_det_line, '["hand", 0.5, 1, -2, 30, 40]'),
    "y crossed": (_det_line, '["hand", 0.5, 1, 40, 30, 40]'),
    "corner Infinity": (_det_line, '["hand", 0.5, 1, 2, Infinity, 40]'),
    "conf -0.0 and zero corners": (_det_line, '["hand", -0.0, 0, 0, 1, 1]'),
}


def _short_ints_as_floats(text):
    return re.sub(r"(?<![\d.])(\d{1,3})(?![\d.e])", r"\1.0", text)


_PARITY_LINES = {name: line(entry) for name, (line, entry) in _PARITY_ENTRIES.items()}
_PARITY_LINES.update({f"{name}, floats": line(_short_ints_as_floats(entry))
                      for name, (line, entry) in _PARITY_ENTRIES.items()
                      if _short_ints_as_floats(entry) != entry})

_INVARIANT, _INPUT = "invariant violation: line 2: ", "input error: line 2: "
_NOT_NUMBERS = (_INPUT + "det conf and box corners must be JSON numbers (conf may be null), "
                "got ")
_CATEGORY = (_INVARIANT + "Detection.category must be one of ('hand', 'electrocautery', "
             "'needle_driver', 'forceps'), got ")
_ENTRY = _INPUT + "det entry must be [cls, conf, x0, y0, x1, y1], got "
_CONF = _INVARIANT + "Detection.confidence must be in [0,1], got "
_OWNER_BOX = _INPUT + "kps box must be 4 JSON numbers, got "
# exit code and standard error of `track` on each line, recorded before the
# parser checked well-formed entries in one pass
_PARITY = {
    'conf true': (1, _NOT_NUMBERS + "['hand', True, 1, 2, 30, 40]\n"),
    'conf 1.5': (2, _CONF + '1.5\n'),
    'conf NaN': (2, _CONF + 'nan\n'),
    'conf 400 digits':
        (1, _INPUT + 'malformed frame record: int too large to convert to float\n'),
    'conf null': (0, ''),
    'conf 1': (0, ''),
    'category 5': (2, _CATEGORY + '5\n'),
    'category null': (2, _CATEGORY + 'None\n'),
    'category Hand': (2, _CATEGORY + "'Hand'\n"),
    'corner true': (1, _NOT_NUMBERS + "['hand', 0.5, 1, True, 30, 40]\n"),
    'corner string': (1, _NOT_NUMBERS + "['hand', 0.5, 1, 2, '1', 40]\n"),
    'corner 400 digits':
        (1, _INPUT + 'malformed frame record: int too large to convert to float\n'),
    '5 entries': (1, _ENTRY + "['hand', 0.5, 1, 2, 30]\n"),
    '7 entries': (1, _ENTRY + "['hand', 0.5, 1, 2, 30, 40, 50]\n"),
    'object det': (1, _ENTRY + "{'cls': 'hand'}\n"),
    'kps box 3 numbers': (1, _OWNER_BOX + '[100, 100, 180]\n'),
    'kps box bool corner': (1, _OWNER_BOX + '[100, False, 180, 170]\n'),
    'kps box crossed':
        (2, _INVARIANT + 'box x_min must be < x_max, got 180.0 >= 100.0\n'),
    'kps box y crossed':
        (2, _INVARIANT + 'box y_min must be < y_max, got 170.0 >= 170.0\n'),
    'kps box NaN': (2, _INVARIANT + 'box x_max must be finite, got nan\n'),
    'kps box 400 digits':
        (1, _INPUT + 'malformed frame record: int too large to convert to float\n'),
    'kps box negative': (2, _INVARIANT + 'box x_min must be >= 0, got -1.0\n'),
    'kps box object': (1, _OWNER_BOX + "{'x': 1}\n"),
    'category 5 and conf true': (1, _NOT_NUMBERS + '[5, True, 1, 2, 30, 40]\n'),
    'category 5 and conf 1.5': (2, _CATEGORY + '5\n'),
    'conf 1.5 and crossed':
        (2, _INVARIANT + 'box x_min must be < x_max, got 30.0 >= 1.0\n'),
    'conf -0.5': (2, _CONF + '-0.5\n'),
    'corner NaN': (2, _INVARIANT + 'box y_min must be finite, got nan\n'),
    'corner negative': (2, _INVARIANT + 'box y_min must be >= 0, got -2.0\n'),
    'y crossed': (2, _INVARIANT + 'box y_min must be < y_max, got 40.0 >= 40.0\n'),
    'corner Infinity': (2, _INVARIANT + 'box x_max must be finite, got inf\n'),
    'conf -0.0 and zero corners': (0, ''),
    'conf true, floats': (1, _NOT_NUMBERS + "['hand', True, 1.0, 2.0, 30.0, 40.0]\n"),
    'conf 1.5, floats': (2, _CONF + '1.5\n'),
    'conf NaN, floats': (2, _CONF + 'nan\n'),
    'conf 400 digits, floats':
        (1, _INPUT + 'malformed frame record: int too large to convert to float\n'),
    'conf null, floats': (0, ''),
    'conf 1, floats': (0, ''),
    'category 5, floats': (2, _CATEGORY + '5.0\n'),
    'category null, floats': (2, _CATEGORY + 'None\n'),
    'category Hand, floats': (2, _CATEGORY + "'Hand'\n"),
    'corner true, floats': (1, _NOT_NUMBERS + "['hand', 0.5, 1.0, True, 30.0, 40.0]\n"),
    'corner string, floats': (1, _NOT_NUMBERS + "['hand', 0.5, 1.0, 2.0, '1.0', 40.0]\n"),
    'corner 400 digits, floats':
        (1, _INPUT + 'malformed frame record: int too large to convert to float\n'),
    '5 entries, floats': (1, _ENTRY + "['hand', 0.5, 1.0, 2.0, 30.0]\n"),
    '7 entries, floats': (1, _ENTRY + "['hand', 0.5, 1.0, 2.0, 30.0, 40.0, 50.0]\n"),
    'kps box 3 numbers, floats': (1, _OWNER_BOX + '[100.0, 100.0, 180.0]\n'),
    'kps box bool corner, floats': (1, _OWNER_BOX + '[100.0, False, 180.0, 170.0]\n'),
    'kps box crossed, floats':
        (2, _INVARIANT + 'box x_min must be < x_max, got 180.0 >= 100.0\n'),
    'kps box y crossed, floats':
        (2, _INVARIANT + 'box y_min must be < y_max, got 170.0 >= 170.0\n'),
    'kps box NaN, floats': (2, _INVARIANT + 'box x_max must be finite, got nan\n'),
    'kps box 400 digits, floats':
        (1, _INPUT + 'malformed frame record: int too large to convert to float\n'),
    'kps box negative, floats': (2, _INVARIANT + 'box x_min must be >= 0, got -1.0\n'),
    'kps box object, floats': (1, _OWNER_BOX + "{'x': 1.0}\n"),
    'category 5 and conf true, floats':
        (1, _NOT_NUMBERS + '[5.0, True, 1.0, 2.0, 30.0, 40.0]\n'),
    'category 5 and conf 1.5, floats': (2, _CATEGORY + '5.0\n'),
    'conf 1.5 and crossed, floats':
        (2, _INVARIANT + 'box x_min must be < x_max, got 30.0 >= 1.0\n'),
    'conf -0.5, floats': (2, _CONF + '-0.5\n'),
    'corner NaN, floats': (2, _INVARIANT + 'box y_min must be finite, got nan\n'),
    'corner negative, floats': (2, _INVARIANT + 'box y_min must be >= 0, got -2.0\n'),
    'y crossed, floats':
        (2, _INVARIANT + 'box y_min must be < y_max, got 40.0 >= 40.0\n'),
    'corner Infinity, floats': (2, _INVARIANT + 'box x_max must be finite, got inf\n'),
    'conf -0.0 and zero corners, floats': (0, ''),
}


@pytest.mark.parametrize("case", sorted(_PARITY_LINES))
def test_one_pass_entry_checks_report_as_the_full_checks(tmp_path, capsys, case):
    path, out = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
    path.write_text('{"video_id": "v", "fps": 30.0}\n' + _PARITY_LINES[case] + "\n")
    code = main(["track", "--in", str(path), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (_PARITY[case][0], in_file(_PARITY[case][1], path))
    if code == 0:  # each entry is the Detection its constructor makes
        (frame,) = parse_stream(path)[1]
        want = [Detection(box(*corners), cls, 1.0 if conf is None else float(conf))
                for cls, conf, *corners in json.loads(_PARITY_LINES[case])["dets"]]
        assert frame.detections == tuple(want)
        assert [tuple(map(type, (*d.box, d.confidence))) for d in frame.detections] == [
            (float,) * 5] * len(want)
