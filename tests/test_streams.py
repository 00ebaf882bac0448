import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_iou
from scenestream import (
    BBox,
    DataWarning,
    Detection,
    FrameRecord,
    HandKeypoints,
    InvariantError,
    StreamFormatError,
    VideoStream,
    centroid,
    hand_size,
    iou,
    parse_stream,
    stream_to_lines,
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
    with pytest.raises(InvariantError, match="x_min < x_max"):
        BBox(5, 0, 2, 2)
    with pytest.raises(InvariantError, match="y_min < y_max"):
        BBox(0, 2, 2, 2)
    with pytest.raises(InvariantError, match=">= 0"):
        BBox(-1, 0, 2, 2)
    with pytest.raises(InvariantError, match="finite"):
        BBox(0, 0, math.inf, 2)


def test_iou_identity_is_one():
    b = BBox(3, 4, 10, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0
    # shared edge still has zero overlap area
    assert iou(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == 0.0


def test_iou_worked_example_matches_grid_oracle():
    a, b = BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)
    expected = grid_iou(a, b)
    assert expected == pytest.approx(1 / 7, abs=1e-12)
    assert iou(a, b) == pytest.approx(expected, abs=1e-3)


quarter_boxes = st.builds(
    lambda x0, y0, w, h: BBox(x0 / 4, y0 / 4, (x0 + w) / 4, (y0 + h) / 4),
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
    assert hand_size(BBox(0, 0, 10, 10)) == 10
    # (height + width) / 2 applied directly
    assert hand_size(BBox(0, 0, 20, 10)) == 15


def test_centroid():
    assert centroid(BBox(0, 0, 2, 2)) == (1, 1)
    assert centroid(BBox(1, 3, 5, 7)) == (3, 5)


@settings(max_examples=50, deadline=None)
@given(a=quarter_boxes, dx=st.integers(0, 50), dy=st.integers(0, 50))
def test_centroid_translation_equivariance(a, dx, dy):
    shifted = BBox(a.x_min + dx, a.y_min + dy, a.x_max + dx, a.y_max + dy)
    cx, cy = centroid(a)
    sx, sy = centroid(shifted)
    assert (sx - cx, sy - cy) == (dx, dy)
    assert hand_size(shifted) == hand_size(a)


# ---------------------------------------------------------------- types

def test_detection_validation():
    box = BBox(0, 0, 1, 1)
    with pytest.raises(InvariantError, match="category"):
        Detection(box=box, category="scalpel")
    with pytest.raises(InvariantError, match="confidence"):
        Detection(box=box, category="hand", confidence=1.5)


def test_keypoints_validation():
    box = BBox(0, 0, 10, 10)
    with pytest.raises(InvariantError, match="21"):
        HandKeypoints(points=np.zeros((5, 3)), owner_box=box)
    kp = HandKeypoints(points=np.ones((21, 3)), owner_box=box)
    assert kp.points.shape == (21, 3)
    assert not kp.points.flags.writeable
    assert kp.skill_points_visible()


def test_frame_record_validation():
    with pytest.raises(InvariantError, match="frame_index"):
        FrameRecord(frame_index=-1, timestamp_s=0.0)
    with pytest.raises(InvariantError, match="action"):
        FrameRecord(frame_index=0, timestamp_s=0.0, action="resting")


def test_video_stream_timestamp_invariant():
    good = FrameRecord(frame_index=3, timestamp_s=0.1)
    VideoStream(video_id="v", fps=30.0, width=0, height=0, frames=(good,))
    bad = FrameRecord(frame_index=3, timestamp_s=0.2)
    with pytest.raises(InvariantError, match="timestamp_s"):
        VideoStream(video_id="v", fps=30.0, width=0, height=0, frames=(bad,))


# ---------------------------------------------------------------- parsing

def test_parse_golden_stream():
    stream = parse_stream(GOLDEN)
    assert stream.video_id == "golden-01"
    assert len(stream.frames) == 3
    assert stream.frames[0].detections[0].category == "hand"
    assert stream.frames[0].action == "cutting"


def test_parse_three_frame_roundtrip(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(make_stream_lines([frame_obj(i) for i in range(3)]))
    stream = parse_stream(path)
    assert len(stream.frames) == 3

    out = tmp_path / "copy.jsonl"
    write_stream(stream, out)
    again = parse_stream(out)
    assert stream_to_lines(again) == stream_to_lines(stream)


def test_parse_reports_bbox_invariant_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    frames = [frame_obj(0, dets=[["hand", 0.9, 50, 10, 20, 30]])]
    path.write_text(make_stream_lines(frames))
    with pytest.raises(InvariantError, match=r"line 2.*BBox"):
        parse_stream(path)


def test_parse_out_of_order_resorts_with_warning(tmp_path):
    path = tmp_path / "ooo.jsonl"
    order = [4, 0, 3, 1, 2]
    path.write_text(make_stream_lines([frame_obj(i) for i in order]))
    with pytest.warns(DataWarning, match="re-sorted"):
        stream = parse_stream(path)
    assert [f.frame_index for f in stream.frames] == sorted(order)


def test_parse_duplicate_frame_is_error(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(make_stream_lines([frame_obj(0), frame_obj(1), frame_obj(1)]))
    with pytest.raises(InvariantError, match="duplicate"):
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
    stream = parse_stream(path)
    assert stream.frames[0].detections[0].confidence == 1.0


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
