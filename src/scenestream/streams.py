"""Scene-stream data model: frame records, detections, keypoints, and box geometry.

A stream is one video's worth of per-frame detector output, stored as
line-delimited JSON (one header line, then one frame object per line), and
in memory the pair (header, frames) of a VideoStream and its FrameRecords.
See docs/format.md for the exact schema and a golden example.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DataWarning, FrameOrderError, InvariantError, StreamFormatError

ACTIONS = ("cutting", "tying", "suturing")
BACKGROUND = "background"
ACTION_LABELS = ACTIONS + (BACKGROUND,)

HAND = "hand"
TOOL_CLASSES = ("electrocautery", "needle_driver", "forceps")
CATEGORIES = (HAND,) + TOOL_CLASSES

N_KEYPOINTS = 21

# Keypoint index map: wrist/palm first, then four joints per finger in
# thumb, index, middle, ring, little order (tip last within each finger).
# Indices 0-8 are the nine skill-analysis points.
PALM_INDEX = 0
THUMB_CHAIN = (1, 2, 3, 4)
INDEX_CHAIN = (5, 6, 7, 8)
SKILL_KEYPOINT_INDICES = (PALM_INDEX,) + THUMB_CHAIN + INDEX_CHAIN

TIMESTAMP_TOL_S = 1e-6

_JSON_NUMBER = frozenset((int, float))  # type() of a decoded JSON number; true/false are bool
_CORNERS = ("x_min", "y_min", "x_max", "y_max")


def box(x_min, y_min, x_max, y_max) -> tuple:
    """The axis-aligned box (x_min, y_min, x_max, y_max) in pixel coordinates, as
    an exact tuple of 4 floats, once 0 <= x_min < x_max and 0 <= y_min < y_max
    hold with every corner finite; else InvariantError naming the first corner
    that breaks them. A NaN fails every comparison of the one-line check.

    Boxes stay exact tuples: unpacking one took 15 ns where a tuple subclass
    took 69 ns (py3.11.7, 2-CPU Xeon VM), and `tracking._overlap_scores` and
    `tracking._measurements` unpack detection boxes on every frame."""
    b = (float(x_min), float(y_min), float(x_max), float(y_max))
    x0, y0, x1, y1 = b
    if 0.0 <= x0 < x1 < math.inf and 0.0 <= y0 < y1 < math.inf:
        return b
    for name, v in zip(_CORNERS, b):
        if not math.isfinite(v):
            raise InvariantError(f"box {name} must be finite, got {v!r}")
        if v < 0:
            raise InvariantError(f"box {name} must be >= 0, got {v!r}")
    if not x0 < x1:
        raise InvariantError(f"box x_min must be < x_max, got {x0} >= {x1}")
    raise InvariantError(f"box y_min must be < y_max, got {y0} >= {y1}")


def iou(a, b) -> float:
    """Intersection over union of two (x_min, y_min, x_max, y_max) boxes; 0.0
    when disjoint."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def hand_size(b) -> float:
    """Characteristic hand length: (height + width) / 2 in pixels of an
    (x_min, y_min, x_max, y_max) box."""
    x0, y0, x1, y1 = b
    return ((y1 - y0) + (x1 - x0)) / 2.0


class _Detection(NamedTuple):
    box: tuple  # made by `box`
    category: str
    confidence: float = 1.0


_box = box  # Detection.__new__'s argument `box` hides the function


class Detection(_Detection):
    """One detected box, its category and its confidence in [0, 1]. The box
    is given as its 4 corners and made with `box`, so it is checked first."""

    __slots__ = ()

    def __new__(cls, box, category, confidence=1.0):
        box = _box(*box)
        if category not in CATEGORIES:
            raise InvariantError(
                f"Detection.category must be one of {CATEGORIES}, got {category!r}")
        if not (0.0 <= confidence <= 1.0):
            raise InvariantError(f"Detection.confidence must be in [0,1], got {confidence!r}")
        return tuple.__new__(cls, (box, category, confidence))


class HandKeypoints:
    """21 hand keypoints as (x, y, visible) rows, and the hand box that owns them.

    `points` is an immutable (21, 3) float array. Keypoints read from JSON
    with their source text (`from_json`) keep the text and make the array when
    `points` is first read; `points_text` is the JSON a tracks file carries.
    """

    __slots__ = ("_owner_box", "_text", "_points")

    def __init__(self, points, owner_box):
        pts = np.array(points, dtype=float)
        if pts.shape != (N_KEYPOINTS, 3):
            raise InvariantError(
                f"HandKeypoints.points must have shape ({N_KEYPOINTS}, 3), got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvariantError("HandKeypoints.points must be finite")
        pts.flags.writeable = False
        self._owner_box, self._text, self._points = box(*owner_box), None, pts

    @classmethod
    def from_json(cls, rows, owner_box: tuple, text: str | None = None) -> "HandKeypoints":
        """Keypoints from decoded JSON rows that pass `keypoint_rows`, owned by a
        box that `box` made; `text`, when known, is the JSON they were decoded
        from; it is kept in place of the array, which is made only if `points`
        is read."""
        if text is None:
            return cls(rows, owner_box)
        kp = cls.__new__(cls)
        kp._owner_box, kp._text, kp._points = owner_box, text, None
        return kp

    @property
    def owner_box(self) -> tuple:
        return self._owner_box

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            pts = np.array(json.loads(self._text), dtype=float)
            pts.flags.writeable = False
            self._points = pts
        return self._points

    @property
    def points_text(self) -> str:
        """The rows as JSON: the source text when known, else the floats of `points`."""
        return self._text if self._text is not None else json.dumps(self.points.tolist())

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    @property
    def visible(self) -> np.ndarray:
        return self.points[:, 2] > 0.5


class _FrameRecord(NamedTuple):
    frame_index: int
    timestamp_s: float
    detections: tuple = ()  # of Detection
    keypoints: tuple = ()  # of HandKeypoints
    action: str | None = None


class FrameRecord(_FrameRecord):
    """All detections, keypoints, and the action label for one video frame; a tuple
    that compares by value (HandKeypoints by identity), whose _make/_replace skip checks."""

    __slots__ = ()

    def __new__(cls, frame_index, timestamp_s, detections=(), keypoints=(), action=None):
        if frame_index < 0:
            raise InvariantError(f"FrameRecord.frame_index must be >= 0, got {frame_index}")
        if action is not None and action not in ACTION_LABELS:
            raise InvariantError(
                f"FrameRecord.action must be one of {ACTION_LABELS} or None, got {action!r}")
        return tuple.__new__(cls, (frame_index, timestamp_s, tuple(detections),
                                   tuple(keypoints), action))


def _check_timestamp(fr: FrameRecord, fps: float) -> None:
    expected = fr.frame_index / fps
    if abs(fr.timestamp_s - expected) > TIMESTAMP_TOL_S:
        raise InvariantError(
            f"FrameRecord.timestamp_s inconsistent with frame_index/fps at frame "
            f"{fr.frame_index}: {fr.timestamp_s} vs {expected}"
        )


def _check_duration(metadata, last_index: int, fps: float) -> None:
    dur = metadata.get("duration_s")
    if dur is not None:
        span = (last_index + 1) / fps
        if abs(dur - span) > 1.0 / fps + TIMESTAMP_TOL_S:  # a frame period, up to rounding
            raise InvariantError(
                f"metadata duration_s {dur} inconsistent with frame span {span:.6f}"
            )


@dataclass(frozen=True, eq=False)
class VideoStream:
    """One video's header: its id, frame rate, frame size and read-only metadata.
    A whole stream is the pair (header, frames) that `open_stream` returns."""

    video_id: str
    fps: float
    width: int
    height: int
    metadata: object = field(default_factory=dict)

    def __post_init__(self):
        if not (self.fps > 0):
            raise InvariantError(f"VideoStream.fps must be > 0, got {self.fps!r}")
        meta = dict(self.metadata) if self.metadata else {}
        object.__setattr__(self, "metadata", MappingProxyType(meta))


def finite_numbers(values, n) -> bool:
    """Whether `values` is a list of n JSON numbers (not booleans), each finite
    as a float."""
    try:
        return (isinstance(values, list) and len(values) == n
                and all(type(v) in (int, float) and math.isfinite(v) for v in values))
    except OverflowError:  # an integer past the float range
        return False


def keypoint_rows(points) -> bool:
    """Whether `points` is N_KEYPOINTS [x, y, v] triples of JSON numbers (not
    booleans), each finite as a float."""
    if not isinstance(points, list) or len(points) != N_KEYPOINTS:
        return False
    try:  # one loop, not finite_numbers per row: this runs on every keypoint of a stream
        for x, y, v in points:  # of decoded JSON, only a list of 3 numbers passes
            if not (type(x) in (int, float) and type(y) in (int, float)
                    and type(v) in (int, float) and math.isfinite(x)
                    and math.isfinite(y) and math.isfinite(v)):
                return False
    except (TypeError, ValueError, OverflowError):  # not 3 values, or past the float range
        return False
    return True


def _parse_detection(raw, line_no):
    if type(raw) is list and len(raw) == 6:  # floats passing box's and Detection's checks
        cls, conf, x0, y0, x1, y1 = raw
        if (type(conf) is float and type(x0) is float and type(y0) is float
                and type(x1) is float and type(y1) is float
                and 0.0 <= x0 < x1 < math.inf and 0.0 <= y0 < y1 < math.inf
                and cls in CATEGORIES and 0.0 <= conf <= 1.0):
            return tuple.__new__(Detection, ((x0, y0, x1, y1), cls, conf))
    if not isinstance(raw, list) or len(raw) != 6:
        raise StreamFormatError(
            f"det entry must be [cls, conf, x0, y0, x1, y1], got {raw!r}", line=line_no
        )
    cls, conf, x0, y0, x1, y1 = raw
    corners = (x0, y0, x1, y1)  # one tuple is type-checked here and made a box by Detection
    if conf is None:
        conf = 1.0  # hand-annotated ground truth carries no confidence
    if type(conf) not in _JSON_NUMBER or not _JSON_NUMBER.issuperset(map(type, corners)):
        raise StreamFormatError(
            f"det conf and box corners must be JSON numbers (conf may be null), got {raw!r}",
            line=line_no)
    return Detection(corners, cls, float(conf))


def _parse_keypoints(raw, text, line_no, checked):
    if not isinstance(raw, dict) or "points" not in raw or "box" not in raw:
        raise StreamFormatError(
            f"kps entry must be an object with 'points' and 'box', got {raw!r}", line=line_no
        )
    if not (checked or keypoint_rows(raw["points"])):
        raise StreamFormatError(
            f"kps points must list exactly {N_KEYPOINTS} [x, y, v] triples of finite "
            "numbers", line=line_no)
    corners = raw["box"]
    if not (isinstance(corners, list) and len(corners) == 4
            and _JSON_NUMBER.issuperset(map(type, corners))):
        raise StreamFormatError(f"kps box must be 4 JSON numbers, got {corners!r}", line=line_no)
    return HandKeypoints.from_json(raw["points"], box(*corners), text)


# a JSON number that is finite as a float and that keypoint_rows accepts; possessive, as
# no part given back could let the ", " or "]" after a number match, so none is lost
_NUMBER = r"-?+(?:0|[1-9][0-9]{0,15}+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]{1,2}+)?+"
_TRIPLE = rf"\[{_NUMBER}, {_NUMBER}, {_NUMBER}\]"
# a `points` key; as group 1 its value when that is N_KEYPOINTS such triples spaced
# as json.dumps writes them, else as group 2 the text up to the last ']' before the
# next '"' or '}', which is the whole value when that is any N_KEYPOINTS triples
_POINTS = re.compile(rf'"points"[ \t\n\r]*:[ \t\n\r]*(?:(\[{_TRIPLE}(?:, {_TRIPLE})'
                     rf'{{{N_KEYPOINTS - 1}}}\])|([^"}}]*\]))?')


def _frame_from_line(line: str, line_no: int) -> FrameRecord:
    """The FrameRecord of a frame line. In a line without backslashes each _POINTS
    match is a `points` key, as every quote delimits a string. When every value is
    in the strict form (group 1), the line is decoded with value i replaced by i and
    the values kept as text, provided kps entry i then has `points` i, so that the
    matches are exactly the entries' keys; any other line is decoded in full."""
    keys = None if "\\" in line else list(_POINTS.finditer(line))
    if keys is not None and all(key[1] is not None for key in keys):
        pieces, pos = [], 0
        for i, key in enumerate(keys):
            pieces += (line[pos:key.start(1)], str(i))
            pos = key.end(1)
        try:
            obj = json.loads("".join(pieces) + line[pos:])
        except (ValueError, RecursionError):  # decoded in full below, which reports it
            obj = None
        raw_kps = obj.get("kps", []) if type(obj) is dict else None
        if (type(raw_kps) is list and len(raw_kps) == len(keys)
                and all(type(raw) is dict and type(raw.get("points")) is int
                        and raw["points"] == i and "box" in raw
                        for i, raw in enumerate(raw_kps))):
            return _parse_frame(obj, [key[1] for key in keys], line_no, True)
    texts = None if keys is None else [key[1] or key[2] for key in keys]
    return _parse_frame(_decode(line, line_no), texts, line_no, False)


def _parse_frame(obj, texts, line_no, checked):
    try:
        frame_index, timestamp_s = obj["frame"], obj["t"]
    except (KeyError, TypeError) as exc:
        raise StreamFormatError(f"frame record needs 'frame' and 't': {exc}",
                                line=line_no) from exc
    if (type(frame_index) is not int or type(timestamp_s) not in _JSON_NUMBER
            or not math.isfinite(timestamp_s)):  # past the float range: OverflowError
        raise StreamFormatError("frame record needs a JSON integer 'frame' and a finite "
                                f"number 't', got {frame_index!r} and {timestamp_s!r}",
                                line=line_no)
    dets = tuple(_parse_detection(d, line_no) for d in obj.get("dets", []))
    raw_kps = obj.get("kps", [])
    n = len(raw_kps) if raw_kps else 0  # a text per entry only with one key per entry
    texts = texts if texts is not None and len(texts) == n else [None] * n
    kps = tuple(_parse_keypoints(k, text, line_no, checked) for k, text in zip(raw_kps, texts))
    return FrameRecord(frame_index, float(timestamp_s), dets, kps, obj.get("action"))


def _parse_header(obj, line_no) -> dict:
    if not isinstance(obj, dict) or "video_id" not in obj or "fps" not in obj:
        raise StreamFormatError("first line must be a header with video_id and fps",
                                line=line_no)
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise StreamFormatError(f"header metadata must be an object, got {metadata!r}",
                                line=line_no)
    duration = metadata.get("duration_s")
    if duration is not None and not finite_numbers([duration], 1):
        raise StreamFormatError(f"header metadata.duration_s must be a finite number, got "
                                f"{duration!r}", line=line_no)
    fps, width, height = obj["fps"], obj.get("width", 0), obj.get("height", 0)
    if not (finite_numbers([fps, width, height], 3)
            and type(width) is int and type(height) is int):
        raise StreamFormatError("header fps must be a finite JSON number, width and height "
                                "JSON integers within the float range", line=line_no)
    return {"video_id": str(obj["video_id"]), "fps": float(fps), "width": width,
            "height": height, "metadata": metadata}


def _utf8(data: bytes, first_line: int = 1) -> str:
    """`data` decoded as UTF-8; a byte that is not is a StreamFormatError
    naming its line, counted from `first_line`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"not UTF-8 text ({exc.reason})",
                                line=first_line + data.count(b"\n", 0, exc.start)) from exc


def _text_lines(path):
    """(line number, line) for each non-blank line of a file, stripped. Each
    line (ending at \\n, \\r\\n included) is decoded on its own, so a byte that is
    not UTF-8 is reported at its line; a 64 KiB buffer reads long lines in fewer calls."""
    with Path(path).open("rb", buffering=1 << 16) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = _utf8(raw, line_no).strip()
            if line:
                yield line_no, line


def _decode(text: str, line_no: int | None = None):
    """json.loads of one line, or of a whole file when `line_no` is None."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit
        reason = getattr(exc, "msg", None) or str(exc).split(":")[0]
        raise StreamFormatError(f"invalid JSON: {reason}",
                                line=line_no or getattr(exc, "lineno", None)) from exc


def read_text(path) -> str:
    """A whole UTF-8 file's text; a byte that is not UTF-8 is a
    StreamFormatError naming its line."""
    return _utf8(Path(path).read_bytes())


def read_json(path):
    """The JSON value of a whole UTF-8 file, checked as `_decode` checks it."""
    return _decode(read_text(path))


def iter_json_lines(path):
    """(line number, object) for each non-blank line of a line-delimited JSON file."""
    return ((line_no, _decode(line, line_no)) for line_no, line in _text_lines(path))


def open_stream(path, late=None):
    """The header of a stream file, a VideoStream, and an iterator over its
    FrameRecords in file order.

    Each line is parsed and checked when the iterator reaches it, so the first
    bad line in file order is the one reported, by an error naming the line and
    ending `in <path>`: StreamFormatError for a malformed line, InvariantError
    for a frame breaking an invariant (a timestamp off frame_index/fps
    included). After the last line, the header's duration_s is checked against
    the span up to the largest frame_index, at that frame's line. A frame whose
    index is not above all before it raises FrameOrderError; given a list
    `late`, the iterator appends (frame, line number) to it instead.
    """
    frames = _checked_lines(Path(path), late)
    return next(frames), frames


def _checked_lines(path, late):
    """The header of the stream file at `path`, then each of its frames, checked."""
    lines = _text_lines(path)
    try:
        line_no, line = next(lines, (1, None))
        if line is None:
            raise StreamFormatError("empty stream file")
        header = VideoStream(**_parse_header(_decode(line, line_no), line_no))
        yield header
        last_line, last_index = None, -1
        for line_no, line in lines:
            fr = _frame_from_line(line, line_no)
            _check_timestamp(fr, header.fps)
            if fr.frame_index > last_index:
                last_line, last_index = line_no, fr.frame_index
            elif late is None:
                raise FrameOrderError(f"frame_index {fr.frame_index} is not above the frame "
                                      "before it", line=line_no)
            else:
                late.append((fr, line_no))
            yield fr
        if last_line is None:
            raise StreamFormatError("stream has a header but no frames")
        line_no = last_line
        _check_duration(header.metadata, last_index, header.fps)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StreamFormatError(f"malformed frame record: {exc} in {path}", line=line_no) from exc
    except (InvariantError, StreamFormatError) as exc:  # the same error, naming line and file
        line = f"line {line_no}: " if isinstance(exc, InvariantError) else ""
        exc.args = (f"{line}{exc} in {path}",)
        raise


def parse_stream(path):
    """The (header, frames) pair of a stream file, its frames in a list.

    Lines are checked as `open_stream` checks them. Frames arriving out of
    order are then re-sorted with a DataWarning; a duplicate frame index
    raises InvariantError naming the line of its second occurrence.
    """
    late = []  # a repeat is never above every index before it
    header, frames = open_stream(path, late)
    frames = list(frames)
    if late:
        seen = set()
        for fr in frames:
            if fr.frame_index in seen:
                line_no = next(n for f, n in late if f is fr)
                raise InvariantError(f"line {line_no}: duplicate frame_index "
                                     f"{fr.frame_index} in {path}")
            seen.add(fr.frame_index)
        warnings.warn(f"stream {path} had out-of-order frames; re-sorted by frame_index",
                      DataWarning, stacklevel=2)
        frames.sort(key=lambda fr: fr.frame_index)
    return header, frames


def _frame_line(fr: FrameRecord) -> str:
    return json.dumps({"frame": fr.frame_index, "t": fr.timestamp_s, "action": fr.action,
                       "dets": [[d.category, d.confidence, *d.box] for d in fr.detections],
                       "kps": [{"points": k.points.tolist(), "box": list(k.owner_box)}
                               for k in fr.keypoints]}, sort_keys=True) + "\n"


def header_line(header: VideoStream) -> str:
    """The header line that stream files and tracks files start with."""
    return json.dumps({"video_id": header.video_id, "fps": header.fps,
                       "width": header.width, "height": header.height,
                       "metadata": dict(header.metadata)}, sort_keys=True)


def write_stream(stream, path) -> None:
    """Write a (header, frames) pair as a stream file, each frame's line as it comes."""
    header, frames = stream
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header_line(header) + "\n")
        fh.writelines(map(_frame_line, frames))
