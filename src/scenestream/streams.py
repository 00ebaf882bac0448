"""Scene-stream data model: frame records, detections, keypoints, and box geometry.

A stream is one video's worth of per-frame detector output, stored as
line-delimited JSON (one header line, then one frame object per line).
See docs/format.md for the exact schema and a golden example.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DataWarning, InvariantError, StreamFormatError

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


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, corners (x_min, y_min) and (x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvariantError(f"BBox.{name} must be finite, got {v!r}")
            if v < 0:
                raise InvariantError(f"BBox.{name} must be >= 0, got {v!r}")
        if not self.x_min < self.x_max:
            raise InvariantError(
                f"BBox invariant x_min < x_max violated: {self.x_min} >= {self.x_max}"
            )
        if not self.y_min < self.y_max:
            raise InvariantError(
                f"BBox invariant y_min < y_max violated: {self.y_min} >= {self.y_max}"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def hand_size(b: BBox) -> float:
    """Characteristic hand length: (height + width) / 2 in pixels."""
    return (b.height + b.width) / 2.0


def centroid(b: BBox) -> tuple[float, float]:
    """Box midpoint (x, y) in pixels."""
    return ((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)


@dataclass(frozen=True)
class Detection:
    box: BBox
    category: str
    confidence: float = 1.0

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise InvariantError(
                f"Detection.category must be one of {CATEGORIES}, got {self.category!r}"
            )
        if not (0.0 <= self.confidence <= 1.0):
            raise InvariantError(
                f"Detection.confidence must be in [0,1], got {self.confidence!r}"
            )


@dataclass(frozen=True, eq=False)
class HandKeypoints:
    """21 hand keypoints as an immutable (21, 3) array of (x, y, visible) rows."""

    points: np.ndarray
    owner_box: BBox

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (N_KEYPOINTS, 3):
            raise InvariantError(
                f"HandKeypoints.points must have shape ({N_KEYPOINTS}, 3), got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvariantError("HandKeypoints.points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    @property
    def visible(self) -> np.ndarray:
        return self.points[:, 2] > 0.5

    def skill_points_visible(self) -> bool:
        """True when all nine skill keypoints (palm, thumb, index chains) are visible."""
        return bool(np.all(self.points[list(SKILL_KEYPOINT_INDICES), 2] > 0.5))


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """All detections, keypoints, and the action label for one video frame."""

    frame_index: int
    timestamp_s: float
    detections: tuple[Detection, ...] = ()
    keypoints: tuple[HandKeypoints, ...] = ()
    action: str | None = None

    def __post_init__(self):
        if self.frame_index < 0:
            raise InvariantError(f"FrameRecord.frame_index must be >= 0, got {self.frame_index}")
        if self.action is not None and self.action not in ACTION_LABELS:
            raise InvariantError(
                f"FrameRecord.action must be one of {ACTION_LABELS} or None, got {self.action!r}"
            )
        object.__setattr__(self, "detections", tuple(self.detections))
        object.__setattr__(self, "keypoints", tuple(self.keypoints))


@dataclass(frozen=True, eq=False)
class VideoStream:
    """One video's ordered frame records plus header metadata."""

    video_id: str
    fps: float
    width: int
    height: int
    frames: tuple[FrameRecord, ...] = ()
    metadata: object = field(default_factory=dict)

    def __post_init__(self):
        if not (self.fps > 0):
            raise InvariantError(f"VideoStream.fps must be > 0, got {self.fps!r}")
        frames = tuple(self.frames)
        object.__setattr__(self, "frames", frames)
        last = -1
        for fr in frames:
            if fr.frame_index == last:
                raise InvariantError(f"duplicate frame_index {fr.frame_index}")
            if fr.frame_index < last:
                raise InvariantError(
                    f"frame_index must be strictly increasing, got {fr.frame_index} after {last}"
                )
            expected = fr.frame_index / self.fps
            if abs(fr.timestamp_s - expected) > TIMESTAMP_TOL_S:
                raise InvariantError(
                    f"FrameRecord.timestamp_s inconsistent with frame_index/fps at frame "
                    f"{fr.frame_index}: {fr.timestamp_s} vs {expected}"
                )
            last = fr.frame_index
        meta = dict(self.metadata) if self.metadata else {}
        dur = meta.get("duration_s")
        if dur is not None and frames:
            span = (frames[-1].frame_index + 1) / self.fps
            if abs(dur - span) > 1.0 / self.fps:
                raise InvariantError(
                    f"metadata duration_s {dur} inconsistent with frame span {span:.6f}"
                )
        object.__setattr__(self, "metadata", MappingProxyType(meta))

    @property
    def duration_s(self) -> float:
        if "duration_s" in self.metadata:
            return float(self.metadata["duration_s"])
        if not self.frames:
            return 0.0
        return (self.frames[-1].frame_index + 1) / self.fps


def _parse_detection(raw, line_no):
    if not isinstance(raw, (list, tuple)) or len(raw) != 6:
        raise StreamFormatError(
            f"det entry must be [cls, conf, x0, y0, x1, y1], got {raw!r}", line=line_no
        )
    cls, conf = raw[0], raw[1]
    if conf is None:
        conf = 1.0  # hand-annotated ground truth carries no confidence
    box = BBox(*(float(v) for v in raw[2:6]))
    return Detection(box=box, category=cls, confidence=float(conf))


def _parse_keypoints(raw, line_no):
    if not isinstance(raw, dict) or "points" not in raw or "box" not in raw:
        raise StreamFormatError(
            f"kps entry must be an object with 'points' and 'box', got {raw!r}", line=line_no
        )
    pts = raw["points"]
    if not isinstance(pts, list) or len(pts) != N_KEYPOINTS:
        raise StreamFormatError(
            f"kps points must list exactly {N_KEYPOINTS} [x, y, v] triples", line=line_no
        )
    box = BBox(*(float(v) for v in raw["box"]))
    return HandKeypoints(points=np.asarray(pts, dtype=float), owner_box=box)


def _parse_frame(obj, line_no):
    try:
        frame_index = int(obj["frame"])
        timestamp_s = float(obj["t"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"frame record needs integer 'frame' and float 't': {exc}",
                                line=line_no) from exc
    dets = tuple(_parse_detection(d, line_no) for d in obj.get("dets", []))
    kps = tuple(_parse_keypoints(k, line_no) for k in obj.get("kps", []))
    action = obj.get("action")
    return FrameRecord(frame_index=frame_index, timestamp_s=timestamp_s,
                       detections=dets, keypoints=kps, action=action)


def _parse_header(obj, line_no) -> dict:
    if not isinstance(obj, dict) or "video_id" not in obj or "fps" not in obj:
        raise StreamFormatError("first line must be a header with video_id and fps",
                                line=line_no)
    metadata = obj.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise StreamFormatError(f"header metadata must be an object, got {metadata!r}",
                                line=line_no)
    duration = metadata.get("duration_s")
    if duration is not None and not isinstance(duration, (int, float)):
        raise StreamFormatError(f"header metadata.duration_s must be a number, got "
                                f"{duration!r}", line=line_no)
    try:
        return {"video_id": str(obj["video_id"]), "fps": float(obj["fps"]),
                "width": int(obj.get("width", 0)), "height": int(obj.get("height", 0)),
                "metadata": metadata}
    except (TypeError, ValueError) as exc:
        raise StreamFormatError(f"header fps, width and height must be numbers: {exc}",
                                line=line_no) from exc


def iter_json_lines(path):
    """(line number, object) for each non-blank line of a line-delimited JSON file."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
            yield line_no, obj


def parse_stream(path) -> VideoStream:
    """Parse a line-delimited stream file into a validated VideoStream.

    Frames arriving out of order are re-sorted with a DataWarning; duplicate
    frame indices and invariant violations raise InvariantError, malformed
    lines (bad JSON, non-numeric values) raise StreamFormatError with the
    line number.
    """
    path = Path(path)
    header = None
    frames = []
    for line_no, obj in iter_json_lines(path):
        if header is None:
            header = _parse_header(obj, line_no)
            continue
        try:
            frames.append(_parse_frame(obj, line_no))
        except InvariantError as exc:
            raise InvariantError(f"line {line_no}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise StreamFormatError(f"malformed frame record: {exc}", line=line_no) from exc
    if header is None:
        raise StreamFormatError(f"empty stream file: {path}")
    if not frames:
        raise StreamFormatError(f"stream {path} has a header but no frames")

    indices = [fr.frame_index for fr in frames]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        seen = set()
        for idx in indices:
            if idx in seen:
                raise InvariantError(f"duplicate frame_index {idx} in {path}")
            seen.add(idx)
        warnings.warn(
            f"stream {path} had out-of-order frames; re-sorted by frame_index",
            DataWarning, stacklevel=2,
        )
        frames.sort(key=lambda fr: fr.frame_index)

    return VideoStream(frames=tuple(frames), **header)


def _frame_to_obj(fr: FrameRecord) -> dict:
    obj = {"frame": fr.frame_index, "t": fr.timestamp_s}
    obj["dets"] = [[d.category, d.confidence, *d.box.as_list()] for d in fr.detections]
    obj["kps"] = [{"points": k.points.tolist(), "box": k.owner_box.as_list()}
                  for k in fr.keypoints]
    obj["action"] = fr.action
    return obj


def header_line(stream: VideoStream) -> str:
    """The header line that stream files and tracks files start with."""
    return json.dumps({"video_id": stream.video_id, "fps": stream.fps,
                       "width": stream.width, "height": stream.height,
                       "metadata": dict(stream.metadata)}, sort_keys=True)


def stream_to_lines(stream: VideoStream) -> list[str]:
    """Serialize a stream to its line-delimited form (header first)."""
    lines = [header_line(stream)]
    lines.extend(json.dumps(_frame_to_obj(fr), sort_keys=True) for fr in stream.frames)
    return lines


def write_stream(stream: VideoStream, path) -> None:
    Path(path).write_text("\n".join(stream_to_lines(stream)) + "\n", encoding="utf-8")
