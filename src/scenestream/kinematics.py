"""Normalized hand-motion and hand-pose skill metrics over instrument-tie clips.

Both descriptors read a hand's `Trajectory`: its box centroid per frame for
distance and velocity, its nine skill keypoints per frame for pose change.

Distances are reported in hand-lengths (pixels divided by the clip-mean hand
box size), velocities in 1/s after multiplying by the frame rate, and pose
change as the summed L1 distance between the eight keypoint chain vectors of
consecutive frames, divided by hand size.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DataWarning, InvariantError

EXPERIENCE_LEVELS = ("experienced", "trainee")

POSE_GAP_SPLIT_S = 1.0  # gaps longer than this split a pose sequence


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One hand's samples, frame-ordered: per frame its index, its points and
    its hand size. The points are the hand's box centroid, shape (n, 2), or its
    nine skill keypoints, shape (n, 9, 2): palm, thumb joints 1-4, index joints
    1-4. The constructor checks and keeps read-only copies of the arrays."""

    frames: np.ndarray  # (n,) int
    points: np.ndarray  # (n, 2) or (n, 9, 2) pixels
    sizes: np.ndarray  # (n,)

    def __post_init__(self):
        frames = np.array(self.frames, dtype=int).reshape(-1)
        points = np.array(self.points, dtype=float)
        sizes = np.array(self.sizes, dtype=float).reshape(-1)
        if points.shape[1:] not in ((2,), (9, 2)):
            raise InvariantError(
                f"Trajectory points must have shape (n, 2) or (n, 9, 2), got {points.shape}")
        if not len(frames) == len(points) == len(sizes):
            raise InvariantError("Trajectory arrays must have equal length")
        if np.any(np.diff(frames) <= 0):
            raise InvariantError("Trajectory frames must be strictly increasing")
        if not np.all(np.isfinite(points)):
            raise InvariantError("Trajectory points must be finite")
        if not np.all(sizes > 0):
            raise InvariantError("Trajectory hand sizes must be positive")
        for name, arr in (("frames", frames), ("points", points), ("sizes", sizes)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, key) -> "Trajectory":
        """The frames at an index, slice or mask; an index gives one frame."""
        if isinstance(key, (int, np.integer)):
            key = [key]
        return Trajectory(self.frames[key], self.points[key], self.sizes[key])

    def slice(self, start: int, end: int) -> "Trajectory":
        """The frames in [start, end]."""
        return self[(self.frames >= start) & (self.frames <= end)]


@dataclass(frozen=True, eq=False)
class TieClip:
    """An annotated instrument-tie segment: the unit of skill analysis. A hand
    present in the clip has a centroid Trajectory (`left`, `right`) and may have
    a skill-point Trajectory of the frames whose keypoints were all visible
    (`left_poses`, `right_poses`)."""

    video_id: str
    start: int
    end: int
    operator_id: str
    experience: str
    knot_count: int
    left: Trajectory | None = None
    right: Trajectory | None = None
    left_poses: Trajectory | None = None
    right_poses: Trajectory | None = None

    def __post_init__(self):
        if not self.start < self.end:
            raise InvariantError(f"TieClip needs start < end, got [{self.start}, {self.end}]")
        if not 1 <= self.knot_count <= sys.float_info.max:  # metrics divide by it as a float
            raise InvariantError(
                f"TieClip.knot_count must be in [1, float max], got {self.knot_count}")
        if self.experience not in EXPERIENCE_LEVELS:
            raise InvariantError(
                f"TieClip.experience must be one of {EXPERIENCE_LEVELS}, got {self.experience!r}")


# per-hand metric names, all values non-negative; the skill CSV's column order
SUMMARY_FIELDS = (
    "distance_hand_lengths", "distance_per_knot",
    "mean_velocity", "max_velocity", "mean_acceleration", "max_acceleration",
    "mean_jerk", "max_jerk", "integrated_pose_distance", "pose_distance_per_knot",
)


def clip_mean_hand_size(traj: Trajectory) -> float:
    """Mean per-frame hand box size over the clip, in pixels."""
    if len(traj) == 0:
        raise InvariantError("cannot average hand size of an empty trajectory")
    return float(np.mean(traj.sizes))


def path_distance(traj: Trajectory, mean_size: float) -> float:
    """Integrated centroid path length in hand-lengths; 0.0 for one sample."""
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    return float(steps.sum() / mean_size)


def velocity_series(traj: Trajectory, mean_size: float, fps: float,
                    per_frame_size: bool = False):
    """Per-step speed in 1/s plus finite-difference acceleration and jerk.

    Speed at step k is |centroid(k+1) - centroid(k)| / size * fps / gap(k),
    with gap(k) the frames between the two samples and size the clip mean,
    or the earlier frame's own hand size when per_frame_size is set. Each
    derivative divides by the time between the samples it differences: the
    mean of the two step gaps for acceleration (speeds sit mid-step), the
    gap between the two shared frames for jerk. Without gaps every divisor
    is 1 frame period. Each series is empty when there are too few samples.
    """
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    denom = traj.sizes[:-1] if per_frame_size else mean_size
    gaps = np.diff(traj.frames)
    velocity = steps / denom * fps / gaps
    acceleration = np.diff(velocity) * fps / ((gaps[:-1] + gaps[1:]) / 2)
    jerk = np.diff(acceleration) * fps / gaps[1:-1]
    return velocity, acceleration, jerk


def pose_vectors(points) -> np.ndarray:
    """(..., 9, 2) skill points -> (..., 8, 2) chain vectors, each from the
    joint before it: palm->thumb1..4, then palm->index1..4."""
    points = np.asarray(points, dtype=float)
    return points[..., 1:, :] - points[..., [0, 1, 2, 3, 0, 5, 6, 7], :]


def pose_change(points_t, points_t1, size_t: float) -> float:
    """Summed L1 distance between corresponding chain vectors of two frames'
    (9, 2) skill points, divided by the earlier frame's hand size."""
    delta = pose_vectors(points_t1) - pose_vectors(points_t)
    return float(np.abs(delta).sum() / size_t)


def integrated_pose_distance(poses: Trajectory) -> float:
    """Sum of pose_change over consecutive frames of one contiguous sequence,
    added left to right so it equals summing the pose_change values in order;
    0.0 for one frame."""
    vectors = pose_vectors(poses.points)
    # a row of 16 sums in the same order as .sum() of one (8, 2) delta
    l1 = np.abs(np.diff(vectors, axis=0)).reshape(len(poses) - 1, 16).sum(axis=1)
    values = l1 / poses.sizes[:-1]
    return reduce(add, values.tolist(), 0.0)  # np.sum adds pairwise; sum() compensates on 3.12+


def split_pose_segments(poses: Trajectory, fps: float):
    """Split a pose sequence wherever consecutive frames are further apart
    than POSE_GAP_SPLIT_S; frames with missing keypoints were already dropped."""
    cuts = (np.flatnonzero(np.diff(poses.frames) > POSE_GAP_SPLIT_S * fps) + 1).tolist()
    return [poses[a:b] for a, b in zip([0, *cuts], [*cuts, len(poses)]) if a < b]


def _summarize_hand(traj, poses, knot_count, fps, per_frame_size):
    if traj is None or len(traj) == 0:
        return None
    mean_size = clip_mean_hand_size(traj)
    dist = path_distance(traj, mean_size)
    vel, acc, jerk = velocity_series(traj, mean_size, fps, per_frame_size)
    segments = [] if poses is None else split_pose_segments(poses, fps)
    pose_total = reduce(add, map(integrated_pose_distance, segments), 0.0)
    mean_max = [x for s in (vel, acc, jerk) for x in
                ((float(np.abs(s).mean()), float(np.abs(s).max())) if s.size else (0.0, 0.0))]
    return dict(zip(SUMMARY_FIELDS, (dist, dist / knot_count, *mean_max,
                                      pose_total, pose_total / knot_count)))


def summarize_clip(clip: TieClip, fps: float, per_frame_size: bool = False) -> dict:
    """The clip's video_id, operator_id, experience and knot_count, plus
    "left" and "right": each hand's SUMMARY_FIELDS metrics, or None for a
    hand absent from the clip rather than zeros."""
    return {
        "video_id": clip.video_id, "operator_id": clip.operator_id,
        "experience": clip.experience, "knot_count": clip.knot_count,
        "left": _summarize_hand(clip.left, clip.left_poses, clip.knot_count, fps, per_frame_size),
        "right": _summarize_hand(clip.right, clip.right_poses, clip.knot_count, fps,
                                 per_frame_size),
    }


_METRIC_FIELDS = {
    "distance": "distance_hand_lengths",
    "distance_per_knot": "distance_per_knot",
    "pose": "integrated_pose_distance",
    "pose_per_knot": "pose_distance_per_knot",
}
SKILL_METRICS = tuple(_METRIC_FIELDS)  # the names `skill --metric` and `run` accept


def metric_pair(summary: dict, metric: str = "distance"):
    """(left, right) values of the chosen metric, or None when a hand is missing."""
    field_name = _METRIC_FIELDS[metric]
    if summary["left"] is None or summary["right"] is None:
        return None
    return (summary["left"][field_name], summary["right"][field_name])


def group_centroids(summaries, metric: str = "distance"):
    """Per-experience mean of (left, right) metric pairs.

    Clips missing either hand are skipped with a warning; a group with no
    usable clips gets no centroid.
    """
    groups = {}
    for summary in summaries:
        pair = metric_pair(summary, metric)
        if pair is None:
            warnings.warn(
                f"clip {summary['video_id']}/{summary['operator_id']} missing a hand; "
                "skipped in centroid", DataWarning, stacklevel=2)
            continue
        groups.setdefault(summary["experience"], []).append(pair)
    return {exp: (float(np.mean([p[0] for p in pairs])), float(np.mean([p[1] for p in pairs])))
            for exp, pairs in groups.items() if pairs}


def leave_one_out(summaries, metric: str = "distance"):
    """Centroids recomputed excluding one operator at a time.

    Returns {operator_id: {experience: centroid}} with exactly one entry per
    operator present in the input; a group emptied by the exclusion is
    reported absent with a warning.
    """
    summaries = list(summaries)
    operators = sorted({s["operator_id"] for s in summaries})
    results = {}
    for op in operators:
        kept = [s for s in summaries if s["operator_id"] != op]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            cents = group_centroids(kept, metric)
        for exp in sorted({s["experience"] for s in summaries}):
            if exp not in cents:
                warnings.warn(f"holding out {op} empties group {exp!r}",
                              DataWarning, stacklevel=2)
        results[op] = cents
    return results
