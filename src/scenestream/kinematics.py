"""Normalized hand-motion and hand-pose skill metrics over instrument-tie clips.

Distances are reported in hand-lengths (pixels divided by the clip-mean hand
box size), velocities in 1/s after multiplying by the frame rate, and pose
change as the summed L1 distance between the eight keypoint chain vectors of
consecutive frames, divided by hand size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataWarning, InvariantError

EXPERIENCE_LEVELS = ("experienced", "trainee")

POSE_GAP_SPLIT_S = 1.0  # gaps longer than this split a pose sequence


def _set_arrays(obj, kind: str, **arrays) -> None:
    """Set read-only `arrays` on the frozen `obj` after checking that they
    hold one sample per frame, frames strictly increasing and sizes positive."""
    if len({len(arr) for arr in arrays.values()}) > 1:
        raise InvariantError(f"{kind} arrays must have equal length")
    if np.any(np.diff(arrays["frames"]) <= 0):
        raise InvariantError(f"{kind} frames must be strictly increasing")
    if not np.all(arrays["sizes"] > 0):
        raise InvariantError(f"{kind} hand sizes must be positive")
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One hand's (frame_index, centroid, hand_size) samples, frame-ordered."""

    frames: np.ndarray  # (n,) int
    centroids: np.ndarray  # (n, 2)
    sizes: np.ndarray  # (n,)

    def __post_init__(self):
        _set_arrays(self, "Trajectory", frames=np.array(self.frames, dtype=int),
                    centroids=np.array(self.centroids, dtype=float).reshape(-1, 2),
                    sizes=np.array(self.sizes, dtype=float))

    def __len__(self):
        return len(self.frames)

    def slice(self, start: int, end: int) -> "Trajectory":
        keep = (self.frames >= start) & (self.frames <= end)
        return Trajectory(frames=self.frames[keep], centroids=self.centroids[keep],
                          sizes=self.sizes[keep])


@dataclass(frozen=True, eq=False)
class Poses:
    """One hand's nine skill keypoints per frame, frame-ordered: palm, thumb
    joints 1-4, index joints 1-4, with the frame's hand size."""

    frames: np.ndarray  # (n,) int
    points: np.ndarray  # (n, 9, 2) pixels
    sizes: np.ndarray  # (n,)

    def __post_init__(self):
        points = np.array(self.points, dtype=float).reshape(-1, 9, 2)
        if not np.all(np.isfinite(points)):
            raise InvariantError("Poses points must be finite")
        _set_arrays(self, "Poses", frames=np.array(self.frames, dtype=int).reshape(-1),
                    points=points, sizes=np.array(self.sizes, dtype=float).reshape(-1))

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, key) -> "Poses":
        """The frames at an index, slice or mask."""
        return Poses(frames=self.frames[key], points=self.points[key], sizes=self.sizes[key])

    def slice(self, start: int, end: int) -> "Poses":
        return self[(self.frames >= start) & (self.frames <= end)]


@dataclass(frozen=True, eq=False)
class TieClip:
    """An annotated instrument-tie segment: the unit of skill analysis."""

    video_id: str
    start: int
    end: int
    operator_id: str
    experience: str
    knot_count: int
    left: Trajectory | None = None
    right: Trajectory | None = None
    left_poses: Poses | None = None
    right_poses: Poses | None = None

    def __post_init__(self):
        if not self.start < self.end:
            raise InvariantError(f"TieClip needs start < end, got [{self.start}, {self.end}]")
        if self.knot_count < 1:
            raise InvariantError(f"TieClip.knot_count must be >= 1, got {self.knot_count}")
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
    steps = np.linalg.norm(np.diff(traj.centroids, axis=0), axis=1)
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
    steps = np.linalg.norm(np.diff(traj.centroids, axis=0), axis=1)
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


def integrated_pose_distance(poses: Poses) -> float:
    """Sum of pose_change over consecutive frames of one contiguous sequence,
    added left to right so it equals summing the pose_change values in order;
    0.0 for one frame."""
    vectors = pose_vectors(poses.points)
    # a row of 16 sums in the same order as .sum() of one (8, 2) delta
    l1 = np.abs(np.diff(vectors, axis=0)).reshape(len(poses) - 1, 16).sum(axis=1)
    values = l1 / poses.sizes[:-1]
    return float(sum(values.tolist()))  # np.sum adds pairwise, off in the last bit


def split_pose_segments(poses: Poses, fps: float):
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
    pose_total = sum(map(integrated_pose_distance, segments), 0.0)
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
