"""Deterministic synthetic scene streams with ground truth.

The generator is the project's measurement oracle: every stream ships with a
sidecar recording true identities, true actions, and true kinematic totals,
all computed with the generator's own naive loops at generation time. All
randomness flows from one explicit seed; per-video substreams derive from
(seed, index) so videos can be produced independently and in parallel.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import streams
from .errors import InvariantError, check_finite
from .kinematics import TieClip, Trajectory
from .signatures import MAX_STEPS as MAX_FRAMES, Timeline
from .streams import (
    ACTIONS,
    Detection,
    FrameRecord,
    HAND,
    HandKeypoints,
    VideoStream,
    box,
)

# unit hand-keypoint template: palm at origin, thumb and index chains spread
# apart, 12 filler points for the remaining fingers; scaled by hand size
_HAND_TEMPLATE = np.array(
    [(0.0, 0.0)]
    + [(-0.12 * k, -0.10 * k) for k in range(1, 5)]  # thumb chain
    + [(0.06 * k, -0.11 * k) for k in range(1, 5)]  # index chain
    + [(0.10 + 0.02 * k, -0.10 * k1) for k in range(3) for k1 in range(1, 5)]
)

FRAME_WIDTH, FRAME_HEIGHT = 1280, 720  # pixels of every synthetic video
HAND_BOX_WIDTH, HAND_BOX_HEIGHT = 110.0, 90.0  # pixels of every synthetic hand box
HAND_SPEED_PX = 4.0  # per frame, along each hand's waypoint path


@dataclass(frozen=True)
class HandMotionSpec:
    """Waypoint-path motion model for one synthetic hand: waypoints drawn
    uniformly from `region`, traversed at HAND_SPEED_PX per frame."""

    region: tuple = (200.0, 200.0, 1000.0, 600.0)  # waypoint sampling box


@dataclass(frozen=True)
class CorruptionSpec:
    """Detector-error model applied on top of ground truth."""

    dropout_rate: float = 0.0
    jitter_sigma: float = 0.0
    confidence_mean: float = 1.0
    confidence_sigma: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise InvariantError("dropout_rate must be in [0,1)")
        if not (0.0 <= self.confidence_mean <= 1.0):
            raise InvariantError(f"confidence_mean must be in [0,1], got {self.confidence_mean!r}")
        check_finite("jitter_sigma", self.jitter_sigma, strict=False)
        check_finite("confidence_sigma", self.confidence_sigma, strict=False)


# The procedure plan of every synthetic video: (action, fraction of the
# duration, (tool class, mean count per frame) pairs) per phase, in order.
PHASES = (
    ("cutting", 0.3, (("electrocautery", 0.8),)),
    ("suturing", 0.4, (("needle_driver", 0.9), ("forceps", 0.5))),
    ("tying", 0.3, (("needle_driver", 0.7),)),
)


def _frame_count(name: str, duration_s: float, fps: float, least: int) -> int:
    """max(round(duration_s * fps), least), the frames a generator makes; InvariantError
    unless both are finite and > 0 and round() gives at most MAX_FRAMES."""
    check_finite(name, duration_s)
    check_finite("fps", fps)
    if duration_s * fps > MAX_FRAMES + 0.5:  # round() of it above the cap
        raise InvariantError(f"{name} * fps must round to at most {MAX_FRAMES} frames, "
                             f"got {duration_s * fps!r}")
    return max(int(round(duration_s * fps)), least)


@dataclass(frozen=True)
class SynthSpec:
    """Full description of a synthetic cohort; the seed fixes every byte."""

    seed: int = 0
    n_videos: int = 1
    fps: float = 30.0
    duration_s: float = 30.0
    hands: tuple = (HandMotionSpec(region=(150.0, 200.0, 550.0, 550.0)),
                    HandMotionSpec(region=(700.0, 200.0, 1100.0, 550.0)))
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)
    with_keypoints: bool = False

    def __post_init__(self):
        _frame_count("duration_s", self.duration_s, self.fps, 1)
        if self.seed < 0:
            raise InvariantError(f"seed must be >= 0, got {self.seed}")
        if self.n_videos < 1:
            raise InvariantError("n_videos must be >= 1")
        if not self.hands:
            raise InvariantError("at least one hand is required")


@dataclass
class GroundTruth:
    """Generator-recorded truth for one stream."""

    video_id: str
    hand_ids: list
    true_boxes: list  # per frame: {hand_id: box}
    actions: list  # per frame action label
    path_px: dict  # hand_id -> naive summed centroid path, pixels
    path_hand_lengths: dict  # hand_id -> path / mean hand size
    mean_hand_size: dict

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "hand_ids": list(self.hand_ids),
            "actions": list(self.actions),
            "true_boxes": [{str(h): list(b) for h, b in frame.items()}
                           for frame in self.true_boxes],
            "path_px": {str(k): v for k, v in self.path_px.items()},
            "path_hand_lengths": {str(k): v for k, v in self.path_hand_lengths.items()},
            "mean_hand_size": {str(k): v for k, v in self.mean_hand_size.items()},
        }


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _waypoint_positions(rng, motion: HandMotionSpec, n_frames: int) -> np.ndarray:
    """Constant-speed traversal of a waypoint polyline, vectorized."""
    x0, y0, x1, y1 = motion.region
    needed = HAND_SPEED_PX * max(n_frames - 1, 1) + 1.0
    pts = [rng.uniform((x0, y0), (x1, y1))]
    total = 0.0
    while total < needed:
        nxt = rng.uniform((x0, y0), (x1, y1))
        total += float(np.linalg.norm(nxt - pts[-1]))
        pts.append(nxt)
    poly = np.array(pts)
    seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    arc = np.arange(n_frames) * HAND_SPEED_PX
    xs = np.interp(arc, cum, poly[:, 0])  # clamps at the polyline end
    ys = np.interp(arc, cum, poly[:, 1])
    return np.maximum(np.column_stack([xs, ys]), 1.0)  # keeps box corners valid after clamping


def _phase_schedule(n_frames: int) -> list:
    """The PHASES entry owning each frame, by cumulative duration fractions.
    The fractions sum to exactly 1.0, so the last phase ends at n_frames."""
    bounds = np.floor(np.cumsum([fraction for _, fraction, _ in PHASES]) * n_frames).astype(int)
    schedule, start = [], 0
    for phase, stop in zip(PHASES, bounds):
        schedule.extend([phase] * (stop - start))
        start = stop
    return schedule


def _hand_keypoints(center, size) -> np.ndarray:
    pts = center + _HAND_TEMPLATE * size
    return np.column_stack([pts, np.ones(21)])


def generate_stream(spec: SynthSpec, index: int = 0):
    """((header, frames), truth): one synthetic video stream, its frames in a
    list, and its ground truth sidecar."""
    rng = _rng_for(spec.seed, index)
    n_frames = _frame_count("duration_s", spec.duration_s, spec.fps, 1)
    video_id = f"synth-{spec.seed}-{index:04d}"

    hand_ids = list(range(len(spec.hands)))
    positions = [_waypoint_positions(rng, motion, n_frames) for motion in spec.hands]
    size = (HAND_BOX_WIDTH + HAND_BOX_HEIGHT) / 2.0
    half_w, half_h = HAND_BOX_WIDTH / 2.0, HAND_BOX_HEIGHT / 2.0
    schedule = _phase_schedule(n_frames)
    actions = [action for action, _, _ in schedule]
    tool_rates = [rates for _, _, rates in schedule]

    frames = []
    true_boxes = []
    corruption = spec.corruption
    for k in range(n_frames):
        dets = []
        frame_truth = {}
        kps = []
        for h in hand_ids:
            cx, cy = positions[h][k].tolist()  # floats, as a parsed stream has
            true_box = box(max(cx - half_w, 0.0), max(cy - half_h, 0.0),
                           cx + half_w, cy + half_h)
            frame_truth[h] = out_box = true_box
            if corruption.dropout_rate > 0 and rng.random() < corruption.dropout_rate:
                continue
            if corruption.jitter_sigma > 0:
                dx, dy = rng.normal(0, corruption.jitter_sigma, size=2).tolist()
                x0, y0, x1, y1 = true_box
                out_box = box(max(x0 + dx, 0.0), max(y0 + dy, 0.0), x1 + dx, y1 + dy)
            conf = corruption.confidence_mean
            if corruption.confidence_sigma > 0:
                conf = float(np.clip(rng.normal(conf, corruption.confidence_sigma), 0.0, 1.0))
            dets.append(Detection(box=out_box, category=HAND, confidence=conf))
            if spec.with_keypoints:
                kps.append(HandKeypoints(
                    points=_hand_keypoints(positions[h][k], size),
                    owner_box=out_box))
        for tool, rate in tool_rates[k]:
            for _ in range(int(rng.poisson(rate))):
                tx = float(rng.uniform(0, FRAME_WIDTH - 80))
                ty = float(rng.uniform(0, FRAME_HEIGHT - 40))
                dets.append(Detection(box=(tx, ty, tx + 80, ty + 40),
                                      category=tool, confidence=corruption.confidence_mean))
        true_boxes.append(frame_truth)
        frames.append(FrameRecord(frame_index=k, timestamp_s=k / spec.fps,
                                  detections=tuple(dets), keypoints=tuple(kps),
                                  action=actions[k]))

    # naive oracle totals over the true (uncorrupted) trajectories
    path_px, path_hl, mean_size = {}, {}, {}
    for h in hand_ids:
        total = 0.0
        for k in range(1, n_frames):
            dx = positions[h][k][0] - positions[h][k - 1][0]
            dy = positions[h][k][1] - positions[h][k - 1][1]
            total += math.sqrt(dx * dx + dy * dy)
        path_px[h] = total
        mean_size[h] = size
        path_hl[h] = total / size

    header = VideoStream(video_id=video_id, fps=spec.fps, width=FRAME_WIDTH,
                         height=FRAME_HEIGHT,
                         metadata={"synthetic": True, "seed": spec.seed, "index": index})
    truth = GroundTruth(video_id=video_id, hand_ids=hand_ids, true_boxes=true_boxes,
                        actions=actions, path_px=path_px, path_hand_lengths=path_hl,
                        mean_hand_size=mean_size)
    return (header, frames), truth


def write_synth_files(stream, truth: GroundTruth, out_dir):
    """Write a (header, frames) stream as `<video_id>.jsonl` and its
    `<video_id>.truth.json` sidecar into `out_dir`; returns both paths."""
    out_dir, video_id = Path(out_dir), stream[0].video_id
    stream_path = out_dir / f"{video_id}.jsonl"
    truth_path = out_dir / f"{video_id}.truth.json"
    streams.write_stream(stream, stream_path)  # looked up on the module, so wrappers see it
    truth_path.write_text(json.dumps(truth.to_dict(), sort_keys=True) + "\n",
                          encoding="utf-8")
    return stream_path, truth_path


def synth_generate(spec: SynthSpec, out_dir) -> list:
    """Write stream files plus ground-truth sidecars; returns written paths."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return [write_synth_files(*generate_stream(spec, index), out_dir)
            for index in range(spec.n_videos)]


# ------------------------------------------------------------- skill cohort

# The tie cohort's design per experience group: travel in hand-lengths (two versus
# four separates experienced operators from trainees) and pose walk spread per frame.
TIE_GROUPS = (("experienced", 2.0, 0.004), ("trainee", 4.0, 0.016))
TIE_HAND_SIZE = 100.0  # pixels
TIE_OPERATOR_SIGMA = 0.05  # relative spread of travel between operators
TIE_CLIP_SIGMA = 0.03  # relative spread of travel between clips
_WALK_BOUNDS = (150.0, 1800.0)  # pixels; the tie-clip walk reflects at them


@dataclass(frozen=True)
class SkillCohortSpec:
    """Tie-clip cohort calibrated to the per-experience travel of TIE_GROUPS."""

    fps: ClassVar[float] = 30.0
    seed: int = 0
    clip_duration_s: float = 15.0
    operators_per_group: int = 7
    clips_per_operator: int = 8

    def __post_init__(self):
        _frame_count("clip_duration_s", self.clip_duration_s, self.fps, 2)
        if self.operators_per_group < 1 or self.clips_per_operator < 1:
            raise InvariantError("cohort sizes must be >= 1")


def _walk(start, steps, lo, hi, reflect):
    """Bounded walks, one per column: x + dx while that stays in [lo, hi], else
    x - dx (`reflect`) or the bound passed. A column is the running sum of
    [start, *steps] (`np.cumsum` adds in step order, as `x += dx` does) up to
    its first step out of [lo, hi]; only from there does it go step by step."""
    pos = np.cumsum(np.vstack([start, steps]), axis=0)
    outside = (pos[1:] < lo) | (pos[1:] > hi)
    for col in np.flatnonzero(outside.any(axis=0)).tolist():
        first = int(outside[:, col].argmax())  # steps[first] leaves [lo, hi]
        x, tail = float(pos[first, col]), []
        for dx in steps[first:, col].tolist():
            v = x + dx
            x = v if lo <= v <= hi else x - dx if reflect else hi if v > hi else lo
            tail.append(x)
        pos[first + 1:, col] = tail
    return pos


def _bounded_walk(rng, n_steps, step_len, start):
    """Random-direction walk with exact step lengths, reflected at _WALK_BOUNDS."""
    theta = np.cumsum([rng.uniform(0, 2 * np.pi), *rng.normal(0, 0.5, size=n_steps)])[1:].tolist()
    # libm's cos and sin: numpy's vectorized ones may differ in the last bit
    steps = np.array([list(map(math.cos, theta)), list(map(math.sin, theta))]).T * step_len
    return _walk(start, steps, *_WALK_BOUNDS, reflect=True)


def _pose_sequence(rng, n_frames, size, pose_rate):
    """Deforming keypoint chains: a clipped random walk of the nine skill
    points around the hand template, frames 0..n_frames-1."""
    # one draw yields the same numbers as one (9, 2) draw per frame
    noise = rng.normal(0, pose_rate * size, size=(n_frames - 1, 18))
    deforms = _walk(np.zeros(18), noise, -0.3 * size, 0.3 * size, reflect=False)
    points = _HAND_TEMPLATE[:9] * size + deforms.reshape(n_frames, 9, 2)
    return Trajectory(frames=np.arange(n_frames), points=points, sizes=np.full(n_frames, size))


def generate_tie_clips(spec: SkillCohortSpec):
    """A cohort of TieClips plus the generator's own per-clip design values.

    Returns (clips, truths) where truths[i] maps hand name to
    {"path_hand_lengths"} for clips[i]: the walk's designed travel. Pose
    change has no design value; tests check it against a naive oracle.
    """
    rng = np.random.default_rng([spec.seed, 977])
    n_frames = _frame_count("clip_duration_s", spec.clip_duration_s, spec.fps, 2)
    n_steps = n_frames - 1
    size = TIE_HAND_SIZE

    clips, truths = [], []
    for experience, target, pose_rate in TIE_GROUPS:
        for op_idx in range(spec.operators_per_group):
            operator_id = f"{experience[:3]}-{op_idx}"
            op_mult = float(np.clip(rng.normal(1.0, TIE_OPERATOR_SIGMA), 0.5, 1.5))
            for clip_idx in range(spec.clips_per_operator):
                clip_mult = float(np.clip(rng.normal(1.0, TIE_CLIP_SIGMA), 0.5, 1.5))
                hands, truth = {}, {}
                for hand, home in (("left", (400.0, 500.0)), ("right", (900.0, 500.0))):
                    hand_mult = float(np.clip(rng.normal(1.0, TIE_CLIP_SIGMA / 2), 0.8, 1.2))
                    length_hl = target * op_mult * clip_mult * hand_mult
                    step_len = length_hl * size / n_steps
                    hands[hand] = Trajectory(
                        frames=np.arange(n_frames),
                        points=_bounded_walk(rng, n_steps, step_len, home),
                        sizes=np.full(n_frames, size))
                    hands[f"{hand}_poses"] = _pose_sequence(rng, n_frames, size, pose_rate)
                    # the walk takes n_steps of exactly step_len
                    truth[hand] = {"path_hand_lengths": step_len * n_steps / size}
                clips.append(TieClip(
                    video_id=f"tie-{experience}-{op_idx}-{clip_idx}",
                    start=0, end=n_frames - 1, operator_id=operator_id,
                    experience=experience, knot_count=int(rng.integers(3, 8)), **hands))
                truths.append(truth)
    return clips, truths


# --------------------------------------------------------- procedure cohort

# Per procedure class: (name, 4 quartile rows of (cutting, tying, suturing)
# probabilities, 4 quartile rows of mean counts per TOOL_CLASSES).
PROCEDURE_CLASSES = (
    ("appendectomy",
     ((0.9, 0.05, 0.05), (0.2, 0.7, 0.1), (0.2, 0.2, 0.6), (0.1, 0.3, 0.6)),
     ((1.2, 0.1, 0.2), (0.2, 1.0, 0.3), (0.1, 0.8, 0.6), (0.1, 0.6, 0.7))),
    ("pilonidal",
     ((0.8, 0.1, 0.1), (0.7, 0.1, 0.2), (0.2, 0.1, 0.7), (0.1, 0.1, 0.8)),
     ((1.5, 0.1, 0.1), (1.0, 0.2, 0.2), (0.2, 1.2, 0.4), (0.1, 1.0, 0.3))),
    ("thyroidectomy",
     ((0.85, 0.1, 0.05), (0.4, 0.4, 0.2), (0.3, 0.5, 0.2), (0.3, 0.3, 0.4)),
     ((1.8, 0.2, 0.8), (0.8, 0.5, 1.0), (0.5, 0.5, 1.2), (0.3, 0.4, 1.0))),
)
PROCEDURE_STEPS = (40, 80)  # inclusive range of a sequence's step count
OPENING_FRACTION = 0.1  # of the steps, a deterministic cutting head


def generate_procedure_sequences(seed: int, n_per_class: int):
    """Background-free (Timeline, class-name) pairs, n_per_class per
    PROCEDURE_CLASSES entry.

    Each action is `ACTIONS[bisect_right(cdf, rng.random())]` over the
    quartile's CDF, built as `rng.choice(ACTIONS, p=...)` builds it (cumsum
    over its last entry), and each tool count one scalar `rng.poisson` call;
    both consume the generator exactly as those per-step array calls do.
    """
    out = []
    for c_idx, (name, action_probs, tool_rates) in enumerate(PROCEDURE_CLASSES):
        rng = np.random.default_rng([seed, 555, c_idx])
        cdfs = [(c / c[-1]).tolist() for c in map(np.cumsum, action_probs)]
        for v in range(n_per_class):
            n = int(rng.integers(PROCEDURE_STEPS[0], PROCEDURE_STEPS[1] + 1))
            head = max(1, int(round(OPENING_FRACTION * n)))
            labels = ["cutting"] * head
            counts = []
            for k in range(n):
                q = min(4 * k // n, 3)
                if k >= head:
                    labels.append(ACTIONS[bisect_right(cdfs[q], rng.random())])
                counts.append([rng.poisson(r) for r in tool_rates[q]])
            out.append((Timeline(video_id=f"{name}-{v:03d}", labels=labels, tools=counts),
                        name))
    return out
