"""SORT-style tracking of hand detections.

Constant-velocity Kalman filters over (center, area, aspect) box states,
IoU-cost optimal assignment per frame, and a birth/death lifecycle. Only
hand-category detections are tracked; tools are reported per frame elsewhere.

SORT's 7-state filter (u, v, s, r, du, dv, ds) splits exactly into four
independent filters, one per measured axis: F couples each of u, v, s only
to its own velocity, H reads each axis directly, and the process, measurement
and initial covariances are diagonal. Its covariance therefore stays
block-diagonal, a symmetric 2x2 (position, velocity) block per axis whose
off-block entries start at 0 and stay exactly 0; the aspect r is the same
block with its velocity and velocity variance pinned at 0. The filters of N
tracks are one (5, N, 4) array whose planes are (N, 4) arrays over the axes
(u, v, s, r): position, velocity, and each block's p00, p01 and p11. Each
frame runs one elementwise `predict` over every track, one IoU matrix, one
assignment and one closed-form Joseph-form `update` over the matched tracks;
`new_track` gives a birth's initial filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvariantError
# `iou` is imported so the traced benchmark can count calls to it here
from .streams import BBox, FrameRecord, HAND, iou  # noqa: F401

# (position, velocity) variances of a newborn track per axis (u, v, s, r)
_INITIAL_VAR = np.array([[10.0, 10.0, 10.0, 10.0], [1e4, 1e4, 1e4, 0.0]])
_AREA_EPS = 1e-6


@dataclass(frozen=True)
class TrackerConfig:
    iou_threshold: float = 0.3
    max_age: int = 30  # frames a track survives unmatched; 1 s at 30 fps
    min_hits: int = 3
    process_noise: float = 1.0
    measurement_noise: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.iou_threshold < 1.0):
            raise InvariantError(f"iou_threshold must be in (0,1), got {self.iou_threshold}")
        if self.max_age <= 0 or self.min_hits <= 0:
            raise InvariantError("max_age and min_hits must be positive")
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise InvariantError("noise scales must be positive")

    def process_var(self) -> np.ndarray:
        """(2, 4) diagonal process noise: position and velocity variance per axis."""
        return np.array([[1.0, 1.0, 1.0, 1.0], [0.01, 0.01, 1e-4, 0.0]]) * self.process_noise

    def measurement_var(self) -> np.ndarray:
        """(4,) diagonal measurement noise of (u, v, s, r)."""
        return np.array([1.0, 1.0, 10.0, 10.0]) * self.measurement_noise


# ------------------------------------------------------------ box geometry

def box_corners(boxes) -> np.ndarray:
    """(N,4) array of (x_min, y_min, x_max, y_max) rows from BBoxes; arrays pass through."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.array([b.as_list() for b in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of corner array `a` against every row of `b`.

    Same arithmetic as `streams.iou`, so each entry equals it bit for bit.
    Pairs that do not overlap, including boxes whose corners cross after
    clamping (a prediction that left the frame), score 0.
    """
    overlap = (np.minimum(a[:, None, 2:], b[None, :, 2:])
               - np.maximum(a[:, None, :2], b[None, :, :2]))
    ix, iy = overlap[..., 0], overlap[..., 1]
    inter = ix * iy
    size_a, size_b = a[:, 2:] - a[:, :2], b[:, 2:] - b[:, :2]
    union = (size_a[:, 0] * size_a[:, 1])[:, None] + size_b[:, 0] * size_b[:, 1] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=(ix > 0) & (iy > 0))


def _measurements(corners: np.ndarray) -> np.ndarray:
    """(N,4) measurements (u, v, s, r) of corner rows."""
    z = np.empty(corners.shape)
    z[:, :2] = (corners[:, :2] + corners[:, 2:]) / 2.0
    size = corners[:, 2:] - corners[:, :2]
    z[:, 2] = size[:, 0] * size[:, 1]
    z[:, 3] = size[:, 0] / size[:, 1]
    return z


def _state_corners(positions: np.ndarray) -> np.ndarray:
    """(N,4) corners, clamped at 0, of the boxes at (N,4) positions (u, v, s, r)."""
    s = np.maximum(positions[:, 2], _AREA_EPS)
    half = np.empty((len(positions), 2))
    half[:, 0] = np.sqrt(s * np.maximum(positions[:, 3], _AREA_EPS))
    half[:, 1] = s / half[:, 0]
    half /= 2.0
    corners = np.empty(positions.shape)
    corners[:, :2] = np.maximum(positions[:, :2] - half, 0.0)
    corners[:, 2:] = positions[:, :2] + half
    return corners


# ------------------------------------------------------------ Kalman kernels

def predict(kalman: np.ndarray, process_var: np.ndarray):
    """Advance every track's (5, N, 4) filter one frame under constant velocity.

    Per axis the block P becomes F P F^T + Q with F = [[1, 1], [0, 1]].
    Returns (kalman, clamped); clamped tracks had their area forced positive.
    """
    pos, vel, p00, p01, p11 = kalman
    kalman = np.array([pos + vel, vel, p00 + 2.0 * p01 + p11 + process_var[0],
                       p01 + p11, p11 + process_var[1]])
    area = kalman[0, :, 2]
    clamped = area <= 0
    area[clamped] = _AREA_EPS
    return kalman, clamped


def update(kalman: np.ndarray, z: np.ndarray, meas_var: np.ndarray):
    """Joseph-form measurement update of every track's filter against its (N,4) z.

    Per axis, with innovation variance S = p00 + R and gain k = (p00, p01) / S,
    the block becomes (I - kH) P (I - kH)^T + R k k^T with H = [1, 0].
    Returns (kalman, ok, clamped). A track is ok while its gain and updated
    covariance are finite (S = 0 gives a NaN gain); clamped tracks had area or
    aspect forced positive.
    """
    pos, vel, p00, p01, p11 = kalman
    s = p00 + meas_var
    gain = kalman[2:4] / s
    k0, k1 = gain
    innovation = z - pos
    j = 1.0 - k0
    kalman = np.array([pos + k0 * innovation, vel + k1 * innovation,
                       j * j * p00 + k0 * k0 * meas_var,
                       j * (p01 - k1 * p00) + k0 * k1 * meas_var,
                       p11 - k1 * (2.0 * p01 - k1 * s)])
    ok = np.isfinite(gain).all(axis=(0, 2)) & np.isfinite(kalman[2:]).all(axis=(0, 2))
    shape = kalman[0, :, 2:]
    clamped = (shape <= 0).any(axis=1)
    shape[shape <= 0] = _AREA_EPS
    return kalman, ok, clamped


def new_track(corners: np.ndarray) -> np.ndarray:
    """(5, 4) filter of a track born on one (4,) corner row, at rest."""
    kalman = np.zeros((5, 4))
    kalman[0] = _measurements(corners[None])[0]
    kalman[2], kalman[4] = _INITIAL_VAR
    return kalman


# ------------------------------------------------------------ association

def _max_assignment(score: np.ndarray):
    """(rows, cols, total) of a max-total assignment; no pairs for an empty matrix."""
    if score.size == 0:
        return [], [], 0.0
    rows, cols = linear_sum_assignment(-score)
    return rows.tolist(), cols.tolist(), float(score[rows, cols].sum())


def _assignment_bound(score: np.ndarray) -> float:
    """Upper bound on any assignment total: the smaller of the row-max and
    column-max sums, negative maxima counted as 0."""
    if score.size == 0:
        return 0.0
    return min(float(score.max(axis=1).clip(min=0.0).sum()),
               float(score.max(axis=0).clip(min=0.0).sum()))


def _lexmin_optimal_pairs(score: np.ndarray, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Max-total assignment; ties break toward the lexicographically smallest
    (row, col) pair list so repeated runs and reimplementations agree.

    Each row in turn takes the smallest free column that still admits an
    optimal completion. One solve gives a known optimal assignment, whose
    column for the row is accepted without another solve; a smaller column
    is solved only when the bound on its completion can reach the optimum,
    and a solve that reaches it becomes the known assignment.
    """
    n, m = score.shape
    rows, cols, best = _max_assignment(score)
    known = dict(zip(rows, cols))
    pairs = []
    rows_left = list(range(1, n))
    cols_left = list(range(m))
    base = 0.0
    for i in range(n):
        chosen = None
        for j in cols_left:
            if known.get(i) == j:
                chosen = j
                break
            rest_cols = [c for c in cols_left if c != j]
            rest = score[np.ix_(rows_left, rest_cols)]
            if base + score[i, j] + _assignment_bound(rest) < best - tol:
                continue  # no completion through (i, j) is optimal
            rest_rows, rest_picks, total = _max_assignment(rest)
            if base + score[i, j] + total >= best - tol:
                chosen = j
                known = {rows_left[r]: rest_cols[c] for r, c in zip(rest_rows, rest_picks)}
                break
        if chosen is not None:
            pairs.append((i, chosen))
            cols_left.remove(chosen)
            base += score[i, chosen]
        if rows_left:
            rows_left.pop(0)
    return pairs


def associate(track_boxes, det_boxes, iou_threshold):
    """Optimal one-to-one IoU matching between predicted boxes and detections.

    Boxes are BBox sequences or (N,4) corner arrays. Returns (matches,
    unmatched_tracks, unmatched_dets); matches maximize the total IoU, then
    pairs with IoU < iou_threshold are dissolved.
    """
    tracks, dets = box_corners(track_boxes), box_corners(det_boxes)
    n, m = len(tracks), len(dets)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    score = iou_matrix(tracks, dets)
    pairs = _lexmin_optimal_pairs(score)
    matches = [(i, j) for i, j in pairs if score[i, j] >= iou_threshold]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return (matches,
            [i for i in range(n) if i not in matched_t],
            [j for j in range(m) if j not in matched_d])


# ------------------------------------------------------------ tracker

class SortTracker:
    """Stateful per-video tracker; feed frames in order through step().

    Track k is entry k of `ids`, `hits` and `time_since_update` and column k
    of the (5, N, 4) `kalman` array. Births append tracks and deaths delete
    them, so tracks stay in increasing id order.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._process_var = self.config.process_var()
        self._meas_var = self.config.measurement_var()
        self.ids = np.zeros(0, dtype=np.int64)
        self.kalman = np.zeros((5, 0, 4))
        self.hits = np.zeros(0, dtype=np.int64)
        self.time_since_update = np.zeros(0, dtype=np.int64)
        self.frame_count = 0
        self._next_id = 1

    def step(self, frame: FrameRecord) -> list[tuple[int, BBox]]:
        """Advance one frame; returns (track_id, box) pairs sorted by id.

        Only tracks matched this frame are emitted, once they have min_hits
        updates (always, while the stream itself is younger than min_hits).
        Boxes are clamped to non-negative coordinates; tracks fully outside
        the frame emit nothing and coast until max_age.
        """
        cfg = self.config
        self.frame_count += 1
        det_corners = box_corners([d.box for d in frame.detections if d.category == HAND])

        kalman, _ = predict(self.kalman, self._process_var)
        ids, hits, since = self.ids, self.hits.copy(), self.time_since_update + 1
        matches, _, unmatched_dets = associate(
            _state_corners(kalman[0]), det_corners, cfg.iou_threshold)
        keep = since <= cfg.max_age
        if matches:
            hit, det_idx = (list(ix) for ix in zip(*matches))
            kalman[:, hit], ok, _ = update(
                kalman[:, hit], _measurements(det_corners[det_idx]), self._meas_var)
            keep[hit] = ok  # a failed update drops the track
            hits[hit] += 1
            since[hit] = 0

        if not keep.all():
            ids, kalman, hits, since = ids[keep], kalman[:, keep], hits[keep], since[keep]
        if unmatched_dets:
            n = len(unmatched_dets)
            ids = np.concatenate([ids, np.arange(self._next_id, self._next_id + n)])
            kalman = np.concatenate(
                [kalman, np.stack([new_track(det_corners[j]) for j in unmatched_dets], axis=1)],
                axis=1)
            hits = np.concatenate([hits, np.ones(n, dtype=np.int64)])
            since = np.concatenate([since, np.zeros(n, dtype=np.int64)])
            self._next_id += n
        self.ids, self.kalman, self.hits, self.time_since_update = ids, kalman, hits, since

        emit = self.time_since_update == 0
        if self.frame_count > cfg.min_hits:
            emit &= self.hits >= cfg.min_hits
        emitted = []
        for tid, corners in zip(self.ids[emit].tolist(),
                                _state_corners(self.kalman[0, emit]).tolist()):
            try:
                emitted.append((tid, BBox(*corners)))
            except InvariantError:
                continue  # fully outside the frame after clamping
        return emitted
