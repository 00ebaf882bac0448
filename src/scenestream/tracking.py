"""SORT-style tracking of hand detections.

Constant-velocity Kalman filters over (center, area, aspect) box states,
IoU-cost optimal assignment per frame, and a birth/death lifecycle. Only
hand-category detections are tracked; tools are reported per frame elsewhere.

A track is one row of plain arrays: a (7,) state mean and a (7,7)
covariance, plus its id, hit count, frames since its last update and a
degenerate flag. Each frame runs as batched numpy kernels over all rows: one
`predict`, one IoU matrix, one assignment and one Joseph-form `update` over
the matched rows; `new_track` gives a birth's initial mean and covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvariantError
# `iou` is imported so the traced benchmark can count calls to it here
from .streams import BBox, FrameRecord, HAND, iou  # noqa: F401

STATE_DIM = 7  # (u, v, s, r, du, dv, ds); r has no velocity
MEAS_DIM = 4

_F = np.eye(STATE_DIM)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.zeros((MEAS_DIM, STATE_DIM))
_H[0, 0] = _H[1, 1] = _H[2, 2] = _H[3, 3] = 1.0
_I = np.eye(STATE_DIM)
_INITIAL_COV = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])

_AREA_EPS = 1e-6
_COV_ASYM_TOL = 1e-9


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

    def process_cov(self) -> np.ndarray:
        q = np.ones(STATE_DIM)
        q[4:] = 0.01
        q[6] = 1e-4
        return np.diag(q) * self.process_noise

    def measurement_cov(self) -> np.ndarray:
        return np.diag([1.0, 1.0, 10.0, 10.0]) * self.measurement_noise


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
    x0, y0, x1, y1 = corners.T
    w, h = x1 - x0, y1 - y0
    return np.stack([(x0 + x1) / 2.0, (y0 + y1) / 2.0, w * h, w / h], axis=1)


def _state_corners(states: np.ndarray) -> np.ndarray:
    """(N,4) corners, clamped at 0, of the boxes whose (u, v, s, r) lead each row."""
    u, v = states[:, 0], states[:, 1]
    s = np.maximum(states[:, 2], _AREA_EPS)
    w = np.sqrt(s * np.maximum(states[:, 3], _AREA_EPS))
    h = s / w
    return np.stack([np.maximum(u - w / 2.0, 0.0), np.maximum(v - h / 2.0, 0.0),
                     u + w / 2.0, v + h / 2.0], axis=1)


# ------------------------------------------------------------ Kalman kernels

def _symmetrized(covs: np.ndarray):
    """((P + P^T) / 2 per row, mask of rows whose asymmetry is within tolerance)."""
    covs_t = covs.transpose(0, 2, 1)
    within = np.abs(covs - covs_t).max(axis=(1, 2), initial=0.0) <= _COV_ASYM_TOL
    return (covs + covs_t) / 2.0, within


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched np.linalg.solve; the rows of a singular matrix come back as NaN."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for k in range(len(a)):
            try:
                out[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                continue
        return out


def predict(means: np.ndarray, covs: np.ndarray, process_cov: np.ndarray):
    """Advance every row one frame under constant-velocity dynamics.

    Returns (means, covs, clamped); clamped rows had their area forced positive.
    """
    means = (_F @ means[..., None])[..., 0]
    covs, within = _symmetrized(_F @ covs @ _F.T + process_cov)
    if not within.all():
        raise InvariantError("track covariance must stay symmetric")
    clamped = means[:, 2] <= 0
    means[clamped, 2] = _AREA_EPS
    return means, covs, clamped


def update(means: np.ndarray, covs: np.ndarray, z: np.ndarray, meas_cov: np.ndarray):
    """Joseph-form measurement update of every row against its measurement z.

    Returns (means, covs, ok, clamped). A row is not ok when its innovation
    covariance is singular, its gain is not finite or its updated covariance
    is asymmetric beyond tolerance; clamped rows had area or aspect forced
    positive.
    """
    hp = _H @ covs
    gain = _solve(hp @ _H.T + meas_cov, hp).transpose(0, 2, 1)  # (N,7,4)
    ok = np.isfinite(gain).all(axis=(1, 2))
    innovation = z - (_H @ means[..., None])[..., 0]
    means = means + (gain @ innovation[..., None])[..., 0]
    ikh = _I - gain @ _H
    covs, within = _symmetrized(ikh @ covs @ ikh.transpose(0, 2, 1)
                                + gain @ meas_cov @ gain.transpose(0, 2, 1))
    shape = means[:, 2:MEAS_DIM]
    clamped = (shape <= 0).any(axis=1)
    shape[shape <= 0] = _AREA_EPS
    return means, covs, ok & within, clamped


def new_track(corners: np.ndarray):
    """(mean, covariance) of a track born on one (4,) corner row, at rest."""
    mean = np.zeros(STATE_DIM)
    mean[:MEAS_DIM] = _measurements(corners[None])[0]
    return mean, _INITIAL_COV.copy()


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

    Track k is row k of `ids`, `means` (N,7), `covs` (N,7,7), `hits`,
    `time_since_update` and `degenerate`. Births append rows and deaths
    delete them, so rows stay in increasing id order.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._process_cov = self.config.process_cov()
        self._meas_cov = self.config.measurement_cov()
        self.ids = np.zeros(0, dtype=np.int64)
        self.means = np.zeros((0, STATE_DIM))
        self.covs = np.zeros((0, STATE_DIM, STATE_DIM))
        self.hits = np.zeros(0, dtype=np.int64)
        self.time_since_update = np.zeros(0, dtype=np.int64)
        self.degenerate = np.zeros(0, dtype=bool)
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

        means, covs, degenerate = predict(self.means, self.covs, self._process_cov)
        degenerate |= self.degenerate
        hits, since = self.hits.copy(), self.time_since_update + 1
        matches, _, unmatched_dets = associate(
            _state_corners(means), det_corners, cfg.iou_threshold)
        keep = since <= cfg.max_age
        if matches:
            hit, det_idx = (list(ix) for ix in zip(*matches))
            means[hit], covs[hit], ok, clamped = update(
                means[hit], covs[hit], _measurements(det_corners[det_idx]), self._meas_cov)
            keep[hit] = ok  # a failed update drops the track
            degenerate[hit] |= clamped
            hits[hit] += 1
            since[hit] = 0

        state = (self.ids, means, covs, hits, since, degenerate)
        if not keep.all():
            state = tuple(a[keep] for a in state)
        if unmatched_dets:
            n = len(unmatched_dets)
            born_means, born_covs = zip(*(new_track(det_corners[j]) for j in unmatched_dets))
            born = (np.arange(self._next_id, self._next_id + n, dtype=np.int64),
                    np.array(born_means), np.array(born_covs), np.ones(n, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))
            self._next_id += n
            state = tuple(np.concatenate(pair) for pair in zip(state, born))
        (self.ids, self.means, self.covs, self.hits, self.time_since_update,
         self.degenerate) = state

        emit = self.time_since_update == 0
        if self.frame_count > cfg.min_hits:
            emit &= self.hits >= cfg.min_hits
        emitted = []
        for tid, corners in zip(self.ids[emit].tolist(),
                                _state_corners(self.means[emit]).tolist()):
            try:
                emitted.append((tid, BBox(*corners)))
            except InvariantError:
                continue  # fully outside the frame after clamping
        return emitted
