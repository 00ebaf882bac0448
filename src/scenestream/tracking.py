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
block with its velocity and velocity variance pinned at 0. A track's filter
is four lists of Python floats, one per axis (u, v, s, r): position,
velocity, and the block's p00, p01 and p11. At a few hands these scalar loops
cost less than numpy calls on arrays of 2-8 elements, and they keep numpy's
operation order (float64 `+ - * /` and `sqrt` round correctly in both), so
every box is bit-identical to the array form. Each frame runs one `predict`
over every track, one `associate` and one Joseph-form `update` over matched
tracks. `associate` scores only the track/detection pairs that overlap, on
Python float corner rows, and returns each track's best detection when the
scores alone prove that pairing optimal (tracks apart from each other, the
common case); only otherwise does it fill a numpy score matrix and run the
assignment solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, nan, sqrt

import numpy as np

from .errors import InvariantError, check_finite
# `iou` is imported so the traced benchmark can count calls to it here
from .streams import FrameRecord, HAND, iou  # noqa: F401

# (position, velocity) variances of a newborn track per axis (u, v, s, r)
_INITIAL_VAR = ((10.0, 1e4), (10.0, 1e4), (10.0, 1e4), (10.0, 0.0))
_AREA_EPS = 1e-6
_TIE_TOL = 1e-9  # assignment totals within this of the optimum count as tied


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
        check_finite("process_noise", self.process_noise)
        check_finite("measurement_noise", self.measurement_noise)

    def process_var(self) -> tuple:
        """Diagonal process noise: (position, velocity) variance per axis (u, v, s, r)."""
        return tuple((self.process_noise, q * self.process_noise) for q in (0.01, 0.01, 1e-4, 0.0))

    def measurement_var(self) -> tuple:
        """Diagonal measurement noise of (u, v, s, r)."""
        return tuple(r * self.measurement_noise for r in (1.0, 1.0, 10.0, 10.0))


# ------------------------------------------------------------ box geometry

def _measurements(corners) -> list[list[float]]:
    """Measurements [u, v, s, r] of (x_min, y_min, x_max, y_max) float rows."""
    z = []
    for x0, y0, x1, y1 in corners:
        w, h = x1 - x0, y1 - y0
        z.append([(x0 + x1) / 2.0, (y0 + y1) / 2.0, w * h, w / h])
    return z


def _state_corners(filters) -> list[list[float]]:
    """Corners, clamped at 0, of each filter's box. Each clamp is `lo if x <= lo
    else x`, which is np.maximum(x, lo): a NaN position stays NaN."""
    corners = []
    for fu, fv, fs, fr in filters:
        u, v, s, r = fu[0], fv[0], fs[0], fr[0]
        s = _AREA_EPS if s <= _AREA_EPS else s
        half_w = sqrt(s * (_AREA_EPS if r <= _AREA_EPS else r))
        half_w, half_h = half_w / 2.0, s / half_w / 2.0
        x0, y0 = u - half_w, v - half_h
        corners.append([0.0 if x0 <= 0.0 else x0, 0.0 if y0 <= 0.0 else y0,
                        u + half_w, v + half_h])
    return corners


# ------------------------------------------------------------ Kalman kernels

def predict(filters, process_var):
    """Advance every track's filter one frame under constant velocity.

    Per axis the block P becomes F P F^T + Q with F = [[1, 1], [0, 1]].
    Returns (filters, clamped); clamped tracks had their area forced positive.
    """
    out, clamped = [], []
    for filt in filters:
        axes = [[pos + vel, vel, p00 + 2.0 * p01 + p11 + q0, p01 + p11, p11 + q1]
                for (pos, vel, p00, p01, p11), (q0, q1) in zip(filt, process_var)]
        clamped.append(axes[2][0] <= 0)
        if clamped[-1]:
            axes[2][0] = _AREA_EPS  # area
        out.append(axes)
    return out, clamped


def update(filters, z, meas_var):
    """Joseph-form update of every track's filter against its measurement z.

    Per axis, with innovation variance S = p00 + R and gain k = (p00, p01) / S,
    the block becomes (I - kH) P (I - kH)^T + R k k^T with H = [1, 0].
    Returns (filters, ok, clamped). A track is ok while its gain and updated
    covariance are finite (S = 0 gives a NaN gain); clamped tracks had area or
    aspect forced positive.
    """
    out, ok, clamped = [], [], []
    for filt, zt in zip(filters, z):
        axes, finite = [], True
        for (pos, vel, p00, p01, p11), za, r in zip(filt, zt, meas_var):
            s = p00 + r
            k0, k1 = (p00 / s, p01 / s) if s else (nan, nan)
            innovation = za - pos
            j = 1.0 - k0
            q00 = j * j * p00 + k0 * k0 * r
            q01 = j * (p01 - k1 * p00) + k0 * k1 * r
            q11 = p11 - k1 * (2.0 * p01 - k1 * s)
            finite = (finite and isfinite(k0) and isfinite(k1)
                      and isfinite(q00) and isfinite(q01) and isfinite(q11))
            axes.append([pos + k0 * innovation, vel + k1 * innovation, q00, q01, q11])
        degenerate = [axis for axis in axes[2:] if axis[0] <= 0]  # area or aspect
        for axis in degenerate:
            axis[0] = _AREA_EPS
        clamped.append(bool(degenerate))
        out.append(axes)
        ok.append(finite)
    return out, ok, clamped


def new_track(corners) -> list[list[float]]:
    """Filter of a track born at rest on one (x_min, y_min, x_max, y_max) float
    row: per axis (u, v, s, r), [position, velocity, p00, p01, p11]."""
    return [[z, 0.0, p00, 0.0, p11]
            for z, (p00, p11) in zip(_measurements([corners])[0], _INITIAL_VAR)]


# ------------------------------------------------------------ association

def linear_sum_assignment(cost):
    """scipy's solver, imported on its first call; tracing patches this name."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(cost)


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


def _lexmin_optimal_pairs(score: np.ndarray) -> list[tuple[int, int]]:
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
            if base + score[i, j] + _assignment_bound(rest) < best - _TIE_TOL:
                continue  # no completion through (i, j) is optimal
            rest_rows, rest_picks, total = _max_assignment(rest)
            if base + score[i, j] + total >= best - _TIE_TOL:
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


def _overlap_scores(tracks, dets) -> list[dict[int, float]]:
    """Per track corner row, {detection index: IoU} over the detection rows
    it overlaps. The operation order is that of `streams.iou`, so each score
    equals it bit for bit. A NaN track corner propagates through each min/max
    as it does through np.minimum/np.maximum, which leaves its pairs out; so
    are boxes whose corners cross after clamping (a prediction that left the
    frame)."""
    det_areas = [(c2 - c0) * (c3 - c1) for c0, c1, c2, c3 in dets]
    scores = []
    for a0, a1, a2, a3 in tracks:
        area, row = (a2 - a0) * (a3 - a1), {}
        for j, (c0, c1, c2, c3) in enumerate(dets):
            ix = (c2 if c2 < a2 else a2) - (c0 if c0 > a0 else a0)
            if ix > 0:
                iy = (c3 if c3 < a3 else a3) - (c1 if c1 > a1 else a1)
                if iy > 0:
                    inter = ix * iy
                    row[j] = inter / (area + det_areas[j] - inter)
        scores.append(row)
    return scores


def associate(track_boxes, det_boxes, iou_threshold):
    """Optimal one-to-one IoU matching between predicted boxes and detections.

    Boxes are lists of (x_min, y_min, x_max, y_max) float rows. Returns
    (matches, unmatched_tracks, unmatched_dets); matches
    maximize the total IoU with ties broken as `_lexmin_optimal_pairs` breaks
    them, then pairs with IoU < iou_threshold (which must be > 0) dissolve.

    The solver runs only when the overlap scores leave the optimum open.
    Suppose each track with an overlap has a best score more than
    2 * _TIE_TOL above its second best (0.0 for a single overlap), and no two
    tracks share a best detection. Then the best scores sum to the optimum,
    and an assignment that gives such a track another detection loses more
    than 2 * _TIE_TOL on it and gains on no track, so every assignment within
    _TIE_TOL of the optimum pairs each such track with its best detection
    (the factor 2 leaves room for rounding in the solver's summed totals).
    Tracks with no overlap pair only at score 0, which the threshold
    dissolves. The best pairs at or above the threshold are therefore the
    solver's matches.
    """
    scores = _overlap_scores(track_boxes, det_boxes)
    pairs, taken, certain = [], set(), True
    for i, row in enumerate(scores):
        best, top, second = None, 0.0, 0.0
        for j, score in row.items():
            if score > top:
                best, top, second = j, score, top
            elif score > second:
                second = score
        if best is not None:
            certain = certain and top - second > 2 * _TIE_TOL and best not in taken
            taken.add(best)
            pairs.append((i, best))
    if not certain:
        pairs = _lexmin_optimal_pairs(
            np.array([[row.get(j, 0.0) for j in range(len(det_boxes))] for row in scores]))
    matches = [(i, j) for i, j in pairs if scores[i].get(j, 0.0) >= iou_threshold]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return (matches,
            [i for i in range(len(track_boxes)) if i not in matched_t],
            [j for j in range(len(det_boxes)) if j not in matched_d])


# ------------------------------------------------------------ tracker

class SortTracker:
    """Stateful per-video tracker; feed frames in order through step().

    Track k is entry k of the lists `ids`, `filters` (see `new_track`), `hits`
    and `time_since_update`. Births append tracks and deaths delete them, so
    tracks stay in increasing id order.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._process_var = self.config.process_var()
        self._meas_var = self.config.measurement_var()
        self.ids, self.filters, self.hits, self.time_since_update = [], [], [], []
        self.frame_count = 0
        self._next_id = 1

    def step(self, frame: FrameRecord) -> list[tuple[int, list[float]]]:
        """Advance one frame; returns (track_id, [x_min, y_min, x_max, y_max])
        pairs sorted by id.

        Only tracks matched this frame are emitted, once they have min_hits
        updates (always, while the stream itself is younger than min_hits).
        Corners are clamped at 0; tracks fully outside the frame (corners that
        cross, or are not finite) emit nothing and coast until max_age.
        """
        cfg = self.config
        self.frame_count += 1
        det_rows = [d.box.as_list() for d in frame.detections if d.category == HAND]

        filters, _ = predict(self.filters, self._process_var)
        ids, hits = self.ids, self.hits
        since = [t + 1 for t in self.time_since_update]
        matches, _, unmatched_dets = associate(
            _state_corners(filters), det_rows, cfg.iou_threshold)
        keep = [t <= cfg.max_age for t in since]
        if matches:
            hit, det_idx = zip(*matches)
            z = _measurements([det_rows[j] for j in det_idx])
            updated, ok, _ = update([filters[i] for i in hit], z, self._meas_var)
            for i, filt, good in zip(hit, updated, ok):
                filters[i], keep[i] = filt, good  # a failed update drops the track
                hits[i] += 1
                since[i] = 0

        if not all(keep):
            ids, filters, hits, since = ([x for x, k in zip(column, keep) if k]
                                         for column in (ids, filters, hits, since))
        for j in unmatched_dets:
            ids.append(self._next_id)
            filters.append(new_track(det_rows[j]))
            hits.append(1)
            since.append(0)
            self._next_id += 1
        self.ids, self.filters, self.hits, self.time_since_update = ids, filters, hits, since

        young = self.frame_count <= cfg.min_hits
        emit = [k for k, (t, h) in enumerate(zip(since, hits))
                if t == 0 and (young or h >= cfg.min_hits)]
        # a NaN corner fails every comparison, so its track is dropped too
        return [(ids[k], c) for k, c in zip(emit, _state_corners([filters[k] for k in emit]))
                if c[0] < c[2] < inf and c[1] < c[3] < inf]
