"""SORT-style tracking of hand detections.

Constant-velocity Kalman filters over (center, area, aspect) box states,
IoU-cost optimal assignment per frame, and a birth/death lifecycle. Only
hand-category detections are tracked; tools are reported per frame elsewhere.

SORT's 7-dimensional state (u, v, s, r, du, dv, ds) splits exactly into one
2x2 (position, velocity) covariance block per moving axis and one variance
for the aspect r, which has no velocity: F, H and the diagonal process,
measurement and initial covariances never couple two axes. The covariance
never depends on the measurements, and u and v share all three variances, so
their blocks are bit-identical at every frame and are kept and computed once.
A track's filter is one list of 14 Python floats: u, v, s, r, du, dv, ds,
then (p00, p01, p11) of the uv and s blocks, then r's variance. At a few
hands these scalar loops cost less than numpy calls on small arrays, and they
keep numpy's operation order (float64 `+ - * /` and `sqrt` round correctly
in both), so every box is bit-identical to the array form. Each frame runs
one `predict` over every track, one `associate` and one Joseph-form `update`
over matched tracks, whose loop picks the tracks to emit, with the detection
each took, as the birth loop does. After `predict` each position variance is
at least its process variance (F P F^T adds [1 1] P [1 1]^T >= 0 of a PSD
block), so each innovation variance p00 + R is at least 2 and no gain
divides by 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import InvariantError
# `iou` is imported so the traced benchmark can count calls to it here
from .streams import FrameRecord, HAND, iou  # noqa: F401

# (p00, p01, p11) of a newborn track's uv and s blocks, then r's variance
_INITIAL_COV = (10.0, 0.0, 1e4, 10.0, 0.0, 1e4, 10.0)
# SORT's diagonal noise: (position, velocity) process variance of the uv and
# s blocks and r's process variance; measurement variance of uv, s and r
_PROCESS_VAR = ((1.0, 0.01), (1.0, 1e-4), 1.0)
_MEASUREMENT_VAR = (1.0, 10.0, 10.0)
_AREA_EPS = 1e-6
_TIE_TOL = 1e-9  # assignment totals within this of the optimum count as tied


@dataclass(frozen=True)
class TrackerConfig:
    iou_threshold: float = 0.3
    max_age: int = 30  # frames a track survives unmatched; 1 s at 30 fps
    min_hits: int = 3

    def __post_init__(self):
        if not (0.0 < self.iou_threshold < 1.0):
            raise InvariantError(f"iou_threshold must be in (0,1), got {self.iou_threshold}")
        if self.max_age <= 0 or self.min_hits <= 0:
            raise InvariantError("max_age and min_hits must be positive")


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
    for filt in filters:
        u, v, s, r = filt[0], filt[1], filt[2], filt[3]
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

    Per block P becomes F P F^T + Q with F = [[1, 1], [0, 1]], and r's
    variance grows by its process variance; an area that reaches 0 or below
    is forced positive.
    """
    (qa0, qa1), (qs0, qs1), qr = process_var
    out = []
    for u, v, s, r, du, dv, ds, a00, a01, a11, s00, s01, s11, r00 in filters:
        s += ds
        out.append([u + du, v + dv, _AREA_EPS if s <= 0 else s, r, du, dv, ds,
                    a00 + 2.0 * a01 + a11 + qa0, a01 + a11, a11 + qa1,
                    s00 + 2.0 * s01 + s11 + qs0, s01 + s11, s11 + qs1, r00 + qr])
    return out


def update(filters, z, meas_var):
    """Joseph-form update of every track's filter against its measurement z.

    Per block, with S = p00 + R and gain k = (p00, p01) / S, P becomes
    (I - kH) P (I - kH)^T + R k k^T with H = [1, 0]; u and v share the uv one,
    and r's variance takes the same form with the scalar gain r00 / S. Area
    and aspect that reach 0 or below are forced positive.
    """
    ra, rs, rr = meas_var
    out = []
    for (u, v, s, r, du, dv, ds,
         a00, a01, a11, s00, s01, s11, r00), (zu, zv, zs, zr) in zip(filters, z):
        sa, ss, sr = a00 + ra, s00 + rs, r00 + rr
        ka0, ka1 = a00 / sa, a01 / sa
        ks0, ks1 = s00 / ss, s01 / ss
        kr = r00 / sr
        ja, js, jr = 1.0 - ka0, 1.0 - ks0, 1.0 - kr
        a00, a01, a11 = (ja * ja * a00 + ka0 * ka0 * ra, ja * (a01 - ka1 * a00) + ka0 * ka1 * ra,
                         a11 - ka1 * (2.0 * a01 - ka1 * sa))
        s00, s01, s11 = (js * js * s00 + ks0 * ks0 * rs, js * (s01 - ks1 * s00) + ks0 * ks1 * rs,
                         s11 - ks1 * (2.0 * s01 - ks1 * ss))
        iu, iv, i_s = zu - u, zv - v, zs - s
        s, r = s + ks0 * i_s, r + kr * (zr - r)
        out.append([u + ka0 * iu, v + ka0 * iv, _AREA_EPS if s <= 0 else s,
                    _AREA_EPS if r <= 0 else r, du + ka1 * iu, dv + ka1 * iv,
                    ds + ks1 * i_s, a00, a01, a11, s00, s01, s11, jr * jr * r00 + kr * kr * rr])
    return out


def new_track(corners) -> list[float]:
    """Filter of a track born at rest on one (x_min, y_min, x_max, y_max) float
    row, laid out as the module docstring says."""
    return [*_measurements([corners])[0], 0.0, 0.0, 0.0, *_INITIAL_COV]


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
    it overlaps. A track whose corners cross (it left the frame) or are NaN
    overlaps nothing. Otherwise, for finite rows, a pair is kept exactly when
    `streams.iou` has ix > 0 and iy > 0, and scored in its operation order."""
    rows = [(j, c0, c1, c2, c3, (c2 - c0) * (c3 - c1))
            for j, (c0, c1, c2, c3) in enumerate(dets)]
    scores = []
    for a0, a1, a2, a3 in tracks:
        row = {}
        if a0 < a2 and a1 < a3:
            area = (a2 - a0) * (a3 - a1)
            for j, c0, c1, c2, c3, det_area in rows:
                if c0 < a2 and a0 < c2 and c1 < a3 and a1 < c3:
                    inter = (((c2 if c2 < a2 else a2) - (c0 if c0 > a0 else a0))
                             * ((c3 if c3 < a3 else a3) - (c1 if c1 > a1 else a1)))
                    row[j] = inter / (area + det_area - inter)
        scores.append(row)
    return scores


def associate(track_boxes, det_boxes, iou_threshold):
    """Optimal one-to-one IoU matching between predicted boxes and detections.

    Boxes are lists of rows of 4 floats (x_min, y_min, x_max, y_max). Returns
    (matches, unmatched_dets); matches maximize the total IoU with ties
    broken as `_lexmin_optimal_pairs` breaks them, then pairs with IoU <
    iou_threshold (which must be > 0) dissolve. Matches come in increasing
    track order, which `SortTracker.step` emits in.

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
    matched_d = {j for _, j in matches}
    return matches, [j for j in range(len(det_boxes)) if j not in matched_d]


# ------------------------------------------------------------ tracker

class SortTracker:
    """Stateful per-video tracker; feed frames in order through step().

    Track k is entry k of the lists `ids`, `filters` (see `new_track`), `hits`
    and `time_since_update`. Births append tracks and deaths delete them, so
    tracks stay in increasing id order.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.ids, self.filters, self.hits, self.time_since_update = [], [], [], []
        self.frame_count = 0
        self._next_id = 1

    def step(self, frame: FrameRecord) -> list[tuple[int, list[float], int]]:
        """Advance one frame; returns (track_id, [x_min, y_min, x_max, y_max],
        det_index) triples sorted by id: det_index indexes the frame's hand
        detections at the one the track took this frame, matched or newborn.

        Only tracks matched this frame are emitted, once they have min_hits
        updates (always, while the stream itself is younger than min_hits).
        Corners are clamped at 0; tracks fully outside the frame (corners that
        cross, or are not finite) emit nothing and coast until max_age.
        """
        cfg = self.config
        self.frame_count += 1
        young = self.frame_count <= cfg.min_hits
        det_rows = [d.box for d in frame.detections if d.category == HAND]

        filters = predict(self.filters, _PROCESS_VAR)
        ids, hits = self.ids, self.hits
        since = [t + 1 for t in self.time_since_update]
        matches, unmatched_dets = associate(
            _state_corners(filters), det_rows, cfg.iou_threshold)
        emit = []  # (id, filter, det) of matched tracks, then of newborns: in id order
        if matches:
            z = _measurements([det_rows[j] for _, j in matches])
            updated = update([filters[i] for i, _ in matches], z, _MEASUREMENT_VAR)
            for (i, j), filt in zip(matches, updated):
                filters[i] = filt
                hits[i] += 1
                since[i] = 0
                if young or hits[i] >= cfg.min_hits:
                    emit.append((ids[i], filt, j))

        if since and max(since) > cfg.max_age:
            keep = [t <= cfg.max_age for t in since]
            ids, filters, hits, since = ([x for x, k in zip(column, keep) if k]
                                         for column in (ids, filters, hits, since))
        for j in unmatched_dets:
            ids.append(self._next_id)
            filters.append(new_track(det_rows[j]))
            hits.append(1)
            since.append(0)
            if young or cfg.min_hits <= 1:
                emit.append((self._next_id, filters[-1], j))
            self._next_id += 1
        self.ids, self.filters, self.hits, self.time_since_update = ids, filters, hits, since
        # a NaN corner fails every comparison, so its track is dropped too
        return [(tid, c, j) for (tid, _, j), c in zip(emit, _state_corners(f for _, f, _ in emit))
                if c[0] < c[2] < inf and c[1] < c[3] < inf]
