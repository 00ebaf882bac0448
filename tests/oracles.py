"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive (loops, enumeration, rasterization) and
shares no code with the library paths it checks, except that `array_associate`
runs the library's assignment solver, which the brute-force tests check alone,
and `TwoPassSort` steps with the library's kernels to check how
`SortTracker.step` combines them. It takes its boxes from
`tracking._state_corners` of the filters, not from the corners `predict` and
`update` return, so it also checks that the step emits those corners.
"""

import itertools
import math
from fractions import Fraction
from math import inf

import numpy as np

from scenestream import tracking
from scenestream.streams import ACTIONS, HAND, TIMESTAMP_TOL_S, TOOL_CLASSES
from scenestream.tracking import _lexmin_optimal_pairs


def grid_iou(a, b, scale=4):
    """IoU by counting lattice cells; exact for boxes with coords on a 1/scale grid."""
    hi_x = int(round(max(a[2], b[2]) * scale)) + 1
    hi_y = int(round(max(a[3], b[3]) * scale)) + 1

    def mask(box):
        x0, y0, x1, y1 = (int(round(v * scale)) for v in box)
        m = np.zeros((hi_y, hi_x), dtype=bool)
        m[y0:y1, x0:x1] = True
        return m

    ma, mb = mask(a), mask(b)
    union = int(np.logical_or(ma, mb).sum())
    if union == 0:
        return 0.0
    return int(np.logical_and(ma, mb).sum()) / union


def brute_force_assignment(score, threshold, tol=1e-9):
    """Optimal one-to-one assignment by permutation search, maximizing total score.

    Returns (matches, unmatched_rows, unmatched_cols) with matches sorted by
    row index; pairs below threshold dissolved. Totals within `tol` of the
    best count as tied, and ties break toward the lexicographically smallest
    sorted pair list.
    """
    score = np.asarray(score, dtype=float)
    n, m = score.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    if n <= m:
        candidates = [sorted(zip(range(n), perm))
                      for perm in itertools.permutations(range(m), n)]
    else:
        candidates = [sorted(zip(perm, range(m)))
                      for perm in itertools.permutations(range(n), m)]
    totals = [sum(score[i, j] for i, j in pairs) for pairs in candidates]
    best_total = max(totals)
    best_pairs = min(pairs for pairs, total in zip(candidates, totals)
                     if total >= best_total - tol)
    matches = [(i, j) for i, j in best_pairs if score[i, j] >= threshold]
    matched_rows = {i for i, _ in matches}
    matched_cols = {j for _, j in matches}
    return (matches,
            [i for i in range(n) if i not in matched_rows],
            [j for j in range(m) if j not in matched_cols])


class SevenStateKalman:
    """One track's SORT filter over the full 7-state (u, v, s, r, du, dv, ds)
    model: dense 7x7 covariance, `np.linalg.solve` for the gain and a
    Joseph-form update. Area and aspect are clamped positive the way the
    tracker clamps them.
    """

    AREA_EPS = 1e-6

    def __init__(self, corners, process_noise=1.0, measurement_noise=1.0):
        self.F = np.eye(7)
        self.F[0, 4] = self.F[1, 5] = self.F[2, 6] = 1.0
        self.H = np.eye(4, 7)
        self.Q = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4]) * process_noise
        self.R = np.diag([1.0, 1.0, 10.0, 10.0]) * measurement_noise
        self.x = np.zeros(7)
        self.x[:4] = self.measure(corners)
        self.P = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])

    @staticmethod
    def measure(corners):
        x0, y0, x1, y1 = corners
        w, h = x1 - x0, y1 - y0
        return np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0, w * h, w / h])

    def predict(self):
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q
        if self.x[2] <= 0:
            self.x[2] = self.AREA_EPS

    def update(self, corners):
        hp = self.H @ self.P
        gain = np.linalg.solve(hp @ self.H.T + self.R, hp).T
        self.x = self.x + gain @ (self.measure(corners) - self.H @ self.x)
        ikh = np.eye(7) - gain @ self.H
        self.P = ikh @ self.P @ ikh.T + gain @ self.R @ gain.T
        for k in (2, 3):
            if self.x[k] <= 0:
                self.x[k] = self.AREA_EPS


def scaled_noise(process_noise, measurement_noise):
    """(process, measurement) variances in the layouts of `tracking._PROCESS_VAR`
    ((position, velocity) of the uv and s blocks, then r's) and
    `tracking._MEASUREMENT_VAR` (uv, s, r) of the noise
    `SevenStateKalman(corners, process_noise, measurement_noise)` uses."""
    return ((*((process_noise, q * process_noise) for q in (0.01, 1e-4)), process_noise),
            tuple(r * measurement_noise for r in (1.0, 10.0, 10.0)))


def array_predict(kalman, process_var):
    """Constant-velocity predict of every track at once, in the array form
    the per-track float kernels replaced: `kalman` is a (5, N, 4) array of
    position, velocity, p00, p01 and p11 planes over the axes (u, v, s, r),
    `process_var` a (2, 4) array. Returns (kalman, clamped)."""
    pos, vel, p00, p01, p11 = kalman
    kalman = np.array([pos + vel, vel, p00 + 2.0 * p01 + p11 + process_var[0],
                       p01 + p11, p11 + process_var[1]])
    area = kalman[0, :, 2]
    clamped = area <= 0
    area[clamped] = SevenStateKalman.AREA_EPS
    return kalman, clamped


def array_update(kalman, z, meas_var):
    """Joseph-form update of every (5, N, 4) filter against its (N, 4)
    measurement, in the same array form. Returns (kalman, ok, clamped)."""
    pos, vel, p00, p01, p11 = kalman
    s = p00 + meas_var
    k0, k1 = gain = kalman[2:4] / s
    innovation = z - pos
    j = 1.0 - k0
    kalman = np.array([pos + k0 * innovation, vel + k1 * innovation,
                       j * j * p00 + k0 * k0 * meas_var,
                       j * (p01 - k1 * p00) + k0 * k1 * meas_var,
                       p11 - k1 * (2.0 * p01 - k1 * s)])
    ok = np.isfinite(gain).all(axis=(0, 2)) & np.isfinite(kalman[2:]).all(axis=(0, 2))
    shape = kalman[0, :, 2:]
    clamped = (shape <= 0).any(axis=1)
    shape[shape <= 0] = SevenStateKalman.AREA_EPS
    return kalman, ok, clamped


def box_corners(boxes):
    """(N, 4) array of (x_min, y_min, x_max, y_max) rows from boxes; arrays pass through."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.array(boxes, dtype=float).reshape(-1, 4)


def iou_matrix(a, b):
    """IoU of every row of corner array `a` against every row of `b`, in the
    array form the overlap scorer of `tracking.associate` replaced. Pairs that
    do not overlap, including boxes whose corners cross after clamping, or a
    NaN corner, score 0."""
    overlap = (np.minimum(a[:, None, 2:], b[None, :, 2:])
               - np.maximum(a[:, None, :2], b[None, :, :2]))
    ix, iy = overlap[..., 0], overlap[..., 1]
    inter = ix * iy
    size_a, size_b = a[:, 2:] - a[:, :2], b[:, 2:] - b[:, :2]
    union = (size_a[:, 0] * size_a[:, 1])[:, None] + size_b[:, 0] * size_b[:, 1] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=(ix > 0) & (iy > 0))


def array_associate(track_boxes, det_boxes, iou_threshold):
    """Association through the dense IoU matrix and the tie-breaking solver on
    every call, as `tracking.associate` did before it scored only overlapping
    pairs: (matches, unmatched_tracks, unmatched_dets). The solver is the
    library's, bound here at import; brute-force tests check it on its own."""
    tracks, dets = box_corners(track_boxes), box_corners(det_boxes)
    n, m = len(tracks), len(dets)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    score = iou_matrix(tracks, dets)
    matches = [(i, j) for i, j in _lexmin_optimal_pairs(score) if score[i, j] >= iou_threshold]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return (matches,
            [i for i in range(n) if i not in matched_t],
            [j for j in range(m) if j not in matched_d])


def iou_keypoint_entries(emitted, keypoints, match_iou=0.5):
    """{track id: keypoint entry} of one frame by IoU, as `track` paired them
    before each entry followed its track's detection: owner boxes against the
    emitted (track id, corners, detection index) boxes, one to one at the
    largest total IoU, ties as `array_associate` breaks them, pairs below
    `match_iou` dropped."""
    if not keypoints or not emitted:
        return {}
    matches, _, _ = array_associate([kp.owner_box for kp in keypoints],
                                    [corners for _, corners, _ in emitted], match_iou)
    return {str(emitted[t][0]): keypoints[k] for k, t in matches}


class TwoPassSort:
    """SORT over the module kernels of `tracking` with the emit and death rules
    in separate passes, and every box from `tracking._state_corners` of the
    filters, never from the corners `predict` and `update` return: associate
    on the predicted filters, update the matched ones in place, then every
    track is aged and kept while `time_since_update <= max_age`, newborns are
    appended, then a pass over all tracks emits those updated this frame with
    min_hits hits (any, while the stream is younger than min_hits), dropping
    boxes that are not finite or whose corners cross. Each emitted track
    carries the index of the hand detection it took, kept in a column of its
    own through the death filter."""

    def __init__(self, config):
        self.config = config
        self.ids, self.filters, self.hits, self.time_since_update = [], [], [], []
        self.frame_count, self.next_id = 0, 1

    def step(self, frame):
        cfg = self.config
        self.frame_count += 1
        det_rows = [d.box for d in frame.detections if d.category == HAND]
        filters, _ = tracking.predict(self.filters, tracking._PROCESS_VAR)
        hits = list(self.hits)
        since = [t + 1 for t in self.time_since_update]
        took = [None] * len(filters)  # the detection index each track took this frame
        matches, unmatched_dets = tracking.associate(
            tracking._state_corners(filters), det_rows, cfg.iou_threshold)
        if matches:
            tracking.update(filters, matches, tracking._measurements(det_rows),
                            tracking._MEASUREMENT_VAR)
            for i, j in matches:
                hits[i], since[i], took[i] = hits[i] + 1, 0, j
        keep = [t <= cfg.max_age for t in since]
        ids, filters, hits, since, took = ([x for x, k in zip(column, keep) if k]
                                           for column in (self.ids, filters, hits, since, took))
        for j in unmatched_dets:
            ids.append(self.next_id)
            filters.append(tracking.new_track(det_rows[j]))
            hits.append(1)
            since.append(0)
            took.append(j)
            self.next_id += 1
        self.ids, self.filters, self.hits, self.time_since_update = ids, filters, hits, since
        young = self.frame_count <= cfg.min_hits
        emit = [k for k, (t, h) in enumerate(zip(since, hits))
                if t == 0 and (young or h >= cfg.min_hits)]
        corners = tracking._state_corners([filters[k] for k in emit])
        return [(ids[k], c, took[k]) for k, c in zip(emit, corners)
                if c[0] < c[2] < inf and c[1] < c[3] < inf]


def naive_path_distance(points, mean_size):
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        total += ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
    return total / mean_size


def naive_velocity_series(points, mean_size, fps):
    out = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        d = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
        out.append(d / mean_size * fps)
    return out


def naive_diff_series(series, fps):
    return [(b - a) * fps for a, b in zip(series, series[1:])]


def naive_gapped_series(points, frames, mean_size, fps):
    """Velocity, acceleration and jerk of samples on strictly increasing
    `frames`, worked in seconds: each speed sits mid-step, each acceleration
    at the frame its two steps share, and each derivative divides by the
    time between the two samples it differences."""
    t = [f / fps for f in frames]
    vel, vel_t = [], []
    for k, ((x0, y0), (x1, y1)) in enumerate(zip(points, points[1:])):
        d = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5 / mean_size
        vel.append(d / (t[k + 1] - t[k]))
        vel_t.append((t[k] + t[k + 1]) / 2)
    acc = [(vel[k + 1] - vel[k]) / (vel_t[k + 1] - vel_t[k]) for k in range(len(vel) - 1)]
    acc_t = t[1:-1]
    jerk = [(acc[k + 1] - acc[k]) / (acc_t[k + 1] - acc_t[k]) for k in range(len(acc) - 1)]
    return vel, acc, jerk


def naive_pose_vectors(nine_points):
    """Eight chain vectors: palm->thumb1..4 then palm->index1..4, by hand."""
    p = [tuple(pt) for pt in nine_points]
    chain = []
    prev = p[0]
    for k in range(1, 5):
        chain.append((p[k][0] - prev[0], p[k][1] - prev[1]))
        prev = p[k]
    prev = p[0]
    for k in range(5, 9):
        chain.append((p[k][0] - prev[0], p[k][1] - prev[1]))
        prev = p[k]
    return chain


def naive_pose_change(nine_t, nine_t1, size_t):
    va = naive_pose_vectors(nine_t)
    vb = naive_pose_vectors(nine_t1)
    total = 0.0
    for (ax, ay), (bx, by) in zip(va, vb):
        total += abs(bx - ax) + abs(by - ay)
    return total / size_t


def naive_integrated_pose_distance(nine_seq, sizes):
    total = 0.0
    for k in range(len(nine_seq) - 1):
        total += naive_pose_change(nine_seq[k], nine_seq[k + 1], sizes[k])
    return total


def lda_projection_oracle(x, labels, gamma_factor=1e-3):
    """Top-2 generalized eigenvectors via the non-symmetric solver, with
    scatter matrices accumulated sample by sample."""
    import scipy.linalg

    x = np.asarray(x, dtype=float)
    labels = list(labels)
    classes = sorted(set(labels))
    d = x.shape[1]
    mean = x.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in classes:
        rows = [x[i] for i in range(len(x)) if labels[i] == c]
        mu = np.mean(rows, axis=0)
        for row in rows:
            diff = (row - mu)[:, None]
            s_w += diff @ diff.T
        gap = (mu - mean)[:, None]
        s_b += len(rows) * (gap @ gap.T)
    gamma = gamma_factor * np.trace(s_w) / d
    vals, vecs = scipy.linalg.eig(s_b, s_w + gamma * np.eye(d))
    order = np.argsort(-vals.real)
    top = vecs[:, order[:2]].real
    return top / np.linalg.norm(top, axis=0)


def naive_confusion_counts(pred, truth, labels):
    """Per-class TP/FP/FN from a step-by-step confusion count."""
    counts = {c: {"tp": 0, "fp": 0, "fn": 0} for c in labels}
    for p, t in zip(pred, truth):
        if p == t:
            counts[p]["tp"] += 1
        else:
            counts[p]["fp"] += 1
            counts[t]["fn"] += 1
    return counts


def naive_average_precision(dets, gts, iou_fn, iou_thresh=0.5):
    """AP by enumerating every prefix of the ranked detection list.

    dets: list of (confidence, box); gts: list of boxes. Re-matches from
    scratch for every prefix, then integrates the precision envelope by hand.
    """
    if not gts:
        return None
    if not dets:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][0], i))
    points = []
    for k in range(1, len(order) + 1):
        taken = [False] * len(gts)
        tp = 0
        for i in order[:k]:
            best_v, best_j = -1.0, None
            for j, g in enumerate(gts):
                if taken[j]:
                    continue
                v = iou_fn(dets[i][1], g)
                if v > best_v:
                    best_v, best_j = v, j
            if best_j is not None and best_v >= iou_thresh:
                taken[best_j] = True
                tp += 1
        points.append((tp / len(gts), tp / k))
    ap = 0.0
    prev_recall = 0.0
    for idx, (recall, _) in enumerate(points):
        if recall > prev_recall:
            peak = max(p for r, p in points[idx:] if r >= recall)
            ap += (recall - prev_recall) * peak
            prev_recall = recall
    return ap


def _naive_box_iou(a, b):
    """IoU of two (x0, y0, x1, y1) tuples by the textbook formula."""
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def naive_pck(pred_frames, truth_frames, alpha, match_iou=0.5):
    """Pooled PCK by walking every ground-truth frame.

    pred_frames / truth_frames: {frame_index: [(points, box), ...]} with
    points 21 (x, y, visible) rows and box (x0, y0, x1, y1). Hands pair by
    permutation search over owner-box IoU (pairs below `match_iou` dropped).
    Every visible truth keypoint counts once; it is a hit when a paired
    prediction lies within alpha * (width + height) / 2 of the truth box.
    A truth frame with no prediction frame counts all its keypoints as misses.
    """
    hits = valid = 0
    for f, truths in truth_frames.items():
        preds = pred_frames.get(f, [])
        score = np.zeros((len(preds), len(truths)))
        for i, (_, p_box) in enumerate(preds):
            for j, (_, t_box) in enumerate(truths):
                score[i, j] = _naive_box_iou(p_box, t_box)
        matches, _, _ = brute_force_assignment(score, match_iou)
        pred_of = {j: i for i, j in matches}
        for j, (t_pts, t_box) in enumerate(truths):
            size = ((t_box[2] - t_box[0]) + (t_box[3] - t_box[1])) / 2.0
            for k in range(21):
                if t_pts[k][2] <= 0.5:
                    continue
                valid += 1
                if j in pred_of:
                    p_pts = preds[pred_of[j]][0]
                    dist = ((p_pts[k][0] - t_pts[k][0]) ** 2
                            + (p_pts[k][1] - t_pts[k][1]) ** 2) ** 0.5
                    if dist <= alpha * size:
                        hits += 1
    return hits / valid if valid else None


def per_step_procedure_sequences(seed, n_per_class, classes, steps_range, opening_fraction):
    """(labels, counts, class name) per sequence, drawn as
    `synth.generate_procedure_sequences` drew them with one
    `rng.choice(ACTIONS, p=...)` and one array `rng.poisson` call per step.
    `classes` holds (name, quartile action probs, quartile tool rates)
    tuples. Returns the triples and each class's generator, whose final
    states a test compares."""
    out, rngs = [], []
    for c_idx, (name, action_probs, tool_rates) in enumerate(classes):
        rng = np.random.default_rng([seed, 555, c_idx])
        rngs.append(rng)
        for _ in range(n_per_class):
            n = int(rng.integers(steps_range[0], steps_range[1] + 1))
            head = max(1, int(round(opening_fraction * n)))
            labels = ["cutting"] * head
            counts = np.zeros((n, len(TOOL_CLASSES)))
            for k in range(n):
                q = min(4 * k // n, 3)
                if k >= head:
                    labels.append(str(rng.choice(ACTIONS, p=action_probs[q])))
                counts[k] = rng.poisson(tool_rates[q])
            out.append((labels, counts, name))
    return out, rngs


def per_step_walk(start, steps, lo, hi, reflect):
    """Bounded walks one step and one coordinate at a time: x + dx while that
    stays in [lo, hi], else x - dx (`reflect`) or x + dx clipped to [lo, hi]."""
    rows = [[float(x) for x in start]]
    for step in np.asarray(steps, dtype=float).tolist():
        row = []
        for x, dx in zip(rows[-1], step):
            v = x + dx
            row.append(v if lo <= v <= hi else x - dx if reflect else min(max(v, lo), hi))
        rows.append(row)
    return np.array(rows)


def per_step_bounded_walk(rng, n_steps, step_len, start, bounds=(150.0, 1800.0)):
    """The tie-clip centroid walk as `synth._bounded_walk` took it before it
    became a running sum: a heading turned and a step taken per iteration,
    and a coordinate whose step would leave `bounds` steps back instead."""
    lo, hi = bounds
    x, y = start
    pos = [(x, y)]
    theta = rng.uniform(0, 2 * np.pi)
    for turn in rng.normal(0, 0.5, size=n_steps).tolist():
        theta += turn
        dx, dy = math.cos(theta) * step_len, math.sin(theta) * step_len
        x = x + dx if lo <= x + dx <= hi else x - dx
        y = y + dy if lo <= y + dy <= hi else y - dy
        pos.append((x, y))
    return np.array(pos)


def per_step_pose_deforms(rng, n_frames, size, pose_rate):
    """The tie-clip pose walk's (n_frames, 9, 2) offsets from the hand
    template, as `synth._pose_sequence` took them before they became running
    sums: each of the 18 floats stepped and clipped to +-0.3 * size in turn."""
    deforms = [[0.0] * 18]
    noise = rng.normal(0, pose_rate * size, size=(n_frames - 1, 18)).tolist()
    lo, hi = -0.3 * size, 0.3 * size
    for step in noise:
        deforms.append([hi if (v := d + e) > hi else lo if v < lo else v
                        for d, e in zip(deforms[-1], step)])
    return np.array(deforms).reshape(n_frames, 9, 2)


def per_row_moving_average(curves, window):
    """Centered moving average, each row the mean of its truncated window."""
    half, n = window // 2, len(curves)
    return np.array([curves[max(0, i - half):i + half + 1].mean(axis=0) for i in range(n)])


def dict_aligned_frames(pred_stream, truth_stream):
    """(prediction frame or None, truth frame or None) for each frame index of
    two whole (header, frames) streams, as `evaluation._aligned_frames` paired
    them before it merged two frame iterators: through a dict of every frame of each."""
    preds = {fr.frame_index: fr for fr in pred_stream[1]}
    truths = {fr.frame_index: fr for fr in truth_stream[1]}
    return [(preds.get(k), truths.get(k)) for k in sorted(preds.keys() | truths.keys())]


def whole_stream_steps(stream, resolution_s):
    """The frames of each step of a whole (header, frames) stream, by the step rule applied
    to every frame in `Fraction` arithmetic: frame k to step
    floor((k / fps + TIMESTAMP_TOL_S) / resolution_s), or the last step if that is
    past it. There is a step for each j >= 0 with j * resolution_s < duration -
    TIMESTAMP_TOL_S, at least one, the duration being the header's duration_s or
    else (last + 1) / fps; without a duration_s, also one up to the last frame's
    step (which adds steps only above 5e5 fps, a frame period under two tolerances)."""
    header, frames = stream
    fps, r, tol = Fraction(header.fps), Fraction(resolution_s), Fraction(TIMESTAMP_TOL_S)
    index = [math.floor((fr.frame_index / fps + tol) / r) for fr in frames]
    duration = header.metadata.get("duration_s")
    if duration is None:
        end = Fraction(frames[-1].frame_index + 1) / fps if frames else 0
        n_steps = max(1, math.ceil((end - tol) / r), *(j + 1 for j in index))
    else:
        n_steps = max(1, math.ceil((Fraction(duration) - tol) / r))
    steps = [[] for _ in range(n_steps)]
    for fr, j in zip(frames, index):
        steps[min(j, n_steps - 1)].append(fr)
    return steps
