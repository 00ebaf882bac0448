import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import SevenStateKalman, brute_force_assignment, scaled_noise
from scenestream import (
    HAND,
    DataWarning,
    Detection,
    FrameRecord,
    HandKeypoints,
    InvariantError,
    box,
    tracking,
)
from scenestream.pipeline import track_stream
from scenestream.synth import CorruptionSpec, HandMotionSpec, SynthSpec, generate_stream
from scenestream.tracking import (
    SortTracker,
    TrackerConfig,
    _lexmin_optimal_pairs,
    _measurements,
    _overlap_scores,
    _state_corners,
    associate,
    new_track,
    predict,
    update,
)

CFG = TrackerConfig()
Q, R = tracking._PROCESS_VAR, tracking._MEASUREMENT_VAR


def use_noise(monkeypatch, process_noise, measurement_noise):
    """Make the tracker step with SORT's noise scaled as `scaled_noise` scales it."""
    q, r = scaled_noise(process_noise, measurement_noise)
    monkeypatch.setattr(tracking, "_PROCESS_VAR", q)
    monkeypatch.setattr(tracking, "_MEASUREMENT_VAR", r)


def one_track(pos, vel=(0.0, 0.0, 0.0), var=10.0):
    """Filters of one track at `pos` (u, v, s, r) moving at `vel` (du, dv, ds);
    every position and velocity variance is `var` (r has no velocity)."""
    return [[*map(float, pos), *map(float, vel), var, 0.0, var, var, 0.0, var, var]]


def born(b):
    """Filters of one track born on box `b`."""
    return [new_track(b)]


def rows(b):
    """Float corner rows of one box."""
    return [list(b)]


def positions(filters):
    """Per-track (u, v, s, r) positions."""
    return [filt[:4] for filt in filters]


def stacked(filters):
    """(5, N, 4) array of position, velocity, p00, p01 and p11 over (u, v, s, r):
    the shared uv covariance block fills both the u and the v column, and r's
    velocity, p01 and p11, which SORT's state does not have, are 0.0."""
    planes = [[f[:4], [*f[4:7], 0.0], [f[7], f[7], f[10], f[13]],
               [f[8], f[8], f[11], 0.0], [f[9], f[9], f[12], 0.0]] for f in filters]
    return np.array(planes, dtype=float).reshape(-1, 5, 4).transpose(1, 0, 2)


def per_axis(block_values):
    """(u, v, s, r) entries of a (uv, s, r) noise tuple."""
    return (block_values[0], *block_values)


def process_planes(process_var):
    """(2, 4) array of (position, velocity) process variance over (u, v, s, r)
    of a `_PROCESS_VAR`-shaped tuple; r's velocity variance is 0.0."""
    uv, s, r = process_var
    return np.array([uv, uv, s, (r, 0.0)]).T


def trace(filters):
    """Per-track trace of the covariance: position plus velocity variances,
    the uv block counted for u and for v."""
    return [2.0 * (f[7] + f[9]) + f[10] + f[12] + f[13] for f in filters]


def hand_frame(idx, boxes, fps=30.0):
    dets = tuple(Detection(box=b, category="hand", confidence=0.9) for b in boxes)
    return FrameRecord(frame_index=idx, timestamp_s=idx / fps, detections=dets)


# ---------------------------------------------------------------- config

def test_tracker_config_validation():
    with pytest.raises(InvariantError):
        TrackerConfig(iou_threshold=0.0)
    with pytest.raises(InvariantError):
        TrackerConfig(max_age=0)


def test_box_measurement_roundtrip():
    corners = rows(box(10, 20, 50, 100))
    kalman = born(box(10, 20, 50, 100))
    assert stacked(kalman)[:2, 0].tolist() == [[30.0, 60.0, 3200.0, 0.5], [0.0] * 4]
    # p00, p01 and p11 of the (u, v, s, r) blocks; r has no velocity
    assert stacked(kalman)[2:, 0].tolist() == [[10.0] * 4, [0.0] * 4, [1e4, 1e4, 1e4, 0.0]]
    assert _state_corners(kalman)[0] == pytest.approx(corners[0], abs=1e-9)
    assert _state_corners(one_track(_measurements(corners)[0]))[0] == \
        pytest.approx(corners[0], abs=1e-9)


# ---------------------------------------------------------------- predict

def test_predict_zero_velocity_keeps_box_and_grows_covariance():
    kalman = one_track([50, 60, 400, 1.0])
    out = predict(kalman, Q)
    assert _state_corners(out)[0] == pytest.approx(_state_corners(kalman)[0], abs=1e-9)
    assert trace(out)[0] > trace(kalman)[0]
    assert positions(out)[0][2] == 400.0
    # the tracker counts the frames a coasting track goes without an update
    tracker = SortTracker(TrackerConfig(min_hits=1))
    b = box(100, 100, 160, 160)
    tracker.step(hand_frame(0, [b]))
    assert tracker.time_since_update == [0]
    for k in range(1, 4):
        assert tracker.step(hand_frame(k, [])) == []
        assert tracker.time_since_update == [k]
        assert tracker.hits == [1]


def test_predict_advances_center_by_velocity():
    out = predict(one_track([50, 60, 400, 1.0], vel=[2.0, 0, 0]), Q)
    assert positions(out)[0][0] == pytest.approx(52.0, abs=1e-12)
    assert positions(out)[0][1] == pytest.approx(60.0, abs=1e-12)


def test_predict_ten_steps_matches_linear_extrapolation():
    pos, vel = [100.0, 80.0, 900.0, 1.0], [1.5, -0.5, 0.0]
    kalman = one_track(pos, vel)
    for _ in range(10):
        kalman = predict(kalman, Q)
    # closed-form straight-line oracle
    assert positions(kalman)[0][0] == pytest.approx(pos[0] + 10 * vel[0], abs=1e-9)
    assert positions(kalman)[0][1] == pytest.approx(pos[1] + 10 * vel[1], abs=1e-9)


def test_predict_clamps_degenerate_area():
    out = predict(one_track([50, 60, 1.0, 1.0], vel=[0, 0, -5.0]), Q)
    assert positions(out)[0][2] == tracking._AREA_EPS


def test_state_corners_clamp_like_np_maximum():
    # the array form the scalar loop replaced: NaN passes every clamp, and
    # a tie with the bound returns the bound, as np.maximum does
    def array_corners(pos):
        s = np.maximum(pos[:, 2], 1e-6)
        half = np.empty((len(pos), 2))
        half[:, 0] = np.sqrt(s * np.maximum(pos[:, 3], 1e-6))
        half[:, 1] = s / half[:, 0]
        half /= 2.0
        return np.hstack([np.maximum(pos[:, :2] - half, 0.0), pos[:, :2] + half])

    nan = float("nan")
    pos = [[nan, 60.0, 400.0, 1.0], [50.0, 60.0, nan, 1.0], [50.0, 60.0, 400.0, nan],
           [10.0, 5.0, 400.0, 1.0], [-0.0, 0.0, 1e-6, 1e-6], [50.0, 60.0, -3.0, -1.0],
           [3.0, 2.0, 36.0, 1.0]]
    got = np.array(_state_corners([one_track(p)[0] for p in pos]))
    want = array_corners(np.array(pos))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    out = predict(one_track([50.0, 60.0, nan, 1.0]), Q)
    assert math.isnan(positions(out)[0][2])


# ---------------------------------------------------------------- associate

def test_associate_single_pair_matched():
    t = [[0.0, 0.0, 10.0, 10.0]]
    d = [[1.0, 0.0, 11.0, 10.0]]
    matches, ud = associate(t, d, 0.3)
    assert matches == [(0, 0)] and ud == []


def test_associate_below_threshold_unmatched():
    t = [[0.0, 0.0, 10.0, 10.0]]
    d = [[9.0, 9.0, 19.0, 19.0]]
    matches, ud = associate(t, d, 0.3)
    assert matches == [] and ud == [0]


def test_associate_empty_inputs():
    assert associate([], [], 0.3) == ([], [])
    assert associate([[0.0, 0.0, 1.0, 1.0]], [], 0.3) == ([], [])
    assert associate([], [[0.0, 0.0, 1.0, 1.0]], 0.3) == ([], [0])


def test_associate_3x3_equals_permutation_search():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tracks = [box(x, y, x + 10, y + 10)
                  for x, y in rng.uniform(0, 30, size=(3, 2))]
        dets = [box(x, y, x + 10, y + 10)
                for x, y in rng.uniform(0, 30, size=(3, 2))]
        got = associate(tracks, dets, 0.1)
        score = np.array([[_iou(t, d) for d in dets] for t in tracks])
        want = brute_force_assignment(score, 0.1)
        assert (sorted(got[0]), sorted(got[1])) == (sorted(want[0]), sorted(want[2]))


def _iou(a, b):
    from scenestream import iou
    return iou(a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_associate_matches_brute_force_up_to_6x6(n, m, seed):
    rng = np.random.default_rng(seed)
    score = rng.uniform(0, 1, size=(n, m))
    from scenestream.tracking import _lexmin_optimal_pairs
    pairs = _lexmin_optimal_pairs(score)
    want, _, _ = brute_force_assignment(score, -1.0)
    assert sorted(pairs) == sorted(want)


# ---------------------------------------------------------------- update

def test_update_zero_innovation_keeps_mean_shrinks_covariance():
    z = _measurements(rows(box(40, 50, 60, 90)))
    kalman = one_track(z[0])
    out = update(kalman, z, R)
    assert stacked(out)[:2, 0] == pytest.approx(stacked(kalman)[:2, 0], abs=1e-12)
    assert trace(out)[0] < trace(kalman)[0]
    # the tracker counts a matched frame as a hit and resets the coasting count
    tracker = SortTracker(TrackerConfig(min_hits=1))
    b = box(100, 100, 160, 160)
    tracker.step(hand_frame(0, [b]))
    tracker.step(hand_frame(1, []))
    assert (tracker.hits, tracker.time_since_update) == ([1], [1])
    tracker.step(hand_frame(2, [b]))
    assert (tracker.hits, tracker.time_since_update) == ([2], [0])


def test_update_repeated_measurements_converge_to_measurement():
    z = _measurements(rows(box(200, 100, 260, 180)))
    kalman = born(box(100, 60, 140, 120))
    errs = []
    for k in range(2000):
        kalman = predict(kalman, Q)
        kalman = update(kalman, z, R)
        rel = np.abs(np.subtract(positions(kalman)[0], z[0])) / np.maximum(np.abs(z[0]), 1.0)
        errs.append(np.max(rel))
    assert errs[-1] < 1e-9
    assert errs[-1] < errs[20]


def test_update_covariance_symmetric_psd():
    # each block is symmetric by construction (p01 is stored once); a 2x2
    # symmetric block is PSD when its diagonal and determinant are >= 0
    kalman = born(box(10, 10, 40, 60))
    rng = np.random.default_rng(3)
    for k in range(25):
        jitter = rng.normal(0, 2, size=2)
        b = box(10 + jitter[0] + k, 10 + jitter[1], 40 + jitter[0] + k, 60 + jitter[1])
        kalman = predict(kalman, Q)
        kalman = update(kalman, _measurements(rows(b)), R)
        p00, p01, p11 = stacked(kalman)[2:, 0]
        assert p00.min() >= -1e-9 and p11.min() >= -1e-9
        assert (p00 * p11 - p01 * p01).min() >= -1e-9


def test_predicted_variances_keep_every_innovation_variance_positive(monkeypatch):
    # why `update` has no failure path: after `predict` each position variance
    # is at least its process variance (F P F^T adds [1 1] P [1 1]^T >= 0 of a
    # PSD block), so S = p00 + R >= q0 + R > 0; and the covariance stays
    # finite while tracks coast through gaps of up to max_age frames and die
    (qa, _), (qs, _), qr = Q
    real, predicted = tracking.predict, []

    def checked(filters, process_var):
        out = real(filters, process_var)
        for f in out:
            assert f[7] >= qa and f[10] >= qs and f[13] >= qr, f
            assert all(map(math.isfinite, f[7:])), f
        predicted.append(len(out))
        return out

    monkeypatch.setattr(tracking, "predict", checked)
    rng = np.random.default_rng(17)
    tracker = SortTracker()
    hidden, coasted = [0, 0, 0], 0
    for k in range(900):
        boxes = []
        for h in range(3):
            if hidden[h] == 0 and rng.random() < 0.05:
                hidden[h] = int(rng.integers(1, CFG.max_age + 4))
            if hidden[h]:
                hidden[h] -= 1
                continue
            x, y = (float(v) for v in rng.normal([100.0 + 200.0 * h, 150.0], 2.0))
            boxes.append(box(x, y, x + 60.0, y + 80.0))
        tracker.step(hand_frame(k, boxes))
        coasted = max([coasted, *tracker.time_since_update])
    assert coasted == CFG.max_age and len(predicted) == 900 and sum(predicted) > 2000


# ---------------------------------------------------------------- lifecycle

def test_single_stationary_detection_keeps_one_id():
    tracker = SortTracker()
    b = box(100, 100, 160, 160)
    ids = set()
    for k in range(20):
        out = tracker.step(hand_frame(k, [b]))
        assert len(out) == 1
        ids.add(out[0][0])
    assert len(ids) == 1


def test_gap_longer_than_max_age_creates_new_id():
    cfg = TrackerConfig(max_age=3, min_hits=1)
    tracker = SortTracker(cfg)
    b = box(100, 100, 160, 160)
    first = tracker.step(hand_frame(0, [b]))[0][0]
    for k in range(1, 6):  # max_age + 2 missing frames
        assert tracker.step(hand_frame(k, [])) == []
    second = tracker.step(hand_frame(6, [b]))[0][0]
    assert second != first


def test_gap_within_max_age_keeps_id():
    cfg = TrackerConfig(max_age=5, min_hits=1)
    tracker = SortTracker(cfg)
    b = box(100, 100, 160, 160)
    first = tracker.step(hand_frame(0, [b]))[0][0]
    for k in range(1, 4):
        tracker.step(hand_frame(k, []))
    again = tracker.step(hand_frame(4, [b]))
    assert again[0][0] == first


def test_track_ids_unique_never_reused():
    cfg = TrackerConfig(max_age=1, min_hits=1)
    tracker = SortTracker(cfg)
    seen = []
    for k in range(30):
        boxes = [box(100, 100, 160, 160)] if (k // 3) % 2 == 0 else []
        for tid, _, _ in tracker.step(hand_frame(k, boxes)):
            seen.append(tid)
    # each contiguous appearance gets a fresh id; ids never repeat after a gap
    runs = []
    for tid in seen:
        if not runs or runs[-1] != tid:
            runs.append(tid)
    assert len(runs) == len(set(runs))
    assert runs == sorted(runs)


def test_zero_noise_output_equals_detections(monkeypatch):
    use_noise(monkeypatch, 1e-6, 1e-12)
    tracker = SortTracker(TrackerConfig(min_hits=1))
    for k in range(10):
        b = box(100 + 3 * k, 50 + 2 * k, 160 + 3 * k, 110 + 2 * k)
        out = tracker.step(hand_frame(k, [b]))
        assert len(out) == 1
        assert out[0][1] == pytest.approx(list(b), abs=1e-6)


def test_cycle_matches_least_squares_line_after_burn_in():
    tracker = SortTracker()
    frames, centers_x, centers_y = [], [], []
    est = {}
    n = 150
    for k in range(n):
        b = box(50 + 2.0 * k, 400 - 1.5 * k, 110 + 2.0 * k, 470 - 1.5 * k)
        centers_x.append((b[0] + b[2]) / 2)
        centers_y.append((b[1] + b[3]) / 2)
        frames.append(k)
        for tid, (x0, y0, x1, y1), _ in tracker.step(hand_frame(k, [b])):
            est[k] = ((x0 + x1) / 2, (y0 + y1) / 2)
    # independent straight-line least-squares fit on the measurements
    px = np.polyfit(frames, centers_x, 1)
    py = np.polyfit(frames, centers_y, 1)
    for k in range(n - 20, n):
        ex, ey = est[k]
        assert ex == pytest.approx(np.polyval(px, k), abs=1e-6)
        assert ey == pytest.approx(np.polyval(py, k), abs=1e-6)


_HAND_PATH = st.tuples(
    st.floats(0, 300), st.floats(0, 300),  # first corner
    st.floats(10, 80), st.floats(10, 80),  # size
    st.floats(-25, 25), st.floats(-25, 25),  # pixels per frame; a hand may leave the frame
    st.lists(st.booleans(), min_size=40, max_size=40))  # detected on frame k


@settings(max_examples=60, deadline=None)
@given(paths=st.lists(_HAND_PATH, min_size=1, max_size=5),
       min_hits=st.integers(1, 3), max_age=st.integers(1, 4),
       iou_threshold=st.sampled_from([0.1, 0.3]), gap=st.integers(0, 8))
def test_step_equals_the_two_pass_reference(paths, min_hits, max_age, iou_threshold, gap):
    # emitting from the update and birth loops, and filtering deaths only when
    # a track is past max_age, gives the reference's output and state frame by
    # frame; every hand is missing from frame 10 for `gap` frames, longer than
    # max_age when gap > max_age, and a hand whose box would cross x = 0 or
    # y = 0 is not detected while its track coasts out of the frame. Each
    # emitted track names the detection it took, as in the reference
    cfg = TrackerConfig(iou_threshold=iou_threshold, max_age=max_age, min_hits=min_hits)
    tracker, reference = SortTracker(cfg), oracles.TwoPassSort(cfg)
    for k in range(40):
        boxes = []
        for x, y, w, h, vx, vy, seen in paths:
            x0, y0 = x + vx * k, y + vy * k
            if seen[k] and not 10 <= k < 10 + gap and x0 >= 0 and y0 >= 0:
                boxes.append(box(x0, y0, x0 + w, y0 + h))
        frame = hand_frame(k, boxes)
        assert tracker.step(frame) == reference.step(frame)
        assert (tracker.ids, tracker.filters, tracker.hits, tracker.time_since_update) == (
            reference.ids, reference.filters, reference.hits, reference.time_since_update)


@pytest.mark.parametrize("min_hits, max_age", [(1, 1), (3, 1), (3, 2)])
def test_step_equals_the_two_pass_reference_on_twelve_lanes(min_hits, max_age):
    lanes = tuple(HandMotionSpec(region=(40.0 + 103 * i, 150.0, 40.0 + 103 * i + 60, 570.0))
                  for i in range(12))
    spec = SynthSpec(seed=29, fps=30.0, duration_s=4.0, hands=lanes,
                     corruption=CorruptionSpec(dropout_rate=0.3, jitter_sigma=2.0))
    (_, frames), _ = generate_stream(spec, 0)
    cfg = TrackerConfig(max_age=max_age, min_hits=min_hits)
    tracker, reference = SortTracker(cfg), oracles.TwoPassSort(cfg)
    emitted = 0
    for frame in frames:
        out = tracker.step(frame)
        assert out == reference.step(frame)
        emitted += len(out)
    assert emitted > 0 and reference.next_id > 13  # tracks died and were born again


# ---------------------------------------------------------------- batched geometry and ties

def test_overlap_scores_equal_scalar_iou_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(300):
        boxes = []
        for _ in range(int(rng.integers(2, 10))):
            if rng.random() < 0.5:
                # lattice boxes share edges, sit at x = 0 or y = 0, or are disjoint
                x, y = (float(v) for v in rng.integers(0, 6, size=2) * 5)
                w, h = (float(v) for v in rng.integers(1, 4, size=2) * 5)
            else:
                # clamped at 0 the way the tracker clamps predicted boxes
                x, y = (max(float(v), 0.0) for v in rng.uniform(-10, 30, size=2))
                w, h = (float(v) for v in rng.uniform(0.5, 20, size=2))
            boxes.append(box(x, y, x + w, y + h))
        cut = int(rng.integers(1, len(boxes)))
        a, b = boxes[:cut], boxes[cut:]
        scores = _overlap_scores(a, b)
        assert scores == [{j: _iou(p, q) for j, q in enumerate(b) if _iou(p, q) > 0}
                          for p in a]
        dense = np.array([[row.get(j, 0.0) for j in range(len(b))] for row in scores])
        assert np.array_equal(dense, oracles.iou_matrix(oracles.box_corners(a),
                                                        oracles.box_corners(b)))


def test_overlap_scores_leave_out_predictions_past_the_edge_and_nan():
    # corners of predictions that left over the left or top edge after
    # clamping, and a NaN in each corner; the array form scores them all 0
    nan = math.nan
    gone = [[0.0, 10.0, -4.0, 50.0], [0.0, 0.0, 30.0, 0.0], [0.0, 0.0, 0.0, 0.0],
            [0.0, 30.0, 40.0, 10.0], [30.0, 0.0, 10.0, 40.0],
            [nan, 0.0, 40.0, 40.0], [0.0, nan, 40.0, 40.0], [0.0, nan, 40.0, nan],
            [0.0, 0.0, nan, 40.0], [0.0, 0.0, 40.0, nan]]
    dets = [box(0, 0, 40, 40), box(0, 10, 1, 50)]
    assert _overlap_scores(gone, dets) == [{}] * len(gone)
    assert np.array_equal(oracles.iou_matrix(np.array(gone), oracles.box_corners(dets)),
                          np.zeros((len(gone), 2)))


def test_overlap_scores_keep_a_pair_exactly_when_ix_and_iy_are_positive():
    # a track row is left out when its corners cross or are NaN, and a pair
    # when it only touches an edge; the reference is the scorer's form before
    # it compared corners first: ix and iy worked out for every pair, each
    # min/max written as a comparison so that a NaN corner propagates
    nan, inf = math.nan, math.inf
    dets = [box(0, 0, 40, 40), box(40, 40, 80, 80), box(10, 10, 20, 20)]
    edge_rows = [[0.0, 45.0, 40.0, 5.0], [0.0, 30.0, 40.0, 10.0], [30.0, 0.0, 10.0, 40.0],
                 [0.0, nan, 40.0, nan], [nan, nan, nan, nan],
                 [inf, 0.0, inf, 40.0], [0.0, inf, 40.0, inf], [0.0, 0.0, inf, 40.0],
                 [0.0, 0.0, 40.0, inf], [-inf, -inf, inf, inf], [-inf, 0.0, -inf, 40.0],
                 [40.0, 0.0, 80.0, 40.0], [0.0, 40.0, 40.0, 80.0], [80.0, 80.0, 90.0, 90.0],
                 [20.0, 0.0, 40.0, 10.0], [39.5, 39.5, 40.5, 40.5], [5e-324, 0.0, 1e-323, 40.0]]
    for row in edge_rows:
        want = {}
        for j, (c0, c1, c2, c3) in enumerate(dets):
            a0, a1, a2, a3 = row
            ix = (c2 if c2 < a2 else a2) - (c0 if c0 > a0 else a0)
            iy = (c3 if c3 < a3 else a3) - (c1 if c1 > a1 else a1)
            if ix > 0 and iy > 0:
                want[j] = ix * iy / ((a2 - a0) * (a3 - a1) + (c2 - c0) * (c3 - c1) - ix * iy)
        assert _overlap_scores([row], dets) == [want], row
    assert [sorted(row) for row in _overlap_scores(edge_rows, dets)] == [
        [], [], [], [], [], [], [], [0, 2], [0, 2], [0, 1, 2], [], [], [], [], [0], [0, 1], [0]]


def _tied_pair(rng, gap):
    """A track row and two detection rows whose IoUs with it differ by about
    `gap`: widening a 10 x 10 box by e gives IoU 10 / (10 + e)."""
    x, y = (float(v) for v in rng.uniform(0, 40, size=2))
    e1 = float(rng.uniform(0.5, 4.0))
    e2 = 10.0 / (10.0 / (10.0 + e1) - gap) - 10.0
    return ([x, y, x + 10.0, y + 10.0],
            [[x, y, x + 10.0, y + 10.0 + e1], [x, y, x + 10.0 + e2, y + 10.0]])


def _association_case(rng):
    """Track rows, detection rows and a threshold from one of the input kinds
    where the certificate of `associate` holds, fails, or sits at its bound."""
    def box():
        x, y = (float(v) for v in rng.uniform(0, 60, size=2))
        w, h = (float(v) for v in rng.uniform(5, 30, size=2))
        return [x, y, x + w, y + h]

    n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
    tracks, dets = [box() for _ in range(n)], [box() for _ in range(m)]
    kind = int(rng.integers(0, 6))
    if kind == 1 and tracks:  # exact duplicate boxes
        dets += [list(tracks[int(rng.integers(0, n))]) for _ in range(2)]
    elif kind == 2 and tracks:  # symmetric rows: two tracks on the same box
        tracks.insert(int(rng.integers(0, n)), list(tracks[int(rng.integers(0, n))]))
    elif kind == 3:  # a gap near the certificate bound of 2e-9
        track, pair = _tied_pair(rng, float(rng.uniform(0.5e-9, 5e-9)))
        tracks.insert(int(rng.integers(0, n + 1)), track)
        for det in pair:
            dets.insert(int(rng.integers(0, len(dets) + 1)), det)
    elif kind == 4 and tracks:  # a NaN corner, or corners crossed by the clamp
        row = tracks[int(rng.integers(0, n))]
        if rng.random() < 0.5:
            row[int(rng.integers(0, 4))] = math.nan
        else:
            row[0], row[2] = 0.0, -float(rng.uniform(0.0, 5.0))
    threshold = float(rng.choice([0.05, 0.3, 0.5]))
    scores = [s for row in _overlap_scores(tracks, dets) for s in row.values()]
    if kind == 5 and scores:  # a threshold equal to a score
        threshold = float(rng.choice(scores))
    return tracks, dets, threshold


def test_associate_equals_array_associate(monkeypatch):
    # the overlap scores and the certificate give the matches and unmatched
    # detections of the dense matrix and the solver
    solved = []
    real = tracking._lexmin_optimal_pairs
    monkeypatch.setattr(tracking, "_lexmin_optimal_pairs",
                        lambda score: solved.append(score.shape) or real(score))
    rng = np.random.default_rng(2024)
    certified = 0
    for _ in range(3000):
        tracks, dets, threshold = _association_case(rng)
        matches, _, unmatched_dets = oracles.array_associate(
            np.array(tracks).reshape(-1, 4), np.array(dets).reshape(-1, 4), threshold)
        calls = len(solved)
        assert associate(tracks, dets, threshold) == (matches, unmatched_dets)
        certified += len(solved) == calls
    assert 300 < certified < 2700 and len(solved) > 300


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 6),
       values=st.sampled_from([(0, 1, 2), (0, 0, 0, 0, 0, 1, 2)]))
def test_lexmin_pairs_break_exact_ties_like_brute_force(data, n, m, values):
    # integer scores (dense 0-2, or zero-heavy) sum exactly, so ties are real
    cells = data.draw(st.lists(st.sampled_from(values), min_size=n * m, max_size=n * m))
    score = np.array(cells, dtype=float).reshape(n, m)
    want, _, _ = brute_force_assignment(score, -1.0)
    assert _lexmin_optimal_pairs(score) == want


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 10_000))
@example(n=3, m=3, seed=4)  # optimal totals 2.4 and 2.4000000000000004
def test_lexmin_pairs_break_one_decimal_ties_like_brute_force(n, m, seed):
    # one-decimal scores: equal totals summed in another order can differ in
    # the last bit, and totals within 1e-9 count as tied
    score = np.round(np.random.default_rng(seed).uniform(0, 1, size=(n, m)), 1)
    want, _, _ = brute_force_assignment(score, -1.0)
    assert _lexmin_optimal_pairs(score) == want


# 12 hands in lanes 103 px apart
LANES = tuple(HandMotionSpec(region=(60.0 + 103.0 * i, 150.0, 90.0 + 103.0 * i, 570.0))
              for i in range(12))


def _lane_frames(seed, dropout=0.05):
    spec = SynthSpec(seed=seed, fps=30.0, duration_s=5.0, hands=LANES,
                     corruption=CorruptionSpec(dropout_rate=dropout, jitter_sigma=2.0))
    return generate_stream(spec, 0)[0][1]


def _solves_on(frames, monkeypatch):
    """(assignment solves, frames with tracks and detections) of tracking `frames`."""
    calls = []
    real = tracking.linear_sum_assignment
    monkeypatch.setattr(tracking, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or real(cost))
    tracker = SortTracker()
    nonempty = 0
    for frame in frames:
        nonempty += bool(tracker.ids and frame.detections)
        tracker.step(frame)
    return len(calls), nonempty


@pytest.mark.parametrize("seed", [7, 22])
def test_one_assignment_solve_per_frame_on_twelve_lanes(seed, monkeypatch):
    solves, nonempty = _solves_on(_lane_frames(seed), monkeypatch)
    assert nonempty > 100
    assert solves <= 1.02 * nonempty


def test_no_assignment_solve_on_twelve_lanes_without_dropout(monkeypatch):
    # each track overlaps only its own lane's detection, which certifies the pairing
    solves, nonempty = _solves_on(_lane_frames(7, dropout=0.0), monkeypatch)
    assert nonempty > 100 and solves == 0


def test_batched_kernels_equal_batch_of_one_bit_for_bit():
    # a row's arithmetic must not depend on how many rows share the batch
    rng = np.random.default_rng(5)
    tracks, dets = [], []
    for k in range(6):
        x, y = rng.uniform(50, 500, size=2)
        kalman = born(box(x, y, x + 60, y + 80))
        for _ in range(int(rng.integers(0, 6))):
            dx, dy = rng.normal(0, 3, size=2)
            z = _measurements(rows(box(x + dx, y + dy, x + dx + 60, y + dy + 80)))
            kalman = predict(kalman, Q)
            kalman = update(kalman, z, R)
        tracks += kalman
        dets.append(box(x + 2, y + 1, x + 63, y + 80))
    z = _measurements(dets)
    predicted = predict(tracks, Q)
    updated = update(tracks, z, R)
    for k in range(6):
        one = predict(tracks[k:k + 1], Q)
        assert predicted[k] == one[0]
        one = update(tracks[k:k + 1], z[k:k + 1], R)
        assert updated[k] == one[0]


def test_kernels_equal_the_array_form_bit_for_bit():
    # the per-track loops keep the operation order of the (5, N, 4) array
    # kernels they replaced, so every state is identical and every array
    # update is finite; shrinking areas and aspects drive the clamps
    rng = np.random.default_rng(13)
    q = process_planes(Q)
    for _ in range(20):
        boxes = rng.uniform(5, 300, size=(int(rng.integers(1, 7)), 4)).tolist()
        kalman = [new_track([x, y, x + w, y + h]) for x, y, w, h in boxes]
        for filt in kalman:
            filt[4:7] = rng.normal(0, 3, size=3).tolist()  # du, dv, ds
        kalman[0][6] = -float(rng.uniform(1e3, 1e5))  # area shrinks past 0
        for _ in range(15):
            want, _ = oracles.array_predict(stacked(kalman), q)
            kalman = predict(kalman, Q)
            assert np.array_equal(stacked(kalman), want)
            hit = sorted(rng.choice(len(kalman), size=int(rng.integers(1, len(kalman) + 1)),
                                    replace=False).tolist())
            z = [[float(v) for v in rng.normal(positions(kalman)[k], [3, 3, 200, 0.4])]
                 for k in hit]
            want, want_ok, _ = oracles.array_update(
                stacked(kalman)[:, hit], np.array(z), np.array(per_axis(R)))
            updated = update([kalman[k] for k in hit], z, R)
            assert np.array_equal(stacked(updated), want)
            assert want_ok.all()
            for k, filt in zip(hit, updated):
                kalman[k] = filt


def test_non_finite_inputs_propagate_like_the_array_form():
    # a NaN or inf measurement, or an infinite variance in one block, reaches
    # the same entries as in the array form; r's velocity, p01 and p11 are
    # left out, as the array form's can turn NaN through 0 * NaN
    pos, box = [50.0, 60.0, 400.0, 1.0], [40.0, 50.0, 60.0, 70.0]
    r = np.array(per_axis(R))
    kept = np.ones((5, 1, 4), dtype=bool)
    kept[[1, 3, 4], 0, 3] = False
    cases = []
    for bad in (math.nan, math.inf, -math.inf):
        for axis in range(4):
            z = _measurements([box])
            z[0][axis] = bad
            cases.append((one_track(pos), z))
    for block in (7, 10, 13):  # p00 of the uv and s blocks, r's variance
        kalman = one_track(pos)
        kalman[0][block] = math.inf
        cases.append((kalman, _measurements([box])))
    for kalman, z in cases:
        with np.errstate(invalid="ignore"):
            want, _, _ = oracles.array_update(stacked(kalman), np.array(z), r)
        out = update(kalman, z, R)
        assert np.array_equal(stacked(out)[kept], want[kept], equal_nan=True), (kalman, z)


def test_kernels_equal_the_array_form_over_2000_frames():
    # the covariance settles only after about 1690 updates (then the s block
    # cycles with period 2), so the kernels and the array form run side by
    # side, each on its own state, long enough to reach it: track 0 is matched
    # every frame, the others coast through gaps of up to max_age frames. The
    # array form carries r's velocity, p01 and p11, and they stay exactly 0.0
    rng = np.random.default_rng(29)
    q, r = process_planes(Q), np.array(per_axis(R))
    boxes = rng.uniform(50, 400, size=(5, 2)).tolist()
    kalman = [new_track([x, y, x + 60.0, y + 80.0]) for x, y in boxes]
    array = stacked(kalman)
    phase = rng.uniform(0, 2 * np.pi, size=5)
    gap = [0] * 5
    first_seen = {}
    for t in range(2000):
        array, _ = oracles.array_predict(array, q)
        kalman = predict(kalman, Q)
        assert np.array_equal(stacked(kalman), array)
        assert not array[[1, 3, 4], :, 3].any()
        hit = []
        for k in range(5):
            if k and gap[k] == 0 and rng.random() < 0.1:
                gap[k] = int(rng.integers(1, CFG.max_age + 1))
            if gap[k] > 0:
                gap[k] -= 1
            else:
                hit.append(k)
        x = [boxes[k][0] + 80.0 * math.sin(t / 40.0 + phase[k]) for k in hit]
        z = [[float(v) for v in rng.normal([c, boxes[k][1] + 40.0, 4800.0, 0.75],
                                           [2, 2, 300, 0.05])] for c, k in zip(x, hit)]
        want, want_ok, _ = oracles.array_update(array[:, hit], np.array(z), r)
        array[:, hit] = want
        for k, filt in zip(hit, update([kalman[k] for k in hit], z, R)):
            kalman[k] = filt
        assert np.array_equal(stacked(kalman), array)
        assert want_ok.all() and not array[[1, 3, 4], :, 3].any()
        first_seen.setdefault(tuple(kalman[0][7:]), t)
    assert first_seen[tuple(kalman[0][7:])] < 1999  # track 0's covariance repeats


# ---------------------------------------------------------------- seven-state oracle

def _oracle_sequence(seed, frames=60, noise=(1.0, 1.0)):
    """Drive the kernels and one `SevenStateKalman` per track through random
    births, predicts, updates and coasting gaps under SORT's noise scaled by
    `noise` = (process_noise, measurement_noise); yields (kalman, oracles)
    after every kernel call."""
    rng = np.random.default_rng(seed)
    q, r = scaled_noise(*noise)
    kalman, oracles, truth, gap = [], [], [], []
    for _ in range(frames):
        if not oracles or (len(oracles) < 6 and rng.random() < 0.15):
            x, y = rng.uniform(50, 800, size=2)
            w, h = rng.uniform(30, 120, size=2)
            truth.append([x, y, w, h, *rng.normal(0, 3, size=2), rng.normal(0, 0.5)])
            gap.append(0)
            corners = np.array([x, y, x + w, y + h])
            oracles.append(SevenStateKalman(corners, *noise))
            kalman.append(new_track(corners.tolist()))
            yield kalman, oracles
        kalman = predict(kalman, q)
        for oracle in oracles:
            oracle.predict()
        yield kalman, oracles
        hit, corners = [], []
        for k, t in enumerate(truth):
            t[0] += t[4]
            t[1] += t[5]
            t[2] = max(t[2] + t[6], 5.0)
            if gap[k] == 0 and rng.random() < 0.05:
                gap[k] = int(rng.integers(2, 12))  # the track coasts this many frames
            if gap[k] > 0:
                gap[k] -= 1
                continue
            x, y = t[0] + rng.normal(0, 2), t[1] + rng.normal(0, 2)
            hit.append(k)
            corners.append([x, y, x + t[2] + rng.normal(0, 2), y + t[3] + rng.normal(0, 2)])
        if hit:
            corners = np.array(corners)
            updated = update([kalman[k] for k in hit], _measurements(corners.tolist()), r)
            for k, filt, c in zip(hit, updated, corners):
                kalman[k] = filt
                oracles[k].update(c)
            yield kalman, oracles


def _blocks(oracle):
    """(pos, vel, p00, p01, p11), each over (u, v, s, r), of a 7-state filter."""
    x, P = oracle.x, oracle.P
    vel, p01, p11 = (np.append(a, 0.0)  # r has no velocity
                     for a in (x[4:], P[:3, 4:].diagonal(), P[4:, 4:].diagonal()))
    return np.array([x[:4], vel, P[:4, :4].diagonal(), p01, p11])


def test_kernels_match_seven_state_oracle():
    # per axis, the (position, velocity) pair and the 2x2 block each match
    # within 1e-9 relative to their largest entry: a velocity near 0 is the
    # difference of positions near 1e3, so its own relative error is not
    # bounded by rounding
    assert scaled_noise(1.0, 1.0) == (Q, R)  # the oracle's unscaled noise is SORT's
    for seed in range(20):
        calls = 0
        for kalman, oracles in _oracle_sequence(seed):
            calls += 1
            for k, oracle in enumerate(oracles):
                want = _blocks(oracle)
                err = np.abs(stacked(kalman)[:, k] - want)
                for planes in (slice(0, 2), slice(2, 5)):
                    scale = np.abs(want[planes]).max(axis=0)
                    assert (err[planes].max(axis=0) <= 1e-9 * scale).all(), (seed, calls, k)
        assert calls > 100


def test_seven_state_covariance_stays_block_diagonal():
    # the reason the per-axis split is exact: F, H, Q, R and P0 never couple
    # two axes, so every entry outside the (axis, axis velocity) blocks is 0.0
    block = np.eye(7, dtype=bool)
    for a in range(3):
        block[a, a + 4] = block[a + 4, a] = True
    for seed in range(20):
        for _, oracles in _oracle_sequence(seed):
            for oracle in oracles:
                assert np.all(oracle.P[~block] == 0.0), seed


@pytest.mark.parametrize("cfg", [(1.0, 1.0), (1e-6, 1e-12)])
def test_seven_state_uv_blocks_stay_bitwise_equal(cfg):
    # the reason u and v can share one covariance block: the covariance never
    # reads a measurement, and u and v start with, and add, the same variances
    for seed in range(20):
        for _, oracles in _oracle_sequence(seed, noise=cfg):
            for oracle in oracles:
                P = oracle.P
                assert (P[0, 0], P[0, 4], P[4, 4]) == (P[1, 1], P[1, 5], P[5, 5]), seed


# ---------------------------------------------------------------- keypoint entries

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), lanes=st.booleans(),
       dropout=st.sampled_from([0.05, 0.3]), jitter=st.sampled_from([1.0, 2.0, 4.0]))
def test_keypoint_entries_follow_their_detections_as_iou_pairing_paired_them(
        seed, lanes, dropout, jitter):
    # every owner box is its detection's box, as `synth` writes them: each
    # track's entry, found through the detection it took, is the one the IoU
    # pairing of owner boxes with emitted track boxes gave it, on 2 hands and
    # on 12 lanes
    spec = SynthSpec(seed=seed, fps=30.0, duration_s=2.0, with_keypoints=True,
                     hands=LANES if lanes else SynthSpec().hands,
                     corruption=CorruptionSpec(dropout_rate=dropout, jitter_sigma=jitter))
    (_, frames), _ = generate_stream(spec, 0)
    reference = SortTracker()
    paired = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = list(track_stream(frames))
    for fr, row in zip(frames, rows):
        want = oracles.iou_keypoint_entries(reference.step(fr), fr.keypoints)
        assert row.get("kps", {}) == want, fr.frame_index
        paired += len(want)
    assert paired > 0
    assert not [w for w in caught if issubclass(w.category, DataWarning)]  # no stray entry


_A, _B = (100.0, 100.0, 180.0, 170.0), (400.0, 100.0, 480.0, 170.0)


@pytest.mark.parametrize("dets, owners, want, stray", [
    ([_A], [(104.0, 100.0, 184.0, 170.0)], {}, 4),  # at IoU 0.9 with A's box, in 4 frames
    ([_A], [_A, _A], {"1": 0}, 0),
    ([_B, _A, _A], [_A], {"2": 0}, 0),  # tracks 2 and 3 took the A detections
], ids=["box of no detection", "two entries on one box", "two detections with one box"])
def test_keypoint_entry_leftovers(dets, owners, want, stray):
    # an entry whose box is no detection's is left out, and counted in one
    # warning; of two entries on a box its track took, the first in file order
    # is kept; of two tracks whose detections share the entry's box, the lower
    # id takes it
    entries = [HandKeypoints(np.full((21, 3), float(k)), owner) for k, owner in enumerate(owners)]
    frames = [FrameRecord(k, k / 30.0, tuple(Detection(d, HAND) for d in dets), tuple(entries))
              for k in range(4)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = list(track_stream(frames, TrackerConfig(min_hits=1)))
    assert [(w.category, str(w.message)) for w in caught] == [
        (DataWarning, f"{stray} keypoint entries have a box that is no hand detection's; "
                       "left out of kps")] * (stray > 0)
    assert [len(row["tracks"]) for row in rows] == [len(dets)] * 4
    assert [{tid: entries.index(kp) for tid, kp in row.get("kps", {}).items()}
            for row in rows] == [want] * 4
