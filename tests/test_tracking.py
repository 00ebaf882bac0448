import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_assignment
from scenestream import BBox, Detection, FrameRecord, InvariantError, tracking
from scenestream.synth import CorruptionSpec, HandMotionSpec, SynthSpec, generate_stream
from scenestream.tracking import (
    SortTracker,
    TrackerConfig,
    _lexmin_optimal_pairs,
    _measurements,
    _state_corners,
    associate,
    box_corners,
    iou_matrix,
    new_track,
    predict,
    update,
)

CFG = TrackerConfig()
Q, R = CFG.process_cov(), CFG.measurement_cov()


def one_row(mean, cov_scale=10.0):
    """(means, covs) of a batch of one track with the given state mean."""
    return np.asarray(mean, dtype=float)[None], (np.eye(7) * cov_scale)[None]


def born(box):
    """(means, covs) of a batch of one track born on `box`."""
    mean, cov = new_track(box_corners([box])[0])
    return mean[None], cov[None]


def hand_frame(idx, boxes, fps=30.0):
    dets = tuple(Detection(box=b, category="hand", confidence=0.9) for b in boxes)
    return FrameRecord(frame_index=idx, timestamp_s=idx / fps, detections=dets)


# ---------------------------------------------------------------- config

def test_tracker_config_validation():
    with pytest.raises(InvariantError):
        TrackerConfig(iou_threshold=0.0)
    with pytest.raises(InvariantError):
        TrackerConfig(max_age=0)
    with pytest.raises(InvariantError):
        TrackerConfig(process_noise=-1.0)


def test_box_measurement_roundtrip():
    corners = box_corners([BBox(10, 20, 50, 100)])
    means, covs = born(BBox(10, 20, 50, 100))
    assert means[0].tolist() == [30.0, 60.0, 3200.0, 0.5, 0.0, 0.0, 0.0]
    assert np.array_equal(covs[0], np.diag([10.0] * 4 + [1e4] * 3))
    assert _state_corners(means)[0] == pytest.approx(corners[0], abs=1e-9)
    assert _state_corners(_measurements(corners)) == pytest.approx(corners, abs=1e-9)


# ---------------------------------------------------------------- predict

def test_predict_zero_velocity_keeps_box_and_grows_covariance():
    means, covs = one_row([50, 60, 400, 1.0, 0, 0, 0])
    out_means, out_covs, clamped = predict(means, covs, Q)
    assert _state_corners(out_means) == pytest.approx(_state_corners(means), abs=1e-9)
    assert np.trace(out_covs[0]) > np.trace(covs[0])
    assert not clamped[0]
    # the tracker counts the frames a coasting track goes without an update
    tracker = SortTracker(TrackerConfig(min_hits=1))
    box = BBox(100, 100, 160, 160)
    tracker.step(hand_frame(0, [box]))
    assert tracker.time_since_update.tolist() == [0]
    for k in range(1, 4):
        assert tracker.step(hand_frame(k, [])) == []
        assert tracker.time_since_update.tolist() == [k]
        assert tracker.hits.tolist() == [1]


def test_predict_advances_center_by_velocity():
    out_means, _, _ = predict(*one_row([50, 60, 400, 1.0, 2.0, 0, 0]), Q)
    assert out_means[0, 0] == pytest.approx(52.0, abs=1e-12)
    assert out_means[0, 1] == pytest.approx(60.0, abs=1e-12)


def test_predict_ten_steps_matches_linear_extrapolation():
    mean = [100.0, 80.0, 900.0, 1.0, 1.5, -0.5, 0.0]
    means, covs = one_row(mean)
    for _ in range(10):
        means, covs, _ = predict(means, covs, Q)
    # closed-form straight-line oracle
    assert means[0, 0] == pytest.approx(mean[0] + 10 * mean[4], abs=1e-9)
    assert means[0, 1] == pytest.approx(mean[1] + 10 * mean[5], abs=1e-9)


def test_predict_clamps_degenerate_area():
    out_means, _, clamped = predict(*one_row([50, 60, 1.0, 1.0, 0, 0, -5.0]), Q)
    assert out_means[0, 2] > 0
    assert clamped[0]


# ---------------------------------------------------------------- associate

def test_associate_single_pair_matched():
    t = [BBox(0, 0, 10, 10)]
    d = [BBox(1, 0, 11, 10)]
    matches, ut, ud = associate(t, d, 0.3)
    assert matches == [(0, 0)] and ut == [] and ud == []


def test_associate_below_threshold_unmatched():
    t = [BBox(0, 0, 10, 10)]
    d = [BBox(9, 9, 19, 19)]
    matches, ut, ud = associate(t, d, 0.3)
    assert matches == [] and ut == [0] and ud == [0]


def test_associate_empty_inputs():
    assert associate([], [], 0.3) == ([], [], [])
    assert associate([BBox(0, 0, 1, 1)], [], 0.3) == ([], [0], [])
    assert associate([], [BBox(0, 0, 1, 1)], 0.3) == ([], [], [0])


def test_associate_3x3_equals_permutation_search():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tracks = [BBox(x, y, x + 10, y + 10)
                  for x, y in rng.uniform(0, 30, size=(3, 2))]
        dets = [BBox(x, y, x + 10, y + 10)
                for x, y in rng.uniform(0, 30, size=(3, 2))]
        got = associate(tracks, dets, 0.1)
        score = np.array([[_iou(t, d) for d in dets] for t in tracks])
        want = brute_force_assignment(score, 0.1)
        assert (sorted(got[0]), sorted(got[1]), sorted(got[2])) == \
               (sorted(want[0]), sorted(want[1]), sorted(want[2]))


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
    z = _measurements(box_corners([BBox(40, 50, 60, 90)]))
    means, covs = one_row(list(z[0]) + [0, 0, 0])
    out_means, out_covs, ok, clamped = update(means, covs, z, R)
    assert ok[0] and not clamped[0]
    assert out_means[0] == pytest.approx(means[0], abs=1e-12)
    assert np.trace(out_covs[0]) < np.trace(covs[0])
    # the tracker counts a matched frame as a hit and resets the coasting count
    tracker = SortTracker(TrackerConfig(min_hits=1))
    box = BBox(100, 100, 160, 160)
    tracker.step(hand_frame(0, [box]))
    tracker.step(hand_frame(1, []))
    assert (tracker.hits.tolist(), tracker.time_since_update.tolist()) == ([1], [1])
    tracker.step(hand_frame(2, [box]))
    assert (tracker.hits.tolist(), tracker.time_since_update.tolist()) == ([2], [0])


def test_update_repeated_measurements_converge_to_measurement():
    z = _measurements(box_corners([BBox(200, 100, 260, 180)]))
    means, covs = born(BBox(100, 60, 140, 120))
    errs = []
    for k in range(2000):
        means, covs, _ = predict(means, covs, Q)
        means, covs, ok, _ = update(means, covs, z, R)
        assert ok[0]
        rel = np.abs(means[0, :4] - z[0]) / np.maximum(np.abs(z[0]), 1.0)
        errs.append(np.max(rel))
    assert errs[-1] < 1e-9
    assert errs[-1] < errs[20]


def test_update_covariance_symmetric_psd():
    means, covs = born(BBox(10, 10, 40, 60))
    rng = np.random.default_rng(3)
    for k in range(25):
        jitter = rng.normal(0, 2, size=2)
        box = BBox(10 + jitter[0] + k, 10 + jitter[1], 40 + jitter[0] + k, 60 + jitter[1])
        means, covs, _ = predict(means, covs, Q)
        means, covs, ok, _ = update(means, covs, _measurements(box_corners([box])), R)
        assert ok[0]
        cov = covs[0]
        assert np.max(np.abs(cov - cov.T)) <= 1e-9
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-9


def test_update_singular_innovation_is_not_ok():
    # zero covariance and zero measurement noise make the innovation
    # covariance singular: that row is not ok, so the tracker drops it, while
    # a regular row in the same batch updates as it would alone
    mean = [10, 10, 100, 1.0, 0, 0, 0]
    z = _measurements(box_corners([BBox(5, 5, 15, 15)]))
    out = update(*one_row(mean, cov_scale=0.0), z, np.zeros((4, 4)))
    assert not out[2][0]
    means = np.array([mean, mean], dtype=float)
    covs = np.stack([np.zeros((7, 7)), np.eye(7)])
    out_means, out_covs, ok, _ = update(means, covs, np.repeat(z, 2, axis=0), np.zeros((4, 4)))
    assert ok.tolist() == [False, True]
    alone = update(means[1:], covs[1:], z, np.zeros((4, 4)))
    assert np.array_equal(out_means[1], alone[0][0])
    assert np.array_equal(out_covs[1], alone[1][0])


# ---------------------------------------------------------------- lifecycle

def test_single_stationary_detection_keeps_one_id():
    tracker = SortTracker()
    box = BBox(100, 100, 160, 160)
    ids = set()
    for k in range(20):
        out = tracker.step(hand_frame(k, [box]))
        assert len(out) == 1
        ids.add(out[0][0])
    assert len(ids) == 1


def test_gap_longer_than_max_age_creates_new_id():
    cfg = TrackerConfig(max_age=3, min_hits=1)
    tracker = SortTracker(cfg)
    box = BBox(100, 100, 160, 160)
    first = tracker.step(hand_frame(0, [box]))[0][0]
    for k in range(1, 6):  # max_age + 2 missing frames
        assert tracker.step(hand_frame(k, [])) == []
    second = tracker.step(hand_frame(6, [box]))[0][0]
    assert second != first


def test_gap_within_max_age_keeps_id():
    cfg = TrackerConfig(max_age=5, min_hits=1)
    tracker = SortTracker(cfg)
    box = BBox(100, 100, 160, 160)
    first = tracker.step(hand_frame(0, [box]))[0][0]
    for k in range(1, 4):
        tracker.step(hand_frame(k, []))
    again = tracker.step(hand_frame(4, [box]))
    assert again[0][0] == first


def test_track_ids_unique_never_reused():
    cfg = TrackerConfig(max_age=1, min_hits=1)
    tracker = SortTracker(cfg)
    seen = []
    for k in range(30):
        boxes = [BBox(100, 100, 160, 160)] if (k // 3) % 2 == 0 else []
        for tid, _ in tracker.step(hand_frame(k, boxes)):
            seen.append(tid)
    # each contiguous appearance gets a fresh id; ids never repeat after a gap
    runs = []
    for tid in seen:
        if not runs or runs[-1] != tid:
            runs.append(tid)
    assert len(runs) == len(set(runs))
    assert runs == sorted(runs)


def test_zero_noise_output_equals_detections():
    cfg = TrackerConfig(measurement_noise=1e-12, process_noise=1e-6, min_hits=1)
    tracker = SortTracker(cfg)
    for k in range(10):
        box = BBox(100 + 3 * k, 50 + 2 * k, 160 + 3 * k, 110 + 2 * k)
        out = tracker.step(hand_frame(k, [box]))
        assert len(out) == 1
        assert out[0][1].as_list() == pytest.approx(box.as_list(), abs=1e-6)


def test_cycle_matches_least_squares_line_after_burn_in():
    tracker = SortTracker()
    frames, centers_x, centers_y = [], [], []
    est = {}
    n = 150
    for k in range(n):
        box = BBox(50 + 2.0 * k, 400 - 1.5 * k, 110 + 2.0 * k, 470 - 1.5 * k)
        centers_x.append((box.x_min + box.x_max) / 2)
        centers_y.append((box.y_min + box.y_max) / 2)
        frames.append(k)
        for tid, b in tracker.step(hand_frame(k, [box])):
            est[k] = ((b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2)
    # independent straight-line least-squares fit on the measurements
    px = np.polyfit(frames, centers_x, 1)
    py = np.polyfit(frames, centers_y, 1)
    for k in range(n - 20, n):
        ex, ey = est[k]
        assert ex == pytest.approx(np.polyval(px, k), abs=1e-6)
        assert ey == pytest.approx(np.polyval(py, k), abs=1e-6)


# ---------------------------------------------------------------- batched geometry and ties

def test_iou_matrix_equals_scalar_iou_bit_for_bit():
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
            boxes.append(BBox(x, y, x + w, y + h))
        cut = int(rng.integers(1, len(boxes)))
        a, b = boxes[:cut], boxes[cut:]
        want = np.array([[_iou(p, q) for q in b] for p in a])
        assert np.array_equal(iou_matrix(box_corners(a), box_corners(b)), want)


def test_iou_matrix_scores_predictions_past_the_edge_zero():
    # corners of predictions that left over the left or top edge after clamping
    gone = np.array([[0.0, 10.0, -4.0, 50.0], [0.0, 0.0, 30.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    dets = box_corners([BBox(0, 0, 40, 40), BBox(0, 10, 1, 50)])
    assert np.array_equal(iou_matrix(gone, dets), np.zeros((3, 2)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 6),
       values=st.sampled_from([(0, 1, 2), (0, 0, 0, 0, 0, 1, 2)]))
def test_lexmin_pairs_break_exact_ties_like_brute_force(data, n, m, values):
    # integer scores (dense 0-2, or zero-heavy) sum exactly, so ties are real
    cells = data.draw(st.lists(st.sampled_from(values), min_size=n * m, max_size=n * m))
    score = np.array(cells, dtype=float).reshape(n, m)
    want, _, _ = brute_force_assignment(score, -1.0)
    assert _lexmin_optimal_pairs(score) == want


def _lane_stream(seed):
    # 12 hands in lanes 103 px apart, 5% of detections dropped
    hands = tuple(HandMotionSpec(region=(60.0 + 103.0 * i, 150.0, 90.0 + 103.0 * i, 570.0))
                  for i in range(12))
    spec = SynthSpec(seed=seed, fps=30.0, duration_s=5.0, hands=hands,
                     corruption=CorruptionSpec(dropout_rate=0.05, jitter_sigma=2.0))
    return generate_stream(spec, 0)[0]


@pytest.mark.parametrize("seed", [7, 22])
def test_one_assignment_solve_per_frame_on_twelve_lanes(seed, monkeypatch):
    calls = []
    real = tracking.linear_sum_assignment
    monkeypatch.setattr(tracking, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or real(cost))
    tracker = SortTracker()
    nonempty = 0
    for frame in _lane_stream(seed).frames:
        nonempty += bool(len(tracker.ids) and frame.detections)
        tracker.step(frame)
    assert nonempty > 100
    assert len(calls) <= 1.02 * nonempty


def test_batched_kernels_equal_batch_of_one_bit_for_bit():
    # a row's arithmetic must not depend on how many rows share the batch
    rng = np.random.default_rng(5)
    rows, dets = [], []
    for k in range(6):
        x, y = rng.uniform(50, 500, size=2)
        means, covs = born(BBox(x, y, x + 60, y + 80))
        for _ in range(int(rng.integers(0, 6))):
            dx, dy = rng.normal(0, 3, size=2)
            z = _measurements(box_corners([BBox(x + dx, y + dy, x + dx + 60, y + dy + 80)]))
            means, covs, _ = predict(means, covs, Q)
            means, covs, _, _ = update(means, covs, z, R)
        rows.append((means[0], covs[0]))
        dets.append(BBox(x + 2, y + 1, x + 63, y + 80))
    means = np.array([m for m, _ in rows])
    covs = np.array([c for _, c in rows])
    z = _measurements(box_corners(dets))
    p_means, p_covs, _ = predict(means, covs, Q)
    u_means, u_covs, ok, _ = update(means, covs, z, R)
    assert ok.all()
    for k in range(6):
        one = predict(means[k:k + 1], covs[k:k + 1], Q)
        assert np.array_equal(p_means[k], one[0][0])
        assert np.array_equal(p_covs[k], one[1][0])
        one = update(means[k:k + 1], covs[k:k + 1], z[k:k + 1], R)
        assert np.array_equal(u_means[k], one[0][0])
        assert np.array_equal(u_covs[k], one[1][0])
