import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_assignment
from scenestream import BBox, Detection, FrameRecord, InvariantError, tracking
from scenestream.synth import CorruptionSpec, HandMotionSpec, SynthSpec, generate_stream
from scenestream.tracking import (
    KalmanState,
    SortTracker,
    Track,
    TrackerConfig,
    _lexmin_optimal_pairs,
    associate,
    box_corners,
    box_to_measurement,
    iou_matrix,
    measurement_to_box,
    new_track,
    predict,
    update,
)

CFG = TrackerConfig()


def track_with_state(mean, cov_scale=10.0):
    state = KalmanState(mean=np.asarray(mean, dtype=float),
                        covariance=np.eye(7) * cov_scale)
    return Track(track_id=1, state=state)


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
    box = BBox(10, 20, 50, 100)
    z = box_to_measurement(box)
    back = measurement_to_box(z)
    assert back.as_list() == pytest.approx(box.as_list(), abs=1e-9)


# ---------------------------------------------------------------- predict

def test_predict_zero_velocity_keeps_box_and_grows_covariance():
    tr = track_with_state([50, 60, 400, 1.0, 0, 0, 0])
    out = predict(tr, CFG)
    assert out.box().as_list() == pytest.approx(tr.box().as_list(), abs=1e-9)
    assert np.trace(out.state.covariance) > np.trace(tr.state.covariance)
    assert out.age == tr.age + 1
    assert out.time_since_update == tr.time_since_update + 1


def test_predict_advances_center_by_velocity():
    tr = track_with_state([50, 60, 400, 1.0, 2.0, 0, 0])
    out = predict(tr, CFG)
    assert out.state.mean[0] == pytest.approx(52.0, abs=1e-12)
    assert out.state.mean[1] == pytest.approx(60.0, abs=1e-12)


def test_predict_ten_steps_matches_linear_extrapolation():
    mean = [100.0, 80.0, 900.0, 1.0, 1.5, -0.5, 0.0]
    tr = track_with_state(mean)
    cur = tr
    for _ in range(10):
        cur = predict(cur, CFG)
    # closed-form straight-line oracle
    assert cur.state.mean[0] == pytest.approx(mean[0] + 10 * mean[4], abs=1e-9)
    assert cur.state.mean[1] == pytest.approx(mean[1] + 10 * mean[5], abs=1e-9)


def test_predict_clamps_degenerate_area():
    tr = track_with_state([50, 60, 1.0, 1.0, 0, 0, -5.0])
    out = predict(tr, CFG)
    assert out.state.mean[2] > 0
    assert out.degenerate


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
    box = BBox(40, 50, 60, 90)
    tr = track_with_state(list(box_to_measurement(box)) + [0, 0, 0])
    out = update(tr, box, CFG)
    assert out.state.mean == pytest.approx(tr.state.mean, abs=1e-12)
    assert np.trace(out.state.covariance) < np.trace(tr.state.covariance)
    assert out.hits == tr.hits + 1
    assert out.time_since_update == 0


def test_update_repeated_measurements_converge_to_measurement():
    target = BBox(200, 100, 260, 180)
    z = box_to_measurement(target)
    tr = new_track(1, BBox(100, 60, 140, 120))
    errs = []
    for k in range(2000):
        tr = update(predict(tr, CFG), target, CFG)
        rel = np.abs(tr.state.mean[:4] - z) / np.maximum(np.abs(z), 1.0)
        errs.append(np.max(rel))
    assert errs[-1] < 1e-9
    assert errs[-1] < errs[20]


def test_update_covariance_symmetric_psd():
    tr = new_track(1, BBox(10, 10, 40, 60))
    rng = np.random.default_rng(3)
    for k in range(25):
        jitter = rng.normal(0, 2, size=2)
        box = BBox(10 + jitter[0] + k, 10 + jitter[1], 40 + jitter[0] + k, 60 + jitter[1])
        tr = update(predict(tr, CFG), box, CFG)
        cov = tr.state.covariance
        assert np.max(np.abs(cov - cov.T)) <= 1e-9
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-9


def test_update_singular_innovation_raises():
    class ZeroMeasurementNoise(TrackerConfig):
        def measurement_cov(self):
            return np.zeros((4, 4))

    cfg = ZeroMeasurementNoise()
    state = KalmanState(mean=np.array([10, 10, 100, 1.0, 0, 0, 0]),
                        covariance=np.zeros((7, 7)))
    tr = Track(track_id=1, state=state)
    with pytest.raises(InvariantError, match="singular"):
        update(tr, BBox(5, 5, 15, 15), cfg)


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


def test_batched_kernels_equal_per_track_wrappers_bit_for_bit():
    # a row's arithmetic must not depend on how many rows share the batch
    rng = np.random.default_rng(5)
    tracks, dets = [], []
    for k in range(6):
        x, y = rng.uniform(50, 500, size=2)
        tr = new_track(k, BBox(x, y, x + 60, y + 80))
        for _ in range(int(rng.integers(0, 6))):
            dx, dy = rng.normal(0, 3, size=2)
            tr = update(predict(tr, CFG), BBox(x + dx, y + dy, x + dx + 60, y + dy + 80), CFG)
        tracks.append(tr)
        dets.append(BBox(x + 2, y + 1, x + 63, y + 80))
    means = np.array([t.state.mean for t in tracks])
    covs = np.array([t.state.covariance for t in tracks])
    p_means, p_covs, _ = tracking._predict(means, covs, CFG.process_cov())
    z = np.array([box_to_measurement(d) for d in dets])
    u_means, u_covs, ok, _ = tracking._update(means, covs, z, CFG.measurement_cov())
    assert ok.all()
    for k, tr in enumerate(tracks):
        one = predict(tr, CFG)
        assert np.array_equal(p_means[k], one.state.mean)
        assert np.array_equal(p_covs[k], one.state.covariance)
        one = update(tr, dets[k], CFG)
        assert np.array_equal(u_means[k], one.state.mean)
        assert np.array_equal(u_covs[k], one.state.covariance)
