from array import array

import numpy as np
import pytest

from oracles import naive_average_precision, naive_confusion_counts, naive_pck
from scenestream import (
    DataWarning,
    Detection,
    FrameRecord,
    HandKeypoints,
    InvariantError,
    VideoStream,
    box,
    iou,
)
from scenestream.evaluation import (
    _greedy_match_class,
    _report,
    action_precision_recall,
    ap_from_records,
    evaluate_boxes,
    evaluate_keypoints,
    mean_ap,
    pck,
)
from scenestream.synth import CorruptionSpec, SynthSpec, generate_stream

CUT, TIE, SUT, BG = "cutting", "tying", "suturing", "background"


# ------------------------------------------------------------- actions

def test_actions_identity_gives_ones():
    labels = [CUT, TIE, SUT, BG, CUT]
    r = action_precision_recall(labels, labels)
    for c in (CUT, TIE, SUT, BG):
        assert r["action_precision"][c] == 1.0
        assert r["action_recall"][c] == 1.0
    assert r["macro_precision"] == 1.0
    assert r["macro_recall"] == 1.0
    assert r["accuracy"] == 1.0


def test_actions_total_miss_recall_zero():
    pred = [BG] * 5
    truth = [CUT] * 5
    with pytest.warns(DataWarning, match="absent from both"):
        r = action_precision_recall(pred, truth)
    assert r["action_recall"][CUT] == 0.0
    assert r["action_precision"][CUT] == 0.0
    assert r["macro_recall"] == 0.0
    assert TIE not in r["action_precision"] and SUT not in r["action_precision"]


def test_actions_fixed_case_matches_confusion_oracle():
    # 10 steps with exactly 2 confusions
    truth = [CUT, CUT, CUT, TIE, TIE, TIE, SUT, SUT, BG, BG]
    pred = [CUT, CUT, TIE, TIE, TIE, TIE, SUT, CUT, BG, BG]
    r = action_precision_recall(pred, truth)
    counts = naive_confusion_counts(pred, truth, (CUT, TIE, SUT, BG))
    for c in (CUT, TIE, SUT, BG):
        tp, fp, fn = counts[c]["tp"], counts[c]["fp"], counts[c]["fn"]
        assert r["action_precision"][c] == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
        assert r["action_recall"][c] == pytest.approx(tp / (tp + fn) if tp + fn else 0.0)
    assert r["macro_precision"] == pytest.approx(
        np.mean([r["action_precision"][c] for c in (CUT, TIE, SUT)]))


def test_actions_micro_accuracy_equals_matching_fraction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        pred = rng.choice([CUT, TIE, SUT, BG], size=n).tolist()
        truth = rng.choice([CUT, TIE, SUT, BG], size=n).tolist()
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("ignore", DataWarning)
            r = action_precision_recall(pred, truth)
        assert r["accuracy"] == pytest.approx(
            sum(p == t for p, t in zip(pred, truth)) / n)


def test_actions_truncates_with_warning():
    with pytest.warns(DataWarning, match="truncating"):
        r = action_precision_recall([CUT, CUT, TIE, SUT, BG],
                                    [CUT, CUT, TIE, BG])
    assert r["accuracy"] == 0.75


def ap_arrays(records):
    """The confidences and true-positive flags of (confidence, is_tp) records,
    as `evaluate_boxes` keeps them."""
    return array("d", [conf for conf, _ in records]), bytearray(tp for _, tp in records)


def test_ap_monotone_under_fp_removal_random():
    rng = np.random.default_rng(5)
    from scenestream.evaluation import ap_from_records
    for _ in range(50):
        n = int(rng.integers(2, 10))
        records = [(float(rng.uniform(0, 1)), bool(rng.integers(0, 2)))
                   for _ in range(n)]
        n_gt = max(sum(1 for _, tp in records if tp), 1)
        base = ap_from_records(*ap_arrays(records), n_gt)
        fps = [i for i, (_, tp) in enumerate(records) if not tp]
        if not fps:
            continue
        drop = fps[int(rng.integers(0, len(fps)))]
        pruned = [r for i, r in enumerate(records) if i != drop]
        assert ap_from_records(*ap_arrays(pruned), n_gt) >= base - 1e-12


def test_actions_empty_is_error():
    with pytest.raises(InvariantError):
        action_precision_recall([], [])


# ------------------------------------------------------------- AP

def det(conf, x0, y0=0.0, size=10.0, category="hand"):
    return Detection(box=box(x0, y0, x0 + size, y0 + size),
                     category=category, confidence=conf)


def one_frame_stream(detections=(), keypoints=()):
    """A (header, frames) stream of one frame."""
    frame = FrameRecord(frame_index=0, timestamp_s=0.0, detections=tuple(detections),
                        keypoints=tuple(keypoints))
    return VideoStream(video_id="v", fps=30.0, width=1280, height=720), [frame]


def one_frame_hand_ap(preds, gts):
    """Hand AP of `preds` (Detections) against the hand boxes `gts`, as
    `evaluate_boxes` scores one frame; None when its report leaves it out."""
    truth = [Detection(box=b, category="hand", confidence=1.0) for b in gts]
    return evaluate_boxes(one_frame_stream(preds),
                          one_frame_stream(truth)).get("hand_ap")


def test_ap_perfect_detector():
    gts = [box(0, 0, 10, 10), box(50, 0, 60, 10)]
    preds = [det(0.9, 0), det(0.8, 50)]
    assert one_frame_hand_ap(preds, gts) == 1.0


def test_ap_zero_detections():
    assert one_frame_hand_ap([], [box(0, 0, 10, 10)]) == 0.0


def test_ap_no_ground_truth_undefined():
    with pytest.warns(DataWarning, match="undefined"):
        assert one_frame_hand_ap([det(0.9, 0)], []) is None
    with pytest.raises(InvariantError, match="AP undefined without ground truth"):
        ap_from_records(array("d", [0.9]), bytearray([0]), 0)


def test_ap_worked_case_matches_enumeration_oracle():
    # 3 GT, 4 detections with known confidences and IoUs
    gts = [box(0, 0, 10, 10), box(50, 0, 60, 10), box(100, 0, 110, 10)]
    preds = [det(0.95, 1.0),   # strong hit on gt0
             det(0.90, 200.0),  # false positive
             det(0.70, 51.0),  # hit on gt1
             det(0.40, 300.0)]  # false positive
    got = one_frame_hand_ap(preds, gts)
    want = naive_average_precision([(d.confidence, d.box) for d in preds], gts, iou)
    assert got == pytest.approx(want, abs=1e-12)
    # by hand: ranked TP,FP,TP,FP over 3 GT -> sum of (1/3)*1 + (1/3)*(2/3)
    assert got == pytest.approx(1 / 3 + (1 / 3) * (2 / 3))


def test_ap_random_small_instances_match_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n_gt = int(rng.integers(1, 4))
        n_det = int(rng.integers(0, 6))
        gts = [box(30 * k, 0, 30 * k + 10, 10) for k in range(n_gt)]
        preds = []
        for _ in range(n_det):
            target = int(rng.integers(0, n_gt + 1))
            if target < n_gt:  # near a ground-truth box
                x = 30 * target + float(rng.uniform(-4, 4))
            else:  # in empty space
                x = float(rng.uniform(200, 400))
            preds.append(det(float(rng.uniform(0.05, 1.0)), max(x, 0.0)))
        got = one_frame_hand_ap(preds, gts)
        want = naive_average_precision([(d.confidence, d.box) for d in preds], gts, iou)
        assert got == pytest.approx(want, abs=1e-12)


def test_ap_monotone_when_false_positive_removed():
    gts = [box(0, 0, 10, 10), box(50, 0, 60, 10)]
    preds = [det(0.9, 0), det(0.85, 200), det(0.7, 50)]
    with_fp = one_frame_hand_ap(preds, gts)
    without_fp = one_frame_hand_ap([preds[0], preds[2]], gts)
    assert without_fp >= with_fp


def test_ap_confidence_ties_broken_by_input_order():
    gts = [box(0, 0, 10, 10)]
    hit_first = [det(0.5, 0), det(0.5, 200)]
    miss_first = [det(0.5, 200), det(0.5, 0)]
    assert one_frame_hand_ap(hit_first, gts) == 1.0
    assert one_frame_hand_ap(miss_first, gts) == 0.5


def test_mean_ap_excludes_undefined():
    assert mean_ap({"a": 0.5, "b": None, "c": 1.0}) == pytest.approx(0.75)
    assert mean_ap({"a": None}) is None


def test_match_detections_tp_bounded_by_gt():
    gts = [box(0, 0, 10, 10)]
    preds = [det(0.9, 0), det(0.8, 1), det(0.7, 2)]
    confidences, tp_flags = array("d"), bytearray()
    _greedy_match_class([(d.confidence, d.box) for d in preds], gts, 0.5, confidences, tp_flags)
    assert list(confidences) == [0.9, 0.8, 0.7]
    assert len(tp_flags) == len(preds) and sum(tp_flags) <= len(gts)


# ------------------------------------------------------------- PCK

def kps(points, box=box(0, 0, 100, 100), visible=None):
    pts = np.asarray(points, dtype=float)
    vis = np.ones(21) if visible is None else np.asarray(visible, dtype=float)
    return HandKeypoints(points=np.column_stack([pts, vis]), owner_box=box)


def grid_points(offset=0.0):
    base = np.array([[10.0 + 4 * k, 20.0 + 2 * k] for k in range(21)])
    return base + offset


def pck_mean(pred, truth, box):
    """The fraction of the visible truth keypoints that `pck` counts as hits."""
    hits, valid = pck(pred, truth, box)
    return hits.sum() / valid.sum()


def test_pck_identity_is_one():
    truth = kps(grid_points())
    assert pck_mean(truth, truth, truth.owner_box) == 1.0


def test_pck_far_displacement_is_zero():
    b = box(0, 0, 100, 100)  # hand size 100
    truth = kps(grid_points(), box=b)
    pred = kps(grid_points(offset=1000.0), box=b)  # 10 x hand_size away
    assert pck_mean(pred, truth, b) == 0.0


def test_pck_mixed_case_matches_distance_oracle():
    b = box(0, 0, 100, 100)  # threshold = 0.2 * 100 = 20 px
    truth_pts = grid_points()
    pred_pts = truth_pts.copy()
    pred_pts[7:] += 50.0  # 14 of 21 points pushed out of threshold
    hits, valid = pck(kps(pred_pts, box=b), kps(truth_pts, box=b), b)
    dists = np.linalg.norm(pred_pts - truth_pts, axis=1)
    want = [d <= 20.0 for d in dists]
    assert list(hits) == want
    assert hits.sum() / valid.sum() == pytest.approx(7 / 21)


def test_pck_invisible_truth_excluded_from_denominator():
    b = box(0, 0, 100, 100)
    visible = np.ones(21)
    visible[:7] = 0
    truth = kps(grid_points(), box=b, visible=visible)
    pred_pts = grid_points()
    pred_pts[7:14] += 1000.0  # 7 visible points miss
    hits, valid = pck(kps(pred_pts, box=b), truth, b)
    assert valid.sum() == 14
    assert hits.sum() / valid.sum() == pytest.approx(7 / 14)


def test_pck_invariant_to_uniform_scaling():
    rng = np.random.default_rng(2)
    truth_pts = grid_points()
    pred_pts = truth_pts + rng.normal(0, 10, size=(21, 2))
    b = box(0, 0, 90, 110)
    base_hits, base_valid = pck(kps(pred_pts, box=b), kps(truth_pts, box=b), b)
    lam = 3.7
    sbox = box(0, 0, 90 * lam, 110 * lam)
    hits, valid = pck(kps(pred_pts * lam, box=sbox), kps(truth_pts * lam, box=sbox), sbox)
    assert list(hits) == list(base_hits)
    assert hits.sum() / valid.sum() == base_hits.sum() / base_valid.sum()


def test_pck_aggregate_groups():
    b = box(0, 0, 100, 100)
    truth = kps(grid_points(), box=b)
    pred_pts = grid_points()
    pred_pts[1:5] += 1000.0  # thumb chain misses
    report = evaluate_keypoints(one_frame_stream(keypoints=[kps(pred_pts, box=b)]),
                                one_frame_stream(keypoints=[truth]))
    assert report["thumb_pck"] == 0.0
    assert report["index_pck"] == 1.0
    assert report["mean_pck"] == pytest.approx(17 / 21)
    per_kp = report["pck_per_keypoint"]
    assert per_kp[0] == 1.0 and per_kp[1] == 0.0
    with pytest.raises(InvariantError, match="ref must be 'truth' or 'pred'"):
        evaluate_keypoints(one_frame_stream(keypoints=[truth]),
                           one_frame_stream(keypoints=[truth]), ref="box")


def _keypoints_by_frame(stream):
    return {fr.frame_index: [(k.points.tolist(), k.owner_box)
                             for k in fr.keypoints] for fr in stream[1]}


def _first_frames(stream, n):
    header, frames = stream
    return header, frames[:n]


def test_pck_counts_truth_frames_the_predictor_skipped():
    # a predictor that emits only the first half of the stream finds half
    # the hands: PCK agrees with hand AP instead of reading 1.0
    stream, _ = generate_stream(SynthSpec(seed=3, fps=10, duration_s=4,
                                          with_keypoints=True), 0)
    half = _first_frames(stream, len(stream[1]) // 2)
    report = evaluate_keypoints(half, stream)
    assert report["mean_pck"] == 0.5
    assert evaluate_boxes(half, stream)["hand_ap"] == 0.5
    assert report["mean_pck"] == naive_pck(_keypoints_by_frame(half),
                                           _keypoints_by_frame(stream), alpha=0.2)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_pck_matches_naive_oracle_on_partial_corrupted_predictions(seed):
    truth, _ = generate_stream(SynthSpec(seed=seed, fps=10, duration_s=4,
                                         with_keypoints=True), 0)
    spec = SynthSpec(seed=seed, fps=10, duration_s=4, with_keypoints=True,
                     corruption=CorruptionSpec(dropout_rate=0.2, jitter_sigma=3.0))
    pred = _first_frames(generate_stream(spec, 0)[0], 25)
    for alpha in (0.05, 0.2):
        report = evaluate_keypoints(pred, truth, alpha=alpha)
        assert report["mean_pck"] == naive_pck(_keypoints_by_frame(pred),
                                               _keypoints_by_frame(truth), alpha=alpha)


def test_metric_report_rejects_out_of_range():
    with pytest.raises(InvariantError):
        _report(one_frame_stream()[0], mean_pck=1.5)

