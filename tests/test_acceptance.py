"""Acceptance criteria, one test per criterion.

Each test prints a single `[acceptance N] name: PASS/FAIL` line (visible with
pytest -s or in failure output) and asserts at the stated tolerance.
"""

import time
import warnings

import numpy as np
import pytest

from oracles import (
    brute_force_assignment,
    lda_projection_oracle,
    naive_average_precision,
    naive_confusion_counts,
    naive_integrated_pose_distance,
    naive_path_distance,
    naive_pose_change,
    naive_velocity_series,
)
from scenestream import (
    DataWarning,
    Detection,
    FrameRecord,
    HandKeypoints,
    VideoStream,
    box,
    iou,
)
from scenestream.bench import SPATIAL_BUDGET_S, TEMPORAL_BUDGET_S, bench_stream
from scenestream.evaluation import action_precision_recall, evaluate_boxes, pck
from scenestream.kinematics import (
    Trajectory,
    clip_mean_hand_size,
    group_centroids,
    integrated_pose_distance,
    leave_one_out,
    path_distance,
    pose_change,
    summarize_clip,
    velocity_series,
)
from scenestream.pipeline import run_pipeline, track_stream, tracking_oracle_report
from scenestream.signatures import (
    build_signature,
    featurize,
    lda_fit,
    lda_project,
    normalize_tool_features,
    zscore,
)
from scenestream.synth import (
    CorruptionSpec,
    SkillCohortSpec,
    SynthSpec,
    generate_procedure_sequences,
    generate_stream,
    generate_tie_clips,
)
from scenestream.tracking import TrackerConfig, _lexmin_optimal_pairs
from scipy.linalg import subspace_angles


def check(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {name}: {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {criterion} ({name}) failed: {detail}"


# ----------------------------------------------------------- criterion 1

def test_acceptance_1_tracking_oracle_equivalence():
    started = time.perf_counter()
    n_frames = 1000
    duration = n_frames / 30.0
    clean_spec = SynthSpec(seed=101, fps=30.0, duration_s=duration)
    (_, frames), truth = generate_stream(clean_spec, 0)
    assert len(frames) == n_frames
    clean = tracking_oracle_report(track_stream(frames, TrackerConfig(min_hits=1)), truth)

    noisy_spec = SynthSpec(
        seed=102, fps=30.0, duration_s=duration,
        corruption=CorruptionSpec(dropout_rate=0.05, jitter_sigma=2.0,
                                  confidence_mean=0.9, confidence_sigma=0.05))
    (_, noisy_frames), noisy_truth = generate_stream(noisy_spec, 0)
    noisy = tracking_oracle_report(
        track_stream(noisy_frames, TrackerConfig(min_hits=1)), noisy_truth)
    elapsed = time.perf_counter() - started

    ok = (clean["bijection"] and clean["id_switches"] == 0
          and noisy["id_switches"] <= 2 and elapsed < 5.0)
    check(1, "tracking-oracle-equivalence", ok,
          f"clean bijection={clean['bijection']} switches={clean['id_switches']}, "
          f"noisy switches={noisy['id_switches']}, {elapsed:.2f}s")


# ----------------------------------------------------------- criterion 2

def test_acceptance_2_assignment_optimality():
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(1000):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        score = rng.uniform(0.0, 1.0, size=(n, m))
        got = sorted(_lexmin_optimal_pairs(score))
        want, _, _ = brute_force_assignment(score, -1.0)
        if got != sorted(want):
            mismatches += 1
    check(2, "assignment-optimality", mismatches == 0,
          f"{mismatches} mismatches in 1000 random matrices up to 6x6")


# ----------------------------------------------------------- criterion 3

def _random_clip(rng):
    n = int(rng.integers(5, 60))
    traj = Trajectory(frames=np.arange(n),
                      points=rng.uniform(0, 500, (n, 2)),
                      sizes=rng.uniform(40, 120, n))
    draws = [(rng.uniform(0, 300, (9, 2)), float(rng.uniform(50, 150)))
             for _ in range(int(rng.integers(2, 12)))]
    poses = Trajectory(frames=np.arange(len(draws)), points=[pts for pts, _ in draws],
                       sizes=[size for _, size in draws])
    return traj, poses


def test_acceptance_3_kinematics_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        traj, poses = _random_clip(rng)
        mean = clip_mean_hand_size(traj)
        pts = [tuple(c) for c in traj.points]

        got_d = path_distance(traj, mean)
        want_d = naive_path_distance(pts, mean)
        worst = max(worst, abs(got_d - want_d) / max(abs(want_d), 1e-300))

        vel, acc, jerk = velocity_series(traj, mean, 30.0)
        want_v = naive_velocity_series(pts, mean, 30.0)
        if len(want_v):
            worst = max(worst, float(np.max(
                np.abs(vel - want_v) / np.maximum(np.abs(want_v), 1e-300))))

        nine = list(poses.points)
        sizes = list(poses.sizes)
        for a, b, size in zip(nine, nine[1:], sizes):
            got_pc = pose_change(a, b, size)
            want_pc = naive_pose_change(a, b, size)
            worst = max(worst, abs(got_pc - want_pc) / max(abs(want_pc), 1e-300))
        got_ip = integrated_pose_distance(poses)
        want_ip = naive_integrated_pose_distance(nine, sizes)
        worst = max(worst, abs(got_ip - want_ip) / max(abs(want_ip), 1e-300))

    # the worked example must hold exactly
    base = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 1.0),
            (0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (0.0, 4.0)]
    moved = [list(p) for p in base]
    moved[2][0] += 3
    moved[2][1] += 4
    worked = pose_change(np.array(base), np.array(moved), 100.0)
    exact = worked == (abs(3) + abs(4)) * 2 / 100

    ok = worst <= 1e-9 and exact
    check(3, "kinematics-oracle", ok,
          f"worst relative error {worst:.2e}, worked example exact={exact}")


# ----------------------------------------------------------- criterion 4

def test_acceptance_4_skill_separation_at_desk_scale():
    started = time.perf_counter()
    spec = SkillCohortSpec(seed=404, operators_per_group=7, clips_per_operator=8)
    clips, _ = generate_tie_clips(spec)
    per_group = {}
    for clip in clips:
        per_group[clip.experience] = per_group.get(clip.experience, 0) + 1
    assert min(per_group.values()) >= 50

    summaries = [summarize_clip(clip, spec.fps) for clip in clips]
    centroids = group_centroids(summaries, "distance")
    exp_x, exp_y = centroids["experienced"]
    tr_x, tr_y = centroids["trainee"]
    centroid_ok = (abs(exp_x - 2.0) <= 0.2 and abs(exp_y - 2.0) <= 0.2
                   and abs(tr_x - 4.0) <= 0.4 and abs(tr_y - 4.0) <= 0.4)

    loo = leave_one_out(summaries, "distance")
    max_shift = 0.0
    for cents in loo.values():
        for group, (x, y) in cents.items():
            fx, fy = centroids[group]
            max_shift = max(max_shift, abs(x - fx) / fx, abs(y - fy) / fy)
    elapsed = time.perf_counter() - started
    ok = centroid_ok and max_shift < 0.15 and elapsed < 30.0
    check(4, "skill-separation", ok,
          f"experienced=({exp_x:.3f},{exp_y:.3f}) trainee=({tr_x:.3f},{tr_y:.3f}), "
          f"max LOO shift {max_shift:.1%}, {elapsed:.2f}s, "
          f"{len(loo)} held-out operators")


# ----------------------------------------------------------- criterion 5

def test_acceptance_5_signature_shape():
    by_class = {}
    for tl, label in generate_procedure_sequences(seed=505, n_per_class=12):
        by_class.setdefault(label, []).append(tl)
    worst = 1.0
    for label, timelines in sorted(by_class.items()):
        sig = build_signature(timelines)
        worst = min(worst, float(sig.action_curves[0, 0]))
    ok = worst >= 0.95
    check(5, "signature-shape", ok,
          f"min cutting probability at t=0 across classes: {worst:.3f}")


# ----------------------------------------------------------- criterion 6

def test_acceptance_6_lda_separation_and_oracle():
    procedures = generate_procedure_sequences(seed=606, n_per_class=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        values = normalize_tool_features(np.array([featurize(tl) for tl, _ in procedures]))
        z, _, _ = zscore(values)
    labels = np.array([label for _, label in procedures])
    model = lda_fit(z, labels)
    points = lda_project(z, model)

    cents = {c: points[labels == c].mean(axis=0) for c in model.classes}
    within = float(np.mean([
        np.linalg.norm(points[labels == c] - cents[c], axis=1).mean()
        for c in model.classes]))
    between = min(np.linalg.norm(cents[a] - cents[b])
                  for a in model.classes for b in model.classes if a < b)
    separation_ok = between >= 3.0 * within

    oracle = lda_projection_oracle(z, labels)
    angle = float(np.max(subspace_angles(model.projection, oracle)))
    ok = separation_ok and angle < 1e-6
    check(6, "lda-separation", ok,
          f"between/within = {between / within:.2f} (need >= 3), "
          f"subspace angle {angle:.2e} rad")


# ----------------------------------------------------------- criterion 7

def _mk_det(conf, x0):
    return Detection(box=box(x0, 0.0, x0 + 10.0, 10.0),
                     category="hand", confidence=conf)


def _one_frame_hand_ap(preds, gts):
    """Hand AP of `preds` against the hand boxes `gts`, as `evaluate_boxes`
    scores one frame."""
    def stream(dets):
        frame = FrameRecord(frame_index=0, timestamp_s=0.0, detections=tuple(dets))
        return VideoStream(video_id="v", fps=30.0, width=1280, height=720), [frame]
    truth = [Detection(box=b, category="hand", confidence=1.0) for b in gts]
    return evaluate_boxes(stream(preds), stream(truth))["hand_ap"]


def test_acceptance_7_metric_suite_oracle_equivalence():
    rng = np.random.default_rng(707)
    ap_exact = True
    for _ in range(1000):
        n_gt = int(rng.integers(1, 4))
        n_det = int(rng.integers(0, 6))
        gts = [box(30.0 * k, 0.0, 30.0 * k + 10.0, 10.0) for k in range(n_gt)]
        preds = []
        for _ in range(n_det):
            target = int(rng.integers(0, n_gt + 1))
            x = (30.0 * target + float(rng.uniform(-4, 4)) if target < n_gt
                 else float(rng.uniform(200, 400)))
            preds.append(_mk_det(float(rng.uniform(0.05, 1.0)), max(x, 0.0)))
        got = _one_frame_hand_ap(preds, gts)
        want = naive_average_precision([(d.confidence, d.box) for d in preds], gts, iou)
        if got != want:
            ap_exact = False
            break

    # fixed 10-element action case vs hand-counted confusion oracle
    truth = ["cutting"] * 3 + ["tying"] * 3 + ["suturing"] * 2 + ["background"] * 2
    pred = ["cutting", "cutting", "tying", "tying", "tying", "tying",
            "suturing", "cutting", "background", "background"]
    report = action_precision_recall(pred, truth)
    counts = naive_confusion_counts(pred, truth,
                                    ("cutting", "tying", "suturing", "background"))
    pr_exact = all(
        report["action_precision"][c] == (
            counts[c]["tp"] / (counts[c]["tp"] + counts[c]["fp"])
            if counts[c]["tp"] + counts[c]["fp"] else 0.0)
        and report["action_recall"][c] == (
            counts[c]["tp"] / (counts[c]["tp"] + counts[c]["fn"])
            if counts[c]["tp"] + counts[c]["fn"] else 0.0)
        for c in counts)

    # fixed 10-point keypoint case vs a per-point distance check
    ref = box(0, 0, 100, 100)  # threshold 20 px at alpha 0.2
    truth_pts = np.array([[10.0 * k, 5.0 * k] for k in range(21)])
    pred_pts = truth_pts.copy()
    pred_pts[:10] += np.array([30.0, 0.0])  # 10 points pushed out of range
    kp_t = HandKeypoints(points=np.column_stack([truth_pts, np.ones(21)]), owner_box=ref)
    kp_p = HandKeypoints(points=np.column_stack([pred_pts, np.ones(21)]), owner_box=ref)
    hits, valid = pck(kp_p, kp_t, ref)
    dists = [float(np.hypot(*(pred_pts[k] - truth_pts[k]))) for k in range(21)]
    pck_exact = (list(hits) == [d <= 20.0 for d in dists]
                 and hits.sum() / valid.sum() == sum(d <= 20.0 for d in dists) / 21)

    # identity cases return 1.0
    ident_ap = _one_frame_hand_ap([_mk_det(0.9, 0.0)], [box(0, 0, 10, 10)])
    ident_pr = action_precision_recall(truth, truth)
    ident_hits, ident_valid = pck(kp_t, kp_t, ref)
    identity_ok = (ident_ap == 1.0 and ident_pr["macro_precision"] == 1.0
                   and ident_pr["macro_recall"] == 1.0
                   and ident_hits.sum() / ident_valid.sum() == 1.0)

    # empty / total-miss cases return 0.0
    empty_ap = _one_frame_hand_ap([], [box(0, 0, 10, 10)])
    far = HandKeypoints(points=np.column_stack([truth_pts + 1e4, np.ones(21)]),
                        owner_box=ref)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        miss_pr = action_precision_recall(["background"] * 10, ["cutting"] * 10)
    far_hits, far_valid = pck(far, kp_t, ref)
    empty_ok = (empty_ap == 0.0 and far_hits.sum() / far_valid.sum() == 0.0
                and miss_pr["action_recall"]["cutting"] == 0.0)

    ok = ap_exact and pr_exact and pck_exact and identity_ok and empty_ok
    check(7, "metric-suite-oracle-equivalence", ok,
          f"ap_exact={ap_exact} pr_exact={pr_exact} pck_exact={pck_exact} "
          f"identity={identity_ok} empty={empty_ok}")


# ----------------------------------------------------------- criterion 8

def test_acceptance_8_throughput_budget():
    spec = SynthSpec(seed=808, fps=30.0, duration_s=30.0 * 60.0)
    stream, _ = generate_stream(spec, 0)
    assert len(stream[1]) == 54000
    report = bench_stream(stream, window_s=5.0)
    frame, window = report.per_frame, report.per_window
    frame_ok = frame["p95_s"] < SPATIAL_BUDGET_S
    frame_max_ok = frame["max_s"] < SPATIAL_BUDGET_S
    window_ok = window["p95_s"] < TEMPORAL_BUDGET_S
    ok = frame_ok and frame_max_ok and window_ok
    check(8, "throughput-budget", ok,
          f"per-frame p95 {frame['p95_s'] * 1e3:.2f} ms (< 80 ms), "
          f"per-frame max {frame['max_s'] * 1e3:.2f} ms (< 80 ms), "
          f"window p95 {window['p95_s'] * 1e3:.2f} ms (< 330 ms), "
          f"{report.n_frames} frames")


# ----------------------------------------------------------- criterion 9

def test_acceptance_9_run_determinism(tmp_path):
    config = {"seed": 909,
              "synth": {"n_videos": 2, "duration_s": 8.0},
              "skill": {"operators_per_group": 2, "clips_per_operator": 3,
                        "clip_duration_s": 5.0},
              "signature": {"n_per_class": 5}}
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(config, out1)
    run_pipeline(config, out2)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (out1 / rel).read_bytes() == (out2 / rel).read_bytes() for rel in files1)
    check(9, "run-determinism", identical,
          f"{len(files1)} artifacts compared byte-for-byte")
