import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_diff_series,
    naive_gapped_series,
    naive_integrated_pose_distance,
    naive_path_distance,
    naive_pose_change,
    naive_pose_vectors,
    naive_velocity_series,
)
from scenestream import DataWarning, InvariantError
from scenestream.kinematics import (
    SUMMARY_FIELDS,
    TieClip,
    Trajectory,
    clip_mean_hand_size,
    group_centroids,
    integrated_pose_distance,
    leave_one_out,
    metric_pair,
    path_distance,
    pose_change,
    pose_vectors,
    split_pose_segments,
    summarize_clip,
    velocity_series,
)


def traj(points, sizes=None, frames=None):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    sizes = np.full(n, 100.0) if sizes is None else np.asarray(sizes, dtype=float)
    frames = np.arange(n) if frames is None else np.asarray(frames)
    return Trajectory(frames=frames, points=points, sizes=sizes)


def poses(points, sizes=100.0, frames=None):
    """Skill points of a list of (9, 2) point sets, frames 0..n-1 unless given."""
    points = np.asarray(points, dtype=float).reshape(-1, 9, 2)
    n = len(points)
    return Trajectory(frames=np.arange(n) if frames is None else frames, points=points,
                      sizes=np.broadcast_to(np.asarray(sizes, dtype=float), n))


BASE_POSE = [
    (0.0, 0.0),  # palm
    (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 1.0),  # thumb chain
    (0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (0.0, 4.0),  # index chain
]


def random_trajectory(rng, n=None):
    n = n or rng.integers(5, 60)
    return traj(rng.uniform(0, 500, (n, 2)), sizes=rng.uniform(40, 120, n))


def random_pose_seq(rng, n=6, size_lo=50, size_hi=150):
    draws = [(rng.uniform(0, 300, (9, 2)), rng.uniform(size_lo, size_hi)) for _ in range(n)]
    return poses([pts for pts, _ in draws], sizes=[size for _, size in draws])


# ------------------------------------------------------------- mean size

def test_clip_mean_hand_size():
    assert clip_mean_hand_size(traj([(0, 0)] * 3, sizes=[50, 50, 50])) == 50
    assert clip_mean_hand_size(traj([(0, 0)] * 2, sizes=[40, 60])) == 50


def test_clip_mean_hand_size_random_matches_naive_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = random_trajectory(rng)
        naive = sum(float(s) for s in t.sizes) / len(t)
        assert clip_mean_hand_size(t) == pytest.approx(naive, rel=1e-9)


def test_clip_mean_hand_size_empty_raises():
    empty = Trajectory(frames=np.zeros(0, dtype=int),
                       points=np.zeros((0, 2)), sizes=np.zeros(0))
    with pytest.raises(InvariantError):
        clip_mean_hand_size(empty)


# ------------------------------------------------------------- distance

def test_path_distance_stationary_is_zero():
    assert path_distance(traj([(5, 5)] * 10), 100.0) == 0.0


def test_path_distance_straight_move():
    # 200 px straight at mean size 100 -> two hand-lengths, the experienced-tie scale
    assert path_distance(traj([(0, 0), (200, 0)]), 100.0) == pytest.approx(2.0)


def test_path_distance_square_path():
    square = [(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)]
    assert path_distance(traj(square), 100.0) == pytest.approx(4.0)


def test_path_distance_short_trajectory_warns():
    assert path_distance(traj([(0, 0)]), 100.0) == 0.0


def test_path_distance_random_matches_naive_loops():
    rng = np.random.default_rng(1)
    for _ in range(30):
        t = random_trajectory(rng)
        mean = clip_mean_hand_size(t)
        want = naive_path_distance([tuple(c) for c in t.points], mean)
        assert path_distance(t, mean) == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------------- velocity

def test_velocity_constant_step():
    points = [(k, 0) for k in range(10)]  # 1 px/frame
    vel, acc, jerk = velocity_series(traj(points), 100.0, 30.0)
    assert vel == pytest.approx(np.full(9, 0.3))
    assert acc == pytest.approx(np.zeros(8))
    assert jerk == pytest.approx(np.zeros(7))


def test_velocity_scales_linearly_with_fps():
    rng = np.random.default_rng(2)
    t = random_trajectory(rng, 20)
    v30, _, _ = velocity_series(t, 80.0, 30.0)
    v60, _, _ = velocity_series(t, 80.0, 60.0)
    assert np.all(v60 == 2.0 * v30)


def test_velocity_series_matches_naive_loops():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_trajectory(rng)
        mean = clip_mean_hand_size(t)
        vel, acc, jerk = velocity_series(t, mean, 30.0)
        pts = [tuple(c) for c in t.points]
        want_v = naive_velocity_series(pts, mean, 30.0)
        want_a = naive_diff_series(want_v, 30.0)
        want_j = naive_diff_series(want_a, 30.0)
        assert vel == pytest.approx(want_v, rel=1e-9)
        assert acc == pytest.approx(want_a, rel=1e-9, abs=1e-9)
        assert jerk == pytest.approx(want_j, rel=1e-9, abs=1e-9)


def test_velocity_series_divides_by_frame_gaps():
    # 1 px per frame with frames 3, 6 and 7 dropped: speed stays 0.3/s
    frames = [0, 1, 2, 4, 5, 8, 9]
    vel, acc, jerk = velocity_series(traj([(f, 0) for f in frames], frames=frames), 100.0, 30.0)
    assert vel == pytest.approx(np.full(6, 0.3))
    assert acc == pytest.approx(np.zeros(5), abs=1e-12)
    assert jerk == pytest.approx(np.zeros(4), abs=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        frames = np.cumsum(rng.integers(1, 5, n))
        t = traj(rng.uniform(0, 500, (n, 2)), sizes=rng.uniform(40, 120, n), frames=frames)
        mean = clip_mean_hand_size(t)
        want_v, want_a, want_j = naive_gapped_series(
            [tuple(c) for c in t.points], frames.tolist(), mean, 30.0)
        vel, acc, jerk = velocity_series(t, mean, 30.0)
        assert vel == pytest.approx(want_v, rel=1e-9)
        assert acc == pytest.approx(want_a, rel=1e-9, abs=1e-9)
        assert jerk == pytest.approx(want_j, rel=1e-9, abs=1e-9)


def test_velocity_series_of_one_sample_warns_and_is_empty():
    series = velocity_series(traj([(5, 5)]), 100.0, 30.0)
    assert [s.shape for s in series] == [(0,), (0,), (0,)]


def test_velocity_per_frame_size_flag():
    t = traj([(0, 0), (10, 0), (20, 0)], sizes=[50, 100, 100])
    vel, _, _ = velocity_series(t, clip_mean_hand_size(t), 30.0, per_frame_size=True)
    assert vel[0] == pytest.approx(10 / 50 * 30)
    assert vel[1] == pytest.approx(10 / 100 * 30)


# ------------------------------------------------------------- pose

def test_pose_vectors_coincident_points_are_zero():
    assert np.all(pose_vectors(np.full((9, 2), 5.0)) == 0.0)


def test_pose_vectors_translation_invariant():
    shifted = [(x + 7.5, y - 3.25) for x, y in BASE_POSE]
    assert pose_vectors(BASE_POSE) == pytest.approx(pose_vectors(shifted), abs=1e-12)


def test_pose_vectors_match_manual_subtraction():
    assert pose_vectors(BASE_POSE) == pytest.approx(np.array(naive_pose_vectors(BASE_POSE)))
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 100, (9, 2))
    assert pose_vectors(pts) == pytest.approx(np.array(naive_pose_vectors(pts)))


def test_pose_vectors_of_a_block_are_the_vectors_of_each_frame():
    block = np.random.default_rng(9).uniform(0, 100, (5, 9, 2))
    vectors = pose_vectors(block)
    assert vectors.shape == (5, 8, 2)
    for k in range(5):
        assert np.array_equal(vectors[k], pose_vectors(block[k]))


def test_pose_change_identical_and_translated_are_zero():
    moved = [(x + 12.0, y + 30.0) for x, y in BASE_POSE]
    assert pose_change(BASE_POSE, BASE_POSE, 100.0) == 0.0
    assert pose_change(BASE_POSE, moved, 100.0) == 0.0


def test_pose_change_interior_point_worked_example():
    # thumb joint 2 moved by (3, 4): perturbs its incoming and outgoing
    # vectors oppositely, so the L1 terms double
    moved = [list(p) for p in BASE_POSE]
    moved[2][0] += 3
    moved[2][1] += 4
    assert pose_change(BASE_POSE, moved, 100.0) == (abs(3) + abs(4)) * 2 / 100
    assert pose_change(BASE_POSE, moved, 100.0) == pytest.approx(0.14)


def test_pose_change_uses_earlier_frame_hand_size():
    moved = [list(p) for p in BASE_POSE]
    moved[2][0] += 3
    moved[2][1] += 4
    seq = poses([BASE_POSE, moved], sizes=[50.0, 200.0])
    assert integrated_pose_distance(seq) == (abs(3) + abs(4)) * 2 / 50


def test_pose_change_matches_naive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pa = rng.uniform(0, 200, (9, 2))
        pb = rng.uniform(0, 200, (9, 2))
        size = float(rng.uniform(50, 150))
        assert pose_change(pa, pb, size) == pytest.approx(naive_pose_change(pa, pb, size),
                                                          rel=1e-9)


def test_pose_change_nonnegative_zero_iff_same_vectors():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = rng.uniform(0, 100, (9, 2)), rng.uniform(0, 100, (9, 2))
        v = pose_change(a, b, 100.0)
        assert v >= 0.0
        same = np.array_equal(pose_vectors(a), pose_vectors(b))
        assert (v == 0.0) == same


def test_integrated_pose_distance_static_and_alternating():
    moved = [(x + 2, y + 1) if i == 7 else (x, y) for i, (x, y) in enumerate(BASE_POSE)]
    assert integrated_pose_distance(poses([BASE_POSE] * 4)) == 0.0
    total = integrated_pose_distance(poses([BASE_POSE, moved] * 2))
    assert total == pytest.approx(3 * pose_change(BASE_POSE, moved, 100.0), rel=1e-12)


def test_integrated_pose_distance_short_sequence_warns():
    assert integrated_pose_distance(poses([BASE_POSE])) == 0.0


def test_integrated_pose_distance_matches_naive():
    rng = np.random.default_rng(7)
    seq = random_pose_seq(rng, n=8)
    want = naive_integrated_pose_distance(list(seq.points), list(seq.sizes))
    assert integrated_pose_distance(seq) == pytest.approx(want, rel=1e-9)


def test_integrated_pose_distance_equals_summed_pose_changes():
    # the one-pass form must add the very same per-pair values, left to right
    rng = np.random.default_rng(8)
    for n in range(2, 41):
        draws = [(rng.uniform(0, 300, (9, 2)), float(rng.uniform(20, 200))) for _ in range(n)]
        seq = poses([pts for pts, _ in draws], sizes=[size for _, size in draws])
        want = left_to_right(pose_change(seq.points[k], seq.points[k + 1], seq.sizes[k])
                             for k in range(n - 1))
        assert integrated_pose_distance(seq) == want


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values, start=0):
    """Builtin `sum` of floats from Python 3.12 on: compensated, not left to right."""
    total, compensation = start, 0.0
    for value in values:
        t = total + value
        compensation += (total - t) + value if abs(total) >= abs(value) else (value - t) + total
        total = t
    return total + compensation


def test_pose_totals_add_left_to_right_whatever_builtin_sum_does(monkeypatch):
    # 30 pose segments of 3 frames each, split by gaps past POSE_GAP_SPLIT_S
    rng = np.random.default_rng(12)
    frames = np.array([k // 3 * 100 + k % 3 for k in range(90)])
    seq = random_pose_seq(rng, n=90)
    seq = Trajectory(frames=frames, points=seq.points, sizes=seq.sizes)
    clip = TieClip(video_id="v", start=0, end=int(frames[-1]), operator_id="o",
                   experience="trainee", knot_count=3, left=traj(seq.points[:, 0], frames=frames),
                   left_poses=seq)
    pairs = [pose_change(seq.points[k], seq.points[k + 1], seq.sizes[k]) for k in range(89)]
    segment_totals = [left_to_right(pairs[k:k + 2]) for k in range(0, 89, 3)]
    whole = Trajectory(frames=np.arange(90), points=seq.points, sizes=seq.sizes)
    # the compensated sum rounds differently on both inputs, so this test sees it
    assert neumaier_sum(pairs) != left_to_right(pairs)
    assert neumaier_sum(segment_totals) != left_to_right(segment_totals)
    monkeypatch.setattr("builtins.sum", neumaier_sum)
    assert integrated_pose_distance(whole) == left_to_right(pairs)
    assert [integrated_pose_distance(s) for s in split_pose_segments(seq, 30.0)] == \
        segment_totals
    pose_total = summarize_clip(clip, fps=30.0)["left"]["integrated_pose_distance"]
    assert pose_total == left_to_right(segment_totals)


def test_split_pose_segments_on_gaps():
    frames = [0, 1, 2, 40, 41, 90]
    seq = poses([BASE_POSE] * 6, frames=frames)
    segments = split_pose_segments(seq, fps=30.0)
    assert [s.frames.tolist() for s in segments] == [[0, 1, 2], [40, 41], [90]]
    assert all(isinstance(s, Trajectory) for s in segments)
    assert split_pose_segments(poses([]), fps=30.0) == []


# a hand's points per frame: its nine skill points, or its centroid
POINT_SHAPES = {"skill points": (9, 2), "centroids": (2,)}


@pytest.mark.parametrize("shape", POINT_SHAPES.values(), ids=POINT_SHAPES)
def test_pose_frame_block_equals_single_frames_and_is_read_only(shape):
    block = np.random.default_rng(2).uniform(0, 300, (5, *shape))
    seq = Trajectory(frames=[3, 4, 6, 7, 9], points=block, sizes=np.full(5, 80.0))
    assert len(seq) == 5 and seq.points.shape == (5, *shape)
    for k, frame in enumerate([3, 4, 6, 7, 9]):
        single = Trajectory(frames=[frame], points=block[k:k + 1], sizes=[80.0])
        assert np.array_equal(seq[k].frames, single.frames)
        assert np.array_equal(seq[k].points, single.points)
        assert np.array_equal(seq[k].sizes, single.sizes)
    for arr in (seq.frames, seq.points, seq.sizes):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        seq.points[0, 0] = 1.0
    block[0, 0] = -1.0  # the block was copied
    assert np.all(seq.points[0, 0] != -1.0)


# each bad value on skill points and on a centroid path (ids `centroids-...`),
# and points of neither shape
@pytest.mark.parametrize("shape, bad_point, size, match", [
    pytest.param(shape, bad_point, size, match, id=f"{prefix}{bad_point}-{size}")
    for prefix, shape in (("", (9, 2)), ("centroids-", (2,)))
    for bad_point, size, match in ((float("nan"), 80.0, "finite"), (float("inf"), 80.0, "finite"),
                                   (None, 0.0, "positive"), (None, -1.0, "positive"))
] + [pytest.param(shape, None, 80.0, "shape", id=f"shape {shape}") for shape in ((3,), (9,))])
def test_pose_frame_block_checks_points_and_hand_size(shape, bad_point, size, match):
    block = np.ones((4, *shape))
    if bad_point is not None:
        block[3].flat[-1] = bad_point
    with pytest.raises(InvariantError, match=match):
        Trajectory(frames=np.arange(4), points=block, sizes=[80.0, 80.0, 80.0, size])


@pytest.mark.parametrize("frames, n_sizes, shape", [
    pytest.param(frames, n_sizes, shape, id=f"{prefix}frames{k}-{n_sizes}")
    for prefix, shape in (("", (9, 2)), ("centroids-", (2,)))
    for k, (frames, n_sizes) in enumerate([([0, 2, 2], 3), ([0, 2, 1], 3), ([0, 1, 2], 2)])])
def test_poses_check_frame_order_and_lengths(frames, n_sizes, shape):
    with pytest.raises(InvariantError):
        Trajectory(frames=frames, points=np.ones((3, *shape)), sizes=np.full(n_sizes, 80.0))


@pytest.mark.parametrize("shape", POINT_SHAPES.values(), ids=POINT_SHAPES)
def test_poses_index_slice_mask_and_frame_range(shape):
    rng = np.random.default_rng(3)
    seq = Trajectory(frames=[0, 2, 4, 6, 8, 10], points=rng.uniform(0, 300, (6, *shape)),
                     sizes=rng.uniform(50, 150, 6))
    one = seq[2]
    assert len(one) == 1 and one.frames.tolist() == [4]
    assert np.array_equal(one.points[0], seq.points[2]) and one.sizes[0] == seq.sizes[2]
    assert seq[1:3].frames.tolist() == [2, 4]
    assert seq[seq.sizes > 100].frames.tolist() == seq.frames[seq.sizes > 100].tolist()
    window = seq.slice(3, 8)
    assert window.frames.tolist() == [4, 6, 8]
    assert np.array_equal(window.points, seq.points[2:5])
    assert len(seq.slice(11, 20)) == 0


# ------------------------------------------------------- scale invariance

@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
def test_metrics_invariant_to_uniform_zoom(lam, seed):
    rng = np.random.default_rng(seed)
    t = random_trajectory(rng, 15)
    scaled = Trajectory(frames=t.frames, points=t.points * lam, sizes=t.sizes * lam)
    m, ms = clip_mean_hand_size(t), clip_mean_hand_size(scaled)
    assert path_distance(scaled, ms) == pytest.approx(path_distance(t, m), rel=1e-9)
    v1, a1, j1 = velocity_series(t, m, 30.0)
    v2, a2, j2 = velocity_series(scaled, ms, 30.0)
    assert v2 == pytest.approx(v1, rel=1e-9)

    pa, pb = rng.uniform(0, 200, (9, 2)), rng.uniform(0, 200, (9, 2))
    size = float(rng.uniform(50, 150))
    base = pose_change(pa, pb, size)
    zoomed = pose_change(pa * lam, pb * lam, size * lam)
    assert zoomed == pytest.approx(base, rel=1e-9)


def test_path_distance_additive_over_shared_boundary():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 300, (12, 2))
    whole = traj(pts)
    first = traj(pts[:7], frames=np.arange(7))
    second = traj(pts[6:], frames=np.arange(6, 12))
    assert path_distance(first, 100.0) + path_distance(second, 100.0) == \
        pytest.approx(path_distance(whole, 100.0), rel=1e-12)


# ------------------------------------------------------------- summaries

def make_clip(left_pts=None, right_pts=None, knots=4, experience="trainee", op="op1"):
    left = traj(left_pts) if left_pts is not None else None
    right = traj(right_pts) if right_pts is not None else None
    return TieClip(video_id="v", start=0, end=100, operator_id=op,
                   experience=experience, knot_count=knots, left=left, right=right)


def test_summarize_clip_missing_hand_is_none_not_zero():
    clip = make_clip(left_pts=[(0, 0), (50, 0), (100, 0)])
    summary = summarize_clip(clip, fps=30.0)
    assert summary["right"] is None
    assert summary["left"] is not None
    assert summary["left"]["distance_hand_lengths"] == pytest.approx(1.0)


@pytest.mark.parametrize("right_pts", [[(0, 0), (30, 40), (60, 0)], None],
                         ids=["both-hands", "right-missing"])
def test_summary_is_plain_json_with_one_field_list(right_pts):
    clip = make_clip(left_pts=[(0, 0), (50, 0), (100, 0)], right_pts=right_pts)
    summary = summarize_clip(clip, fps=30.0)
    assert json.loads(json.dumps(summary)) == summary
    assert list(summary.items())[:4] == [("video_id", "v"), ("operator_id", "op1"),
                                         ("experience", "trainee"), ("knot_count", 4)]
    assert list(summary)[4:] == ["left", "right"]
    hands = [summary["left"], summary["right"]]
    assert [tuple(hand) for hand in hands if hand is not None] == \
        [SUMMARY_FIELDS] * (1 if right_pts is None else 2)
    assert tuple(hand_summary(1.0)) == SUMMARY_FIELDS  # the builder below matches too


def test_summaries_nonnegative_on_random_clips():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(4, 30))
        clip = make_clip(left_pts=rng.uniform(0, 400, (n, 2)),
                         right_pts=rng.uniform(0, 400, (n, 2)))
        s = summarize_clip(clip, fps=30.0)
        for hand in (s["left"], s["right"]):
            for field_name in ("distance_hand_lengths", "distance_per_knot",
                               "mean_velocity", "max_velocity", "mean_acceleration",
                               "max_acceleration", "mean_jerk", "max_jerk",
                               "integrated_pose_distance", "pose_distance_per_knot"):
                assert hand[field_name] >= 0.0


def test_summary_per_knot_is_exact_division():
    clip = make_clip(left_pts=[(0, 0), (150, 0)], right_pts=[(0, 0), (450, 0)], knots=3)
    s = summarize_clip(clip, fps=30.0)
    assert s["left"]["distance_per_knot"] == s["left"]["distance_hand_lengths"] / 3
    assert s["right"]["distance_per_knot"] == s["right"]["distance_hand_lengths"] / 3
    assert s["left"]["pose_distance_per_knot"] == s["left"]["integrated_pose_distance"] / 3


def test_tie_clip_validation():
    with pytest.raises(InvariantError, match="start < end"):
        TieClip(video_id="v", start=5, end=5, operator_id="o",
                experience="trainee", knot_count=3)
    with pytest.raises(InvariantError, match="knot_count"):
        TieClip(video_id="v", start=0, end=5, operator_id="o",
                experience="trainee", knot_count=0)
    with pytest.raises(InvariantError, match="experience"):
        TieClip(video_id="v", start=0, end=5, operator_id="o",
                experience="expert", knot_count=3)


def hand_summary(value, pose_value=0.0):
    return {"distance_hand_lengths": value, "distance_per_knot": value / 4,
            "mean_velocity": 0.0, "max_velocity": 0.0, "mean_acceleration": 0.0,
            "max_acceleration": 0.0, "mean_jerk": 0.0, "max_jerk": 0.0,
            "integrated_pose_distance": pose_value, "pose_distance_per_knot": pose_value / 4}


def summary_of(exp, op, left, right):
    return {"video_id": "v", "operator_id": op, "experience": exp,
            "knot_count": 4, "left": hand_summary(left), "right": hand_summary(right)}


def test_group_centroids_single_member_and_symmetry():
    single = [summary_of("experienced", "a", 2.0, 2.5)]
    assert group_centroids(single) == {"experienced": (2.0, 2.5)}
    pair = [summary_of("trainee", "a", 1.0, 3.0), summary_of("trainee", "b", 3.0, 1.0)]
    assert group_centroids(pair) == {"trainee": (2.0, 2.0)}


def test_group_centroids_skips_clips_missing_a_hand():
    missing = {"video_id": "v", "operator_id": "a", "experience": "trainee",
               "knot_count": 4, "left": hand_summary(1.0), "right": None}
    with pytest.warns(DataWarning, match="missing a hand"):
        cents = group_centroids([missing, summary_of("trainee", "b", 4.0, 4.0)])
    assert cents == {"trainee": (4.0, 4.0)}
    assert metric_pair(missing) is None


def test_leave_one_out_identical_operators_unchanged():
    summaries = [summary_of("trainee", op, 4.0, 4.0) for op in ("a", "b", "c")]
    full = group_centroids(summaries)
    loo = leave_one_out(summaries)
    assert sorted(loo) == ["a", "b", "c"]
    for cents in loo.values():
        assert cents == full


def test_leave_one_out_outlier_shifts_toward_mass():
    summaries = [summary_of("trainee", "a", 4.0, 4.0),
                 summary_of("trainee", "b", 4.2, 4.2),
                 summary_of("trainee", "c", 10.0, 10.0)]
    loo = leave_one_out(summaries)
    # direct-summation oracle for the held-out-c centroid
    assert loo["c"]["trainee"] == ((4.0 + 4.2) / 2, (4.0 + 4.2) / 2)
    full_x = (4.0 + 4.2 + 10.0) / 3
    assert loo["c"]["trainee"][0] < full_x


def test_leave_one_out_emptied_group_flagged():
    summaries = [summary_of("trainee", "only", 4.0, 4.0),
                 summary_of("experienced", "other", 2.0, 2.0)]
    with pytest.warns(DataWarning, match="empties group"):
        loo = leave_one_out(summaries)
    assert "trainee" not in loo["only"]
    assert loo["only"]["experienced"] == (2.0, 2.0)
