import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_integrated_pose_distance,
    per_step_bounded_walk,
    per_step_pose_deforms,
    per_step_procedure_sequences,
    per_step_walk,
)
from scenestream import (
    ACTIONS,
    Detection,
    FrameRecord,
    InvariantError,
    box,
    iou,
    TOOL_CLASSES,
    parse_stream,
    write_stream,
)
from scenestream import synth
from scenestream.kinematics import (
    Trajectory,
    clip_mean_hand_size,
    integrated_pose_distance,
    path_distance,
    summarize_clip,
)
from scenestream.synth import (
    _HAND_TEMPLATE,
    _bounded_walk,
    _walk,
    CorruptionSpec,
    HandMotionSpec,
    OPENING_FRACTION,
    PHASES,
    PROCEDURE_CLASSES,
    PROCEDURE_STEPS,
    SkillCohortSpec,
    SynthSpec,
    generate_procedure_sequences,
    generate_stream,
    generate_tie_clips,
    synth_generate,
    _pose_sequence,
)
from scenestream.tracking import SortTracker, TrackerConfig


def small_spec(**kwargs):
    defaults = dict(seed=42, n_videos=1, fps=30.0, duration_s=3.0)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def stream_bytes(stream, path):
    """The bytes `write_stream` writes for a (header, frames) stream."""
    write_stream(stream, path)
    return path.read_bytes()


def test_fixed_seed_reproduces_identical_bytes(tmp_path):
    spec = small_spec()
    a, _ = generate_stream(spec, 0)
    b, _ = generate_stream(spec, 0)
    assert stream_bytes(a, tmp_path / "a.jsonl") == stream_bytes(b, tmp_path / "b.jsonl")

    d1, d2 = tmp_path / "one", tmp_path / "two"
    synth_generate(spec, d1)
    synth_generate(spec, d2)
    for p1, p2 in zip(sorted(d1.iterdir()), sorted(d2.iterdir())):
        assert p1.read_bytes() == p2.read_bytes()


def test_different_indices_differ(tmp_path):
    spec = small_spec(n_videos=2)
    a, _ = generate_stream(spec, 0)
    b, _ = generate_stream(spec, 1)
    assert stream_bytes(a, tmp_path / "a.jsonl") != stream_bytes(b, tmp_path / "b.jsonl")


def test_zero_corruption_detections_equal_ground_truth():
    (stream, frames), truth = generate_stream(small_spec(), 0)
    assert stream.metadata["synthetic"] is True
    for fr, frame_truth in zip(frames, truth.true_boxes):
        hands = [d for d in fr.detections if d.category == "hand"]
        assert len(hands) == len(frame_truth)
        for h, det in zip(sorted(frame_truth), hands):
            assert det.box == frame_truth[h]
            assert det.confidence == 1.0


def test_true_path_length_matches_independent_recomputation():
    (_, frames), truth = generate_stream(small_spec(), 0)
    frames = list(frames)
    # re-derive each hand's path by walking the emitted detections
    n_hands = len(truth.hand_ids)
    for h in truth.hand_ids:
        cents = []
        for fr in frames:
            hands = [d for d in fr.detections if d.category == "hand"]
            x0, y0, x1, y1 = hands[h].box
            cents.append(((x0 + x1) / 2, (y0 + y1) / 2))
        total = sum(((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
                    for (x0, y0), (x1, y1) in zip(cents, cents[1:]))
        assert total == pytest.approx(truth.path_px[h], rel=1e-9)
        assert truth.path_hand_lengths[h] == pytest.approx(
            total / truth.mean_hand_size[h], rel=1e-9)
    assert n_hands == 2


def test_impossible_spec_rejected():
    with pytest.raises(InvariantError):
        small_spec(duration_s=0.0)
    with pytest.raises(InvariantError):
        CorruptionSpec(dropout_rate=1.5)
    with pytest.raises(InvariantError, match="at least one hand"):
        small_spec(hands=())
    with pytest.raises(InvariantError, match="cohort sizes"):
        SkillCohortSpec(operators_per_group=0)


def test_frame_count_is_capped_as_the_generator_rounds_it():
    # generate_stream makes round(duration_s * fps) frames; round() takes a
    # tie to the even count, so MAX_FRAMES + 0.5 is the largest product kept
    cap = synth.MAX_FRAMES
    small_spec(fps=1.0, duration_s=cap + 0.5)
    small_spec(fps=30.0, duration_s=cap / 30.0)
    for fps, duration_s in [(1.0, cap + 0.5000001), (1e9, 20.0), (1e200, 1e200)]:
        with pytest.raises(InvariantError, match=f"round to at most {cap} frames"):
            small_spec(fps=fps, duration_s=duration_s)
    SkillCohortSpec(clip_duration_s=(cap + 0.5) / 30.0)
    for clip_duration_s in [(cap + 0.5000001) / 30.0, 1e12, 1e308]:
        with pytest.raises(InvariantError, match=f"round to at most {cap} frames"):
            SkillCohortSpec(clip_duration_s=clip_duration_s)


def test_dropout_removes_detections():
    clean, _ = generate_stream(small_spec(), 0)
    noisy, _ = generate_stream(
        small_spec(corruption=CorruptionSpec(dropout_rate=0.3)), 0)
    count = lambda s: sum(len([d for d in fr.detections if d.category == "hand"])
                          for fr in s[1])
    assert count(noisy) < count(clean)


def test_jitter_moves_boxes():
    spec = small_spec(corruption=CorruptionSpec(jitter_sigma=2.0))
    (_, frames), truth = generate_stream(spec, 0)
    deltas = []
    for fr, frame_truth in zip(frames, truth.true_boxes):
        hands = [d for d in fr.detections if d.category == "hand"]
        for h, det in zip(sorted(frame_truth), hands):
            deltas.append(abs(det.box[0] - frame_truth[h][0]))
    assert max(deltas) > 0.5


def test_actions_follow_phase_template():
    # every synthetic video cuts, sutures and ties for 30/40/30 of its frames
    (_, frames), truth = generate_stream(small_spec(), 0)
    labels = [fr.action for fr in frames]
    assert labels == truth.actions
    assert labels[0] == "cutting"
    assert labels[-1] == "tying"
    for action, share in (("cutting", 0.3), ("suturing", 0.4), ("tying", 0.3)):
        assert labels.count(action) == pytest.approx(share * len(labels), abs=1)


def test_synth_files_round_trip(tmp_path):
    spec = small_spec(n_videos=2, with_keypoints=True)
    written = synth_generate(spec, tmp_path)
    assert len(written) == 2
    for stream_path, truth_path in written:
        stream, frames = parse_stream(stream_path)
        truth = json.loads(truth_path.read_text())
        assert truth["video_id"] == stream.video_id
        assert len(frames) == len(truth["actions"])
        assert frames[0].keypoints[0].points.shape == (21, 3)


@pytest.mark.parametrize("n_hands", [2, 12])
def test_truth_sidecar_is_the_sorted_to_dict_dump(tmp_path, n_hands):
    # the sidecar's true boxes are made and written 256 frames at a time: 40 s
    # spans four blocks and part of a fifth, 12 hands sort "10" and "11" before
    # "2", and a hand near the corner has its box clamped at 0
    hands = (HandMotionSpec(region=(1.0, 1.0, 40.0, 40.0)),
             *(HandMotionSpec(region=(60.0 + 103.0 * i, 150.0, 90.0 + 103.0 * i, 570.0))
               for i in range(n_hands - 1)))
    stream, truth = generate_stream(small_spec(duration_s=40.0, hands=hands), 0)
    _, truth_path = synth.write_synth_files(stream, truth, tmp_path)
    assert "true_boxes" not in vars(truth)  # the writer leaves the truth's cache unfilled
    assert truth_path.read_text(encoding="utf-8") == (
        json.dumps(truth.to_dict(), sort_keys=True) + "\n")
    assert min(truth.true_boxes[0][0]) == 0.0


def test_crossing_hands_keep_identity_against_generator_truth():
    # two constant-velocity 110 x 90 px boxes crossing mid-sequence at 8 px
    # per frame, hand 0 rightward along y = 300 and hand 1 leftward along y = 360
    frames, true_boxes = [], []
    for k in range(100):
        centers = ((200.0 + 8.0 * k, 300.0), (1000.0 - 8.0 * k, 360.0))
        frame_truth = {h: box(cx - 55.0, cy - 45.0, cx + 55.0, cy + 45.0)
                       for h, (cx, cy) in enumerate(centers)}
        true_boxes.append(frame_truth)
        frames.append(FrameRecord(frame_index=k, timestamp_s=k / 30.0, detections=tuple(
            Detection(box=b, category="hand") for b in frame_truth.values())))
    tracker = SortTracker(TrackerConfig(min_hits=1))
    assigned = {}  # track_id -> set of gt ids it follows
    for fr, frame_truth in zip(frames, true_boxes):
        for tid, corners, _ in tracker.step(fr):
            best = max(frame_truth, key=lambda h: iou(corners, frame_truth[h]))
            if iou(corners, frame_truth[best]) >= 0.3:
                assigned.setdefault(tid, set()).add(best)
    # each emitted track follows exactly one ground-truth hand for its lifetime
    assert assigned
    for gt_ids in assigned.values():
        assert len(gt_ids) == 1
    followed = {next(iter(v)) for v in assigned.values()}
    assert followed == {0, 1}


# ------------------------------------------------------------- tie clips

def test_tie_clip_truth_matches_library_kinematics():
    spec = SkillCohortSpec(seed=5, operators_per_group=2, clips_per_operator=2,
                           clip_duration_s=5.0)
    clips, truths = generate_tie_clips(spec)
    assert len(clips) == 2 * 2 * 2
    for clip, truth in zip(clips, truths):
        for hand in ("left", "right"):
            traj = getattr(clip, hand)
            got = path_distance(traj, clip_mean_hand_size(traj))
            assert got == pytest.approx(truth[hand]["path_hand_lengths"], rel=1e-9)
            poses = getattr(clip, f"{hand}_poses")
            want_pose = naive_integrated_pose_distance(list(poses.points), list(poses.sizes))
            assert integrated_pose_distance(poses) == pytest.approx(want_pose, rel=1e-9)


def test_pose_sequence_draws_noise_like_per_frame_draws():
    # one (149, 9, 2) draw must consume the generator exactly as 149 per-frame
    # (9, 2) draws, or every later draw of the cohort and the bundle bytes change
    size, rate, n_frames = 100.0, 0.016, 150
    rng, ref_rng = np.random.default_rng([3, 977]), np.random.default_rng([3, 977])
    poses = _pose_sequence(rng, n_frames, size, rate)
    base = _HAND_TEMPLATE[:9] * size
    deform = np.zeros((9, 2))
    want = [base + deform]
    for _ in range(n_frames - 1):
        deform = np.clip(deform + ref_rng.normal(0, rate * size, size=(9, 2)),
                         -0.3 * size, 0.3 * size)
        want.append(base + deform)
    assert np.array_equal(poses.frames, np.arange(n_frames))
    assert np.all(poses.sizes == size)
    assert np.array_equal(poses.points, np.array(want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_bounded_walk_matches_per_step_draws():
    # the walk draws its turns in one call; steps that leave [150, 1800]
    # reflect, which long steps from near a bound make happen often
    rng, ref_rng = np.random.default_rng([5, 977]), np.random.default_rng([5, 977])
    got = _bounded_walk(rng, 299, 60.0, (200.0, 1750.0))
    want = [np.array([200.0, 1750.0])]
    theta = ref_rng.uniform(0, 2 * np.pi)
    for _ in range(299):
        theta += ref_rng.normal(0, 0.5)
        step = np.array([math.cos(theta), math.sin(theta)]) * 60.0
        nxt = want[-1] + step
        outside = (nxt < 150.0) | (nxt > 1800.0)
        nxt[outside] = want[-1][outside] - step[outside]
        want.append(nxt)
    assert np.array_equal(got, np.array(want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# (start, steps, the step at which each column's running sum first leaves
# [-10, 10]) per exit path: no column leaves, some do, all do, all on step 0
WALK_EXITS = {
    "no column": ([0.0, 5.0, -5.0], [[1.0, -1.0, 0.5]] * 4, [None, None, None]),
    "some columns": ([0.0, 9.0, -9.0], [[1.0, 0.75, -0.5]] * 4, [None, 1, 2]),
    "every column": ([0.0, 9.0, -9.0], [[3.0, 0.5, -0.5]] * 6, [3, 2, 2]),
    "first step": ([9.5, -9.5, 10.0], [[1.0, -1.0, 0.25], [-0.5, 0.5, -0.25]] * 3, [0, 0, 0]),
}


@pytest.mark.parametrize("reflect", [True, False], ids=["reflect", "clip"])
@pytest.mark.parametrize("case", WALK_EXITS.values(), ids=WALK_EXITS)
def test_walk_matches_per_step_walk_on_every_exit_path(case, reflect):
    start, steps, first_exits = case
    sums = np.cumsum(np.vstack([start, steps]), axis=0)
    outside = np.abs(sums[1:]) > 10.0
    assert [int(col.argmax()) if col.any() else None for col in outside.T] == first_exits
    got = _walk(np.array(start), np.array(steps), -10.0, 10.0, reflect)
    assert np.array_equal(got, per_step_walk(start, steps, -10.0, 10.0, reflect))
    assert np.array_equal(got[:, ~outside.any(axis=0)], sums[:, ~outside.any(axis=0)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(0, 60), columns=st.integers(1, 18),
       spread=st.floats(0.01, 20.0), reflect=st.booleans())
def test_walk_matches_per_step_walk(seed, n_steps, columns, spread, reflect):
    rng = np.random.default_rng(seed)
    start = rng.uniform(-12.0, 12.0, columns)  # some starts lie outside [-10, 10]
    steps = rng.normal(0.0, spread, (n_steps, columns))
    assert np.array_equal(_walk(start, steps, -10.0, 10.0, reflect),
                          per_step_walk(start, steps, -10.0, 10.0, reflect))


def per_step_pose_sequence(rng, n_frames, size, pose_rate):
    points = _HAND_TEMPLATE[:9] * size + per_step_pose_deforms(rng, n_frames, size, pose_rate)
    return Trajectory(frames=np.arange(n_frames), points=points, sizes=np.full(n_frames, size))


@pytest.mark.parametrize("seed, clip_duration_s, operators, clips", [
    (0, 1.0, 1, 1), (1, 10.0, 3, 4), (2, 60.0, 1, 2), (3, 1 / 30, 2, 1), (4, 23.3, 2, 2),
])
def test_tie_clips_match_per_step_walks(monkeypatch, seed, clip_duration_s, operators, clips):
    # the running-sum walks draw and add exactly as the per-step ones, so the
    # whole cohort, its later draws (knot counts) included, is the same to the bit
    spec = SkillCohortSpec(seed=seed, clip_duration_s=clip_duration_s,
                           operators_per_group=operators, clips_per_operator=clips)
    got, got_truths = generate_tie_clips(spec)
    monkeypatch.setattr(synth, "_bounded_walk", per_step_bounded_walk)
    monkeypatch.setattr(synth, "_pose_sequence", per_step_pose_sequence)
    want, want_truths = generate_tie_clips(spec)
    assert got_truths == want_truths
    assert [c.knot_count for c in got] == [c.knot_count for c in want]
    hands = ("left", "right", "left_poses", "right_poses")
    for g, w in zip(got, want, strict=True):
        for hand in hands:
            assert np.array_equal(getattr(g, hand).points, getattr(w, hand).points)
    if clip_duration_s == 10.0:  # run's default clips: some trainee coordinates clip
        assert any(np.abs(c.left_poses.points - _HAND_TEMPLATE[:9] * 100.0).max() == 30.0
                   for c in got if c.experience == "trainee")


def test_tie_clip_cohort_reflects_experience_targets():
    spec = SkillCohortSpec(seed=9, operators_per_group=3, clips_per_operator=4)
    clips, _ = generate_tie_clips(spec)
    by_exp = {"experienced": [], "trainee": []}
    for clip in clips:
        s = summarize_clip(clip, fps=spec.fps)
        by_exp[clip.experience].append(s["left"]["distance_hand_lengths"])
        assert 3 <= clip.knot_count <= 7
    assert np.mean(by_exp["experienced"]) == pytest.approx(2.0, rel=0.15)
    assert np.mean(by_exp["trainee"]) == pytest.approx(4.0, rel=0.15)
    # trainees also show more pose movement
    pose_exp = np.mean([summarize_clip(c, spec.fps)["left"]["integrated_pose_distance"]
                        for c in clips if c.experience == "experienced"])
    pose_tr = np.mean([summarize_clip(c, spec.fps)["left"]["integrated_pose_distance"]
                       for c in clips if c.experience == "trainee"])
    assert pose_tr > pose_exp


def test_tie_clip_determinism():
    spec = SkillCohortSpec(seed=11, operators_per_group=1, clips_per_operator=1)
    clips1, truths1 = generate_tie_clips(spec)
    clips2, truths2 = generate_tie_clips(spec)
    assert truths1 == truths2
    assert np.array_equal(clips1[0].left.points, clips2[0].left.points)


# ------------------------------------------------------- procedure cohort

def test_procedure_sequences_shape_and_opening():
    procedures = generate_procedure_sequences(seed=3, n_per_class=4)
    assert len(procedures) == 12
    names = {label for _, label in procedures}
    assert names == {"appendectomy", "pilonidal", "thyroidectomy"}
    for tl, _ in procedures:
        assert tl.tools.shape == (len(tl), 3)
        assert tl.labels[0] == "cutting"
        assert all(lab != "background" for lab in tl.labels)


def test_procedure_sequences_deterministic():
    a = generate_procedure_sequences(seed=7, n_per_class=2)
    b = generate_procedure_sequences(seed=7, n_per_class=2)
    for (ta, la), (tb, lb) in zip(a, b):
        assert ta.labels == tb.labels
        assert np.array_equal(ta.tools, tb.tools)
        assert la == lb


# zero-probability actions and tool rates, a large rate and sequences as
# short as 5 steps
_EDGE_CLASS = (
    "edge",
    ((0.0, 0.3, 0.7), (0.1, 0.2, 0.7), (0.7, 0.0, 0.3), (0.1, 0.7, 0.2)),
    ((0.0, 2.5, 0.1), (0.3, 0.0, 4.0), (12.0, 0.5, 0.5), (0.1, 0.1, 0.1)))


@pytest.mark.parametrize("seed", [0, 7, 41])
def test_procedure_draws_match_per_step_draws(monkeypatch, seed):
    # bisect over precomputed CDFs and scalar poisson calls must consume each
    # class's generator exactly as per-step choice and array poisson calls do;
    # once on the default table, once on the edge class alone
    for classes, steps in ((PROCEDURE_CLASSES, PROCEDURE_STEPS), ((_EDGE_CLASS,), (5, 90))):
        made, real = [], np.random.default_rng
        with monkeypatch.context() as m:
            m.setattr(synth, "PROCEDURE_CLASSES", classes)
            m.setattr(synth, "PROCEDURE_STEPS", steps)
            m.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
            got = generate_procedure_sequences(seed, 12)
        want, ref_rngs = per_step_procedure_sequences(seed, 12, classes, steps,
                                                      OPENING_FRACTION)
        assert len(got) == len(want) == 12 * len(classes)
        for (tl, name), (labels, counts, ref_name) in zip(got, want):
            assert name == ref_name and list(tl.labels) == labels
            assert np.array_equal(tl.tools, counts)
        assert [r.bit_generator.state for r in made] == [r.bit_generator.state
                                                         for r in ref_rngs]


def test_procedure_table_is_well_formed():
    assert PROCEDURE_STEPS == (40, 80) and OPENING_FRACTION == 0.1
    assert [name for name, _, _ in PROCEDURE_CLASSES] == [
        "appendectomy", "pilonidal", "thyroidectomy"]
    for _, action_probs, tool_rates in PROCEDURE_CLASSES:
        assert len(action_probs) == len(tool_rates) == 4
        for row in action_probs:
            assert len(row) == len(ACTIONS) and min(row) >= 0
            assert abs(sum(row) - 1.0) <= 1e-9
        for row in tool_rates:
            assert len(row) == len(TOOL_CLASSES) and min(row) >= 0
    # _phase_schedule ends the last phase at n_frames only because of this
    assert np.cumsum([f for _, f, _ in PHASES])[-1] == 1.0
