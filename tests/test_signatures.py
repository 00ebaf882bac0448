import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import subspace_angles

from oracles import lda_projection_oracle, per_row_moving_average
from scenestream import DataWarning, InvariantError
from scenestream.signatures import (
    _moving_average,
    BUILTIN_RULES,
    FEATURE_NAMES,
    Timeline,
    build_signature,
    check_step,
    excise_background,
    featurize,
    filter_videos,
    lda_fit,
    lda_project,
    normalize_tool_features,
    quartile_aggregate,
    step_summary,
    stream_steps,
    timeline_from_stream,
    top_features,
    transition_probabilities,
    zscore,
)
from scenestream.streams import Detection, FrameRecord, VideoStream, box

CUT, TIE, SUT, BG = "cutting", "tying", "suturing", "background"


def seq(labels, vid="v", tools=None):
    """A timeline of `labels`; no tools on screen unless `tools` gives the rows."""
    labels = tuple(labels)
    if tools is None:
        tools = np.zeros((len(labels), 3))
    return Timeline(video_id=vid, labels=labels, tools=tools)


def random_seq(rng, n, vid="v", include_bg=True):
    pool = [CUT, TIE, SUT] + ([BG] if include_bg else [])
    return seq(rng.choice(pool, size=n).tolist(), vid=vid)


# ------------------------------------------------------------- excision

def test_excise_background_examples():
    assert excise_background(seq([CUT, BG, CUT])).labels == (CUT, CUT)
    no_bg = seq([CUT, TIE, SUT])
    assert excise_background(no_bg).labels == no_bg.labels


def test_excise_background_all_background_flagged():
    with pytest.warns(DataWarning, match="all background"):
        out = excise_background(seq([BG, BG]))
    assert len(out) == 0
    assert out.tools.shape == (0, 3)


def test_excise_background_random_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_seq(rng, int(rng.integers(1, 50)))
        want = sum(1 for lab in s.labels if lab != BG)
        if want == 0:
            with pytest.warns(DataWarning):
                out = excise_background(s)
        else:
            out = excise_background(s)
        assert len(out) == want


def test_excise_background_drops_tool_rows_with_their_steps():
    s = seq([CUT, BG, TIE, BG], tools=[[1, 0, 0], [9, 9, 9], [0, 2, 0], [9, 9, 9]])
    kept = excise_background(s)
    assert kept.labels == (CUT, TIE)
    assert kept.tools == pytest.approx(np.array([[1, 0, 0], [0, 2, 0]], dtype=float))


@pytest.mark.parametrize("labels, tools, match", [
    ((CUT, TIE), np.zeros((3, 3)), "do not match"),  # one tool row too many
    ((CUT, TIE), np.zeros((2, 2)), "do not match"),  # one tool class short
    ((CUT, TIE), np.zeros(6), "do not match"),
    ((CUT, TIE), [[0, 0, 0], [0, -1, 0]], ">= 0"),
    ((CUT, TIE), [[0, 0, 0], [0, np.nan, 0]], ">= 0"),
    ((CUT, "resting"), np.zeros((2, 3)), "unknown action"),
])
def test_timeline_rejects_tool_rows_out_of_step(labels, tools, match):
    with pytest.raises(InvariantError, match=match):
        Timeline(video_id="v", labels=labels, tools=tools)


def test_timeline_indicators_are_one_hot_action_rows():
    rows = seq([CUT, BG, SUT, TIE]).indicators()
    assert rows.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert seq([]).indicators().shape == (0, 3)


def _frame(k, action=None, categories=()):
    return FrameRecord(frame_index=k, timestamp_s=k / 30.0, action=action,
                       detections=tuple(Detection(box(10, 10, 50, 50), c) for c in categories))


def test_step_summary_votes_with_ties_by_label_order_and_means_tools_per_frame():
    # tying arrives first and ties with cutting: cutting comes first in ACTION_LABELS
    tie = [_frame(0, TIE), _frame(1, CUT), _frame(2), _frame(3, TIE), _frame(4, CUT)]
    assert step_summary(tie)[0] == CUT
    assert step_summary([_frame(0), _frame(1)]) == (BG, [0.0, 0.0, 0.0])
    tools = [_frame(0, categories=("forceps", "forceps", "hand")),
             _frame(1, categories=("needle_driver",)), _frame(2), _frame(3)]
    assert step_summary(tools) == (BG, [0.0, 0.25, 0.5])  # TOOL_CLASSES order
    assert step_summary([]) == (BG, [0, 0, 0])


def test_user_set_steps_span_a_frame_period_and_fixed_steps_run_at_any_fps():
    # a step shorter than 1/fps is rejected before any step list is built;
    # one frame period itself is accepted
    check_step("resolution_s", 1 / 30, 30.0)
    for bad in (0.03, 1e-300, 0.0, float("nan")):
        with pytest.raises(InvariantError, match="resolution_s must be"):
            check_step("resolution_s", bad, 30.0)
    # eval actions' 1 s steps on a 0.5 fps stream: every other step is empty
    frames = tuple(FrameRecord(frame_index=k, timestamp_s=2.0 * k, detections=(), action=CUT)
                   for k in range(3))
    stream = VideoStream(video_id="slow", fps=0.5, width=64, height=64)
    assert [len(step) for step in stream_steps(stream, frames, 1.0)] == [1, 0, 1, 0, 1, 0]
    assert timeline_from_stream(stream, frames, 1.0).labels == (CUT, BG, CUT, BG, CUT, BG)


def test_stream_steps_past_the_cap_raise_before_any_list_is_built():
    def one_frame(fps, k):
        frame = FrameRecord(frame_index=k, timestamp_s=k / fps, detections=())
        return VideoStream(video_id="far", fps=fps, width=64, height=64), [frame]

    # an infinite duration as a float; 3.3e10 steps of 1 s, raised at the frame;
    # and 1e300 steps, raised after the last frame: each before the first step
    for header, frames in (one_frame(1e-320, 0), one_frame(30.0, 10 ** 12),
                           one_frame(1e-300, 0)):
        with pytest.raises(InvariantError, match="more than 10000000 steps of 1.0 s"):
            next(stream_steps(header, iter(frames), 1.0))
    assert len(list(stream_steps(*one_frame(30.0, 10 ** 12), 1e7))) == 3334


@pytest.mark.parametrize("fps", [7.0, 24.0])
def test_a_header_duration_of_max_steps_frame_periods_passes_the_cap(fps):
    # 10^7 steps of one frame period, each as floats; the float quotient of the
    # two is 10000000.000000002 at both rates, which the exact count is not
    def steps(n_periods):
        header = VideoStream(video_id="cap", fps=fps, width=64, height=64,
                             metadata={"duration_s": n_periods / fps})
        return stream_steps(header, iter(()), 1 / fps)

    assert next(steps(10 ** 7)) == []
    with pytest.raises(InvariantError, match="more than 10000000 steps"):
        next(steps(10 ** 7 + 1))


# a step of n frame periods as a decimal, against (fps, n)
_DECIMAL_STEPS = {(30.0, 6): 0.2, (25.0, 1): 0.04, (24.0, 6): 0.25, (60.0, 6): 0.1}


@pytest.mark.parametrize("fps", [24.0, 25.0, 30.0, 60.0])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_a_step_of_n_frame_periods_holds_n_frames(fps, n):
    # float(t / r) filed 0.2 s steps at 30 fps as 5, 6 or 7 frames, and left 20
    # of 1800 one-period steps empty; the exact rule files n frames in each,
    # with the header's duration_s or without it
    n_frames = 30 * 60  # a multiple of every n
    frames = tuple(FrameRecord(frame_index=k, timestamp_s=k / fps) for k in range(n_frames))
    for metadata in ({}, {"duration_s": n_frames / fps}):
        stream = VideoStream(video_id="v", fps=fps, width=64, height=64, metadata=metadata)
        for resolution_s in {n / fps, _DECIMAL_STEPS.get((fps, n), n / fps)}:
            steps = list(stream_steps(stream, iter(frames), resolution_s))
            assert [fr for step in steps for fr in step] == list(frames)
            assert {len(step) for step in steps} == {n}, resolution_s


# ------------------------------------------------------------- quartiles

def test_quartile_aggregate_spans_balance():
    # contiguous quartiles, earlier ones absorbing the remainder: the means of
    # rows 0..n-1 are the midpoints of the spans
    def means(n):
        return quartile_aggregate(np.arange(n, dtype=float)[:, None])[:, 0].tolist()

    assert means(8) == [0.5, 2.5, 4.5, 6.5]  # spans of 2, 2, 2, 2
    assert means(10) == [1.0, 4.0, 6.5, 8.5]  # spans of 3, 3, 2, 2
    with pytest.warns(DataWarning, match="1 empty quartiles"):
        assert means(3) == [0.0, 1.0, 2.0, 0.0]  # spans of 1, 1, 1, 0


def test_quartile_all_cutting():
    q = quartile_aggregate(seq([CUT] * 12).indicators())
    assert q[:, 0] == pytest.approx(np.ones(4))
    assert q[:, 1:] == pytest.approx(np.zeros((4, 2)))


def test_quartile_half_cut_half_tie():
    q = quartile_aggregate(seq([CUT] * 4 + [TIE] * 4).indicators())
    assert q[0] == pytest.approx([1, 0, 0])
    assert q[1] == pytest.approx([1, 0, 0])
    assert q[2] == pytest.approx([0, 1, 0])
    assert q[3] == pytest.approx([0, 1, 0])


def test_quartile_fractions_sum_to_one_after_excision():
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = random_seq(rng, int(rng.integers(8, 60)), include_bg=False)
        q = quartile_aggregate(s.indicators())
        assert q.sum(axis=1) == pytest.approx(np.ones(4))


def test_quartile_short_sequence_flagged():
    with pytest.warns(DataWarning, match="empty quartiles"):
        q = quartile_aggregate(seq([CUT, TIE]).indicators())
    assert q[0] == pytest.approx([1, 0, 0])
    assert q[1] == pytest.approx([0, 1, 0])
    assert q[2] == pytest.approx([0, 0, 0])


def test_quartile_tool_means():
    q = quartile_aggregate(np.array([[2, 0, 0], [0, 0, 0], [0, 1, 0], [0, 3, 0]], dtype=float))
    assert q[0] == pytest.approx([2, 0, 0])
    assert q[3] == pytest.approx([0, 3, 0])


# ------------------------------------------------------------- signature

def test_signature_single_procedure_is_own_smoothed_curve():
    s = seq([CUT] * 6 + [TIE] * 6)
    sig = build_signature([s], window=1)
    assert sig.action_curves[0] == pytest.approx([1, 0, 0])
    assert sig.action_curves[-1] == pytest.approx([0, 1, 0])


def test_signature_two_opposite_procedures_average_to_half():
    a = seq([CUT] * 10, vid="a")
    b = seq([TIE] * 10, vid="b")
    sig = build_signature([a, b], window=1)
    assert sig.action_curves[:, 0] == pytest.approx(np.full(100, 0.5))
    assert sig.action_curves[:, 1] == pytest.approx(np.full(100, 0.5))


def test_signature_tool_curves_average_tool_rows_at_the_grid_points():
    a = seq([CUT] * 4, vid="a", tools=[[k, 0, 0] for k in range(4)])
    b = seq([TIE] * 2, vid="b", tools=[[0, 2, 0], [0, 4, 0]])
    sig = build_signature([a, b], window=1)
    t = np.arange(100)
    assert sig.tool_curves[:, 0] == pytest.approx(t // 25 / 2)
    assert sig.tool_curves[:, 1] == pytest.approx(np.where(t < 50, 1.0, 2.0))
    assert sig.tool_curves[:, 2] == pytest.approx(np.zeros(100))


def test_signature_cut_start_cohort_has_high_initial_cut_probability():
    rng = np.random.default_rng(2)
    cohort = []
    for k in range(20):
        n = int(rng.integers(20, 40))
        head = [CUT] * max(3, n // 5)
        rest = rng.choice([CUT, TIE, SUT], size=n - len(head)).tolist()
        cohort.append(seq(head + rest, vid=f"v{k}"))
    sig = build_signature(cohort)
    assert sig.action_curves[0, 0] >= 0.95


def test_signature_commutes_with_permutation():
    rng = np.random.default_rng(3)
    cohort = [random_seq(rng, 24, vid=f"v{k}", include_bg=False) for k in range(8)]
    sig = build_signature(cohort)
    shuffled = [cohort[i] for i in rng.permutation(len(cohort))]
    sig2 = build_signature(shuffled)
    assert sig2.action_curves == pytest.approx(sig.action_curves, abs=1e-12)


def test_signature_probabilities_sum_to_one_when_excised():
    rng = np.random.default_rng(4)
    cohort = [random_seq(rng, 30, vid=f"v{k}", include_bg=False) for k in range(5)]
    sig = build_signature(cohort, window=5)
    assert sig.action_curves.sum(axis=1) == pytest.approx(np.ones(100))


@settings(max_examples=60, deadline=None)
@given(cohort=st.lists(st.lists(st.sampled_from([CUT, TIE, SUT, BG]), min_size=1, max_size=40),
                       min_size=1, max_size=6),
       window=st.sampled_from([1, 3, 5, 7, 9]))
def test_signature_action_curves_are_probabilities(cohort, window):
    # each curve point is a moving average of means of one-hot (or zero) rows
    sig = build_signature([seq(labels, vid=f"v{k}") for k, labels in enumerate(cohort)],
                          window=window)
    assert sig.action_curves.shape == (100, 3)
    assert (sig.action_curves >= 0).all() and (sig.action_curves <= 1).all()
    assert (sig.action_curves.sum(axis=1) <= 1 + 1e-12).all()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), window=st.integers(0, 100).map(lambda k: 2 * k + 1),
       n=st.integers(1, 120), columns=st.integers(2, 4), integer=st.booleans())
def test_moving_average_equals_per_row_mean_bit_for_bit(data, window, n, columns, integer):
    # windows run past the 100-point grid, which `run` accepts
    elements = st.integers(-2**53, 2**53) if integer else st.floats(-1e9, 1e9)
    curves = data.draw(hnp.arrays(np.int64 if integer else float, (n, columns),
                                  elements=elements))
    got = _moving_average(curves, window)
    assert got.dtype == float
    assert np.array_equal(got, per_row_moving_average(curves, window))


@pytest.mark.parametrize("window", range(1, 202, 2))
def test_moving_average_of_signature_curves_equals_per_row_mean(window):
    # the grid's 100 rows of 3 curves, at magnitudes where the order of adding shows
    rng = np.random.default_rng(window)
    curves = rng.uniform(0, 1, (100, 3)) * 10.0 ** rng.integers(-8, 9, (100, 3))
    assert np.array_equal(_moving_average(curves, window), per_row_moving_average(curves, window))


def test_signature_rejects_empty_input():
    with pytest.raises(InvariantError):
        build_signature([])


# ------------------------------------------------------------- transitions

def test_transitions_single_pair():
    p = transition_probabilities(seq([CUT, CUT, TIE, TIE]))
    want = np.zeros(6)
    want[0] = 1.0  # cutting -> tying
    assert p == pytest.approx(want)


def test_transitions_worked_example():
    p = transition_probabilities(seq([CUT, TIE, CUT, SUT]))
    by_name = dict(zip([f"p_{a}_to_{b}" for a, b in
                        [("cutting", "tying"), ("cutting", "suturing"),
                         ("tying", "cutting"), ("tying", "suturing"),
                         ("suturing", "cutting"), ("suturing", "tying")]], p))
    assert by_name["p_cutting_to_tying"] == pytest.approx(0.5)
    assert by_name["p_cutting_to_suturing"] == pytest.approx(0.5)
    assert by_name["p_tying_to_cutting"] == pytest.approx(1.0)
    assert by_name["p_suturing_to_cutting"] == 0.0


def test_transitions_rows_sum_to_one_for_present_actions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_seq(rng, int(rng.integers(4, 40)), include_bg=False)
        runs = [lab for k, lab in enumerate(s.labels) if k == 0 or lab != s.labels[k - 1]]
        if len(runs) < 2:
            continue
        p = transition_probabilities(s)
        sources_with_outgoing = {a for a, b in zip(runs, runs[1:])}
        for i, action in enumerate(("cutting", "tying", "suturing")):
            row = p[2 * i] + p[2 * i + 1]
            if action in sources_with_outgoing:
                assert row == pytest.approx(1.0)
            else:
                assert row == 0.0


def test_transitions_fewer_than_two_runs_flagged():
    with pytest.warns(DataWarning, match="fewer than 2 runs"):
        p = transition_probabilities(seq([CUT, CUT, CUT]))
    assert p == pytest.approx(np.zeros(6))


def test_transitions_require_excised_input():
    with pytest.raises(InvariantError, match="excised"):
        transition_probabilities(seq([CUT, BG, TIE]))


# ------------------------------------------------------------- featurize

def test_featurize_layout_and_bounds():
    f = featurize(seq([CUT] * 4 + [TIE] * 4, tools=np.tile([1.0, 0.0, 2.0], (8, 1))))
    assert f.shape == (30,)
    assert len(FEATURE_NAMES) == 30
    named = dict(zip(FEATURE_NAMES, f))
    assert named["cutting_q1"] == 1.0
    assert named["tying_q4"] == 1.0
    assert named["electrocautery_q1"] == 1.0
    assert named["forceps_q2"] == 2.0
    assert named["p_cutting_to_tying"] == 1.0


def test_featurize_invariant_to_uniform_resampling():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 10)) * 4  # quartile-aligned lengths
        labels = rng.choice([CUT, TIE, SUT], size=n).tolist()
        counts = rng.uniform(0, 3, size=(n, 3))
        base = featurize(seq(labels, tools=counts))
        rep = 3
        stretched = featurize(seq(np.repeat(labels, rep).tolist(),
                                  tools=np.repeat(counts, rep, axis=0)))
        assert stretched == pytest.approx(base, abs=1e-12)


def test_normalize_tool_features_minmax():
    rows = np.zeros((3, 30))
    rows[:, 12:24] = np.array([0.0, 1.0, 2.0])[:, None]
    out = normalize_tool_features(rows)
    assert out[:, 12] == pytest.approx([0.0, 0.5, 1.0])
    assert rows[:, 12].tolist() == [0.0, 1.0, 2.0]  # a copy: the input is kept


def test_normalize_tool_features_constant_column_flagged():
    with pytest.warns(DataWarning, match="constant tool features"):
        out = normalize_tool_features(np.zeros((3, 30)))
    assert out[:, 12:24] == pytest.approx(np.zeros((3, 12)))


# ------------------------------------------------------------- zscore

def test_zscore_two_symmetric_points():
    x = np.array([[1.0, 5.0], [3.0, 5.0]])
    with pytest.warns(DataWarning, match="constant"):
        z, mean, sd = zscore(x)
    assert z[:, 0] == pytest.approx([-1.0, 1.0])
    assert z[:, 1] == pytest.approx([0.0, 0.0])
    assert mean == pytest.approx([2.0, 5.0])


def test_zscore_output_standardized():
    rng = np.random.default_rng(7)
    x = rng.normal(3, 2, size=(40, 6))
    z, _, _ = zscore(x)
    assert z.mean(axis=0) == pytest.approx(np.zeros(6), abs=1e-9)
    assert z.std(axis=0) == pytest.approx(np.ones(6), abs=1e-9)


def test_zscore_needs_two_samples():
    with pytest.raises(InvariantError):
        zscore(np.ones((1, 30)))
    with pytest.raises(InvariantError):  # a feature table with no rows
        zscore([])


# ------------------------------------------------------------- LDA

def three_class_features(rng, per_class=20, noise=0.3):
    x, labels = [], []
    means = {
        "A": np.concatenate([np.array([3.0, 0.0, 0.0, 0.0]), np.zeros(26)]),
        "B": np.concatenate([np.zeros(4), np.array([3.0, 0.0, 0.0, 0.0]), np.zeros(22)]),
        "C": np.concatenate([np.zeros(8), np.array([3.0, 0.0, 0.0, 0.0]), np.zeros(18)]),
    }
    for label, mu in means.items():
        for _ in range(per_class):
            x.append(mu + rng.normal(0, noise, size=30))
            labels.append(label)
    return np.array(x), labels


def test_lda_fit_finds_separating_dimension():
    rng = np.random.default_rng(8)
    x = np.zeros((30, 6))
    labels = []
    # classes separated along dimension 2, everything else is noise
    for i in range(30):
        c = ("A", "B", "C")[i % 3]
        x[i] = rng.normal(0, 0.2, size=6)
        x[i, 2] += {"A": 0.0, "B": 4.0, "C": 8.0}[c]
        labels.append(c)
    z, _, _ = zscore(x)
    model = lda_fit(z, labels)
    assert int(np.argmax(np.abs(model.projection[:, 0]))) == 2


def test_lda_fit_matches_generalized_eig_oracle():
    rng = np.random.default_rng(9)
    x, labels = three_class_features(rng)
    z, _, _ = zscore(x)
    model = lda_fit(z, labels)
    oracle = lda_projection_oracle(z, labels)
    angles = subspace_angles(model.projection, oracle)
    assert float(np.max(angles)) < 1e-6


def test_lda_rank_bound_three_classes():
    rng = np.random.default_rng(10)
    x, labels = three_class_features(rng)
    z, _, _ = zscore(x)
    model = lda_fit(z, labels)
    # S_B has rank <= C - 1 = 2: third and later eigenvalues vanish
    assert model.eigenvalues[0] > 1e-3
    assert abs(model.eigenvalues[2]) < 1e-6 * max(1.0, model.eigenvalues[0])


def test_lda_permuted_labels_have_near_zero_eigenvalues():
    rng = np.random.default_rng(11)
    x, labels = three_class_features(rng)
    z, _, _ = zscore(x)
    structured = lda_fit(z, labels)
    permuted = lda_fit(z, rng.permutation(labels))
    assert permuted.eigenvalues[0] < 0.05 * structured.eigenvalues[0]


def test_lda_fit_validation():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, 5))
    with pytest.raises(InvariantError, match=">= 3 classes"):
        lda_fit(x, ["A"] * 4 + ["B"] * 4)
    with pytest.raises(InvariantError, match="fewer than 2 samples"):
        lda_fit(x, ["A"] * 4 + ["B"] * 3 + ["C"])
    with pytest.raises(InvariantError, match="identical"):
        lda_fit(np.ones((9, 5)), ["A", "B", "C"] * 3)


def test_lda_project_training_means_reproduce_centroids():
    rng = np.random.default_rng(13)
    x, labels = three_class_features(rng)
    z, _, _ = zscore(x)
    model = lda_fit(z, labels)
    # the training mean maps to the origin: affine identity
    assert lda_project(model.mean[None, :], model) == pytest.approx(np.zeros((1, 2)), abs=1e-12)


def test_lda_separation_on_synthetic_cohort():
    rng = np.random.default_rng(14)
    x, labels = three_class_features(rng, per_class=30)
    z, _, _ = zscore(x)
    model = lda_fit(z, labels)
    pts = lda_project(z, model)
    labels_arr = np.asarray(labels)
    cents = {c: pts[labels_arr == c].mean(axis=0) for c in model.classes}
    spreads = [np.linalg.norm(pts[labels_arr == c] - cents[c], axis=1).mean()
               for c in model.classes]
    within = float(np.mean(spreads))
    between = min(np.linalg.norm(cents[a] - cents[b])
                  for a in model.classes for b in model.classes if a < b)
    assert between >= 3.0 * within


def test_lda_invariant_to_prescale_before_zscore():
    rng = np.random.default_rng(15)
    x, labels = three_class_features(rng)
    scale = rng.uniform(0.2, 5.0, size=30)
    z1, _, _ = zscore(x)
    z2, _, _ = zscore(x * scale)
    assert z2 == pytest.approx(z1, abs=1e-9)
    m1, m2 = lda_fit(z1, labels), lda_fit(z2, labels)
    labels_arr = np.asarray(labels)

    def class_order(z, model):
        means = np.stack([z[labels_arr == c].mean(axis=0) for c in model.classes])
        return np.argsort(lda_project(means, model)[:, 0])

    assert np.all(class_order(z1, m1) == class_order(z2, m2))


def test_top_features_reports_weights():
    rng = np.random.default_rng(16)
    x, labels = three_class_features(rng)
    z, _, _ = zscore(x)
    model = lda_fit(z, labels)
    top = top_features(model, axis=0)
    assert len(top) == 3
    assert all(name in FEATURE_NAMES for name, _ in top)


# ------------------------------------------------------------- filtering

def catalog_entry(vid, title, umls, terms, duration_s):
    return {"video_id": vid, "title": title, "umls": umls,
            "search_terms": terms, "duration_s": duration_s}


def test_filter_appendectomy_rule():
    rule = BUILTIN_RULES["appendectomy"]
    good = catalog_entry("a1", "Open Appendectomy technique", ["Appendix"],
                         ["open appendectomy"], 600.0)
    long_video = catalog_entry("a2", "appendectomy full", ["appendix"],
                               ["appendectomy"], 2700.0)
    wrong_title = catalog_entry("a3", "gallbladder surgery", ["appendix"],
                                ["appendectomy"], 600.0)
    assert filter_videos([good, long_video, wrong_title], rule) == ["a1"]


def test_filter_pilonidal_title_predicate():
    rule = BUILTIN_RULES["pilonidal"]
    kary = catalog_entry("p1", "Karydakis procedure", ["flap"], ["pilonidal"], 700.0)
    flap = catalog_entry("p2", "pilonidal sinus flap repair", ["flap"], ["pilonidal"], 700.0)
    plain = catalog_entry("p3", "pilonidal excision", ["flap"], ["pilonidal"], 700.0)
    assert filter_videos([kary, flap, plain], rule) == ["p1", "p2"]


def test_filter_duration_bounds():
    rule = BUILTIN_RULES["thyroidectomy"]
    short = catalog_entry("t1", "thyroidectomy", ["thyroid"], ["thyroidectomy"], 60.0)
    ok = catalog_entry("t2", "thyroidectomy", ["thyroid"], ["thyroidectomy"], 120.0)
    assert filter_videos([short, ok], rule) == ["t2"]


def test_filter_missing_metadata_warns_and_excludes():
    rule = BUILTIN_RULES["appendectomy"]
    entry = {"video_id": "x", "title": "appendectomy", "search_terms": ["append"],
             "duration_s": 300.0}
    with pytest.warns(DataWarning, match="missing metadata"):
        assert filter_videos([entry], rule) == []


def test_filter_case_insensitive():
    rule = ("append", "append", None)
    entry = catalog_entry("u", "APPENDECTOMY", ["APPENDIX"], ["OPEN APPENDECTOMY"], 300.0)
    assert filter_videos([entry], rule) == ["u"]
