"""Reading each stream once, in frame order, against the whole-stream oracles.

The evaluators merge two frame iterators and the step stage reads one; the
oracles in `oracles.py` hold whole streams, as both did before. Streams here
miss frames on either side, carry a header duration_s with frames past it or
none at all, and reach the evaluators from files whose frames may be out of
order, which `read_streams` re-sorts on a second read.
"""

import gc
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dict_aligned_frames, whole_stream_steps
from scenestream import evaluation, signatures
from scenestream.errors import InvariantError
from scenestream.evaluation import (
    _aligned_frames,
    evaluate_actions,
    evaluate_boxes,
    evaluate_keypoints,
)
from scenestream.pipeline import read_streams
from scenestream.signatures import stream_steps
from scenestream.streams import (
    ACTION_LABELS,
    CATEGORIES,
    Detection,
    FrameRecord,
    HandKeypoints,
    VideoStream,
    box,
    write_stream,
)

_BOXES = (box(10, 10, 50, 50), box(12, 10, 52, 50), box(60, 10, 100, 60), box(30, 30, 70, 70))
# header duration_s against the span of frames 0..last: none, the span, short
# enough that the last frame lies on it (so past it at a whole step), a frame longer
_DURATIONS = {"none": None, "span": 1, "short": 0, "long": 2}
_EVALUATORS = {
    "actions": evaluate_actions,
    "boxes": evaluate_boxes,
    "keypoints": lambda pred, truth: evaluate_keypoints(pred, truth, alpha=0.3, ref="pred"),
}


def _stream(name, fps, indices, duration, seed):
    """A VideoStream of frames at `indices`, each with up to 3 detections, up to
    2 keypoint entries and an action drawn from `seed`; `duration` is a key of
    _DURATIONS. A duration the stream rejects at this fps is not drawn."""
    rng = np.random.default_rng(seed)
    frames = []
    for k in indices:
        dets = tuple(Detection(_BOXES[rng.integers(4)], CATEGORIES[rng.integers(4)],
                               float(rng.choice([0.5, 0.9, 1.0])))
                     for _ in range(rng.integers(0, 4)))
        kps = tuple(HandKeypoints(np.column_stack([rng.integers(0, 120, (21, 2)),
                                                   rng.integers(0, 2, 21)]).astype(float),
                                  _BOXES[rng.integers(4)])
                    for _ in range(rng.integers(0, 3)))
        frames.append(FrameRecord(k, k / fps, dets, kps, [*ACTION_LABELS, None][rng.integers(5)]))
    extra = _DURATIONS[duration]
    metadata = {} if extra is None or not indices else {"duration_s": (indices[-1] + extra) / fps}
    try:
        return VideoStream(name, fps, 640, 480, tuple(frames), metadata)
    except InvariantError:  # a duration more than a frame period off the span
        assume(False)


@st.composite
def stream_pairs(draw, min_frames=0):
    """(prediction, truth) streams at one fps over frames 0..n-1, each missing
    some of them."""
    fps = draw(st.sampled_from([4.0, 8.0, 30.0]))
    n = draw(st.integers(max(min_frames, 1), 40))
    subset = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda keep: [k for k in range(n) if keep[k]])
    pred, truth = draw(subset), draw(subset)
    assume(min(len(pred), len(truth)) >= min_frames)
    return tuple(_stream(name, fps, indices, draw(st.sampled_from(list(_DURATIONS))),
                         draw(st.integers(0, 2 ** 16)))
                 for name, indices in (("pred", pred), ("truth", truth)))


def _oracle_report(evaluate, pred, truth):
    """`evaluate` on two whole streams, pairing and stepping them as the oracles do."""
    with mock.patch.object(evaluation, "_aligned_frames",
                           lambda p, t: dict_aligned_frames(p[0], t[0])), \
            mock.patch.object(signatures, "stream_steps",
                              lambda header, frames, resolution_s:
                              whole_stream_steps(header, resolution_s)):
        return evaluate((pred, pred.frames), (truth, truth.frames))


@settings(max_examples=150, deadline=None)
@given(stream_pairs())
def test_merged_frames_and_steps_read_once_match_the_whole_stream_oracles(streams):
    pred, truth = streams
    assert list(_aligned_frames((pred, iter(pred.frames)), (truth, iter(truth.frames)))) == (
        dict_aligned_frames(pred, truth))
    for stream in streams:
        for resolution_s in (1 / stream.fps, 2 / stream.fps, 0.5, 1.0, 5.0):
            assert (list(stream_steps(stream, iter(stream.frames), resolution_s))
                    == whole_stream_steps(stream, resolution_s))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([24.0, 25.0, 29.97, 30.0, 60.0]) | st.floats(0.5, 240.0),
       st.integers(1, 12).map(float) | st.floats(1.0, 40.0), st.integers(0, 120),
       st.sampled_from(list(_DURATIONS)), st.integers(0, 2 ** 16))
def test_steps_at_any_fps_and_resolution_match_the_fraction_oracle(fps, periods, n, duration,
                                                                   seed):
    # a step of a whole number of frame periods, whose boundaries fall on frame
    # times up to rounding, or of any 1 to 40; frames 0..n-1, a few missing
    rng = np.random.default_rng(seed)
    stream = _stream("s", fps, [k for k in range(n) if rng.random() < 0.9], duration, seed)
    resolution_s = periods / fps
    assert (list(stream_steps(stream, iter(stream.frames), resolution_s))
            == whole_stream_steps(stream, resolution_s))


def _write(stream, path, swap):
    """Write `stream` to `path`, with its frame lines `swap` and `swap + 1`
    exchanged when `swap` is not None."""
    write_stream(stream, path)
    if swap is not None:
        lines = path.read_text().splitlines()
        lines[swap + 1], lines[swap + 2] = lines[swap + 2], lines[swap + 1]
        path.write_text("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(stream_pairs(min_frames=2), st.data())
def test_reports_read_from_files_match_the_oracles_and_re_sort_once(streams, data):
    swaps = [data.draw(st.none() | st.integers(0, len(s.frames) - 2)) for s in streams]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{s.video_id}.jsonl" for s in streams]
        for stream, path, swap in zip(streams, paths, swaps):
            _write(stream, path, swap)
        for evaluate in _EVALUATORS.values():
            with warnings.catch_warnings(record=True) as oracle_warnings:
                warnings.simplefilter("always")
                want = _oracle_report(evaluate, *streams)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = read_streams(paths, evaluate)
                gc.collect()
            assert got == want
            re_sorted = [str(w.message) for w in caught if "re-sorted" in str(w.message)]
            assert re_sorted == [f"stream {path} had out-of-order frames; re-sorted by frame_index"
                                 for path, swap in zip(paths, swaps) if swap is not None]
            # any other warning once, as the oracle gives it: a first pass that
            # warned, or a file left open (a ResourceWarning once collected), shows here
            assert [(w.category, str(w.message)) for w in caught
                    if "re-sorted" not in str(w.message)] == [
                (w.category, str(w.message)) for w in oracle_warnings]
