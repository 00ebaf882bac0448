"""Composable pipeline stages and the single-command report bundle.

Each job is one stage that writes its artifact and returns its data; the
CLI subcommands and `run_pipeline` call the same stages. Stages exchange
streams, track rows and summaries and never modify them; every artifact is
written with sorted keys and repr floats so identical inputs produce
byte-identical bundles. Wall-clock measurements are deliberately not part of
the bundle; `bench` writes those separately.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataWarning, FrameOrderError, InvariantError, StreamFormatError, check_finite
from .evaluation import evaluate_actions, evaluate_boxes
from .kinematics import (
    SKILL_METRICS,
    SUMMARY_FIELDS,
    TieClip,
    Trajectory,
    group_centroids,
    leave_one_out,
    summarize_clip,
)
from .signatures import (
    FEATURE_NAMES,
    SIGNATURE_GRID,
    build_signature,
    check_step,
    excise_background,
    featurize,
    lda_fit,
    lda_project,
    normalize_tool_features,
    timeline_from_stream,
    top_features,
    zscore,
)
from .streams import (
    HAND,
    N_KEYPOINTS,
    SKILL_KEYPOINT_INDICES,
    Detection,
    FrameRecord,
    VideoStream,
    box,
    finite_numbers,
    iou,
    iter_json_lines,
    keypoint_rows,
    open_stream,
    parse_header,
    parse_stream,
    read_text,
    write_lines,
)
from .synth import (
    CorruptionSpec,
    GroundTruth,
    SkillCohortSpec,
    SynthSpec,
    generate_procedure_sequences,
    generate_stream,
    generate_tie_clips,
    write_synth_files,
)
from .tracking import SortTracker, TrackerConfig

ORACLE_MATCH_IOU = 0.3  # a track box follows the true hand it overlaps this much


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def read_streams(paths, consume):
    """`consume(*pairs)` of the (header, frames) pairs `open_stream` gives for `paths`.
    At the first frame out of order the files are closed and, when every path is a
    regular file, `consume` runs again on the pairs `parse_stream` re-sorts; a
    pipe is read once, so there a frame out of order is an input error."""
    opened = [open_stream(path) for path in paths]
    try:
        return consume(*opened)
    except FrameOrderError as exc:
        for _, frames in opened:
            frames.close()
        if not all(Path(path).is_file() for path in paths):
            raise StreamFormatError(
                f"{exc}; only a regular file is re-sorted, so sort the frames first") from None
    return consume(*map(parse_stream, paths))


# ------------------------------------------------------------------ tracking

# Reading, stepping and writing frame by frame slows each of them; the first
# step after a block is read runs cold, so small blocks raise the step p99.
TRACK_BLOCK_FRAMES = 256


def track_row(tracker: SortTracker, fr: FrameRecord) -> dict:
    """One frame's row: emitted corners by track id, and under "kps" the keypoint
    entries. In id order, each track takes the first free entry whose owner box is
    the box of the hand detection it took, so of two detections with one box the
    lower id goes first; an entry on no taken detection's box is left out."""
    emitted = tracker.step(fr)
    row = {"frame": fr.frame_index, "t": fr.timestamp_s,
           "tracks": {str(tid): corners for tid, corners, _ in emitted}}
    if fr.keypoints and emitted:
        hands, free = [d.box for d in fr.detections if d.category == HAND], list(fr.keypoints)
        for tid, _, j in emitted:
            k = next((k for k, kp in enumerate(free) if kp.owner_box == hands[j]), None)
            if k is not None:
                row.setdefault("kps", {})[str(tid)] = free.pop(k)
    return row


def track_stream(frames, config: TrackerConfig | None = None):
    """Run SORT over frames in frame order; yield one row per frame with
    boxes keyed by track id.

    Input keypoints are re-keyed by track id as `track_row` pairs them; they
    stay HandKeypoints until `write_tracks` writes their `points_text`.
    Frames are taken TRACK_BLOCK_FRAMES at a time and a block's rows are all
    made before the first is yielded, so reading, tracking and writing a file
    each run a block at a stretch. After the last frame, one DataWarning counts
    the entries left out because their box is no hand detection's in their frame.
    """
    tracker = SortTracker(config)
    frames = iter(frames)
    stray = 0
    while block := list(islice(frames, TRACK_BLOCK_FRAMES)):
        rows = [track_row(tracker, fr) for fr in block]
        for fr, row in zip(block, rows):
            if len(row.get("kps", ())) < len(fr.keypoints):  # only then can one be stray
                hands = {d.box for d in fr.detections if d.category == HAND}
                stray += sum(kp.owner_box not in hands for kp in fr.keypoints)
        yield from rows
    if stray:
        warnings.warn(f"{stray} keypoint entries have a box that is no hand detection's; "
                      "left out of kps", DataWarning, stacklevel=2)


def _row_line(row) -> str:
    """A track row as the JSON line `json.dumps(row, sort_keys=True)` would
    write, each keypoint entry spliced in as its `points_text`. `t` and the
    box corners are Python floats, whose repr is what json.dumps writes."""
    boxes = ", ".join(f'"{tid}": [{x0!r}, {y0!r}, {x1!r}, {y1!r}]'
                      for tid, (x0, y0, x1, y1) in sorted(row["tracks"].items()))
    head = f'{{"frame": {row["frame"]}, '
    kps = row.get("kps")
    if kps is not None:
        entries = ", ".join(f'"{tid}": {kps[tid].points_text}' for tid in sorted(kps))
        head += f'"kps": {{{entries}}}, '
    return f'{head}"t": {row["t"]!r}, "tracks": {{{boxes}}}}}'


def write_tracks(header: VideoStream, rows, path) -> None:
    """Write the stream's header line, then each row as `rows` yields it, with `write_lines`."""
    write_lines(header, map(_row_line, rows), path)


def _check_tracks_row(row, line_no, previous):
    """The frame of a tracks row that passes its checks and is above `previous`."""
    frame = row.get("frame") if isinstance(row, dict) else None
    if not isinstance(frame, int) or not -2**63 <= frame < 2**63:  # frames become int64
        raise StreamFormatError("tracks row needs an integer 'frame' within 64 bits",
                                line=line_no)
    tracks, kps = row.get("tracks"), row.get("kps", {})
    try:  # each box is 4 finite JSON numbers that pass the stream's box check
        boxes = isinstance(tracks, dict) and all(tid.isdecimal() and finite_numbers(b, 4)
                                                 and box(*b) for tid, b in tracks.items())
    except InvariantError:
        boxes = False
    if not boxes:
        raise StreamFormatError("tracks row needs 'tracks' mapping integer track ids to "
                                "[x_min, y_min, x_max, y_max] with 0 <= x_min < x_max "
                                "and 0 <= y_min < y_max", line=line_no)
    if not isinstance(kps, dict) or not all(keypoint_rows(pts) for pts in kps.values()):
        raise StreamFormatError(f"tracks row 'kps' must map track ids to {N_KEYPOINTS} "
                                "[x, y, v] triples", line=line_no)
    stray = next((tid for tid in kps if tid not in tracks), None)
    if stray is not None:
        raise StreamFormatError(f"tracks row 'kps' names track {stray}, which its 'tracks' "
                                "lacks", line=line_no)
    if frame <= previous:
        raise StreamFormatError(f"tracks row frame {frame} is not above the frame before it",
                                line=line_no)
    return frame


def read_tracks(path):
    """The header of a tracks file, parsed as a stream file's is, and an iterator
    over its rows that checks each as it reads it: a malformed row, or one whose
    frame is not above the row's before it, is a StreamFormatError naming its line.
    Every error ends `in <path>`, as `open_stream`'s do."""
    def checked(lines):  # the header, then each row
        try:
            line_no, header = next(lines, (1, None))
            if header is None:
                raise StreamFormatError("empty tracks file")
            yield parse_header(header, line_no)
            previous = -np.inf
            for line_no, row in lines:
                previous = _check_tracks_row(row, line_no, previous)
                yield row
        except (InvariantError, StreamFormatError) as exc:  # fps not above 0: InvariantError
            line = f"line {line_no}: " if isinstance(exc, InvariantError) else ""
            exc.args = (f"{line}{exc} in {path}",)
            raise
    rows = checked(iter_json_lines(path))
    return next(rows), rows


def tracking_oracle_report(rows, truth: GroundTruth) -> dict:
    """Compare tracker output rows (from `track_stream`) against generator
    ground truth.

    Reports whether the matched track ids form a bijection onto the true hand
    ids and how many identity switches occurred (changes in the track id
    following each true hand between consecutive matched frames).
    """
    follow = {h: [] for h in truth.hand_ids}
    track_to_gt = {}
    for row, frame_truth in zip(rows, truth.true_boxes):
        for tid, corners in row["tracks"].items():
            tid = int(tid)
            best_h, best_v = None, ORACLE_MATCH_IOU
            for h, gt_box in frame_truth.items():
                v = iou(corners, gt_box)
                if v >= best_v:
                    best_h, best_v = h, v
            if best_h is not None:
                follow[best_h].append(tid)
                track_to_gt.setdefault(tid, set()).add(best_h)
    switches = 0
    majority = {}
    for h, tids in follow.items():
        switches += sum(1 for a, b in zip(tids, tids[1:]) if a != b)
        if tids:
            majority[h] = max(set(tids), key=tids.count)
    bijection = (len(majority) == len(track_to_gt) == len(truth.hand_ids)
                 and len(set(majority.values())) == len(truth.hand_ids)
                 and all(len(g) == 1 for g in track_to_gt.values()))
    return {"video_id": truth.video_id,
            "n_truth_ids": len(truth.hand_ids),
            "n_matched_track_ids": len(track_to_gt),
            "bijection": bijection,
            "id_switches": switches}


# ------------------------------------------------------------------ skill

def _hands_by_track(rows):
    """({track id: centroid Trajectory}, {track id: skill-point Trajectory}, row
    frames) from tracks rows in one pass; a track with no full pose has an empty one.

    A centroid is the box midpoint ((x_min + x_max) / 2, (y_min + y_max) / 2)
    and a hand size is (height + width) / 2, as `streams.hand_size` computes
    it. A row's keypoints, `[x, y, v]` rows as `read_tracks` gives them, give
    a pose when all nine skill points are visible (v > 0.5), sized by that
    row's box.
    """
    hands, frames = {}, array("q")
    for row in rows:
        frame, kps = row["frame"], row.get("kps", {})
        frames.append(frame)
        for tid, (x0, y0, x1, y1) in row["tracks"].items():
            if tid not in hands:  # box then pose frames, centroids and sizes, 8 bytes a number
                hands[tid] = tuple(map(array, "qddqdd"))
            at, xy, sizes, pose_at, pose_xy, pose_sizes = hands[tid]
            size = ((y1 - y0) + (x1 - x0)) / 2.0
            at.append(frame)
            xy.extend(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
            sizes.append(size)
            pts = kps.get(tid)
            if pts is not None and all(pts[i][2] > 0.5 for i in SKILL_KEYPOINT_INDICES):
                pose_at.append(frame)
                for i in SKILL_KEYPOINT_INDICES:
                    pose_xy.extend(pts[i][:2])
                pose_sizes.append(size)
    return ({tid: Trajectory(h[0], np.frombuffer(h[1]).reshape(-1, 2), h[2])
             for tid, h in hands.items()},
            {tid: Trajectory(h[3], np.frombuffer(h[4]).reshape(-1, 9, 2), h[5])
             for tid, h in hands.items()}, frames)


_CLIP_KEYS = ("video_id", "start", "end", "operator_id", "experience", "knot_count")


def clips_from_tracks(header, rows, clip_defs, clips_path):
    """TieClips from `read_tracks`' header and rows, read once, and the clips of `clips_path`.

    `clip_defs` is a list of objects, each with video_id/start/end/
    operator_id/experience/knot_count (start, end and knot_count JSON
    integers) and optionally explicit left_track/right_track ids; otherwise
    the two longest tracks in range are used, leftmost (mean centroid x)
    first. Every clip's video_id must be the tracks header's, its own fields
    must pass TieClip's checks (made before its tracks are sliced), it must
    hold a frame of the tracks file, and explicit ids must differ. A bad clip
    is a StreamFormatError naming its number and ending `in <clips_path>`, as
    is a `clip_defs` that is not a list. A hand whose explicit id has fewer
    than 2 frames in range, or whose id is not given while the other hand's
    is, is left missing with a DataWarning.
    """
    where = f" in {clips_path}"
    if not isinstance(clip_defs, list):
        raise StreamFormatError(f"a clip list must be a JSON list of clip objects{where}")
    trajectories, poses, frames = _hands_by_track(rows)
    clips = []
    for number, definition in enumerate(clip_defs, start=1):
        bad = [k for k in _CLIP_KEYS if not isinstance(definition, dict) or k not in definition
               or (k in ("start", "end", "knot_count") and type(definition[k]) is not int)]
        if bad:
            raise StreamFormatError(
                f"clip {number} needs to be an object with video_id, operator_id, experience "
                f"and integer start, end and knot_count; check {', '.join(bad)}{where}")
        video_id, start, end = str(definition["video_id"]), definition["start"], definition["end"]
        if video_id != header.video_id:
            raise StreamFormatError(
                f"clip {number} is for video {video_id!r}, but the tracks file is "
                f"for video {header.video_id!r}{where}")
        try:  # the clip's own fields first, its hands once they are sliced
            clip = TieClip(video_id=video_id, start=start, end=end,
                           operator_id=str(definition["operator_id"]),
                           experience=str(definition["experience"]),
                           knot_count=definition["knot_count"])
        except InvariantError as exc:
            raise StreamFormatError(f"clip {number}: {exc}{where}") from exc
        if bisect_left(frames, start) == bisect_right(frames, end):
            raise StreamFormatError(
                f"clip {number}: no frame of the tracks file lies in [{start}, {end}]{where}")
        in_range = {tid: traj.slice(start, end) for tid, traj in trajectories.items()}
        in_range = {tid: t for tid, t in in_range.items() if len(t) >= 2}
        if "left_track" in definition or "right_track" in definition:
            left_id, right_id = (str(definition.get(k, "")) for k in ("left_track", "right_track"))
            if definition.keys() >= {"left_track", "right_track"} and left_id == right_id:
                raise StreamFormatError(
                    f"clip {number}: left_track and right_track both name track {left_id}{where}")
            for key, tid in (("left_track", left_id), ("right_track", right_id)):
                if key not in definition:
                    warnings.warn(f"clip {number}: {key} not given; hand missing",
                                  DataWarning, stacklevel=2)
                elif tid not in in_range:
                    warnings.warn(f"clip {number}: {key} {tid} has fewer than 2 frames in "
                                  f"[{start}, {end}]; hand missing", DataWarning, stacklevel=2)
        else:
            by_len = sorted(in_range, key=lambda tid: -len(in_range[tid]))[:2]
            if len(by_len) < 2:
                warnings.warn(f"clip {video_id}@{start}-{end} has {len(by_len)} usable tracks; "
                              "hands missing", DataWarning, stacklevel=2)
            with_x = sorted(by_len, key=lambda tid: float(np.mean(in_range[tid].points[:, 0])))
            left_id, right_id = [*with_x, "", ""][:2]

        def hand(tid):
            return in_range.get(tid), (poses[tid].slice(start, end) if tid in in_range else None)

        (left, left_poses), (right, right_poses) = hand(left_id), hand(right_id)
        clips.append(replace(clip, left=left, right=right,
                             left_poses=left_poses, right_poses=right_poses))
    return clips


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _skill_rows(summaries):
    """One row per (clip, hand); hands missing from a clip leave empty cells."""
    for s in summaries:
        for hand in ("left", "right"):
            metrics = s[hand]
            yield [s["video_id"], s["operator_id"], s["experience"], s["knot_count"], hand,
                   *("" if metrics is None else repr(metrics[f]) for f in SUMMARY_FIELDS)]


def skill_stage(clips, fps, csv_path, metric="distance", centroids_path=None,
                per_frame_size=False):
    """Kinematic summaries of tie clips, written as the skill CSV; with
    `centroids_path`, also the per-experience centroids of `metric` and their
    leave-one-out recomputations as JSON. Returns the summaries."""
    check_finite("fps", fps)
    summaries = [summarize_clip(clip, fps, per_frame_size=per_frame_size)
                 for clip in clips]
    _write_csv(csv_path, ["video_id", "operator_id", "experience", "knot_count", "hand",
                          *SUMMARY_FIELDS], _skill_rows(summaries))
    if centroids_path is not None:
        centroids = group_centroids(summaries, metric)
        loo = leave_one_out(summaries, metric)
        write_json({"metric": metric,
                    "centroids": {k: list(v) for k, v in centroids.items()},
                    "leave_one_out": {op: {k: list(v) for k, v in cents.items()}
                                      for op, cents in loo.items()}},
                   centroids_path)
    return summaries


# ------------------------------------------------------------------ signatures

def sequences_from_stream_dir(stream_dir, resolution_s=5.0):
    """Background-excised Timeline per stream file, keyed by video id, sorted."""
    def timeline(stream):
        check_step("resolution_s", resolution_s, stream[0].fps)
        return timeline_from_stream(*stream, resolution_s)

    out = {}
    for path in sorted(Path(stream_dir).glob("*.jsonl")):
        if path.name.endswith((".truth.jsonl", ".tracks.jsonl")):
            continue
        tl = read_streams([path], timeline)
        out[tl.video_id] = excise_background(tl)
    if not out:
        raise StreamFormatError(f"no stream files found in {stream_dir}")
    return out


def _floats(values):
    return [repr(float(v)) for v in values]


def signature_stage(labelled, window, path):
    """Per-class signatures of (Timeline, class) pairs, written as one CSV
    row per class and normalized-time point. Returns {class: Signature}."""
    by_class = {}
    for tl, label in labelled:
        by_class.setdefault(label, []).append(tl)
    signatures = {label: build_signature(group, window=window)
                  for label, group in by_class.items()}
    grid = np.linspace(0.0, 1.0, SIGNATURE_GRID)
    _write_csv(path, ["class", "t", "cutting", "tying", "suturing",
                      "electrocautery", "needle_driver", "forceps"],
               ([name, repr(float(t)), *_floats(actions), *_floats(tools)]
                for name, sig in sorted(signatures.items())
                for t, actions, tools in zip(grid, sig.action_curves, sig.tool_curves)))
    return signatures


def features_stage(labelled, path):
    """The feature table `(video_ids, labels, values)` of (Timeline, label)
    pairs: `values` holds one row of 30 features per video, tool counts
    min-max normalized across them. Written as the feature CSV, a missing
    label as an empty cell."""
    timelines, labels = map(list, zip(*labelled))
    video_ids = [tl.video_id for tl in timelines]
    values = normalize_tool_features(np.array([featurize(tl) for tl in timelines]))
    _write_csv(path, ["video_id", "label", *FEATURE_NAMES],
               ([vid, label or "", *_floats(row)]
                for vid, label, row in zip(video_ids, labels, values)))
    return video_ids, labels, values


def read_features_csv(path):
    """The labelled feature table `(video_ids, labels, values)` of a feature
    CSV. Blank lines are skipped; any other bad row, a quartile action or
    transition value outside [0, 1] included, is a StreamFormatError naming
    its line."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    if next(reader, [])[2:] != list(FEATURE_NAMES):
        raise StreamFormatError(f"unexpected feature columns in {path}")
    video_ids, labels, rows = [], [], []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != 2 + len(FEATURE_NAMES) or not row[1]:
            raise StreamFormatError(f"a feature row needs a video id, a class label and "
                                    f"{len(FEATURE_NAMES)} values", line=reader.line_num)
        try:  # float() takes "nan" and "inf", and an integer past the float range is inf
            values = np.array([float(v) for v in row[2:]])
            if not np.isfinite(values).all():
                raise ValueError
        except ValueError:
            raise StreamFormatError("feature values must be finite numbers",
                                    line=reader.line_num) from None
        for name, cols in (("quartile action", values[:12]), ("transition", values[24:])):
            if np.any(cols < -1e-9) or np.any(cols > 1 + 1e-9):
                raise StreamFormatError(f"{name} features must lie in [0,1]", line=reader.line_num)
        video_ids.append(row[0])
        labels.append(row[1])
        rows.append(values)
    return video_ids, labels, np.array(rows)


def lda_stage(features, projection_path, weights_path):
    """LDA of a z-scored, labelled feature table `(video_ids, labels,
    values)`; writes the 2-D projection and the per-feature weights as CSV.
    Returns the model."""
    video_ids, labels, values = features
    z, _, _ = zscore(values)
    model = lda_fit(z, labels)
    _write_csv(projection_path, ["video_id", "label", "x", "y"],
               ([vid, label, *_floats(point)]
                for vid, label, point in zip(video_ids, labels, lda_project(z, model))))
    _write_csv(weights_path, ["feature", "axis1_weight", "axis2_weight"],
               ([name, *_floats(model.projection[k, :2])]
                for k, name in enumerate(FEATURE_NAMES)))
    return model


# ------------------------------------------------------------------ run

def truth_stream_from_ground_truth(header: VideoStream, truth: GroundTruth):
    """The ground-truth twin of the generated stream with this header, as a
    (header, frames) pair whose frames a generator makes from `truth` alone:
    true hand boxes and actions, confidence 1."""
    frames = (FrameRecord(k, k / header.fps, tuple(Detection(frame_truth[h], HAND)
                                                   for h in sorted(frame_truth)), (), action)
              for k, (frame_truth, action) in enumerate(zip(truth.true_boxes, truth.actions)))
    return VideoStream(video_id=header.video_id + "-truth", fps=header.fps,
                       width=header.width, height=header.height), frames


DEFAULT_RUN_CONFIG = {
    "seed": 7,
    "synth": {"n_videos": 2, "fps": 30.0, "duration_s": 20.0,
              "dropout": 0.05, "jitter": 2.0, "with_keypoints": False},
    "tracker": {"iou": 0.3, "max_age": 30, "min_hits": 3},
    "skill": {"operators_per_group": 3, "clips_per_operator": 4,
              "clip_duration_s": 10.0, "metric": "distance"},
    "signature": {"n_per_class": 10, "window": 5},
    "eval": {"iou": 0.5, "alpha": 0.2},
}


# (check, wanted) per key: the range its stage enforces (the generators' seed,
# LDA's 2 procedures a class, the odd smoothing window, box matching's IoU,
# the PCK alpha)
_CONFIG_RANGES = {
    "seed": (lambda v: v >= 0, "a non-negative integer"),
    "signature.n_per_class": (lambda v: v >= 2, "an integer >= 2"),
    "signature.window": (lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1"),
    "eval.iou": (lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
    "eval.alpha": (lambda v: v > 0.0, "a number > 0"),
}


def _config_value(key, default, value):
    """`value` checked against the run config's `default` at `key`; a section
    is the default updated key by key. A key the default lacks, or a value not
    of its default's kind (an object, true/false, a finite number, an integer,
    a metric name) or out of its range, raises StreamFormatError naming the key."""
    if isinstance(default, dict) and isinstance(value, dict):
        return {k: _config_value(f"{key}.{k}" if key else k, default.get(k), v)
                for k, v in {**default, **value}.items()}
    if default is None:
        raise StreamFormatError(f"run config: unknown key {key}")
    if isinstance(default, dict):
        want = "an object"
    elif key == "skill.metric":
        want = None if value in SKILL_METRICS else f"one of {', '.join(SKILL_METRICS)}"
    elif isinstance(default, bool):
        want = None if isinstance(value, bool) else "true or false"
    elif not finite_numbers([value], 1):  # an integer past the float range included
        want = "a finite number"
    elif isinstance(default, int) and value != int(value):
        want = "an integer"
    elif key in _CONFIG_RANGES and not _CONFIG_RANGES[key][0](value):
        want = _CONFIG_RANGES[key][1]
    else:
        want = None
    if want is None:
        return value
    raise StreamFormatError(
        f"run config{': ' + key if key else ''} must be {want}, got {value!r}")


def run_pipeline(config: dict, out_dir) -> dict:
    """Full desk-scale pipeline: synth -> track -> skill -> signature -> lda
    -> eval. Returns the manifest of written artifacts (also saved as
    manifest.json). Output bytes depend only on the config, which is checked
    in full before anything is written."""
    cfg = _config_value("", DEFAULT_RUN_CONFIG, config)
    seed = int(cfg["seed"])
    s_cfg, k_cfg = cfg["synth"], cfg["skill"]
    section = "synth"  # a value its spec rejects is an input error naming the section
    try:
        spec = SynthSpec(
            seed=seed, n_videos=int(s_cfg["n_videos"]), fps=float(s_cfg["fps"]),
            duration_s=float(s_cfg["duration_s"]),
            corruption=CorruptionSpec(dropout_rate=float(s_cfg["dropout"]),
                                      jitter_sigma=float(s_cfg["jitter"])),
            with_keypoints=s_cfg["with_keypoints"])
        section = "tracker"
        tracker_config = TrackerConfig(
            iou_threshold=float(cfg["tracker"]["iou"]),
            max_age=int(cfg["tracker"]["max_age"]),
            min_hits=int(cfg["tracker"]["min_hits"]))
        section = "skill"
        cohort = SkillCohortSpec(
            seed=seed, operators_per_group=int(k_cfg["operators_per_group"]),
            clips_per_operator=int(k_cfg["clips_per_operator"]),
            clip_duration_s=float(k_cfg["clip_duration_s"]))
    except InvariantError as exc:
        raise StreamFormatError(f"run config: {section}: {exc}") from exc

    out = Path(out_dir)
    (out / "streams").mkdir(parents=True, exist_ok=True)
    (out / "tracks").mkdir(exist_ok=True)
    written = []

    def artifact(rel):
        written.append(out / rel)
        return out / rel

    # ---- synth + track + tracking oracle
    tracking_reports = []
    eval_reports = []
    for index in range(spec.n_videos):
        # frames listed once, to be written, tracked and scored; the twin's, to be scored twice
        (header, frames), truth = generate_stream(spec, index)
        stream = (header, list(frames))
        written.extend(write_synth_files(stream, truth, out / "streams"))
        rows = list(track_stream(stream[1], tracker_config))
        write_tracks(header, rows, artifact(f"tracks/{header.video_id}.tracks.jsonl"))
        tracking_reports.append(tracking_oracle_report(rows, truth))

        twin_header, twin_frames = truth_stream_from_ground_truth(header, truth)
        pairs = (stream, (twin_header, list(twin_frames)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            eval_reports.append({
                "video_id": header.video_id,
                "actions": evaluate_actions(*pairs),
                "boxes": evaluate_boxes(*pairs, iou_thresh=float(cfg["eval"]["iou"]))})
    write_json(tracking_reports, artifact("tracking_report.json"))
    write_json(eval_reports, artifact("eval_report.json"))

    # ---- skill cohort
    clips, _ = generate_tie_clips(cohort)
    skill_stage(clips, cohort.fps, artifact("skill_summary.csv"), k_cfg["metric"],
                artifact("skill_centroids.json"))

    # ---- signatures + features + LDA
    g_cfg = cfg["signature"]
    procedures = generate_procedure_sequences(seed=seed, n_per_class=int(g_cfg["n_per_class"]))
    signature_stage(procedures, int(g_cfg["window"]), artifact("signature.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        features = features_stage(procedures, artifact("features.csv"))
        model = lda_stage(features, artifact("lda_projection.csv"),
                          artifact("lda_weights.csv"))
    write_json({"eigenvalues": [float(v) for v in model.eigenvalues[:3]],
                "axis1_top_features": top_features(model, 0),
                "axis2_top_features": top_features(model, 1)},
               artifact("lda_summary.json"))

    # each artifact is listed under its bundle path without the extension
    manifest = {}
    for path in written:
        rel = path.relative_to(out)
        manifest[rel.with_suffix("").as_posix()] = rel.as_posix()
    write_json(manifest, out / "manifest.json")
    return manifest
