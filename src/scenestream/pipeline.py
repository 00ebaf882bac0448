"""Composable pipeline stages and the single-command report bundle.

Each job is one stage that writes its artifact and returns its data; the
CLI subcommands and `run_pipeline` call the same stages. Stages exchange
immutable snapshots (streams, track rows, summaries); every artifact is
written with sorted keys and repr floats so identical inputs produce
byte-identical bundles. Wall-clock measurements are deliberately not part of
the bundle; `bench` writes those separately.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DataWarning, StreamFormatError
from .evaluation import evaluate_actions, evaluate_boxes
from .kinematics import (
    PoseFrame,
    TieClip,
    Trajectory,
    group_centroids,
    leave_one_out,
    summarize_clip,
)
from .signatures import (
    FEATURE_NAMES,
    FeatureVector30,
    action_sequence_from_stream,
    background_mask,
    build_signature,
    excise_background,
    excise_tool_steps,
    featurize,
    lda_fit,
    lda_project,
    normalize_tool_features,
    tool_sequence_from_stream,
    top_features,
    zscore,
)
from .streams import (
    N_KEYPOINTS,
    BBox,
    Detection,
    FrameRecord,
    HandKeypoints,
    VideoStream,
    header_line,
    iou,
    iter_json_lines,
    parse_stream,
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

TRACK_KP_MATCH_IOU = 0.5


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


# ------------------------------------------------------------------ tracking

def track_stream(stream: VideoStream, config: TrackerConfig | None = None):
    """Run SORT over a stream; one row per frame with boxes keyed by track id.

    Input keypoints are re-keyed by track id when their owner box overlaps
    the emitted track box (IoU >= 0.5).
    """
    tracker = SortTracker(config)
    rows = []
    for fr in stream.frames:
        emitted = tracker.step(fr)
        tracks = {str(tid): box.as_list() for tid, box in emitted}
        kps = {}
        for kp in fr.keypoints:
            best_tid, best_v = None, TRACK_KP_MATCH_IOU
            for tid, box in emitted:
                v = iou(kp.owner_box, box)
                if v >= best_v:
                    best_tid, best_v = tid, v
            if best_tid is not None:
                kps[str(best_tid)] = kp.points.tolist()
        row = {"frame": fr.frame_index, "t": fr.timestamp_s, "tracks": tracks}
        if kps:
            row["kps"] = kps
        rows.append(row)
    return rows


def write_tracks(stream: VideoStream, rows, path) -> None:
    lines = [header_line(stream), *(json.dumps(row, sort_keys=True) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _numbers(values, n) -> bool:
    """Whether `values` is a list of exactly n JSON numbers."""
    return (isinstance(values, list) and len(values) == n
            and all(isinstance(v, (int, float)) for v in values))


def _check_tracks_row(row, line_no) -> None:
    frame = row.get("frame") if isinstance(row, dict) else None
    if not isinstance(frame, int):
        raise StreamFormatError("tracks row needs an integer 'frame'", line=line_no)
    tracks, kps = row.get("tracks"), row.get("kps", {})
    if not isinstance(tracks, dict) or not all(_numbers(b, 4) for b in tracks.values()):
        raise StreamFormatError("tracks row needs 'tracks' mapping track ids to "
                                "[x_min, y_min, x_max, y_max]", line=line_no)
    if not isinstance(kps, dict) or not all(
            isinstance(pts, list) and len(pts) == N_KEYPOINTS and all(_numbers(p, 3) for p in pts)
            for pts in kps.values()):
        raise StreamFormatError(f"tracks row 'kps' must map track ids to {N_KEYPOINTS} "
                                "[x, y, v] triples", line=line_no)


def read_tracks(path):
    """(header, rows) from a tracks.jsonl file; a malformed line is a
    StreamFormatError naming its line number."""
    lines = list(iter_json_lines(path))
    if not lines:
        raise StreamFormatError(f"empty tracks file: {path}")
    line_no, header = lines[0]
    fps = header.get("fps") if isinstance(header, dict) else None
    if not isinstance(fps, (int, float)) or not fps > 0 or "video_id" not in header:
        raise StreamFormatError("first line must be a header with video_id and a "
                                "positive fps", line=line_no)
    for line_no, row in lines[1:]:
        _check_tracks_row(row, line_no)
    return header, [obj for _, obj in lines[1:]]


def tracking_oracle_report(rows, truth: GroundTruth, match_iou: float = 0.3) -> dict:
    """Compare tracker output rows (from `track_stream`) against generator
    ground truth.

    Reports whether emitted track ids form a bijection onto true hand ids and
    how many identity switches occurred (changes in the track id following
    each true hand between consecutive matched frames).
    """
    follow = {h: [] for h in truth.hand_ids}
    track_to_gt = {}
    for row, frame_truth in zip(rows, truth.true_boxes):
        for tid, corners in row["tracks"].items():
            tid, box = int(tid), BBox(*corners)
            best_h, best_v = None, match_iou
            for h, gt_box in frame_truth.items():
                v = iou(box, gt_box)
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
    bijection = (len(majority) == len(truth.hand_ids)
                 and len(set(majority.values())) == len(truth.hand_ids)
                 and all(len(g) == 1 for g in track_to_gt.values()))
    return {"video_id": truth.video_id,
            "n_truth_ids": len(truth.hand_ids),
            "n_matched_track_ids": len(track_to_gt),
            "bijection": bijection,
            "id_switches": switches}


# ------------------------------------------------------------------ skill

def _poses_by_track(rows):
    out = {}
    for row in rows:
        for tid, pts in row.get("kps", {}).items():
            arr = np.asarray(pts, dtype=float)
            box = row["tracks"].get(tid)
            if box is None:
                continue
            kp = HandKeypoints(points=arr, owner_box=BBox(*box))
            pose = PoseFrame.from_keypoints(row["frame"], kp)
            if pose is not None:
                out.setdefault(tid, []).append(pose)
    return out


def _trajectories_by_track(rows):
    samples = {}
    for row in rows:
        for tid, box in row["tracks"].items():
            samples.setdefault(tid, []).append((row["frame"], BBox(*box)))
    return {tid: Trajectory.from_boxes(int(tid), items)
            for tid, items in samples.items()}


def clips_from_tracks(header, rows, clip_defs):
    """Assemble TieClips from a tracks file and clip definitions.

    Each definition carries video_id/start/end/operator_id/experience/
    knot_count and optionally explicit left_track/right_track ids; otherwise
    the two longest tracks in range are used, leftmost (mean centroid x)
    first. Every clip's video_id must be the tracks header's.
    """
    trajectories = _trajectories_by_track(rows)
    poses = _poses_by_track(rows)
    clips = []
    for number, definition in enumerate(clip_defs, start=1):
        try:
            video_id = str(definition["video_id"])
            start, end = int(definition["start"]), int(definition["end"])
            operator_id = str(definition["operator_id"])
            experience = str(definition["experience"])
            knot_count = int(definition["knot_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamFormatError(
                f"clip {number} needs video_id, start, end, operator_id, experience "
                f"and knot_count: {exc!r}") from exc
        if video_id != str(header["video_id"]):
            raise StreamFormatError(
                f"clip {number} is for video {video_id!r}, but the tracks file is "
                f"for video {header['video_id']!r}")
        in_range = {tid: traj.slice(start, end) for tid, traj in trajectories.items()}
        in_range = {tid: t for tid, t in in_range.items() if len(t) >= 2}
        if "left_track" in definition or "right_track" in definition:
            left_id = str(definition.get("left_track", ""))
            right_id = str(definition.get("right_track", ""))
        else:
            by_len = sorted(in_range, key=lambda tid: -len(in_range[tid]))[:2]
            if len(by_len) < 2:
                warnings.warn(
                    f"clip {video_id}@{start}-{end} has "
                    f"{len(by_len)} usable tracks; hands missing", DataWarning,
                    stacklevel=2)
                by_len += [None] * (2 - len(by_len))
            with_x = [(tid, float(np.mean(in_range[tid].centroids[:, 0])))
                      for tid in by_len if tid is not None]
            with_x.sort(key=lambda pair: pair[1])
            left_id = with_x[0][0] if with_x else ""
            right_id = with_x[1][0] if len(with_x) > 1 else ""

        def hand_data(tid):
            if not tid or tid not in in_range:
                return None, ()
            pose_seq = tuple(p for p in poses.get(tid, ())
                             if start <= p.frame_index <= end)
            return in_range[tid], pose_seq

        left, left_poses = hand_data(left_id)
        right, right_poses = hand_data(right_id)
        clips.append(TieClip(
            video_id=video_id, start=start, end=end, operator_id=operator_id,
            experience=experience, knot_count=knot_count, left=left, right=right,
            left_poses=left_poses, right_poses=right_poses))
    return clips


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_SUMMARY_FIELDS = (
    "distance_hand_lengths", "distance_per_knot", "mean_velocity", "max_velocity",
    "mean_acceleration", "max_acceleration", "mean_jerk", "max_jerk",
    "integrated_pose_distance", "pose_distance_per_knot")


def _skill_rows(summaries):
    """One row per (clip, hand); hands missing from a clip leave empty cells."""
    for summary in summaries:
        for hand in ("left", "right"):
            hand_summary = summary.hand(hand)
            cells = [summary.video_id, summary.operator_id, summary.experience,
                     summary.knot_count, hand]
            if hand_summary is None:
                cells.extend([""] * len(_SUMMARY_FIELDS))
            else:
                cells.extend(repr(getattr(hand_summary, f)) for f in _SUMMARY_FIELDS)
            yield cells


def skill_stage(clips, fps, csv_path, metric="distance", centroids_path=None,
                per_frame_size=False):
    """Kinematic summaries of tie clips, written as the skill CSV; with
    `centroids_path`, also the per-experience centroids of `metric` and their
    leave-one-out recomputations as JSON. Returns the summaries."""
    summaries = [summarize_clip(clip, fps, per_frame_size=per_frame_size)
                 for clip in clips]
    _write_csv(csv_path, ["video_id", "operator_id", "experience", "knot_count", "hand",
                          *_SUMMARY_FIELDS], _skill_rows(summaries))
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
    """Excised (ActionSequence, ToolSequence) pairs per stream file, sorted."""
    out = {}
    for path in sorted(Path(stream_dir).glob("*.jsonl")):
        if path.name.endswith((".truth.jsonl", ".tracks.jsonl")):
            continue
        stream = parse_stream(path)
        seq = action_sequence_from_stream(stream, resolution_s)
        tools = tool_sequence_from_stream(stream, resolution_s)
        mask = background_mask(seq)
        out[stream.video_id] = (excise_background(seq), excise_tool_steps(tools, mask))
    if not out:
        raise StreamFormatError(f"no stream files found in {stream_dir}")
    return out


def _floats(values):
    return [repr(float(v)) for v in values]


def signature_stage(labelled, window, path):
    """Per-class signatures of (ActionSequence, ToolSequence, class) triples,
    written as one CSV row per class and normalized-time point. Returns
    {class: Signature}."""
    by_class = {}
    for seq, tools, label in labelled:
        by_class.setdefault(label, []).append((seq, tools))
    signatures = {label: build_signature([s for s, _ in group], [t for _, t in group],
                                         window=window)
                  for label, group in by_class.items()}
    _write_csv(path, ["class", "t", "cutting", "tying", "suturing",
                      "electrocautery", "needle_driver", "forceps"],
               ([name, repr(float(t)), *_floats(actions), *_floats(tools)]
                for name, sig in sorted(signatures.items())
                for t, actions, tools in zip(sig.grid, sig.action_curves, sig.tool_curves)))
    return signatures


def features_stage(labelled, path):
    """30-feature vectors of (ActionSequence, ToolSequence, label) triples,
    tool counts min-max normalized across them, written as the feature CSV.
    Returns the normalized features."""
    features = normalize_tool_features(
        [featurize(seq, tools, label=label) for seq, tools, label in labelled])
    _write_csv(path, ["video_id", "label", *FEATURE_NAMES],
               ([f.video_id, f.label or "", *_floats(f.values)] for f in features))
    return features


def read_features_csv(path):
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[2:] != list(FEATURE_NAMES):
            raise StreamFormatError(f"unexpected feature columns in {path}")
        features = []
        for row in reader:
            try:
                values = np.array([float(v) for v in row[2:]])
            except ValueError as exc:
                raise StreamFormatError(f"feature values must be numbers: {exc}",
                                        line=reader.line_num) from exc
            features.append(FeatureVector30(video_id=row[0], label=row[1] or None,
                                            values=values))
        return features


def lda_stage(features, projection_path, weights_path):
    """LDA of z-scored, labelled features; writes the 2-D projection and the
    per-feature weights as CSV. Returns the model."""
    labels = [f.label for f in features]
    if any(lab is None for lab in labels):
        raise StreamFormatError("all rows in the feature table need a class label")
    z, _, _ = zscore(features)
    model = lda_fit(z, labels)
    _write_csv(projection_path, ["video_id", "label", "x", "y"],
               ([f.video_id, f.label or "", *_floats(point)]
                for f, point in zip(features, lda_project(z, model))))
    _write_csv(weights_path, ["feature", "axis1_weight", "axis2_weight"],
               ([name, *_floats(model.projection[k, :2])]
                for k, name in enumerate(FEATURE_NAMES)))
    return model


# ------------------------------------------------------------------ run

def truth_stream_from_ground_truth(stream: VideoStream, truth: GroundTruth) -> VideoStream:
    """A ground-truth twin stream: true hand boxes and actions, confidence 1."""
    frames = []
    for fr, frame_truth in zip(stream.frames, truth.true_boxes):
        dets = tuple(Detection(box=frame_truth[h], category="hand", confidence=1.0)
                     for h in sorted(frame_truth))
        frames.append(FrameRecord(frame_index=fr.frame_index, timestamp_s=fr.timestamp_s,
                                  detections=dets, keypoints=(),
                                  action=truth.actions[fr.frame_index]))
    return VideoStream(video_id=stream.video_id + "-truth", fps=stream.fps,
                       width=stream.width, height=stream.height, frames=tuple(frames))


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


def run_pipeline(config: dict, out_dir) -> dict:
    """Full desk-scale pipeline: synth -> track -> skill -> signature -> lda
    -> eval. Returns the manifest of written artifacts (also saved as
    manifest.json). Output bytes depend only on the config."""
    cfg = json.loads(json.dumps(DEFAULT_RUN_CONFIG))  # deep default copy
    for key, value in (config or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    out = Path(out_dir)
    (out / "streams").mkdir(parents=True, exist_ok=True)
    (out / "tracks").mkdir(exist_ok=True)
    seed = int(cfg["seed"])
    written = []

    def artifact(rel):
        written.append(out / rel)
        return out / rel

    # ---- synth + track + tracking oracle
    s_cfg = cfg["synth"]
    spec = SynthSpec(
        seed=seed, n_videos=int(s_cfg["n_videos"]), fps=float(s_cfg["fps"]),
        duration_s=float(s_cfg["duration_s"]),
        corruption=CorruptionSpec(dropout_rate=float(s_cfg["dropout"]),
                                  jitter_sigma=float(s_cfg["jitter"])),
        with_keypoints=bool(s_cfg["with_keypoints"]))
    tracker_config = TrackerConfig(
        iou_threshold=float(cfg["tracker"]["iou"]),
        max_age=int(cfg["tracker"]["max_age"]),
        min_hits=int(cfg["tracker"]["min_hits"]))
    tracking_reports = []
    eval_reports = []
    for index in range(spec.n_videos):
        stream, truth = generate_stream(spec, index)
        written.extend(write_synth_files(stream, truth, out / "streams"))
        rows = track_stream(stream, tracker_config)
        write_tracks(stream, rows, artifact(f"tracks/{stream.video_id}.tracks.jsonl"))
        tracking_reports.append(tracking_oracle_report(rows, truth))

        truth_stream = truth_stream_from_ground_truth(stream, truth)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            actions_report = evaluate_actions(stream, truth_stream)
            boxes_report = evaluate_boxes(stream, truth_stream,
                                          iou_thresh=float(cfg["eval"]["iou"]))
        eval_reports.append({"video_id": stream.video_id,
                             "actions": actions_report.to_dict(),
                             "boxes": boxes_report.to_dict()})
    write_json(tracking_reports, artifact("tracking_report.json"))
    write_json(eval_reports, artifact("eval_report.json"))

    # ---- skill cohort
    k_cfg = cfg["skill"]
    cohort = SkillCohortSpec(
        seed=seed, operators_per_group=int(k_cfg["operators_per_group"]),
        clips_per_operator=int(k_cfg["clips_per_operator"]),
        clip_duration_s=float(k_cfg["clip_duration_s"]))
    clips, _ = generate_tie_clips(cohort)
    skill_stage(clips, cohort.fps, artifact("skill_summary.csv"), str(k_cfg["metric"]),
                artifact("skill_centroids.json"))

    # ---- signatures + features + LDA
    g_cfg = cfg["signature"]
    triples = generate_procedure_sequences(seed=seed, n_per_class=int(g_cfg["n_per_class"]))
    signature_stage(triples, int(g_cfg["window"]), artifact("signature.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        features = features_stage(triples, artifact("features.csv"))
        model = lda_stage(features, artifact("lda_projection.csv"),
                          artifact("lda_weights.csv"))
    write_json({"eigenvalues": [float(v) for v in model.eigenvalues[:3]],
                "axis1_top_features": top_features(model, 0, 3),
                "axis2_top_features": top_features(model, 1, 3)},
               artifact("lda_summary.json"))

    # each artifact is listed under its bundle path without the extension
    manifest = {}
    for path in written:
        rel = path.relative_to(out)
        manifest[rel.with_suffix("").as_posix()] = rel.as_posix()
    write_json(manifest, out / "manifest.json")
    return manifest
