"""Measurement suite against ground-truth streams: per-second action
precision/recall, detection average precision at a fixed IoU threshold, and
keypoint PCK normalized by hand size.

Each stream is read once, as the (header, frames in frame order) pair that
`open_stream` returns; box AP and PCK pool over one merge of the two streams'
frames by index. AP uses all-point interpolation with confidence ties broken
by pooled (frame) order; the PCK threshold alpha defaults to 0.2 and is carried
in every report so numbers are only compared at matched alpha. Each report is
the plain dict that `eval` and `run` write; docs/format.md lists its keys.
"""

from __future__ import annotations

import heapq
import warnings
from array import array
from itertools import groupby

import numpy as np

from .errors import DataWarning, InvariantError, StreamFormatError, check_finite
from .streams import (
    ACTIONS,
    ACTION_LABELS,
    HAND,
    HandKeypoints,
    INDEX_CHAIN,
    N_KEYPOINTS,
    THUMB_CHAIN,
    TOOL_CLASSES,
    hand_size,
    iou,
)
from .signatures import timeline_from_stream
from .tracking import associate

ACTION_RESOLUTION_S = 1.0  # actions are scored per second
DEFAULT_PCK_ALPHA = 0.2
DEFAULT_IOU_THRESHOLD = 0.5
KEYPOINT_MATCH_IOU = 0.5  # pairing predicted with true hands within a frame


# ------------------------------------------------------------------ actions

def action_precision_recall(pred, truth) -> dict:
    """Per-class precision/recall at a fixed temporal resolution, as a dict of
    `action_precision`, `action_recall`, `macro_precision`, `macro_recall` and `accuracy`.

    The macro means cover the three surgical actions; background is scored as
    a class for confusions but never enters the macro mean. Classes absent
    from both sides are left out with a warning. Mismatched lengths truncate
    to the shorter side with a warning.
    """
    pred, truth = list(pred), list(truth)
    if len(pred) != len(truth):
        warnings.warn(
            f"length mismatch ({len(pred)} vs {len(truth)}); truncating to shorter",
            DataWarning, stacklevel=2)
        n = min(len(pred), len(truth))
        pred, truth = pred[:n], truth[:n]
    if not pred:
        raise InvariantError("cannot score empty sequences")

    tp = {c: 0 for c in ACTION_LABELS}
    fp = {c: 0 for c in ACTION_LABELS}
    fn = {c: 0 for c in ACTION_LABELS}
    hits = 0
    for p, t in zip(pred, truth):
        if p == t:
            tp[p] += 1
            hits += 1
        else:
            fp[p] += 1
            fn[t] += 1

    present = {c for c in ACTION_LABELS if tp[c] + fp[c] + fn[c] > 0}
    excluded = tuple(c for c in ACTION_LABELS if c not in present)
    if excluded:
        warnings.warn(f"classes absent from both pred and truth: {excluded}",
                      DataWarning, stacklevel=2)

    precision, recall = {}, {}
    for c in present:
        precision[c] = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] > 0 else 0.0
        recall[c] = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] > 0 else 0.0

    scored = [c for c in ACTIONS if c in present]
    macro_p = float(np.mean([precision[c] for c in scored])) if scored else None
    macro_r = float(np.mean([recall[c] for c in scored])) if scored else None
    return {"action_precision": precision, "action_recall": recall,
            "macro_precision": macro_p, "macro_recall": macro_r,
            "accuracy": hits / len(pred)}


# ------------------------------------------------------------------ boxes

def _greedy_match_class(preds, truth_boxes, iou_thresh, confidences, tp_flags):
    """Greedy confidence-ordered matching for one class in one frame.

    preds: (confidence, box) pairs. In confidence order with input-order
    tie-breaking, each prediction's confidence is appended to `confidences`
    and 1 if it is a true positive, else 0, to `tp_flags`.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][0], i))
    taken = [False] * len(truth_boxes)
    for i in order:
        conf, box = preds[i]
        best_v, best_j = -1.0, None
        for j, gt in enumerate(truth_boxes):
            if taken[j]:
                continue
            v = iou(box, gt)
            if v > best_v:
                best_v, best_j = v, j
        is_tp = best_j is not None and best_v >= iou_thresh
        if is_tp:
            taken[best_j] = True
        confidences.append(conf)
        tp_flags.append(is_tp)


def ap_from_records(confidences, tp_flags, n_gt) -> float:
    """Area under the precision-recall curve, all-point interpolation, of the
    predictions whose confidences are the array('d') `confidences` and whose
    true-positive flags are the bytearray `tp_flags`; equal confidences rank
    in their given order."""
    if n_gt <= 0:
        raise InvariantError("AP undefined without ground truth")
    if not confidences:
        return 0.0
    order = np.argsort(-np.frombuffer(confidences), kind="stable")
    tp = np.cumsum(np.frombuffer(tp_flags, dtype=np.uint8)[order], dtype=float)
    recall = tp / n_gt
    precision = tp / np.arange(1.0, len(tp) + 1)  # true positives over the k ranked first
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev = 0.0
    for r, p in zip(recall, envelope):
        if r > prev:
            ap += (r - prev) * p
            prev = r
    return float(ap)


def mean_ap(per_class_aps) -> float | None:
    """Arithmetic mean of the defined APs; None when none are defined."""
    defined = [v for v in per_class_aps.values() if v is not None]
    if not defined:
        return None
    return float(np.mean(defined))


# ------------------------------------------------------------------ keypoints

def pck(pred_kps: HandKeypoints, truth_kps: HandKeypoints, ref_box: tuple,
        alpha: float = DEFAULT_PCK_ALPHA) -> tuple[np.ndarray, np.ndarray]:
    """Per-keypoint correctness as (hits, valid), two (21,) bool arrays: a hit
    lies within alpha * hand_size(ref_box) of truth, and only visible truth
    keypoints are valid, that is, scored."""
    thresh = alpha * hand_size(ref_box)
    dists = np.linalg.norm(pred_kps.xy - truth_kps.xy, axis=1)
    valid = truth_kps.visible
    return (dists <= thresh) & valid, valid


# ------------------------------------------------------------------ reports

def _report(truth_header, **values) -> dict:
    """The strata tags of the truth stream's header and each of `values` that
    is not None. Every value but the settings `alpha` and `iou_threshold` is a
    metric: a number, or a dict or list of numbers or None, each number in [0, 1]."""
    report = {"strata": dict(truth_header.metadata.get("strata", {}))}
    for key, value in values.items():
        if value is None:
            continue
        report[key] = value
        if key in ("alpha", "iou_threshold"):
            continue
        if isinstance(value, dict):
            value = list(value.values())
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not (-1e-9 <= v <= 1 + 1e-9):
                raise InvariantError(f"metric out of [0,1]: {v}")
    return report


def evaluate_actions(pred, truth) -> dict:
    """Action precision/recall over ACTION_RESOLUTION_S windows of both streams."""
    return _report(truth[0], **action_precision_recall(
        timeline_from_stream(*pred, ACTION_RESOLUTION_S).labels,
        timeline_from_stream(*truth, ACTION_RESOLUTION_S).labels))


def _aligned_frames(pred, truth):
    """(prediction frame or None, truth frame or None) for each frame index in
    either stream, merging the two in frame order as they are read; streams
    whose fps differ are a StreamFormatError, as frames pair by index."""
    if pred[0].fps != truth[0].fps:
        raise StreamFormatError(f"pred fps {pred[0].fps!r} and truth fps {truth[0].fps!r} differ")
    merged = heapq.merge(((fr.frame_index, 0, fr) for fr in pred[1]),
                         ((fr.frame_index, 1, fr) for fr in truth[1]))
    for _, same_index in groupby(merged, key=lambda item: item[0]):
        by_side = {side: fr for _, side, fr in same_index}
        yield by_side.get(0), by_side.get(1)


def evaluate_boxes(pred, truth, iou_thresh: float = DEFAULT_IOU_THRESHOLD) -> dict:
    """Frame-aligned detection AP per class of two (header, frames) streams;
    hands reported separately from the tool mAP. A frame missing from either
    side has no detections there. `iou_thresh` must lie in (0, 1]."""
    if not 0.0 < iou_thresh <= 1.0:
        raise InvariantError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    classes = (HAND,) + TOOL_CLASSES
    confidences = {c: array("d") for c in classes}  # in frame order
    tp_flags = {c: bytearray() for c in classes}
    n_gt = dict.fromkeys(classes, 0)
    for pred_fr, truth_fr in _aligned_frames(pred, truth):
        pred_dets = pred_fr.detections if pred_fr else ()
        truth_dets = truth_fr.detections if truth_fr else ()
        for c in classes:
            preds = [(d.confidence, d.box) for d in pred_dets if d.category == c]
            gts = [d.box for d in truth_dets if d.category == c]
            n_gt[c] += len(gts)
            if preds:
                _greedy_match_class(preds, gts, iou_thresh, confidences[c], tp_flags[c])
    aps = {}
    for c in classes:
        if n_gt[c] == 0:
            if confidences[c]:
                warnings.warn(f"no ground truth for {c}; AP undefined",
                              DataWarning, stacklevel=2)
            aps[c] = None
        else:
            aps[c] = ap_from_records(confidences[c], tp_flags[c], n_gt[c])
    return _report(truth[0], iou_threshold=iou_thresh, ap_per_class=aps,
                   hand_ap=aps[HAND], tool_map=mean_ap({c: aps[c] for c in TOOL_CLASSES}))


def _pooled_rate(hits, valid, indices):
    """Pooled hit rate over keypoint `indices`; None when none is valid."""
    indices = list(indices)
    n_valid = valid[indices].sum()
    return float(hits[indices].sum() / n_valid) if n_valid else None


def evaluate_keypoints(pred, truth, alpha: float = DEFAULT_PCK_ALPHA, ref: str = "truth") -> dict:
    """Pooled PCK over the truth frames of two (header, frames) streams.

    Hand instances are paired within each frame by owner-box IoU; unmatched
    ground-truth hands, including every hand on a frame the predictor
    skipped, count their visible keypoints as misses. Prediction frames with
    no truth frame are unscored. `ref` selects the normalizing box: the
    ground-truth owner box ("truth") or the detected owner box ("pred").
    """
    if ref not in ("truth", "pred"):
        raise InvariantError(f"ref must be 'truth' or 'pred', got {ref!r}")
    check_finite("alpha", alpha)
    hits, valid = np.zeros(N_KEYPOINTS), np.zeros(N_KEYPOINTS)  # integer counts
    for pred_fr, truth_fr in _aligned_frames(pred, truth):
        if truth_fr is None:
            continue
        preds, truths = pred_fr.keypoints if pred_fr else (), truth_fr.keypoints
        matches, unmatched_truth = associate(
            [k.owner_box for k in preds], [k.owner_box for k in truths],
            KEYPOINT_MATCH_IOU)
        for pi, ti in matches:
            ref_box = truths[ti].owner_box if ref == "truth" else preds[pi].owner_box
            pair_hits, pair_valid = pck(preds[pi], truths[ti], ref_box, alpha)
            hits += pair_hits
            valid += pair_valid
        for ti in unmatched_truth:
            valid += truths[ti].visible
    return _report(
        truth[0], alpha=alpha,
        pck_per_keypoint=[_pooled_rate(hits, valid, [k]) for k in range(N_KEYPOINTS)],
        mean_pck=_pooled_rate(hits, valid, range(N_KEYPOINTS)),
        thumb_pck=_pooled_rate(hits, valid, THUMB_CHAIN),
        index_pck=_pooled_rate(hits, valid, INDEX_CHAIN))
