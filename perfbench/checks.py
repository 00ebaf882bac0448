"""Output checks computed apart from the program.

Files are read with this module's own JSON and CSV code (never the program's
readers), boxes are compared with this module's own IoU, and the linear
discriminant is recomputed with `scipy.linalg.eigh`. Nothing is compared
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

TRUTH_MATCH_IOU = 0.3  # an emitted box follows the true hand it overlaps most, above this
KPS_MATCH_IOU = 0.5  # keypoints belong to a track whose box overlaps their owner box this much
CENTROID_TARGETS = {"experienced": 2.0, "trainee": 4.0}  # hand-lengths, from the generator
CENTROID_TOLERANCE = 0.10  # relative
LDA_MAX_ANGLE_RAD = 1e-3
MAX_PROBLEMS = 10


def iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _saturating_matching(candidates) -> bool:
    """True when every left vertex can take a distinct right vertex (Kuhn)."""
    owner = {}

    def augment(i, seen):
        for j in candidates[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(candidates)))


class _Failures:
    def __init__(self):
        self.frames = set()
        self.problems = []

    def __call__(self, k, message):
        self.frames.add(k)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"frame {k}: {message}")


def check_tracks(stream_path, truth_path, tracks_path, iou_threshold) -> dict:
    """Frame-by-frame checks of a tracks file; one operation per input frame."""
    frames = read_jsonl(stream_path)[1:]
    rows = read_jsonl(tracks_path)[1:]
    true_boxes = json.loads(Path(truth_path).read_text(encoding="utf-8"))["true_boxes"]
    fail = _Failures()
    follow = defaultdict(list)  # true hand -> [(frame position, track id)]
    if len(rows) != len(frames):
        fail(min(len(rows), len(frames)), f"{len(rows)} rows for {len(frames)} frames")
    for k, (frame, row) in enumerate(zip(frames, rows)):
        if row.get("frame") != frame["frame"]:
            fail(k, f"row frame {row.get('frame')} for input frame {frame['frame']}")
            continue
        tracks = row.get("tracks", {})
        hands = [d[2:6] for d in frame.get("dets", []) if d[0] == "hand"]
        candidates = [[j for j, det in enumerate(hands) if iou(box, det) >= iou_threshold]
                      for box in tracks.values()]
        if not _saturating_matching(candidates):
            fail(k, "an emitted box overlaps no distinct hand detection")
        truth = true_boxes[k]
        for tid, box in tracks.items():
            best_v, best_h = max((iou(box, tb), h) for h, tb in truth.items())
            if best_v < TRUTH_MATCH_IOU:
                fail(k, f"track {tid} follows no true hand")
            else:
                follow[best_h].append((k, tid))
        inputs = [(kp["points"], kp["box"]) for kp in frame.get("kps", [])]
        for tid, points in row.get("kps", {}).items():
            if tid not in tracks:
                fail(k, f"kps key {tid} is not a track of the row")
            elif not any(points == pts and iou(owner, tracks[tid]) >= KPS_MATCH_IOU
                         for pts, owner in inputs):
                fail(k, f"kps of track {tid} match no input keypoints")
    hands_of_track = defaultdict(list)
    for hand in sorted(true_boxes[0]) if true_boxes else ():
        seq = follow.get(hand, [])
        if not seq:
            fail(0, f"true hand {hand} is never followed")
        for (_, a), (k, b) in zip(seq, seq[1:]):
            if a != b:
                fail(k, f"identity switch on true hand {hand}: {a} -> {b}")
        for k, tid in seq:
            hands_of_track[tid].append((k, hand))
    for tid, seq in hands_of_track.items():
        for k, hand in seq:
            if hand != seq[0][1]:
                fail(k, f"track {tid} follows true hands {seq[0][1]} and {hand}")
    return {"attempted": len(frames), "failed": len(fail.frames & set(range(len(frames)))),
            "problems": fail.problems}


def _read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _zscore(x):
    import numpy as np
    mean, sd = x.mean(axis=0), x.std(axis=0)
    flat = sd <= 0
    z = (x - mean) / np.where(flat, 1.0, sd)
    z[:, flat] = 0.0
    return z


def lda_angle(features_path, weights_path) -> float:
    """Largest principal angle between the bundle's discriminant plane and one
    recomputed from features.csv: S_B w = l (S_W + g I) w, g = 1e-3 tr(S_W)/d."""
    import numpy as np
    import scipy.linalg

    rows = _read_csv(features_path)
    names = [c for c in rows[0] if c not in ("video_id", "label")]
    labels = np.array([r["label"] for r in rows])
    z = _zscore(np.array([[float(r[c]) for c in names] for r in rows]))
    mean = z.mean(axis=0)
    d = z.shape[1]
    s_w, s_b = np.zeros((d, d)), np.zeros((d, d))
    for label in sorted(set(labels)):
        zc = z[labels == label]
        centred = zc - zc.mean(axis=0)
        s_w += centred.T @ centred
        diff = (zc.mean(axis=0) - mean)[:, None]
        s_b += len(zc) * diff @ diff.T
    gamma = 1e-3 * np.trace(s_w) / d
    values, vectors = scipy.linalg.eigh(s_b, s_w + gamma * np.eye(d))
    plane = vectors[:, np.argsort(values)[::-1][:2]]
    weights = {r["feature"]: (float(r["axis1_weight"]), float(r["axis2_weight"]))
               for r in _read_csv(weights_path)}
    bundle_plane = np.array([weights[n] for n in names])
    return float(np.max(scipy.linalg.subspace_angles(plane, bundle_plane)))


def check_bundle(bundle, config) -> dict:
    """Checks of a `run` bundle; one operation per check."""
    bundle = Path(bundle)
    ops = []  # (name, ok, detail)
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    for name, rel in sorted(manifest.items()):
        ops.append((f"manifest {name}", (bundle / rel).is_file(), rel))
    reports = json.loads((bundle / "tracking_report.json").read_text(encoding="utf-8"))
    ops.append(("one tracking report per video",
                len(reports) == config["synth"]["n_videos"], len(reports)))
    for report in reports:
        vid = report["video_id"]
        ops.append((f"bijection {vid}", report["bijection"] is True, report))
        own = check_tracks(bundle / "streams" / f"{vid}.jsonl",
                           bundle / "streams" / f"{vid}.truth.json",
                           bundle / "tracks" / f"{vid}.tracks.jsonl",
                           config["tracker"]["iou"])
        ops.append((f"tracks {vid}", own["failed"] == 0, own["problems"]))
    for entry in json.loads((bundle / "eval_report.json").read_text(encoding="utf-8")):
        ap = entry["boxes"].get("hand_ap")
        ops.append((f"box AP {entry['video_id']}", ap is not None and 0 < ap <= 1, ap))
    distances = defaultdict(list)
    for row in _read_csv(bundle / "skill_summary.csv"):
        if row["distance_hand_lengths"]:
            distances[row["experience"]].append(float(row["distance_hand_lengths"]))
    for experience, target in CENTROID_TARGETS.items():
        values = distances.get(experience, [])
        centroid = sum(values) / len(values) if values else float("nan")
        ops.append((f"{experience} centroid near {target}",
                    abs(centroid / target - 1) <= CENTROID_TOLERANCE, centroid))
    first_rows = {}
    for row in _read_csv(bundle / "signature.csv"):
        if float(row["t"]) == 0.0:
            first_rows[row["class"]] = row
    ops.append(("signature classes", len(first_rows) == 3, sorted(first_rows)))
    for label, row in sorted(first_rows.items()):
        cutting = float(row["cutting"])
        ops.append((f"cutting leads at t=0 in {label}",
                    cutting > max(float(row["tying"]), float(row["suturing"])), cutting))
    angle = lda_angle(bundle / "features.csv", bundle / "lda_weights.csv")
    ops.append(("LDA plane", angle <= LDA_MAX_ANGLE_RAD, angle))
    failed = [f"{name}: {detail}" for name, ok, detail in ops if not ok]
    return {"attempted": len(ops), "failed": len(failed), "problems": failed[:MAX_PROBLEMS]}
