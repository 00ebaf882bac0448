"""`eval boxes` and `eval keypoints` pinned byte for byte, with the digests
taken before box AP and PCK pooled over one frame alignment.

The prediction is a corrupted keypoint stream: hand dropout, jitter and
non-unit confidences, with the last 20 frames cut, so truth frames the
predictor skipped must count as misses. Its tool boxes are the truth's,
all at one confidence, with every third frame's shifted off target and the
electrocautery labelled forceps, so tool AP depends on the order records are
pooled in and one class has ground truth but no predictions. Its keypoints drift
further from the truth the higher their index, and some truth keypoints are
invisible, so the per-keypoint, thumb and index rates differ. The truth
lacks the first 5 frames: those prediction frames are false positives for
AP and unscored for PCK."""

import hashlib
import json

from scenestream.cli import main

DIGESTS = {
    "boxes_iou50.json":
        "e56c7bf6022d392d8f4b68422666c29fce3e3d19009936cbb070aba56e5476f8",
    "boxes_iou90.json":
        "05346dfd64c25513ba5db95bb90d126a7fea3eb43ada8869b917a8ac963d9c0d",
    "keypoints_truth_a05.json":
        "78dfe19de1c7b2b3f7c3501832f3f075b77e3e06f9e383e143679555a06b4d55",
    "keypoints_pred_a20.json":
        "aaccae5720e5d6665b6b34d28859f28ec7eebf913923318cdf628e2901b729c0",
}

RUNS = {
    "boxes_iou50.json": ["boxes", "--iou", "0.5"],
    "boxes_iou90.json": ["boxes", "--iou", "0.9"],
    "keypoints_truth_a05.json": ["keypoints", "--alpha", "0.05", "--ref", "truth"],
    "keypoints_pred_a20.json": ["keypoints", "--alpha", "0.2", "--ref", "pred"],
}


def _synth(out, *corruption):
    assert main(["synth", "--seed", "5", "--fps", "10", "--duration", "6",
                 "--with-keypoints", *corruption, "--out", str(out)]) == 0
    path = out / "synth-5-0000.jsonl"
    header, *frames = path.read_text().splitlines()
    return path, header, [json.loads(line) for line in frames]


def _write(path, header, frames):
    path.write_text("\n".join([header, *(json.dumps(fr) for fr in frames)]) + "\n")


def _prediction(truth_frames, pred_frames):
    for truth_fr, fr in zip(truth_frames, pred_frames):
        tools = [["forceps" if d[0] == "electrocautery" else d[0], 0.8, *d[2:]]
                 for d in truth_fr["dets"] if d[0] != "hand"]
        if fr["frame"] % 3 == 0:
            tools = [[c, conf, x0 + 40.0, y0, x1 + 40.0, y1]
                     for c, conf, x0, y0, x1, y1 in tools]
        fr["dets"] = [d for d in fr["dets"] if d[0] == "hand"] + tools
        for kp in fr.get("kps", []):
            kp["points"] = [[x + 0.4 * k, y - 0.3 * k, v]
                            for k, (x, y, v) in enumerate(kp["points"])]
    return pred_frames[:-20]


def test_eval_boxes_and_keypoints_outputs_are_pinned(tmp_path):
    truth, truth_header, truth_frames = _synth(tmp_path / "truth")
    pred, pred_header, pred_frames = _synth(
        tmp_path / "pred", "--dropout", "0.2", "--jitter", "3",
        "--conf-mean", "0.8", "--conf-sigma", "0.1")
    _write(pred, pred_header, _prediction(truth_frames, pred_frames))
    for fr in truth_frames[::2]:
        for kp in fr.get("kps", []):
            for row in kp["points"][fr["frame"] % 7::7]:
                row[2] = 0.0
    _write(truth, truth_header, truth_frames[5:])

    got = {}
    for name, (mode, *options) in RUNS.items():
        out = tmp_path / name
        assert main(["eval", mode, "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out), *options]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == DIGESTS
