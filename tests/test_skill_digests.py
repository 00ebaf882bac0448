"""The `skill` CLI's tracks-file path pinned byte for byte. `run` feeds its
skill stage generated tie clips and never reads a tracks file, so
`test_run_digests.py` does not cover this path. The digests were taken
before each hand's poses became one array-backed `Poses` and tracks rows
were read without a box, keypoint or pose object per row."""

import hashlib
import json
from collections import Counter

from scenestream.cli import main

DIGESTS = {
    "explicit-distance.csv":
        "8fbeadab8fb7415e4ee9d10bcc663d24802b828a268068f94a395c94abf2b9ff",
    "explicit-distance.json":
        "0c20eb58116fc257cc7ddc50126b57b77bee71ae315a03b76a821005632ea601",
    "explicit-per-frame.csv":
        "40d89e8c7b52b12c6c2c8e7a8f45a7483f3b34af4b62c084989883fcca658830",
    "explicit-per-frame.json":
        "0c20eb58116fc257cc7ddc50126b57b77bee71ae315a03b76a821005632ea601",
    "explicit-pose.csv":
        "8fbeadab8fb7415e4ee9d10bcc663d24802b828a268068f94a395c94abf2b9ff",
    "explicit-pose.json":
        "504b974867436450aed6c17d85c21be124e0ef327b2f8d1201b725ce79b4b642",
    "inferred-distance.csv":
        "0802ab73a9671aa77de87e5c591b2ec436413d912987bd4113eec218255feecf",
    "inferred-distance.json":
        "421a47ebbfe76e2b21fa6b7e89868103986821eecf2bddb1166a262d925bbed0",
    "inferred-per-frame.csv":
        "8ba04024d4eb2884ab714c26ad8d38ff542cc633c5e1e9bb3d78b30c08a061f8",
    "inferred-per-frame.json":
        "421a47ebbfe76e2b21fa6b7e89868103986821eecf2bddb1166a262d925bbed0",
    "inferred-pose.csv":
        "0802ab73a9671aa77de87e5c591b2ec436413d912987bd4113eec218255feecf",
    "inferred-pose.json":
        "1eeee9c5074d8b2dc6c86c54022268a85079bb709c2a25db425af62c4ef390f7",
}

FPS = 15
SKILL_POINTS = range(9)


def _edit_rows(lines):
    """Hand-edited tracks rows: the skill points move a little each frame (the
    synthetic template alone never changes pose), one skill point and one
    other point are not visible in one row each, no keypoints are left for
    20 frames (a 1.33 s gap that splits a pose segment) and 5 frames are
    missing altogether (a gap in every trajectory)."""
    out = [lines[0]]
    for line in lines[1:]:
        row = json.loads(line)
        frame = row["frame"]
        if 300 <= frame < 305:
            continue
        if 150 <= frame < 170:
            row.pop("kps", None)
        for tid, pts in row.get("kps", {}).items():
            for i in SKILL_POINTS:
                pts[i][0] += 0.25 * ((frame * 7 + i * 3 + int(tid)) % 11)
                pts[i][1] -= 0.5 * ((frame * 5 + i) % 7)
        if frame == 40 and row.get("kps"):
            next(iter(row["kps"].values()))[3][2] = 0
        if frame == 41 and row.get("kps"):
            next(iter(row["kps"].values()))[15][2] = 0
        out.append(json.dumps(row, sort_keys=True))
    return out


def _clips(video_id, explicit):
    clips = []
    for k, start in enumerate(range(0, 540, 60)):
        clip = {"video_id": video_id, "start": start, "end": start + 75,
                "operator_id": f"op-{k % 4}",
                "experience": ("experienced", "trainee")[k % 2], "knot_count": 2 + k % 3}
        clips.append({**clip, **explicit(k)})
    return clips


def test_cli_skill_outputs_are_pinned(tmp_path):
    streams = tmp_path / "streams"
    assert main(["synth", "--seed", "5", "--n-videos", "1", "--fps", str(FPS),
                 "--duration", "40", "--dropout", "0.2", "--jitter", "2",
                 "--with-keypoints", "--out", str(streams)]) == 0
    tracks = tmp_path / "tracks.jsonl"
    assert main(["track", "--in", str(streams / "synth-5-0000.jsonl"),
                 "--out", str(tracks)]) == 0
    lines = _edit_rows(tracks.read_text().splitlines())
    tracks.write_text("\n".join(lines) + "\n")

    counts = Counter(tid for line in lines[1:] for tid in json.loads(line)["tracks"])
    longest = [tid for tid, _ in counts.most_common(2)]
    clip_sets = {
        "inferred": _clips("synth-5-0000", lambda k: {}),
        # swapped ids, and an id no row carries, which leaves a hand missing
        "explicit": _clips("synth-5-0000", lambda k: {
            "left_track": longest[k % 2], "right_track": "99" if k == 4 else longest[1 - k % 2]}),
    }
    out = {}
    for name, clips in clip_sets.items():
        clips_path = tmp_path / f"{name}.json"
        clips_path.write_text(json.dumps(clips))
        base = ["skill", "--tracks", str(tracks), "--clips", str(clips_path)]
        for variant, extra in (("distance", ["--centroids"]),
                               ("pose", ["--metric", "pose_per_knot", "--centroids"]),
                               ("per-frame", ["--per-frame-size", "--centroids"])):
            stem = tmp_path / f"{name}-{variant}"
            assert main([*base, *extra, f"{stem}.json", "--out", f"{stem}.csv"]) == 0
            out.update({path.name: path for path in (stem.with_suffix(".csv"),
                                                      stem.with_suffix(".json"))})
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert got == DIGESTS
