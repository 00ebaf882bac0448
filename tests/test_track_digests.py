"""`track` output pinned byte for byte: each digest was taken from the
tracker before its filters moved from numpy arrays to per-track floats,
so any change to the Kalman arithmetic, its operation order or the emitted
boxes shows here as a different sha256."""

import hashlib
from pathlib import Path

import pytest

from scenestream.cli import main
from scenestream.streams import write_stream
from scenestream.synth import CorruptionSpec, HandMotionSpec, SynthSpec, generate_stream

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden_stream.jsonl"
LOOSE = ("--iou", "0.1", "--max-age", "3", "--min-hits", "1")


def _lanes(path):
    # 12 hands in lanes 103 px apart, 5% of detections dropped (seed 22)
    hands = tuple(HandMotionSpec(region=(60.0 + 103.0 * i, 150.0, 90.0 + 103.0 * i, 570.0))
                  for i in range(12))
    spec = SynthSpec(seed=22, fps=30.0, duration_s=5.0, hands=hands,
                     corruption=CorruptionSpec(dropout_rate=0.05, jitter_sigma=2.0))
    write_stream(generate_stream(spec, 0)[0], path)
    return path


def _keypoints(path):
    # 2 hands with keypoints, 20% of detections dropped (seed 30)
    spec = SynthSpec(seed=30, fps=30.0, duration_s=10.0, with_keypoints=True,
                     corruption=CorruptionSpec(dropout_rate=0.2, jitter_sigma=2.0))
    write_stream(generate_stream(spec, 0)[0], path)
    return path


@pytest.mark.parametrize("make, extra, digest", [
    (lambda path: GOLDEN, (),
     "b3f4fb152cf6d266aaf9113c588eef387eb91db2a129e60b0bc49278e4d9a89a"),
    (lambda path: GOLDEN, LOOSE,
     "b3f4fb152cf6d266aaf9113c588eef387eb91db2a129e60b0bc49278e4d9a89a"),
    (_lanes, (), "3e955b64571611119d1326d96b9cdb96ae18dbf83697af2d35405c54b6a5f12b"),
    (_lanes, LOOSE, "3e955b64571611119d1326d96b9cdb96ae18dbf83697af2d35405c54b6a5f12b"),
    (_keypoints, (), "f2742f271bd59140c7d8d862ef44c6fcaa9cfeac598a1337b1d2ff4fdf7333b8"),
    (_keypoints, LOOSE, "97cc1f31c1c9ca507f4ee6e860e1096701fe7cc150ca5fdbb29367dd84f1cd73"),
], ids=["golden", "golden-loose", "lanes", "lanes-loose", "keypoints", "keypoints-loose"])
def test_track_output_bytes_are_pinned(tmp_path, capsys, make, extra, digest):
    stream_path = make(tmp_path / "stream.jsonl")
    out = tmp_path / "tracks.jsonl"
    assert main(["track", "--in", str(stream_path), "--out", str(out), *extra]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
