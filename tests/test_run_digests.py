"""`run` bundles pinned byte for byte: each digest was taken while the
cohort generators (`synth._pose_sequence`, `_bounded_walk`,
`generate_procedure_sequences`) and the signature smoothing still worked one
step or row at a time. They also pin the running-sum walks and the
shifted-slice smoothing that replaced those loops: a change to any draw, its
order or the arithmetic on it shows here as a different sha256. The four
`.truth.json` digests were re-taken when the truth sidecar lost its
always-zero `pose_distance` key. The small config is a copy of the
benchmark's run config."""

import hashlib
import json

import pytest

from scenestream.cli import main

SMALL_CONFIG = {
    "seed": 1,
    "synth": {"n_videos": 2, "fps": 30.0, "duration_s": 10.0,
              "dropout": 0.05, "jitter": 2.0, "with_keypoints": False},
    "tracker": {"iou": 0.3, "max_age": 30, "min_hits": 3},
    "skill": {"operators_per_group": 3, "clips_per_operator": 2,
              "clip_duration_s": 5.0, "metric": "distance"},
    "signature": {"n_per_class": 6, "window": 5},
    "eval": {"iou": 0.5, "alpha": 0.2},
}

DEFAULT_DIGESTS = {
    "eval_report.json":
        "06179d87bb5ed6a914768390e281815556208f273d3c97dc1d3428dd21b52106",
    "features.csv":
        "d9aa2344cd93f726d791fbf1e7cad42edff297db5fae4c4060adbd07b690b60c",
    "lda_projection.csv":
        "a217e9fd7a8cf6b7465b2f55142ddd01665888b81c0ba1d7b73458e9326bd520",
    "lda_summary.json":
        "acce0c4d2e119c07085ae63a4893fad590e2b3866bfa23d5897dff4971393252",
    "lda_weights.csv":
        "38a0d5ba27d21975bfea0fe1cab06c7427801f2797209912169d4edcb20891a3",
    "manifest.json":
        "3f8615095aaacc1371b91ef33252bc63b982b815140717ba48f1f9044d65692a",
    "signature.csv":
        "b74f77d7dd1dd1f94efcad71ab571a9f5d03d61f1ace9cc521f854141f2a6f63",
    "skill_centroids.json":
        "b785e781e4ad97d1c095543a0de49fbd818ab5d6fb32d108d0ff7e8318fb6440",
    "skill_summary.csv":
        "46501c420154990e42a8e8a94fc57024deb66972721d4df197e1abd7807a7797",
    "streams/synth-7-0000.jsonl":
        "2f683688835149a3756365017037deee80bf0e99605ad6d5cf85197325a107b1",
    "streams/synth-7-0000.truth.json":
        "5f50cdf37387a768d6ab60419ce54e3426b32d50ad540ea02cc2738a27adf3c5",
    "streams/synth-7-0001.jsonl":
        "6fa305e2b084350eeeb8ec38caadf2c4a158d36766b479a663edeff38d38b2d8",
    "streams/synth-7-0001.truth.json":
        "028782994e6c56d1a5d85d89097a2f128b3a3cf047e2643a5f9f66b8797daed9",
    "tracking_report.json":
        "672f7ce5808b219a167adfe4237fa3586420c0539032a9b86c5e1f6cced5b7a1",
    "tracks/synth-7-0000.tracks.jsonl":
        "fe2bd962b7a30fe68afd220259e55fc33ec3fcd53bcf2c1b6f33e5d9185f0cde",
    "tracks/synth-7-0001.tracks.jsonl":
        "a90c3bc8a6ba5c4ea8b6ea6aeffc62bc94eb26142a86ba5e9b28f04dc9fc65a2",
}

SMALL_DIGESTS = {
    "eval_report.json":
        "e987ceec649acb4a9ab5a18122ee677bbe475d5bc4e942224e47ea47e90b4ea7",
    "features.csv":
        "9d95fe2321e02666e15829b9d9befde12590e059d6aa34c4f36f4226a47f7dae",
    "lda_projection.csv":
        "9cc4d980dea79b3f87169939da650a4cd71effa3127238f03a2ffbe7d64df70f",
    "lda_summary.json":
        "d7e57dfe7c021c61106105489ec3892ef82135a02c4746687ac770f0ae002e19",
    "lda_weights.csv":
        "da4ff943b20cd3b4b5a690d714f41d445bc9353a0b2bc7c6eee435f06c04f518",
    "manifest.json":
        "e75f023d3690c73f411b73f8c3ba4feb93d0f5f94aacf9f57b65740b1c6d5ab9",
    "signature.csv":
        "d05e2977a926c9d24802edc3f2939848da6b07eb84ed272fdd063eda592623ed",
    "skill_centroids.json":
        "bd7b83441b137598171601ece998509938c4dd4c52dc6afb1c1abf7b5194fe2f",
    "skill_summary.csv":
        "5169edcc75e8142400b7bf6c930525c088d34a713b0bff7160b5296e70c68eac",
    "streams/synth-1-0000.jsonl":
        "b50e6635cb99dff1e3caa1f03beb2dd80c0708e8a56b548dac24bcb1973826ca",
    "streams/synth-1-0000.truth.json":
        "8cb8f825dd88fd2e3e2e0aff8a5f7ad9e2ca9592dbf3c47731997651b165b550",
    "streams/synth-1-0001.jsonl":
        "4438e34101226eb84d6237c3725cc3bffe82ebfef87de12ada6977a77a5613e9",
    "streams/synth-1-0001.truth.json":
        "d704c8e59f37354563bd02d98f00f304d36334cdda28d9c24cfe1fafe1a35b86",
    "tracking_report.json":
        "40352029b1847bfbd8c1c5b1aa0d3dbc84067c42f1988ebceda66fd1ce52ebf5",
    "tracks/synth-1-0000.tracks.jsonl":
        "fda25fd0ee7fb6dbdba08aa04fc75a0031354d2dd20179c1d9f585d89b116441",
    "tracks/synth-1-0001.tracks.jsonl":
        "6f8b864a21ef7cd3d649b69c5fb34e6dc63e9e3caf7c55c7980d628daa37029b",
}


@pytest.mark.parametrize("config, digests", [
    (None, DEFAULT_DIGESTS),
    (SMALL_CONFIG, SMALL_DIGESTS),
], ids=["default", "small"])
def test_run_bundle_bytes_are_pinned(tmp_path, config, digests):
    out = tmp_path / "bundle"
    args = ["run", "--out", str(out)]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    assert main(args) == 0
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file()}
    assert got == digests
