"""The CLI's stream-directory path (`signature`, `featurize`, `lda`,
`eval actions`) pinned byte for byte. `run` builds its procedure cohort from
the synthetic generator and never reads a stream directory, so
`test_run_digests.py` does not cover this path. The digests were taken
before action labels and tool counts became one timeline per video."""

import hashlib
import json
import re

from scenestream.cli import main

DIGESTS = {
    "actions.json":
        "d40865d0d8de86dde54c8319264c39cb90aedf1f351db6cfc477896fc7e3c0ba",
    "features.csv":
        "0475a44993414cdc0a9b03f04c2090fd7de80cf6902e35a18097ac6bc9cf0d21",
    "proj.csv":
        "46d60e9328fedf254548dc68cd38432fc83daf32daee1dd8396c823344a01792",
    "signature.csv":
        "ea2c2e501085f33b86c5374102b481843c31ee626a173eb47151f26b963b35e3",
    "weights.csv":
        "c25f8956fc3a623eb41a668d53e5f988232bc8351d136231fda283dcccdf1778",
}


def test_cli_stream_directory_outputs_are_pinned(tmp_path):
    streams = tmp_path / "streams"
    assert main(["synth", "--seed", "3", "--n-videos", "6", "--fps", "10",
                 "--duration", "60", "--out", str(streams)]) == 0
    # unlabel 15 s of the last video, so three 5-s steps are background and
    # excision has tool rows to drop
    last = streams / "synth-3-0005.jsonl"
    truth = tmp_path / "truth.jsonl"
    truth.write_bytes(last.read_bytes())
    lines = last.read_text().splitlines()
    lines[151:301] = [re.sub(r'"action": "[a-z]+"', '"action": null', line)
                      for line in lines[151:301]]
    last.write_text("\n".join(lines) + "\n")
    class_map = tmp_path / "classes.json"
    class_map.write_text(json.dumps({f"synth-3-000{k}": "abc"[k // 2] for k in range(6)}))

    out = {name: tmp_path / name for name in DIGESTS}
    common = ["--streams", str(streams), "--class-map", str(class_map)]
    assert main(["signature", *common, "--out", str(out["signature.csv"])]) == 0
    assert main(["featurize", *common, "--out", str(out["features.csv"])]) == 0
    assert main(["lda", "--features", str(out["features.csv"]), "--out", str(out["proj.csv"]),
                 "--weights", str(out["weights.csv"])]) == 0
    assert main(["eval", "actions", "--pred", str(last), "--truth", str(truth),
                 "--out", str(out["actions.json"])]) == 0
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert got == DIGESTS
