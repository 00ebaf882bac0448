"""Set-up step of the track workloads, in a process of its own.

Synthesises the workload's stream with `synth.generate_stream`, writes it
with `streams.write_stream`, and writes the generator's ground truth and a
one-second warm-up stream next to it. Running apart from the measuring
worker keeps the generated copy of the stream out of its peak memory.

    python3 perfbench/synth_input.py --workload track-long --seed 1 --work DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from workloads import TRACK_WORKLOADS, WARMUP_DURATION_S, lane_regions


def synth_spec(workload: str, seed: int, duration_s: float | None = None):
    from scenestream.synth import CorruptionSpec, HandMotionSpec, SynthSpec

    w = TRACK_WORKLOADS[workload]
    extra = {}
    if w["lanes"]:
        extra["hands"] = tuple(HandMotionSpec(region=r) for r in lane_regions(w["lanes"]))
    return SynthSpec(seed=seed, fps=w["fps"], duration_s=duration_s or w["duration_s"],
                     corruption=CorruptionSpec(dropout_rate=w["dropout"],
                                               jitter_sigma=w["jitter"]),
                     with_keypoints=w["with_keypoints"], **extra)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(TRACK_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from scenestream import streams, synth

    generate, write = synth.generate_stream, streams.write_stream
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        generate = tracer.span("synth.generate_stream", generate)
        write = tracer.span("streams.write_stream", write)

    work = Path(args.work)
    stream, truth = generate(synth_spec(args.workload, args.seed), 0)
    write(stream, work / "input.jsonl")
    (work / "truth.json").write_text(json.dumps(truth.to_dict()), encoding="utf-8")
    warm, _ = synth.generate_stream(
        synth_spec(args.workload, args.seed, WARMUP_DURATION_S), 1)
    streams.write_stream(warm, work / "warmup.jsonl")
    if tracer is not None:
        (work / "setup_spans.json").write_text(json.dumps(tracer.dump_spans()),
                                               encoding="utf-8")


if __name__ == "__main__":
    main()
