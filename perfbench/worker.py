"""Measuring process: imports, warm-up, then the timed bodies.

Started by run.py with the checkout's `src` on PYTHONPATH. It prints
"ready" once imports and the warm-up are done and then waits for one line on
stdin: "go" runs timed bodies for the given number of seconds, anything else
exits. Each body is the user's own command, `scenestream.cli.main(argv)`,
run in this process; calibration rounds (calib.py) are timed between bodies.
Results go to `<work>/result.json`; "done" is printed last.

    python3 perfbench/worker.py --workload track-long --work DIR --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from calib import calibrate, scale
from tracing import StepTimer, Tracer
from workloads import TRACKER_ARGS


def body_argv(workload: str, work: Path, warmup: bool) -> list[str]:
    if workload == "run-bundle":
        name = "warmup" if warmup else "run"
        return ["run", "--config", str(work / f"{name}_config.json"),
                "--out", str(work / f"{name}_bundle")]
    name = "warmup" if warmup else "input"
    return ["track", "--in", str(work / f"{name}.jsonl"),
            "--out", str(work / f"{name}.tracks.jsonl"), *TRACKER_ARGS]


def output_digest(path: Path) -> str:
    """sha256 over a file, or over every file of a directory in sorted order."""
    digest = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for file in files:
        digest.update(str(file.relative_to(path.parent)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    work = Path(args.work)

    from scenestream import cli
    import scipy.optimize  # noqa: F401  (imported lazily by the tracker)

    tracer = Tracer() if args.trace else None
    timer = StepTimer()
    if tracer is not None:
        tracer.install()
        main_fn = tracer.span("cli.main", cli.main)
    else:
        timer.install()
        main_fn = cli.main

    sink = io.StringIO()  # the CLI prints output paths; keep them off the protocol pipe
    for _ in range(2):
        with contextlib.redirect_stdout(sink):
            if main_fn(body_argv(args.workload, work, warmup=True)) != 0:
                raise SystemExit("warm-up command failed")
    calibrate()
    gc.collect()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return

    argv = body_argv(args.workload, work, warmup=False)
    out_path = Path(argv[argv.index("--out") + 1])
    rss_before = max_rss_mb()
    reps = []
    cals = [calibrate()]
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        timer.samples.clear()
        if tracer is not None:
            tracer.clear()
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = main_fn(argv)
            t1 = time.perf_counter()
        cals.append(calibrate())
        factor = scale(cals[-2] + cals[-1])
        rep = {"wall_raw_s": t1 - t0, "factor": factor, "exit_code": code,
               "digest": output_digest(out_path), "steps_raw_s": list(timer.samples)}
        if not reps:
            rep["max_rss_mb"] = max_rss_mb()
        if tracer is not None:
            rep["layers"] = tracer.rep_summary(factor)
            if not reps:
                rep["spans"] = tracer.dump_spans()
        reps.append(rep)
        if time.perf_counter() >= deadline:
            break
    result = {"rss_before_body_mb": rss_before, "reps": reps, "calibration_s": cals}
    if tracer is None:
        result["bench_stream"] = bench_reference(args.workload, work)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    print("done", flush=True)


def bench_reference(workload: str, work: Path) -> dict:
    """`scenestream.bench.bench_stream` on the workload's (first) stream, raw seconds."""
    from scenestream.bench import bench_stream
    from scenestream.streams import parse_stream

    if workload == "run-bundle":
        path = sorted((work / "run_bundle" / "streams").glob("*.jsonl"))[0]
    else:
        path = work / "input.jsonl"
    return bench_stream(parse_stream(path)).to_dict()


if __name__ == "__main__":
    main()
