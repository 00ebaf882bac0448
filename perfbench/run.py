"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload track-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The set-up (input synthesis in a process of its own, then a measuring
worker's imports and warm-up) is repeated SETUP_REPEATS times and timed from
here. The last worker then runs the timed bodies for `--seconds` seconds
(worker.py), the outputs are checked (checks.py), a line per metric and a
results file under perfbench/results/ are written, and the last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calib import calibrate, scale
from workloads import TRACK_WORKLOADS, TRACKER_IOU, WORKLOADS, run_config

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
WATCHDOG_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "step_p50_ms": "ms",
                    "step_p99_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how it is read from one body's trace summary)
_INCLUSIVE = ("streams.parse_stream", "pipeline.write_tracks",
              "pipeline.tracking_oracle_report", "tracking.predict",
              "tracking.associate", "tracking.update", "synth.generate_tie_clips",
              "kinematics.summarize_clip", "evaluation.evaluate_boxes",
              "evaluation.evaluate_actions", "signatures.build_signature",
              "signatures.featurize", "signatures.lda_fit")
_SELF = ("pipeline.track_stream", "cli.main", "tracking.step", "pipeline.run_pipeline")
# spanned in the set-up process on the track workloads, in the body on run-bundle
_SETUP_OR_BODY = ("synth.generate_stream", "streams.write_stream")


def _median_of(reps, read):
    return median(read(rep["layers"]) for rep in reps)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(reps, setup_layers, input_bytes) -> dict:
    """Per-layer metrics: medians over the traced bodies (per body)."""
    out = {}
    for name in _INCLUSIVE:
        out[f"{name}.s"] = ("s", _median_of(reps, lambda L, n=name: L["inclusive_s"].get(n, 0.0)))
    for name in _SELF:
        out[f"{name}.self_s"] = ("s", _median_of(reps, lambda L, n=name: L["self_s"].get(n, 0.0)))
    for name in _SETUP_OR_BODY:
        if setup_layers:
            value = median(s.get(name, 0.0) for s in setup_layers)
        else:
            value = _median_of(reps, lambda L, n=name: L["inclusive_s"].get(n, 0.0))
        out[f"{name}.s"] = ("s", value)
    out["streams.parse_stream.mb_per_s"] = ("MB/s", _median_of(
        reps, lambda L: _ratio(input_bytes / 1e6, L["inclusive_s"].get("streams.parse_stream", 0.0))))
    for name in ("tracking.step", "tracking.new_track"):
        out[f"{name}.calls"] = ("count", _median_of(reps, lambda L, n=name: L["calls"].get(n, 0)))
    out["tracking.iou.calls"] = ("count", _median_of(reps, lambda L: L["counts"].get("tracking.iou", 0)))
    out["tracking.lsa.per_associate"] = ("ratio", _median_of(reps, lambda L: _ratio(
        L["counts"].get("tracking.lsa", 0), L["counts"].get("tracking.associate.nonempty", 0))))
    out["tracking.step.p50_growth"] = ("ratio", _median_of(reps, lambda L: L["step_p50_growth"]))
    out["tracking.step.max_ms"] = ("ms", _median_of(reps, lambda L: L["step_max_ms"]))
    out["runtime.gc.pause_s"] = ("s", _median_of(reps, lambda L: L["gc_pause_s"]))
    out["runtime.gc.max_pause_ms"] = ("ms", _median_of(reps, lambda L: L["gc_max_pause_ms"]))
    out["runtime.gc.collections"] = ("count", _median_of(reps, lambda L: L["gc_collections"]))
    out["trace.wall_s"] = ("s", median(r["wall_raw_s"] * r["factor"] for r in reps))
    out["trace.self_coverage"] = ("ratio", median(
        sum(r["layers"]["self_s"].values()) / (r["wall_raw_s"] * r["factor"]) for r in reps))
    return out


def _percentile(sorted_values, q):
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def frame_latencies(reps) -> list:
    """Each step's median over the bodies, sorted.

    Every body replays the same input after a full collection, so step k of
    one body does the same work, garbage collections included, as step k of
    the next; the median over bodies keeps that work and drops the moments
    at which the machine itself was slow.
    """
    steps = [[s * r["factor"] for s in r["steps_raw_s"]] for r in reps]
    if len({len(seq) for seq in steps}) != 1:
        raise RuntimeError("bodies made different numbers of tracker steps")
    return sorted(median(column) for column in zip(*steps))


def step_percentiles_ms(reps) -> dict:
    steps = frame_latencies(reps)
    return {str(q): _percentile(steps, q / 100) * 1e3
            for q in (50, 90, 95, 98, 99, 99.5, 99.9, 100)}


def end_to_end_metrics(reps, setups) -> dict:
    steps = frame_latencies(reps)
    return {
        "setup_s": median(setups),
        "wall_s": median(r["wall_raw_s"] * r["factor"] for r in reps),
        "step_p50_ms": _percentile(steps, 0.50) * 1e3,
        "step_p99_ms": _percentile(steps, 0.99) * 1e3,
        "peak_rss_mb": reps[0]["max_rss_mb"],
    }


def _alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def measure(args, root: Path, work: Path):
    """Set up SETUP_REPEATS times, run the bodies in the last worker."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    py = sys.executable
    worker_cmd = [py, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                  "--work", str(work), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
    synth_cmd = [py, str(BENCH_DIR / "synth_input.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--work", str(work)]
    if args.trace:
        synth_cmd.append("--trace")
    setups, setup_layers = [], []
    worker = None
    try:
        for k in range(SETUP_REPEATS):
            cal_before = calibrate()
            t0 = time.perf_counter()
            if args.workload in TRACK_WORKLOADS:
                subprocess.run(synth_cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            worker = subprocess.Popen(worker_cmd, env=env, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
            if worker.stdout.readline().strip() != "ready":
                raise RuntimeError("worker failed during imports or warm-up")
            t1 = time.perf_counter()
            factor = scale(cal_before + calibrate())
            setups.append((t1 - t0) * factor)
            if args.trace and args.workload in TRACK_WORKLOADS:
                spans = json.loads((work / "setup_spans.json").read_text(encoding="utf-8"))
                setup_layers.append({name: (end - start) * factor
                                     for name, start, end, _ in spans})
            if k < SETUP_REPEATS - 1:
                worker.communicate("quit\n")
        out, _ = worker.communicate("go\n")
        if worker.returncode != 0 or out.strip() != "done":
            raise RuntimeError(f"worker exited with {worker.returncode}")
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    return setups, setup_layers, result


def check_outputs(args, work: Path, reps) -> tuple[int, int, list]:
    """Check the last body's outputs; a body whose outputs differ from them
    (by digest) or whose command failed counts every operation as failed."""
    from checks import check_bundle, check_tracks
    if args.workload in TRACK_WORKLOADS:
        verdict = check_tracks(work / "input.jsonl", work / "truth.json",
                               work / "input.tracks.jsonl", TRACKER_IOU)
    else:
        verdict = check_bundle(work / "run_bundle", run_config(args.seed))
    final = reps[-1]["digest"]
    attempted = failed = 0
    problems = list(verdict["problems"])
    for i, rep in enumerate(reps):
        attempted += verdict["attempted"]
        if rep["exit_code"] == 0 and rep["digest"] == final:
            failed += verdict["failed"]
        else:
            failed += verdict["attempted"]
            problems.append(f"body {i}: exit code {rep['exit_code']}, output differs")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scenestream" / "cli.py").is_file():
        print(f"no scenestream source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = BENCH_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.workload == "run-bundle":
        for name, warm in (("run", False), ("warmup", True)):
            (work / f"{name}_config.json").write_text(
                json.dumps(run_config(args.seed, warmup=warm)), encoding="utf-8")

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    try:
        setups, setup_layers, result = measure(args, root, work)
        reps = result["reps"]
        attempted, failed, problems = check_outputs(args, work, reps)
    finally:
        signal.alarm(0)

    if args.trace:
        input_bytes = (work / "input.jsonl").stat().st_size if args.workload in TRACK_WORKLOADS else 0
        named = layer_metrics(reps, setup_layers, input_bytes)
    else:
        named = {k: (END_TO_END_UNITS[k], v) for k, v in end_to_end_metrics(reps, setups).items()}
    metrics = {k: {"value": v, "unit": unit} for k, (unit, v) in named.items()}

    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} bodies, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']}")

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {**summary, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "git_sha": _git_sha(root),
              "versions": _versions(), "setup_samples_s": setups,
              "rss_before_body_mb": result["rss_before_body_mb"],
              "raw_wall_s": [r["wall_raw_s"] for r in reps],
              "factors": [r["factor"] for r in reps], "problems": problems,
              "step_percentiles_ms": step_percentiles_ms(reps) if not args.trace else {},
              "bench_stream": result.get("bench_stream")}
    if args.trace:
        record["layers_per_body"] = [r["layers"] for r in reps]
        record["first_body_spans"] = reps[0].get("spans", [])
        record["setup_layers"] = setup_layers
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
