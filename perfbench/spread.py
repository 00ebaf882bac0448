"""Spread of the end-to-end metrics over runs with different seeds.

    python3 perfbench/spread.py --workload track-long --seeds 1-10 [--seconds 20]

Runs perfbench/run.py once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles (`statistics.quantiles(n=4)`) and
the distance between the quartiles as a share of the median; the bounds in
BENCHMARK.json are chosen against these figures. The summary is also written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    values, shares = {}, []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.append([result["failed"], result["attempted"]])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "failed_attempted": shares, "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)  # med is the median
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "iqr_share": (q3 - q1) / med, "values": vals}
        print(f"{name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"(q3-q1)/median {(q3 - q1) / med:.4f}")
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (out / f"spread-{stamp}-{args.workload}.json").write_text(json.dumps(summary, indent=1),
                                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
