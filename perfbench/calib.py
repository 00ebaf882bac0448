"""CPU-speed calibration.

The machine this benchmark was built on runs the same Python code at speeds
that differ by up to 2x from one millisecond to the next and by 1.5x between
stretches of tens of seconds, with CPU time equal to wall time and no
hardware counters to count instructions instead. A fixed workload owned by
the benchmark (JSON round trips, small frozen dataclasses, 7x7 matrix
products: the same mix as the program) is timed right before and right
after each timed body; the body's times are rescaled by
`REFERENCE_S / median(calibration samples)`. Rescaled times read as seconds on
a machine where one calibration round takes `REFERENCE_S`, the fast state of
the 2-CPU machine the README describes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

REFERENCE_S = 0.0025  # one calibration round in the machine's fast state
SAMPLES = 5  # rounds timed on each side of a body

_LINE = json.dumps({
    "frame": 17, "t": 0.5666666666666667,
    "dets": [["hand", 1.0, 101.5, 202.25, 211.5, 292.25],
             ["hand", 1.0, 701.0, 240.0, 811.0, 330.0],
             ["needle_driver", 1.0, 300.0, 100.0, 380.0, 140.0]],
    "kps": [{"points": [[100.0 + k, 200.0 + 2 * k, 1.0] for k in range(21)],
             "box": [101.5, 202.25, 211.5, 292.25]}],
    "action": "suturing"}, sort_keys=True)
_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0


@dataclass(frozen=True)
class _Box:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("calibration box is empty")


def _round(repeats: int = 60) -> float:
    acc = 0.0
    cov = np.eye(7)
    for _ in range(repeats):
        obj = json.loads(_LINE)
        boxes = [_Box(*d[2:]) for d in obj["dets"]]
        pts = np.asarray(obj["kps"][0]["points"], dtype=float)
        cov = _F @ cov @ _F.T * 0.5 + np.eye(7)
        acc += sum(b.x1 - b.x0 for b in boxes) + float(pts[:, 0].sum()) + float(cov[0, 0])
        row = {"frame": obj["frame"],
               "tracks": {str(i): [b.x0, b.y0, b.x1, b.y1] for i, b in enumerate(boxes)}}
        acc += len(json.dumps(row, sort_keys=True))
    return acc


def calibrate(samples: int = SAMPLES) -> list[float]:
    """Durations in seconds of `samples` calibration rounds."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _round()
        out.append(time.perf_counter() - t0)
    return out


def scale(samples) -> float:
    """Factor that turns raw seconds into reference seconds. The median
    discounts the first round after a body, which runs with cold caches."""
    return REFERENCE_S / median(samples)
