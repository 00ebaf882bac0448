"""Workload definitions. Every input is derived from the seed alone.

This module holds plain data so that the orchestrating process can describe
the inputs without importing the program; `synth_input.py` turns a track
workload into a `SynthSpec`.
"""

from __future__ import annotations

TRACKER_ARGS = ["--iou", "0.3", "--max-age", "30", "--min-hits", "3"]
TRACKER_IOU = 0.3

# Crowded lanes: centres 103 px apart, each hand wandering +-15 px around its
# lane centre, boxes 110 x 90 px. Adjacent boxes overlap by at most 37 px,
# an IoU of at most 0.21, below the tracker's 0.3 threshold.
LANE_X0, LANE_PITCH, LANE_HALF_WIDTH = 75.0, 103.0, 15.0
LANE_Y = (150.0, 570.0)

TRACK_WORKLOADS = {
    "track-long": {
        "duration_s": 30.0, "fps": 30.0, "lanes": None,  # the two default hands
        "with_keypoints": True, "dropout": 0.05, "jitter": 2.0,
    },
    # No dropout here: a hand missed in the first frames is born late, which
    # reorders the track list against the detections and moves the cost of
    # `_lexmin_optimal_pairs` between ~14 and ~23 LSA calls per frame from one
    # seed to the next (README, "Workloads").
    "track-crowded": {
        "duration_s": 10.0, "fps": 30.0, "lanes": 12,
        "with_keypoints": False, "dropout": 0.0, "jitter": 2.0,
    },
}

# A one-second stream of the same make-up, tracked before the clock starts.
WARMUP_DURATION_S = 1.0

RUN_CONFIG = {
    "synth": {"n_videos": 2, "fps": 30.0, "duration_s": 10.0,
              "dropout": 0.05, "jitter": 2.0, "with_keypoints": False},
    "tracker": {"iou": 0.3, "max_age": 30, "min_hits": 3},
    "skill": {"operators_per_group": 3, "clips_per_operator": 2,
              "clip_duration_s": 5.0, "metric": "distance"},
    "signature": {"n_per_class": 6, "window": 5},
    "eval": {"iou": 0.5, "alpha": 0.2},
}

RUN_WARMUP_CONFIG = {
    "synth": {"n_videos": 1, "fps": 30.0, "duration_s": 1.0,
              "dropout": 0.05, "jitter": 2.0, "with_keypoints": False},
    "skill": {"operators_per_group": 2, "clips_per_operator": 1,
              "clip_duration_s": 1.0, "metric": "distance"},
    "signature": {"n_per_class": 2, "window": 5},
}

WORKLOADS = ("track-long", "track-crowded", "run-bundle")


def run_config(seed: int, warmup: bool = False) -> dict:
    base = RUN_WARMUP_CONFIG if warmup else RUN_CONFIG
    return {"seed": seed, **base}


def lane_regions(n_lanes: int):
    y0, y1 = LANE_Y
    return [(LANE_X0 + LANE_PITCH * i - LANE_HALF_WIDTH, y0,
             LANE_X0 + LANE_PITCH * i + LANE_HALF_WIDTH, y1) for i in range(n_lanes)]
