"""Command-line entry point.

Subcommands: synth, track, skill, signature, featurize, lda, filter, eval,
bench, run. Exit codes: 0 success, 1 input error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import partial
from pathlib import Path

from .bench import DEFAULT_WINDOW_S, bench_stream
from .errors import DataWarning, InvariantError, StreamFormatError
from .evaluation import (
    DEFAULT_IOU_THRESHOLD,
    DEFAULT_PCK_ALPHA,
    evaluate_actions,
    evaluate_boxes,
    evaluate_keypoints,
)
from .kinematics import SKILL_METRICS
from .pipeline import (
    clips_from_tracks,
    features_stage,
    lda_stage,
    read_features_csv,
    read_streams,
    read_tracks,
    run_pipeline,
    sequences_from_stream_dir,
    signature_stage,
    skill_stage,
    track_stream,
    write_json,
    write_tracks,
)
from .signatures import (
    BUILTIN_RULES,
    DEFAULT_RESOLUTION_S,
    DEFAULT_SMOOTHING_WINDOW,
    filter_videos,
    top_features,
)
from .streams import finite_numbers, iter_json_lines, read_json
# `parse_stream` is imported so the traced benchmark finds the name it patches here
from .streams import parse_stream  # noqa: F401
from .synth import CorruptionSpec, SynthSpec, generate_stream, synth_generate
from .tracking import TrackerConfig


def cmd_synth(args) -> int:
    spec = SynthSpec(
        seed=args.seed, n_videos=args.n_videos, fps=args.fps,
        duration_s=args.duration,
        corruption=CorruptionSpec(dropout_rate=args.dropout,
                                  jitter_sigma=args.jitter,
                                  confidence_mean=args.conf_mean,
                                  confidence_sigma=args.conf_sigma),
        with_keypoints=args.with_keypoints)
    for paths in synth_generate(spec, args.out_dir):  # a stream file and its truth sidecar
        print(*paths, sep="\n")
    return 0


def cmd_track(args) -> int:
    config = TrackerConfig(iou_threshold=args.iou, max_age=args.max_age, min_hits=args.min_hits)
    read_streams([args.infile], lambda stream: write_tracks(
        stream[0], track_stream(stream[1], config), args.out))
    print(args.out)
    return 0


def cmd_skill(args) -> int:
    header, rows = read_tracks(args.tracks)
    clips = clips_from_tracks(header, rows, read_json(args.clips), args.clips)
    skill_stage(clips, header.fps, args.out, args.metric, args.centroids, args.per_frame_size)
    print(args.out)
    if args.centroids:
        print(args.centroids)
    return 0


def _labelled_sequences(args, default_label):
    """{video_id: (Timeline, class)} over the stream files of --streams, in
    file order; a video missing from --class-map gets `default_label`, and
    the --class-map keys that name no stream are listed in a DataWarning."""
    timelines = sequences_from_stream_dir(args.streams, resolution_s=args.resolution)
    class_map = {}
    if args.class_map:
        class_map = read_json(args.class_map)
        if not isinstance(class_map, dict) or not _strings(list(class_map.values())):
            raise StreamFormatError(f"{args.class_map}: a class map must be a JSON object "
                                    "of video id -> class name strings")
        unknown = sorted(set(class_map) - set(timelines))
        if unknown:
            warnings.warn(f"class map keys name no stream: {unknown}", DataWarning, stacklevel=2)
    return {vid: (tl, class_map.get(vid, default_label)) for vid, tl in timelines.items()}


def cmd_signature(args) -> int:
    signature_stage(_labelled_sequences(args, "all").values(), args.window, args.out)
    print(args.out)
    return 0


def cmd_featurize(args) -> int:
    labelled = _labelled_sequences(args, None)
    features_stage([labelled[vid] for vid in sorted(labelled)], args.out)
    print(args.out)
    return 0


def cmd_lda(args) -> int:
    model = lda_stage(read_features_csv(args.features), args.out, args.weights)
    print(args.out)
    print(args.weights)
    for axis in (0, 1):
        names = ", ".join(f"{n} ({w:+.3f})" for n, w in top_features(model, axis))
        print(f"axis {axis + 1} top features: {names}")
    return 0


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# (check, wanted) per optional catalog field that `filter` reads
_CATALOG_FIELDS = {
    "title": (lambda v: isinstance(v, str), "a string"),
    "umls": (_strings, "a list of strings"),
    "search_terms": (_strings, "a list of strings"),
    "duration_s": (lambda v: finite_numbers([v], 1), "a finite number"),
}


def _catalog_entries(path):
    """The entries of a catalog file; an entry that is not an object, has no
    string video_id, or has another field of the wrong kind (not null), is a
    StreamFormatError naming its line."""
    entries = []
    for line_no, entry in iter_json_lines(path):
        if not isinstance(entry, dict):
            raise StreamFormatError("catalog entry must be an object", line=line_no)
        if not isinstance(entry.get("video_id"), str):
            raise StreamFormatError("catalog entry 'video_id' must be a string", line=line_no)
        for key, (check, wanted) in _CATALOG_FIELDS.items():
            if entry.get(key) is not None and not check(entry[key]):
                raise StreamFormatError(f"catalog entry {key!r} must be {wanted}",
                                        line=line_no)
        entries.append(entry)
    return entries


def cmd_filter(args) -> int:
    selected = filter_videos(_catalog_entries(args.catalog), BUILTIN_RULES[args.rule])
    if args.out:
        Path(args.out).write_text("\n".join(selected) + ("\n" if selected else ""),
                                  encoding="utf-8")
        print(args.out)
    else:
        for vid in selected:
            print(vid)
    return 0


def cmd_eval(args) -> int:
    def evaluate(pred, truth):
        if args.mode == "actions":
            return evaluate_actions(pred, truth)
        if args.mode == "boxes":
            return evaluate_boxes(pred, truth, iou_thresh=args.iou)
        return evaluate_keypoints(pred, truth, alpha=args.alpha, ref=args.ref)

    write_json(read_streams([args.pred, args.truth], evaluate), args.out)
    print(args.out)
    return 0


def cmd_bench(args) -> int:
    bench = partial(bench_stream, window_s=args.window)
    if args.infile:
        report = read_streams([args.infile], bench)
    else:
        spec = SynthSpec(seed=args.seed, fps=args.fps, duration_s=args.minutes * 60.0)
        report = bench(generate_stream(spec, 0)[0])
    write_json(report.to_dict(), args.out)
    for label, stage in (("per-frame analytics", report.per_frame),
                         ("per-window characterization", report.per_window)):
        print(f"{label}: p95 {stage['p95_s'] * 1e3:.3f} ms "
              f"(budget {stage['budget_s'] * 1e3:.0f} ms) -> "
              f"{'PASS' if stage['within_budget'] else 'FAIL'}")
    print(args.out)
    return 0


def cmd_run(args) -> int:
    manifest = run_pipeline(read_json(args.config) if args.config else {}, args.out_dir)
    for name in sorted(manifest):
        print(f"{name}: {Path(args.out_dir) / manifest[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenestream",
        description="Analytics over per-frame surgical detection streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic streams with ground truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-videos", type=int, default=1)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--duration", type=float, default=30.0, help="seconds per video")
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--conf-mean", type=float, default=1.0)
    p.add_argument("--conf-sigma", type=float, default=0.0)
    p.add_argument("--with-keypoints", action="store_true")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="run SORT over a stream")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iou", type=float, default=TrackerConfig.iou_threshold)
    p.add_argument("--max-age", type=int, default=TrackerConfig.max_age)
    p.add_argument("--min-hits", type=int, default=TrackerConfig.min_hits)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("skill", help="kinematic summaries over tie clips")
    p.add_argument("--tracks", required=True)
    p.add_argument("--clips", required=True, help="clips.json definitions")
    p.add_argument("--metric", choices=SKILL_METRICS, default="distance")
    p.add_argument("--per-frame-size", action="store_true",
                   help="normalize velocity by per-frame hand size")
    p.add_argument("--out", required=True, help="summary CSV")
    p.add_argument("--centroids", help="optional centroid/leave-one-out JSON")
    p.set_defaults(func=cmd_skill)

    p = sub.add_parser("signature", help="aggregate surgical signatures")
    p.add_argument("--streams", required=True, help="directory of stream files")
    p.add_argument("--class-map", help="JSON of video_id -> class")
    p.add_argument("--window", type=int, default=DEFAULT_SMOOTHING_WINDOW)
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION_S)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("featurize", help="30-feature parameterization per video")
    p.add_argument("--streams", required=True)
    p.add_argument("--class-map", help="JSON of video_id -> class")
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION_S)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("lda", help="discriminant projection of a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="projection CSV")
    p.add_argument("--weights", required=True, help="per-feature weights CSV")
    p.set_defaults(func=cmd_lda)

    p = sub.add_parser("filter", help="select videos by metadata rule")
    p.add_argument("--catalog", required=True, help="catalog.jsonl of metadata")
    p.add_argument("--rule", required=True, choices=sorted(BUILTIN_RULES))
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--pred", required=True)
    files.add_argument("--truth", required=True)
    files.add_argument("--out", required=True)
    modes = p.add_subparsers(dest="mode", required=True)
    modes.add_parser("actions", parents=[files], help="per-frame action labels")
    m = modes.add_parser("boxes", parents=[files], help="detection AP")
    m.add_argument("--iou", type=float, default=DEFAULT_IOU_THRESHOLD)
    m = modes.add_parser("keypoints", parents=[files], help="PCK")
    m.add_argument("--alpha", type=float, default=DEFAULT_PCK_ALPHA)
    m.add_argument("--ref", choices=("truth", "pred"), default="truth",
                   help="box normalizing PCK distances")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency vs the real-time budgets")
    p.add_argument("--in", dest="infile")
    p.add_argument("--minutes", type=float, default=30.0)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW_S)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("run", help="full pipeline producing a report bundle")
    p.add_argument("--config", help="JSON config; defaults are used when omitted")
    p.add_argument("--out", dest="out_dir", required=True, help="bundle directory")
    p.set_defaults(func=cmd_run)
    return parser


def _check_outputs(args) -> None:
    """Reject each output file (--out, --centroids, --weights) that names a
    directory or lies in a directory that does not exist, and the output
    directory of synth and run (`out_dir`) when the nearest existing path
    among it and its parents is not a directory, before any input is read."""
    if getattr(args, "out_dir", None) is not None:
        out_dir = Path(args.out_dir)
        nearest = next((p for p in (out_dir, *out_dir.parents) if p.exists()), Path("."))
        if not nearest.is_dir():
            raise StreamFormatError(f"cannot write {out_dir}: {nearest} is not a directory")
    for path in (getattr(args, name, None) for name in ("out", "centroids", "weights")):
        if path is None:
            continue
        if Path(path).is_dir():
            raise StreamFormatError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise StreamFormatError(
                f"cannot write {path}: directory {Path(path).parent} does not exist")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one line per warning; showwarning is kept, as pytest.warns records through it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    try:
        _check_outputs(args)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (StreamFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
