"""Procedure timelines, aggregate surgical signatures, the 30-feature
parameterization, and the LDA projection separating procedure classes.

A procedure is reduced to one timeline of action labels and tool counts at a
fixed temporal resolution (5 s by default). After background excision the
timeline is summarized per quartile, transition probabilities are added, and
the resulting 30 features feed a regularized two-discriminant LDA.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataWarning, InvariantError, check_finite
from .streams import ACTIONS, ACTION_LABELS, BACKGROUND, TIMESTAMP_TOL_S, TOOL_CLASSES, VideoStream

DEFAULT_RESOLUTION_S = 5.0
MAX_STEPS = 10 ** 7  # steps of a stream, and frames of a synthetic video (synth.MAX_FRAMES)
N_QUARTILES = 4
SIGNATURE_GRID = 100  # normalized-time samples per signature curve
DEFAULT_SMOOTHING_WINDOW = 5  # steps; must be odd
N_TOP_FEATURES = 3  # features `top_features` reports per LDA axis
# a filtered video is 2-30 minutes long: a mostly complete procedure
FILTER_MIN_DURATION_S, FILTER_MAX_DURATION_S = 120.0, 1800.0

# ordered action pairs for the six transition features
TRANSITION_PAIRS = tuple((a, b) for a in ACTIONS for b in ACTIONS if a != b)

FEATURE_NAMES = (
    tuple(f"{action}_q{q + 1}" for action in ACTIONS for q in range(N_QUARTILES))
    + tuple(f"{tool}_q{q + 1}" for tool in TOOL_CLASSES for q in range(N_QUARTILES))
    + tuple(f"p_{a}_to_{b}" for a, b in TRANSITION_PAIRS)
)

_TOOL_INDEX = {tool: k for k, tool in enumerate(TOOL_CLASSES)}
_ONE_HOT = {lab: tuple(float(lab == a) for a in ACTIONS) for lab in ACTION_LABELS}


@dataclass(frozen=True, eq=False)
class Timeline:
    """One video's procedure at a fixed temporal resolution: per step, the
    action label and the mean per-frame count of each tool class."""

    video_id: str
    labels: tuple
    tools: np.ndarray  # (len(labels), 3) in TOOL_CLASSES order

    def __post_init__(self):
        labels = tuple(self.labels)
        for lab in labels:
            if lab not in ACTION_LABELS:
                raise InvariantError(f"unknown action label {lab!r}")
        tools = np.array(self.tools, dtype=float)
        if tools.shape != (len(labels), len(TOOL_CLASSES)):
            raise InvariantError(f"tool rows of shape {tools.shape} do not match "
                                 f"{len(labels)} steps of {len(TOOL_CLASSES)} tool classes")
        if not (tools >= 0).all():
            raise InvariantError("tool counts must be >= 0")
        tools.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tools", tools)

    def __len__(self):
        return len(self.labels)

    def indicators(self) -> np.ndarray:
        """One-hot (n, 3) action rows in ACTIONS order; background rows are zero."""
        return np.array([_ONE_HOT[lab] for lab in self.labels]).reshape(-1, len(ACTIONS))


def check_step(name: str, step_s: float, fps: float) -> None:
    """Raise InvariantError unless the user-set step `step_s` is a finite number of
    at least one frame period: then a stream of MAX_STEPS frame periods passes the cap."""
    check_finite(name, step_s)
    if step_s < 1.0 / fps:
        raise InvariantError(f"{name} must be at least one frame period "
                             f"(1/fps = {1.0 / fps!r} s), got {step_s!r}")


def stream_steps(header: VideoStream, frames, resolution_s: float = DEFAULT_RESOLUTION_S):
    """Yield each step's frames, read once in frame order, as a list once the step closes.
    Frame k is in step floor((k / fps + TIMESTAMP_TOL_S) / resolution_s), in exact fractions,
    or in the last step if past it; the step count is under Conventions in the README. Over
    MAX_STEPS steps raise InvariantError before any step past the cap is yielded."""
    check_finite("resolution_s", resolution_s)
    r = Fraction(resolution_s)
    # in steps: frame k lies at k * frame + tol, so step j starts at frame ceil((j - tol) / frame)
    frame, tol = 1 / (Fraction(header.fps) * r), Fraction(TIMESTAMP_TOL_S) / r

    def capped(n, seconds):  # n steps, at least one, of a stream lasting `seconds`
        if n > MAX_STEPS:
            raise InvariantError(f"stream {header.video_id} lasts {seconds!r} s, more "
                                 f"than {MAX_STEPS} steps of {resolution_s!r} s")
        return max(n, 1)

    duration_s = header.metadata.get("duration_s")  # without it, step MAX_STEPS is over the cap
    last = MAX_STEPS if duration_s is None else capped(
        math.ceil(Fraction(duration_s) / r - tol), duration_s) - 1
    j, step, start = 0, [], math.ceil((1 - tol) / frame) if last else math.inf
    for fr in frames:
        if fr.frame_index >= start:  # a frame of a later step
            to = min(math.floor(fr.frame_index * frame + tol), last)
            capped(to + 1, (fr.frame_index + 1) / header.fps)
            yield step
            yield from ([] for _ in range(j + 1, to))
            j, step = to, []
            start = math.ceil((j + 1 - tol) / frame) if j < last else math.inf
        step.append(fr)
    if duration_s is None:  # (last frame + 1) / fps
        end = step[-1].frame_index + 1 if step else 0
        last = capped(math.ceil(end * frame - tol), end / header.fps) - 1
    yield step
    yield from ([] for _ in range(j + 1, last + 1))


def step_summary(frames):
    """(label, tool means) of one step's frames: the most-voted action, ties
    broken by ACTION_LABELS order so the result does not depend on frame
    order, or background when no frame has one; and the mean per-frame count
    of each tool class, zeros for an empty step."""
    votes = {}
    totals = [0] * len(TOOL_CLASSES)
    for fr in frames:
        if fr.action is not None:
            votes[fr.action] = votes.get(fr.action, 0) + 1
        for det in fr.detections:
            k = _TOOL_INDEX.get(det.category)
            if k is not None:
                totals[k] += 1
    label = max(ACTION_LABELS, key=lambda lab: votes.get(lab, 0)) if votes else BACKGROUND
    return label, ([c / len(frames) for c in totals] if frames else totals)


def timeline_from_stream(header: VideoStream, frames, resolution_s: float = DEFAULT_RESOLUTION_S):
    """The `step_summary` of each of a stream's `stream_steps`."""
    return Timeline(header.video_id,
                    *zip(*map(step_summary, stream_steps(header, frames, resolution_s))))


def excise_background(tl: Timeline) -> Timeline:
    """Remove background steps and their tool rows, concatenating the rest in order."""
    kept = [k for k, lab in enumerate(tl.labels) if lab != BACKGROUND]
    if not kept:
        warnings.warn(f"sequence {tl.video_id} is all background after excision",
                      DataWarning, stacklevel=2)
    return Timeline(video_id=tl.video_id, labels=tuple(tl.labels[k] for k in kept),
                    tools=tl.tools[kept])


def quartile_aggregate(rows: np.ndarray) -> np.ndarray:
    """Per-quartile means of (n, 3) step rows, shape (4, 3).

    Over `Timeline.indicators()`: the fraction of steps carrying each
    surgical action. Over `Timeline.tools`: the mean per-step count of each
    tool class. The quartiles are `np.array_split`'s four contiguous parts,
    earlier ones absorbing the remainder; fewer than 4 rows leave trailing
    quartiles empty (zeros, with a warning).
    """
    n = len(rows)
    if n == 0:
        raise InvariantError("cannot aggregate an empty sequence")
    if n < N_QUARTILES:
        warnings.warn(f"sequence of {n} steps leaves {N_QUARTILES - n} empty quartiles",
                      DataWarning, stacklevel=2)
    return np.array([part.mean(axis=0) if len(part) else np.zeros(rows.shape[1])
                     for part in np.array_split(rows, N_QUARTILES)])


def _moving_average(curves: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average along axis 0 with truncated edge windows. A full
    window's rows are added in row order, as `mean(axis=0)` adds a C-order
    block of two or more columns, and divided by `window`."""
    if window < 1 or window % 2 == 0:
        raise InvariantError(f"smoothing window must be odd and >= 1, got {window}")
    half, n = window // 2, len(curves)
    out = np.empty_like(curves, dtype=float)
    if n > 2 * half:
        full = curves[:n - 2 * half].astype(float)
        for k in range(1, window):
            full += curves[k:k + n - 2 * half]
        out[half:n - half] = full / window
    for i in (*range(min(half, n)), *range(max(half, n - half), n)):  # truncated windows
        out[i] = curves[max(0, i - half):i + half + 1].mean(axis=0)
    return out


@dataclass(frozen=True, eq=False)
class SurgicalSignature:
    """A procedure class's profile at SIGNATURE_GRID points of normalized time."""

    action_curves: np.ndarray  # (SIGNATURE_GRID, 3) smoothed action probabilities
    tool_curves: np.ndarray  # (SIGNATURE_GRID, 3) smoothed mean tool counts


def build_signature(timelines, window: int = DEFAULT_SMOOTHING_WINDOW) -> SurgicalSignature:
    """Average time-normalized action indicators and tool counts across
    procedures and smooth.

    Every timeline is sampled at SIGNATURE_GRID points of [0, 1], the rows
    are averaged pointwise across procedures, and a centered moving average
    of odd `window` (truncated at the edges) smooths each curve.
    """
    timelines = list(timelines)
    if not timelines:
        raise InvariantError("build_signature needs at least one procedure")
    empty = [tl.video_id for tl in timelines if len(tl) == 0]
    if empty:
        raise InvariantError(f"empty sequences cannot enter a signature: {empty}")
    points = [np.minimum((np.arange(SIGNATURE_GRID) * len(tl)) // SIGNATURE_GRID, len(tl) - 1)
              for tl in timelines]
    actions = np.stack([tl.indicators()[idx] for tl, idx in zip(timelines, points)])
    tools = np.stack([tl.tools[idx] for tl, idx in zip(timelines, points)])
    return SurgicalSignature(action_curves=_moving_average(actions.mean(axis=0), window),
                             tool_curves=_moving_average(tools.mean(axis=0), window))


def transition_probabilities(tl: Timeline) -> np.ndarray:
    """Six ordered-pair transition probabilities over the run-collapsed sequence.

    Rows normalize by total transitions out of each action, so outgoing
    probabilities from every present action sum to 1; absent actions
    contribute zeros. Input must be background-excised.
    """
    labels = tl.labels
    if any(lab == BACKGROUND for lab in labels):
        raise InvariantError("transition_probabilities needs a background-excised sequence")
    runs = [lab for k, lab in enumerate(labels) if k == 0 or lab != labels[k - 1]]
    if len(runs) < 2:
        warnings.warn(f"sequence {tl.video_id} has fewer than 2 runs; transitions all zero",
                      DataWarning, stacklevel=2)
        return np.zeros(len(TRANSITION_PAIRS))
    index = [ACTIONS.index(lab) for lab in runs]
    counts = np.zeros((len(ACTIONS), len(ACTIONS)))
    np.add.at(counts, (index[:-1], index[1:]), 1.0)
    probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)  # no transitions: 0
    return probs[~np.eye(len(ACTIONS), dtype=bool)]  # off-diagonal, TRANSITION_PAIRS order


def featurize(tl: Timeline) -> np.ndarray:
    """The (30,) features in FEATURE_NAMES order: 24 by quartile, then 6 transitions.

    Expects a background-excised timeline. Tool features are raw per-step
    mean counts here; normalize_tool_features rescales them to [0,1] across
    a cohort.
    """
    if len(tl) == 0:
        raise InvariantError(f"sequence {tl.video_id} has no steps to featurize")
    return np.concatenate([quartile_aggregate(tl.indicators()).T.ravel(),
                           quartile_aggregate(tl.tools).T.ravel(),
                           transition_probabilities(tl)])


def normalize_tool_features(values: np.ndarray) -> np.ndarray:
    """A copy of the (videos, 30) feature rows with the 12 tool columns min-max
    normalized across the cohort, into [0,1].

    Constant columns become zeros with a warning.
    """
    table = np.array(values, dtype=float)
    block = table[:, 12:24]
    lo, span = block.min(axis=0), np.ptp(block, axis=0)
    flat = span <= 0
    if np.any(flat):
        names = [FEATURE_NAMES[12 + int(i)] for i in np.flatnonzero(flat)]
        warnings.warn(f"constant tool features set to 0: {names}", DataWarning, stacklevel=2)
    table[:, 12:24] = np.where(flat, 0.0, (block - lo) / np.where(flat, 1.0, span))
    return table


def zscore(table):
    """Standardize each column of a (samples, features) matrix to zero mean
    and unit standard deviation.

    Returns (matrix, mean, sd); zero-variance dimensions pass through as 0
    with a warning. Needs at least 2 samples.
    """
    table = np.asarray(table, dtype=float)
    if len(table) < 2:
        raise InvariantError("zscore needs at least 2 samples")
    mean = table.mean(axis=0)
    sd = table.std(axis=0)
    flat = sd <= 0
    if np.any(flat):
        warnings.warn(f"{int(flat.sum())} constant feature dimensions standardized to 0",
                      DataWarning, stacklevel=2)
    safe_sd = np.where(flat, 1.0, sd)
    z = (table - mean) / safe_sd
    z[:, flat] = 0.0
    return z, mean, sd


@dataclass(frozen=True, eq=False)
class LdaModel:
    """Two-discriminant projection fit on standardized features."""

    projection: np.ndarray  # (n_features, 2), unit-norm columns
    eigenvalues: np.ndarray  # all generalized eigenvalues, descending
    mean: np.ndarray  # training mean subtracted before projecting
    classes: tuple


def _scatter_matrices(x: np.ndarray, labels: np.ndarray, classes):
    mean = x.mean(axis=0)
    d = x.shape[1]
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in classes:
        xc = x[labels == c]
        mu = xc.mean(axis=0)
        centered = xc - mu
        s_w += centered.T @ centered
        diff = (mu - mean)[:, None]
        s_b += len(xc) * (diff @ diff.T)
    return s_w, s_b, mean


def lda_fit(x: np.ndarray, labels) -> LdaModel:
    """Fit the two top discriminants of the generalized eigenproblem
    S_B w = lambda (S_W + gamma I) w.

    Requires at least 3 classes with at least 2 samples each. The shrinkage
    gamma = 1e-3 * trace(S_W) / n_features keeps S_W invertible when features
    outnumber per-class samples. Eigenvectors are unit length with the
    largest-magnitude entry made positive.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    if len(classes) < 3:
        raise InvariantError(f"lda_fit needs >= 3 classes, got {len(classes)}")
    for c in classes:
        if int((labels == c).sum()) < 2:
            raise InvariantError(f"class {c!r} has fewer than 2 samples")
    s_w, s_b, mean = _scatter_matrices(x, labels, classes)
    trace = float(np.trace(s_w))
    if trace <= 0:
        raise InvariantError("all samples identical; within-class scatter is zero")
    gamma = 1e-3 * trace / x.shape[1]
    s_w_reg = s_w + gamma * np.eye(x.shape[1])

    import scipy.linalg  # here, not at the top: only lda needs scipy
    eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w_reg)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    top = eigvecs[:, order[:2]]
    for k in range(2):
        vec = top[:, k]
        vec = vec / np.linalg.norm(vec)
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        top[:, k] = vec
    return LdaModel(projection=top, eigenvalues=eigvals, mean=mean, classes=tuple(classes))


def lda_project(x: np.ndarray, model: LdaModel) -> np.ndarray:
    """Project (already standardized) features onto the two discriminants."""
    x = np.asarray(x, dtype=float)
    return (x - model.mean) @ model.projection


def top_features(model: LdaModel, axis: int):
    """The N_TOP_FEATURES (name, weight) pairs weighted most on one axis."""
    weights = model.projection[:, axis]
    order = np.argsort(-np.abs(weights))
    return [(FEATURE_NAMES[i], float(weights[i])) for i in order[:N_TOP_FEATURES]]


# Rule name -> (UMLS substring, search-term substring, title predicate or None);
# metadata selecting mostly-complete procedure videos.
BUILTIN_RULES = {
    "appendectomy": ("append", "append", lambda title: "append" in title),
    "pilonidal": ("flap", "pilonidal", lambda title: "karydakis" in title or (
        ("pilon" in title or "perin" in title) and "flap" in title)),
    # title screening for thyroidectomy is a manual review step, not automated
    "thyroidectomy": ("thyroid", "thyroid", None),
}


def filter_videos(catalog, rule):
    """Select video ids whose metadata passes every clause of the rule, a
    BUILTIN_RULES value.

    Each catalog entry is a mapping with a video_id (required) and title,
    umls, search_terms and duration_s. Entries missing any of those four are
    excluded with a warning. Substring matching is case-insensitive.
    """
    umls_substring, search_substring, title_predicate = rule
    selected = []
    for entry in catalog:
        vid = entry["video_id"]
        missing = [k for k in ("umls", "search_terms", "duration_s", "title")
                   if entry.get(k) is None]
        if missing:
            warnings.warn(f"video {vid} missing metadata {missing}; excluded",
                          DataWarning, stacklevel=2)
            continue
        umls = " ".join(entry["umls"]).lower()
        terms = " ".join(entry["search_terms"]).lower()
        title = str(entry["title"]).lower()
        duration = float(entry["duration_s"])
        if (umls_substring in umls and search_substring in terms
                and FILTER_MIN_DURATION_S <= duration <= FILTER_MAX_DURATION_S
                and (title_predicate is None or title_predicate(title))):
            selected.append(vid)
    return selected
