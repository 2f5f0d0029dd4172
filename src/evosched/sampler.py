"""Drift-type-aware frame selection for the upload set.

Sudden drift samples at a fixed rate, incremental drift ramps the rate up over
30-second segments, and gradual drift runs a two-stage redundancy filter
(pixel difference, then feature deviation from global per-category centroids).
Each sampler returns the rows of a :class:`FrameTrace` it picks, in increasing order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .core import check_numbers, ranged
from .drift import FrameRecord, FrameTrace

RATE_STEP_SECONDS = 30.0  # segment length of the linear-rate schedule


@dataclass(frozen=True)
class SamplerConfig:
    r_f: float = ranged(0.6, lo=0, open_lo=True)    # fixed rate for sudden drift, fps
    r0: float = ranged(0.1, lo=0, open_lo=True)     # initial linear rate, fps
    delta_r: float = ranged(0.05, lo=0)             # linear rate increment per 30 s, fps
    r_max: float = 1.0                              # linear rate cap, fps
    eps1: float = ranged(0.55, lo=0, open_lo=True)  # pixel-difference factor (threshold = w*h*eps1)
    eps2: float = ranged(0.2, lo=0, open_lo=True)   # feature-deviation threshold
    frame_w: int = ranged(1280, lo=0, open_lo=True)
    frame_h: int = ranged(720, lo=0, open_lo=True)

    def __post_init__(self):
        check_numbers(self)
        if self.r0 > self.r_max:
            raise ValueError("need r0 <= r_max")


@dataclass(frozen=True)
class GlobalFeatureModel:
    """Per-category feature centroids standing in for the server's global view."""

    centroids: Dict[int, tuple]  # category -> tuple of feature vectors

    def category_centroids(self, category: int) -> tuple:
        try:
            return self.centroids[category]
        except KeyError:
            raise KeyError(f"unknown detection category {category!r}") from None


def _pick_at_times(times: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each increasing target time, the row of the first not-yet-taken
    frame at or after it, stopping at the first target no frame is left for.

    Row ``k`` is ``max(first row at or after target k, row k-1 + 1)``, that
    is ``k + max(first[j] - j for j <= k)``: one running maximum.
    """
    first = np.searchsorted(times, targets, side="left")
    steps = np.arange(len(first))
    rows = np.maximum.accumulate(first - steps) + steps
    return rows[:np.searchsorted(rows, len(times))]


def sample_sudden(trace: FrameTrace, r_f: float) -> np.ndarray:
    """Uniform selection at rate ``r_f`` fps, anchored at the first frame."""
    times = trace.t
    if not len(times):
        return np.zeros(0, dtype=np.intp)
    if not 0 < r_f < math.inf:
        raise ValueError("sampling rate must be finite and positive")
    t0 = float(times[0])
    wanted = r_f * (float(times[-1]) - t0)
    # Every target takes a frame or ends the picks, so targets past the
    # number of frames change nothing.
    count = len(times) if wanted >= len(times) else max(1, math.ceil(wanted))
    return _pick_at_times(times, t0 + np.arange(count) / r_f)


def linear_rate(t: float, t1: float, cfg: SamplerConfig) -> float:
    """Sampling rate at time ``t`` for a drift that started at ``t1``."""
    if t < t1:
        raise ValueError("t must not precede t1")
    steps = math.floor((t - t1) / RATE_STEP_SECONDS)
    return min(cfg.r_max, cfg.r0 + steps * cfg.delta_r)


def sample_incremental(trace: FrameTrace, cfg: SamplerConfig) -> np.ndarray:
    """Piecewise-uniform selection whose rate follows the linear schedule."""
    times = trace.t
    if not len(times):
        return np.zeros(0, dtype=np.intp)
    t1, t_end = float(times[0]), float(times[-1])
    if t_end == t1:
        return np.zeros(1, dtype=np.intp)
    # Segment k starts at t1 + 30 + ... + 30 (k terms, summed left to right)
    # while that is before t_end, and ends where segment k + 1 starts.
    terms = np.full(int((t_end - t1) / RATE_STEP_SECONDS) + 3, RATE_STEP_SECONDS)
    terms[0] = t1
    edges = np.add.accumulate(terms)
    edges = edges[:np.searchsorted(edges, t_end) + 1]
    starts = edges[:-1]
    bounds = np.searchsorted(times, edges)
    lo, hi = bounds[:-1], bounds[1:]
    # Each segment's rate, rounded to picks.  Trailing partial segments
    # contribute proportionally fewer picks.
    seg_len = np.minimum(RATE_STEP_SECONDS, t_end - starts)
    n = np.round(np.array([linear_rate(s, t1, cfg) for s in starts.tolist()]) * seg_len)
    # as in sample_sudden, targets past a segment's frames change nothing
    count = np.maximum(0, np.minimum(n, hi - lo)).astype(np.intp)
    seg = np.repeat(np.arange(len(starts)), count)
    step = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    targets = starts[seg] + step * seg_len[seg] / n[seg]
    # _pick_at_times per segment, as one running maximum: the offset
    # seg * (len(times) + len(seg) + 1) lifts each segment's first[j] - j
    # above every earlier segment's, so no segment's picks shift a later
    # one's.  Each segment keeps its picks before its end.
    index = np.arange(len(seg))
    lift = seg * (len(times) + len(seg) + 1)
    rows = np.maximum.accumulate(np.searchsorted(times, targets) - index + lift) - lift + index
    return rows[rows < hi[seg]]


def _euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def feature_deviation(frame: FrameRecord, model: GlobalFeatureModel) -> float:
    """Mean per-category, per-box Euclidean distance to the global centroids.

    Boxes are matched to centroids greedily by ascending distance, each centroid
    used at most once; unmatched boxes or centroids are ignored.  A frame with
    no detections has deviation 0.
    """
    if not frame.detections:
        return 0.0
    by_category: Dict[int, list] = {}
    for det in frame.detections:
        by_category.setdefault(det.category, []).append(det.feature)
    category_means = []
    for category, boxes in by_category.items():
        centroids = model.category_centroids(category)
        pairs = sorted((_euclidean(z, c), bi, ci)
                       for bi, z in enumerate(boxes)
                       for ci, c in enumerate(centroids))
        used_boxes: set = set()
        used_centroids: set = set()
        distances = []
        for dist, bi, ci in pairs:
            if bi in used_boxes or ci in used_centroids:
                continue
            used_boxes.add(bi)
            used_centroids.add(ci)
            distances.append(dist)
        if distances:
            category_means.append(sum(distances) / len(distances))
    if not category_means:
        return 0.0
    return sum(category_means) / len(category_means)


def _deviates(trace: FrameTrace, rows: np.ndarray, model: GlobalFeatureModel,
              eps2: float) -> np.ndarray:
    """``feature_deviation(trace[row], model) > eps2`` for every row of ``rows``.

    A category with one box or one centroid matches its nearest pair, so its
    mean is the least box-centroid distance: one vector pass.  These sums
    run in another order than :func:`feature_deviation`'s, which may call a
    compensated sum, so they can differ from its values by a few ulps; the
    function itself decides frames within a margin of ``eps2`` that bounds
    that difference, frames with a non-finite deviation, and every frame
    when a category needs the greedy matching of several boxes to several
    centroids or a centroid's length differs from the feature length.
    """
    n = len(rows)
    if not n:
        return np.zeros(0, dtype=bool)
    feats, categories = trace.features[rows], trace.categories
    boxes: Dict[int, list] = {}
    for k, category in enumerate(categories):
        boxes.setdefault(category, []).append(k)
    # a trace holds one feature vector per frame and category
    matches = [(ks, model.category_centroids(category)) for category, ks in boxes.items()]
    if any((len(ks) > 1 and len(centroids) > 1) or any(len(c) != feats.shape[2] for c in centroids)
           for ks, centroids in matches):
        return np.array([feature_deviation(trace[row], model) > eps2 for row in rows.tolist()])
    means = []
    for ks, centroids in matches:
        if centroids:
            with np.errstate(over="ignore", invalid="ignore"):
                diff = feats[:, ks, None, :] - np.asarray(centroids, dtype=float)
                means.append(np.sqrt((diff ** 2).sum(axis=3)).min(axis=(1, 2)))
    deviation = sum(means[1:], means[0]) / len(means) if means else np.zeros(n)
    margin = 4 * (feats.shape[2] + len(boxes) + 4) * np.finfo(float).eps * eps2
    keep = deviation > eps2
    near = ~np.isfinite(deviation) | (np.abs(deviation - eps2) <= margin)
    keep[near] = [feature_deviation(trace[row], model) > eps2 for row in rows[near].tolist()]
    return keep


def sample_gradual(
    frames: Sequence[FrameRecord],
    cfg: SamplerConfig,
    model: GlobalFeatureModel,
):
    """Two-stage filter: drop low pixel-difference frames, then keep frames
    whose feature deviation from the global view exceeds ``eps2``.  From a
    record sequence the picks come back as the same record objects."""
    threshold = cfg.frame_w * cfg.frame_h * cfg.eps1
    if isinstance(frames, FrameTrace):
        rows = np.flatnonzero(frames.pixel_diff >= threshold)
        return rows[_deviates(frames, rows, model, cfg.eps2)]
    survivors = [f for f in frames if f.pixel_diff >= threshold]
    return [f for f in survivors if feature_deviation(f, model) > cfg.eps2]
