"""Drift-type-aware frame selection for the upload set.

Sudden drift samples at a fixed rate, incremental drift ramps the rate up over
30-second segments, and gradual drift runs a two-stage redundancy filter
(pixel difference, then feature deviation from global per-category centroids).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .drift import FrameRecord

RATE_STEP_SECONDS = 30.0  # segment length of the linear-rate schedule


@dataclass(frozen=True)
class SamplerConfig:
    r_f: float = 0.6          # fixed rate for sudden drift, fps
    r0: float = 0.1           # initial linear rate, fps
    delta_r: float = 0.05     # linear rate increment per 30 s, fps
    r_max: float = 1.0        # linear rate cap, fps
    eps1: float = 0.55        # pixel-difference factor (threshold = w*h*eps1)
    eps2: float = 0.2         # feature-deviation threshold
    frame_w: int = 1280
    frame_h: int = 720

    def __post_init__(self):
        if not 0 < self.r0 <= self.r_max:
            raise ValueError("need 0 < r0 <= r_max")
        if self.delta_r < 0:
            raise ValueError("delta_r must be non-negative")
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("eps1 and eps2 must be positive")
        if self.frame_w <= 0 or self.frame_h <= 0:
            raise ValueError("frame dimensions must be positive")


@dataclass(frozen=True)
class GlobalFeatureModel:
    """Per-category feature centroids standing in for the server's global view."""

    centroids: Dict[int, tuple]  # category -> tuple of feature vectors

    def category_centroids(self, category: int) -> tuple:
        try:
            return self.centroids[category]
        except KeyError:
            raise KeyError(f"unknown detection category {category!r}") from None


def _pick_at_times(frames: Sequence[FrameRecord], targets: Sequence[float]) -> List[FrameRecord]:
    """For each target time, pick the first not-yet-taken frame at or after it."""
    picked = []
    idx = 0
    for target in targets:
        while idx < len(frames) and frames[idx].t < target:
            idx += 1
        if idx >= len(frames):
            break
        picked.append(frames[idx])
        idx += 1
    return picked


def sample_sudden(frames: Sequence[FrameRecord], r_f: float) -> List[FrameRecord]:
    """Uniform selection at rate ``r_f`` fps, anchored at the first frame."""
    if not frames:
        return []
    if r_f <= 0:
        raise ValueError("sampling rate must be positive")
    t0 = frames[0].t
    span = frames[-1].t - t0
    count = max(1, math.ceil(r_f * span))
    targets = [t0 + k / r_f for k in range(count)]
    return _pick_at_times(frames, targets)


def linear_rate(t: float, t1: float, cfg: SamplerConfig) -> float:
    """Sampling rate at time ``t`` for a drift that started at ``t1``."""
    if t < t1:
        raise ValueError("t must not precede t1")
    steps = math.floor((t - t1) / RATE_STEP_SECONDS)
    return min(cfg.r_max, cfg.r0 + steps * cfg.delta_r)


def sample_incremental(frames: Sequence[FrameRecord], cfg: SamplerConfig) -> List[FrameRecord]:
    """Piecewise-uniform selection whose rate follows the linear schedule."""
    if not frames:
        return []
    t1 = frames[0].t
    t_end = frames[-1].t
    if t_end == t1:
        return [frames[0]]
    picked: List[FrameRecord] = []
    seg_start = t1
    while seg_start < t_end:
        # Trailing partial segments contribute proportionally fewer picks.
        seg_len = min(RATE_STEP_SECONDS, t_end - seg_start)
        rate = linear_rate(seg_start, t1, cfg)
        n = round(rate * seg_len)
        seg_frames = [f for f in frames if seg_start <= f.t < seg_start + RATE_STEP_SECONDS]
        if n > 0 and seg_frames:
            targets = [seg_start + j * seg_len / n for j in range(n)]
            picked.extend(_pick_at_times(seg_frames, targets))
        seg_start += RATE_STEP_SECONDS
    return picked


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
        pairs = sorted(
            ((_euclidean(z, c), bi, ci)
             for bi, z in enumerate(boxes)
             for ci, c in enumerate(centroids)),
            key=lambda item: (item[0], item[1], item[2]),
        )
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


def sample_gradual(
    frames: Sequence[FrameRecord],
    cfg: SamplerConfig,
    model: GlobalFeatureModel,
) -> List[FrameRecord]:
    """Two-stage filter: drop low pixel-difference frames, then keep frames
    whose feature deviation from the global view exceeds ``eps2``."""
    threshold = cfg.frame_w * cfg.frame_h * cfg.eps1
    survivors = [f for f in frames if f.pixel_diff >= threshold]
    return [f for f in survivors if feature_deviation(f, model) > cfg.eps2]


def write_selection_manifest(path, frames: Sequence[FrameRecord], all_frames: Sequence[FrameRecord]) -> None:
    """Audit CSV of selected frames: index in the source interval plus timestamp."""
    index = {id(f): i for i, f in enumerate(all_frames)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "t"])
        for f in frames:
            writer.writerow([index.get(id(f), -1), repr(f.t)])
