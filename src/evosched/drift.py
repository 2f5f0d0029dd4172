"""Streaming data-drift detection from per-frame detection-confidence records.

The detector watches the product of classification and localization confidence
(CLC) through two sliding windows: a frozen reference window and a trailing
window.  A large relative drop marks the drift start t1; a temp window whose
sub-window means stop varying marks the drift end t2 and the trigger point t3.
"""
from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence


class DriftType(str, Enum):
    SUDDEN = "sudden"
    INCREMENTAL = "incremental"
    GRADUAL = "gradual"


@dataclass(frozen=True)
class Detection:
    category: int
    feature: tuple
    confidence: float = 1.0


@dataclass(frozen=True)
class FrameRecord:
    t: float
    cc: float
    lc: float
    pixel_diff: float
    detections: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.cc <= 1.0 or not 0.0 <= self.lc <= 1.0:
            raise ValueError("cc and lc must be in [0, 1]")
        if self.pixel_diff < 0:
            raise ValueError("pixel_diff must be non-negative")


@dataclass(frozen=True)
class DetectorConfig:
    window_frames: int = 90
    sub_windows: int = 3
    temp_window_frames: int = 90
    rod_threshold: float = 0.55
    variance_threshold: float = 0.045 ** 2
    tau: float = 90.0
    d0_factor: float = 0.2

    def __post_init__(self):
        if min(self.window_frames, self.sub_windows, self.temp_window_frames) <= 0:
            raise ValueError("window sizes must be positive")
        if self.rod_threshold <= 0 or self.variance_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if self.tau <= 0 or self.d0_factor <= 0:
            raise ValueError("tau and d0_factor must be positive")
        if self.temp_window_frames % self.sub_windows != 0:
            raise ValueError("sub_windows must divide temp_window_frames")


@dataclass(frozen=True)
class DriftEvent:
    t1: float
    t2: float
    t3: float
    drift_type: DriftType
    d: float
    d0: float

    def __post_init__(self):
        if not self.t1 <= self.t2 <= self.t3:
            raise ValueError("expected t1 <= t2 <= t3")


def clc(frame: FrameRecord) -> float:
    """Detection confidence: classification confidence times localization confidence."""
    return frame.cc * frame.lc


def rod(clc1: float, clc2: float) -> float:
    """Relative confidence drop between the reference and trailing windows."""
    if clc1 <= 0:
        raise ValueError("reference CLC must be positive")
    return (clc1 - clc2) / clc1


def distribution_distance(frames_a: Sequence[FrameRecord], frames_b: Sequence[FrameRecord]) -> float:
    """Absolute difference of the mean per-frame pixel difference of two frame sets."""
    if not frames_a or not frames_b:
        raise ValueError("frame sets must be non-empty")
    mean_a = sum(f.pixel_diff for f in frames_a) / len(frames_a)
    mean_b = sum(f.pixel_diff for f in frames_b) / len(frames_b)
    return abs(mean_a - mean_b)


def classify_drift(t1: float, t2: float, d: float, d0: float, tau: float) -> DriftType:
    """Sudden if the transition is shorter than tau, otherwise split on the
    distance between the early transition data and the historical distribution."""
    if t2 < t1:
        raise ValueError("t2 must not precede t1")
    if d < 0 or d0 < 0:
        raise ValueError("distances must be non-negative")
    if t2 - t1 < tau:
        return DriftType.SUDDEN
    return DriftType.INCREMENTAL if d > d0 else DriftType.GRADUAL


class DriftDetector:
    """Stateful per-end drift detector over a time-ordered frame stream.

    ``update`` returns a :class:`DriftEvent` when a full drift episode has been
    observed, and ``None`` otherwise.  After emitting, the reference window is
    re-anchored at t3 so consecutive drifts are detected independently.
    """

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()
        self._reset()

    def _reset(self):
        self._ref: list[FrameRecord] = []
        self._ref_mean = 0.0
        self._win2: deque = deque(maxlen=self.config.window_frames)
        self._win2_sum = 0.0
        self._drifting = False
        self._t1 = 0.0
        self._since_t1: list[FrameRecord] = []
        self._clc_prefix: list[float] = [0.0]  # prefix sums of CLC over _since_t1
        self._last_t = None

    def update(self, frame: FrameRecord) -> Optional[DriftEvent]:
        cfg = self.config
        if self._last_t is not None and frame.t <= self._last_t:
            raise ValueError("frames must arrive in strictly increasing time order")
        self._last_t = frame.t
        value = clc(frame)

        if not self._drifting:
            if len(self._ref) < cfg.window_frames:
                # Both windows start at the same position; win1 freezes once full.
                self._ref.append(frame)
                if len(self._ref) == cfg.window_frames:
                    self._ref_mean = sum(clc(f) for f in self._ref) / len(self._ref)
                return None
            if len(self._win2) == self._win2.maxlen:
                self._win2_sum -= clc(self._win2[0])
            self._win2.append(frame)
            self._win2_sum += value
            if len(self._win2) < cfg.window_frames:
                return None
            mean2 = self._win2_sum / len(self._win2)
            if self._ref_mean > 0 and rod(self._ref_mean, mean2) >= cfg.rod_threshold:
                self._drifting = True
                self._t1 = frame.t
                self._since_t1 = [frame]
                self._clc_prefix = [0.0, value]
            return None

        self._since_t1.append(frame)
        self._clc_prefix.append(self._clc_prefix[-1] + value)
        n = len(self._since_t1)
        if n < cfg.temp_window_frames:
            return None
        start = n - cfg.temp_window_frames
        sub = cfg.temp_window_frames // cfg.sub_windows
        prefix = self._clc_prefix
        means = []
        for i in range(cfg.sub_windows):
            a = start + i * sub
            means.append((prefix[a + sub] - prefix[a]) / sub)
        grand = sum(means) / len(means)
        variance = sum((m - grand) ** 2 for m in means) / len(means)
        if variance >= cfg.variance_threshold:
            return None
        return self._emit(self._since_t1[start:])

    def _emit(self, temp: list) -> DriftEvent:
        cfg = self.config
        t1 = self._t1
        t2 = temp[0].t
        t3 = temp[-1].t
        half_end = (t1 + t2) / 2.0
        first_half = [f for f in self._since_t1 if f.t <= half_end] or self._since_t1[:1]
        d = distribution_distance(first_half, self._ref)
        d0 = cfg.d0_factor * distribution_distance(self._ref, temp)
        event = DriftEvent(
            t1=t1, t2=t2, t3=t3,
            drift_type=classify_drift(t1, t2, d, d0, cfg.tau),
            d=d, d0=d0,
        )
        last_t = self._last_t
        self._reset()
        self._last_t = last_t
        return event


# --- trace CSV format -------------------------------------------------------
#
# Header: t,cc,lc,pixel_diff,n_det, then per detection: category,f0,...,f{D-1}.
# The feature dimension is constant within a trace; the frame rate is declared
# in the scenario configuration, not in the file.

TRACE_FIXED_COLUMNS = ["t", "cc", "lc", "pixel_diff", "n_det"]


def write_trace_csv(path, frames: Iterable[FrameRecord]) -> None:
    frames = list(frames)
    dim = 0
    for f in frames:
        if f.detections:
            dim = len(f.detections[0].feature)
            break
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(TRACE_FIXED_COLUMNS)
        max_det = max((len(f.detections) for f in frames), default=0)
        for k in range(max_det):
            header.append(f"det{k}_category")
            header.extend(f"det{k}_f{i}" for i in range(dim))
        writer.writerow(header)
        for f in frames:
            row = [repr(f.t), repr(f.cc), repr(f.lc), repr(f.pixel_diff), len(f.detections)]
            for det in f.detections:
                row.append(det.category)
                row.extend(repr(x) for x in det.feature)
            writer.writerow(row)


def read_trace_csv(path) -> list:
    frames = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:5] != TRACE_FIXED_COLUMNS:
            raise ValueError(f"{path}: not a trace CSV (bad header)")
        dim = sum(1 for col in header if col.startswith("det0_f"))
        for lineno, row in enumerate(reader, start=2):
            try:
                t, cc, lc, pd = (float(x) for x in row[:4])
                n_det = int(row[4])
                dets = []
                pos = 5
                for _ in range(n_det):
                    cat = int(row[pos])
                    feat = tuple(float(x) for x in row[pos + 1:pos + 1 + dim])
                    if len(feat) != dim:
                        raise ValueError("truncated feature block")
                    dets.append(Detection(category=cat, feature=feat))
                    pos += 1 + dim
                frames.append(FrameRecord(t=t, cc=cc, lc=lc, pixel_diff=pd,
                                          detections=tuple(dets)))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row at line {lineno}: {exc}") from exc
    return frames
