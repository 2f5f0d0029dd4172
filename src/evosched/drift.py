"""Streaming data-drift detection from per-frame detection-confidence records.

The detector watches the product of classification and localization confidence
(CLC) through two sliding windows: a frozen reference window and a trailing
window.  A large relative drop marks the drift start t1; a temp window whose
sub-window means stop varying marks the drift end t2 and the trigger point t3.
:class:`DriftDetector` takes one frame at a time; :func:`first_drift` finds
the same first event in a :class:`FrameTrace`, a trace held as arrays, with
array operations.
"""
from __future__ import annotations

import csv
import math
from collections import abc, deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import check_numbers


class DriftType(str, Enum):
    SUDDEN = "sudden"
    INCREMENTAL = "incremental"
    GRADUAL = "gradual"


@dataclass(frozen=True)
class Detection:
    category: int
    feature: tuple


@dataclass(frozen=True)
class FrameRecord:
    t: float
    cc: float
    lc: float
    pixel_diff: float
    detections: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not 0.0 <= self.cc <= 1.0 or not 0.0 <= self.lc <= 1.0:
            raise ValueError("cc and lc must be in [0, 1]")
        if not 0.0 <= self.pixel_diff < math.inf:
            raise ValueError("pixel_diff must be finite and non-negative")


def _span(column: np.ndarray) -> Tuple[float, float]:
    """The least and the greatest value of a column; 0 and 0 when it is empty."""
    return (column.min(), column.max()) if len(column) else (0.0, 0.0)


class FrameTrace(abc.Sequence):
    """A read-only, time-ordered frame sequence held as one array per field.

    ``t``, ``cc``, ``lc`` and ``pixel_diff`` hold one value per frame, and
    ``features[i, k]`` the feature vector of frame ``i``'s ``k``-th detection,
    whose category is ``categories[k]``.  ``features`` may be given as a
    function of no arguments that returns that array: it is called on the
    first read of ``features``, so a trace whose features are never read
    never computes them; ``clc_sum`` too is computed on its first read.  The
    checks :class:`FrameRecord` makes, and strictly increasing times, are
    made once for the whole trace.  Indexing, slicing and iteration give
    :class:`FrameRecord` objects; compare ``list(trace)`` for equality by
    value.
    """

    def __init__(self, t, cc, lc, pixel_diff, features, categories: Tuple[int, ...]):
        # A NaN makes a column's least and greatest value NaN, so it fails
        # every comparison below.
        lo, hi = _span(t)
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError("t must be finite")
        for column in (cc,) if lc is cc else (cc, lc):
            lo, hi = _span(column)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("cc and lc must be in [0, 1]")
        lo, hi = _span(pixel_diff)
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError("pixel_diff must be finite and non-negative")
        if not (np.diff(t) > 0).all():
            raise ValueError("frames must arrive in strictly increasing time order")
        self.t, self.cc, self.lc, self.pixel_diff = t, cc, lc, pixel_diff
        self.clc = cc * lc  # what clc() gives for each frame
        self.categories = tuple(categories)
        self._features = features
        self._clc_sum = None
        for column in (t, cc, lc, pixel_diff, self.clc):
            column.flags.writeable = False
        if not callable(features):
            features.flags.writeable = False

    @property
    def features(self) -> np.ndarray:
        if callable(self._features):
            self._features = self._features()
            self._features.flags.writeable = False
        return self._features

    @property
    def clc_sum(self) -> np.ndarray:
        """The cumulative CLC: ``clc_sum[i]`` is ``clc[0] + ... + clc[i - 1]``,
        added left to right, so ``len(self) + 1`` values from 0."""
        if self._clc_sum is None:
            total = np.empty(len(self.clc) + 1)
            total[0] = 0.0
            np.cumsum(self.clc, out=total[1:])
            total.flags.writeable = False
            self._clc_sum = total
        return self._clc_sum

    def take(self, rows) -> "FrameTrace":
        """The frames at ``rows``, a slice with a positive step or strictly
        increasing indices, as a trace that needs no checks of its own.  The
        features are copied from this trace on their first read."""
        if isinstance(rows, slice):
            if rows.step is not None and rows.step <= 0:
                raise ValueError("a slice of frames needs a positive step")
        else:
            rows = np.asarray(rows, dtype=np.intp)
            if len(rows) and (rows[0] < 0 or not (np.diff(rows) > 0).all()):
                raise ValueError("frame indices must be non-negative and increasing")
            if len(rows) and rows[-1] >= len(self):
                raise IndexError("frame index out of range")
        sub = object.__new__(FrameTrace)
        for name in ("t", "cc", "lc", "pixel_diff", "clc"):
            column = getattr(self, name)[rows]
            column.flags.writeable = False
            setattr(sub, name, column)
        sub.categories = self.categories
        sub._features = lambda: self.features[rows]
        sub._clc_sum = None
        return sub

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(index)
        if not -len(self) <= index < len(self):
            raise IndexError("frame index out of range")
        index %= len(self)
        return self._records(slice(index, index + 1))[0]

    def __iter__(self):
        return iter(self._records(slice(None)))

    def _records(self, rows: slice) -> List[FrameRecord]:
        records = []
        for t, cc, lc, px, feats in zip(
                self.t[rows].tolist(), self.cc[rows].tolist(), self.lc[rows].tolist(),
                self.pixel_diff[rows].tolist(), self.features[rows].tolist()):
            dets = tuple(Detection(c, tuple(f)) for c, f in zip(self.categories, feats))
            records.append(FrameRecord(t, cc, lc, px, dets))
        return records


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
        check_numbers(self)
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
    return _mean_gap([f.pixel_diff for f in frames_a], [f.pixel_diff for f in frames_b])


def _mean_gap(a: List[float], b: List[float]) -> float:
    return abs(sum(a) / len(a) - sum(b) / len(b))


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


_EPS = float(np.finfo(float).eps)


def first_drift(trace: FrameTrace, start: int,
                config: DetectorConfig) -> Optional[Tuple[int, DriftEvent]]:
    """The first event a fresh :class:`DriftDetector` emits when fed
    ``trace[start]``, ``trace[start + 1]``, ..., with the index of the frame
    that emits it; ``None`` if it emits none.

    A pre-test reads the trailing window's sums off ``trace.clc_sum`` and
    finds the first frame where the rod test can hold: where the window's
    mean is at most (1 - ``rod_threshold``) times the exact reference mean,
    give or take a margin for rounding.  With no such frame the detector
    never drifts, and the answer is ``None`` without a scan.  Otherwise an
    exact scan repeats the detector's arithmetic float for float over the
    frames up to that one and ``4 * (window + temp)`` more; an event depends
    on the frames up to its own only, so only while the temp window has not
    settled within that span is the span doubled and scanned again.  The
    exact scan alone decides.
    """
    if start < 0:
        raise ValueError("start must be a frame index")
    w, n = config.window_frames, len(trace)
    ref = start + w  # the reference window is frames start .. ref - 1
    if n - ref < w:
        return None
    ref_mean = sum(trace.clc[start:ref].tolist()) / w
    if ref_mean <= 0:
        return None
    # The trailing sum at frame k taken from the cumulative sum and the scan's
    # running sum each add at most 2 * (n + w) CLC values in [0, 1], and each
    # addition rounds by at most eps / 2 times a partial sum of at most
    # n + w: both are within eps * (n + w) ** 2 of the true sum.  The rod
    # test's subtraction and division, and this bound, round by less than
    # 4 * eps * w * (1 + rod_threshold) more.  The margin covers both, the
    # first twice over, so every frame that passes the exact test passes
    # this one.
    thr = config.rod_threshold
    margin = 4 * _EPS * ((n + w) ** 2 + w * (1 + thr))
    cum = trace.clc_sum
    # frames k - w + 1 .. k for k = ref + w - 1, ..., n - 1
    can_drop = cum[ref + w:] - cum[ref:n + 1 - w] <= w * (1 - thr) * ref_mean + margin
    first = int(can_drop.argmax())
    if not can_drop[first]:
        return None
    stop = ref + w + first + 4 * (w + config.temp_window_frames)
    while True:
        stop = min(n, stop)
        found = _scan(trace, start, stop, ref_mean, config)
        if found is not None or stop == n:
            return found
        stop = start + 2 * (stop - start)


def _scan(trace: FrameTrace, start: int, stop: int, ref_mean: float,
          cfg: DetectorConfig) -> Optional[Tuple[int, DriftEvent]]:
    """:func:`first_drift` over frames ``start`` to ``stop - 1`` only, for a
    positive reference mean ``ref_mean`` and ``stop >= start + 2 * window``."""
    w = cfg.window_frames
    v = trace.clc
    ref = start + w
    # The trailing window's running sum, ``-= oldest`` then ``+= newest`` per
    # frame, is one strictly left-to-right accumulation.
    old, new = v[ref:stop - w], v[ref + w:stop]
    steps = np.empty(w + 2 * len(new))
    steps[:w] = v[ref:ref + w]
    steps[w::2] = -old
    steps[w + 1::2] = new
    mean2 = np.add.accumulate(steps)[w - 1::2] / w  # at frames ref + w - 1 ...
    dropped = ((ref_mean - mean2) / ref_mean >= cfg.rod_threshold).nonzero()[0]
    if not len(dropped):
        return None
    t1_at = ref + w - 1 + int(dropped[0])

    # The detector's prefix sums of CLC from t1 on, and the mean of the
    # sub-window at each offset j: (prefix[j + sub] - prefix[j]) / sub.
    temp, parts = cfg.temp_window_frames, cfg.sub_windows
    sub = temp // parts
    # With n frames since t1 (n >= 2, from the frame after t1 on), the temp
    # window's sub-window means are means[n - temp + i * sub], i < parts.
    first_n, last_n = max(temp, 2), stop - t1_at
    if last_n < first_n:
        return None
    prefix = np.add.accumulate(np.concatenate(([0.0], v[t1_at:stop])))
    means = (prefix[sub:] - prefix[:-sub]) / sub
    # Sub-window i's mean at every n from first_n to last_n.
    count = last_n - first_n + 1
    rows = [means[a:a + count] for a in range(first_n - temp, first_n, sub)]
    grand = sum(rows) / parts
    variance = sum((row - grand) ** 2 for row in rows) / parts
    # These sums run in another order than the detector's, which may call a
    # compensated sum, and numpy squares by multiplying where the detector
    # calls pow: they can differ from its values by a few ulps, or by about
    # (parts * eps) ** 2 near a variance of 0, as CLC means are at most 1.
    # Frames below the margin are candidates, and the detector's own
    # expression on Python floats decides.
    margin = cfg.variance_threshold * (1 + 1e-9) + (2 * parts * _EPS) ** 2
    for row in (variance < margin).nonzero()[0].tolist():
        n = first_n + row
        window = means[n - temp:n:sub].tolist()
        grand_n = sum(window) / len(window)
        if sum((m - grand_n) ** 2 for m in window) / len(window) < cfg.variance_threshold:
            return _event(trace, start, t1_at, t1_at + n - temp, t1_at + n - 1, cfg)
    return None


def _event(trace: FrameTrace, start: int, t1_at: int, t2_at: int, t3_at: int,
           cfg: DetectorConfig) -> Tuple[int, DriftEvent]:
    """``DriftDetector._emit`` for a reference window of frames from
    ``start`` on and the frames from ``t1_at`` to ``t3_at``."""
    t, pixel = trace.t, trace.pixel_diff
    t1, t2, t3 = float(t[t1_at]), float(t[t2_at]), float(t[t3_at])
    half_end = (t1 + t2) / 2.0
    first_half = max(1, int(np.searchsorted(t[t1_at:t3_at + 1], half_end, side="right")))
    ref = pixel[start:start + cfg.window_frames].tolist()
    d = _mean_gap(pixel[t1_at:t1_at + first_half].tolist(), ref)
    d0 = cfg.d0_factor * _mean_gap(ref, pixel[t2_at:t3_at + 1].tolist())
    return t3_at, DriftEvent(t1=t1, t2=t2, t3=t3,
                             drift_type=classify_drift(t1, t2, d, d0, cfg.tau),
                             d=d, d0=d0)


# --- trace CSV format -------------------------------------------------------
#
# Header: t,cc,lc,pixel_diff,n_det, then per detection: category,f0,...,f{D-1}.
# The feature dimension is constant within a trace; the frame rate is declared
# in the scenario configuration, not in the file.

TRACE_FIXED_COLUMNS = ["t", "cc", "lc", "pixel_diff", "n_det"]


_INTS = (int, np.integer)
_FLOATS = (float, np.float16, np.float32)  # np.float64 is a float


def _text(x, what: str, i: int, real: bool = True) -> str:
    """``x`` written as the Python number it equals, the text the reader
    parses; ValueError naming record ``i`` unless ``x`` is an integer (a
    bool is not one) or, if ``real``, a finite float."""
    if isinstance(x, _INTS) and not isinstance(x, bool):
        return str(int(x))
    if real and isinstance(x, _FLOATS) and math.isfinite(x):
        return repr(float(x))
    raise ValueError(f"record {i}: {what} {x!r} is not "
                     + ("a finite real number" if real else "an integer"))


def write_trace_csv(path, frames: Iterable[FrameRecord]) -> None:
    """Write ``frames`` to ``path``; ValueError naming the record, before the file
    is opened, for a time that does not increase, a category that is not an
    integer, a field or feature that is not a finite real number, or features
    of two lengths."""
    rows, dims, last_t = [], set(), -math.inf
    for i, f in enumerate(frames):
        row = [_text(x, name, i)
               for name, x in zip(TRACE_FIXED_COLUMNS, (f.t, f.cc, f.lc, f.pixel_diff))]
        if not f.t > last_t:
            raise ValueError(f"record {i}: t {f.t!r} does not exceed the previous record's {last_t!r}")
        last_t = f.t
        row.append(len(f.detections))
        for det in f.detections:
            dims.add(len(det.feature))
            row.append(_text(det.category, "category", i, real=False))
            row.extend(_text(x, "feature", i) for x in det.feature)
        if len(dims) > 1:
            raise ValueError(f"record {i}: features of lengths {sorted(dims)} in one trace")
        rows.append(row)
    dim = dims.pop() if dims else 0
    header = list(TRACE_FIXED_COLUMNS)
    for k in range(max((row[4] for row in rows), default=0)):
        header.append(f"det{k}_category")
        header.extend(f"det{k}_f{j}" for j in range(dim))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
                if frames and t <= frames[-1].t:
                    raise ValueError(f"t {t!r} does not exceed the previous row's "
                                     f"{frames[-1].t!r}")
                n_det = int(row[4])
                if n_det < 0 or len(row) != 5 + n_det * (1 + dim):
                    raise ValueError(f"n_det {n_det} does not fit the row's {len(row)} fields "
                                     f"(5, then {1 + dim} per detection)")
                dets = []
                pos = 5
                for _ in range(n_det):
                    cat = int(row[pos])
                    feat = tuple(float(x) for x in row[pos + 1:pos + 1 + dim])
                    dets.append(Detection(category=cat, feature=feat))
                    pos += 1 + dim
                frames.append(FrameRecord(t=t, cc=cc, lc=lc, pixel_diff=pd,
                                          detections=tuple(dets)))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row at line {lineno}: {exc}") from exc
    return frames
