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

from .core import check_numbers, ranged


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
    return (column.min(), column.max()) if column.size else (0.0, 0.0)


def _check_columns(t, cc, lc, pixel_diff, shape: Tuple[int, ...]) -> None:
    """The checks :class:`FrameRecord` makes and strictly increasing times,
    made once on the columns of one trace or of a block of traces over the
    times ``t``: ``cc``, ``lc`` and ``pixel_diff`` must be of ``shape``,
    one value per frame or one row of them per trace.  ValueError if not."""
    if t.shape != shape[-1:] or any(column.shape != shape for column in (cc, lc, pixel_diff)):
        raise ValueError("t, cc, lc and pixel_diff must hold one value per frame")
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


def _read_only(*columns: np.ndarray) -> None:
    for column in columns:
        column.flags.writeable = False


def _prefix(clc: np.ndarray) -> np.ndarray:
    """The cumulative sums of ``clc`` along its last axis from 0, read-only."""
    total = np.empty(clc.shape[:-1] + (clc.shape[-1] + 1,))
    total[..., 0] = 0.0
    np.cumsum(clc, axis=-1, out=total[..., 1:])
    total.flags.writeable = False
    return total


class FrameTrace(abc.Sequence):
    """A read-only, time-ordered frame sequence held as one array per field.

    ``t``, ``cc``, ``lc`` and ``pixel_diff`` hold one value per frame, and
    ``features[i, k]`` the feature vector of frame ``i``'s ``k``-th detection,
    whose category is ``categories[k]``.  ``features`` may be given as a
    function ``features(start, stop)`` that returns rows ``start`` to
    ``stop - 1`` of that array: a read calls it for the rows from the first
    not drawn yet to the last the read needs, so a trace draws its features
    only as far as it has been read, and each row once.  ``clc_sum`` is
    computed on its first read, or with the block for a trace of
    :meth:`block`.  Next to it the trace keeps the settles
    :func:`first_drift` finds in it (see there); a window keeps its own.
    The checks :class:`FrameRecord` makes, strictly increasing times, one
    value per frame in every column and one feature vector per frame and
    category are made once for the whole trace, or once for a whole block,
    the last on the rows as they are drawn.
    Indexing, slicing and iteration give :class:`FrameRecord` objects;
    compare ``list(trace)`` for equality by value.
    """

    def __init__(self, t, cc, lc, pixel_diff, features, categories: Tuple[int, ...]):
        _check_columns(t, cc, lc, pixel_diff, (len(t),))
        clc = cc * lc  # what clc() gives for each frame
        _read_only(t, cc, lc, pixel_diff, clc)
        self._fill(t, cc, lc, pixel_diff, clc, None, features, categories)

    @classmethod
    def block(cls, t, cc, lc, pixel_diff, features: Sequence,
              categories: Tuple[int, ...]) -> Tuple["FrameTrace", ...]:
        """One trace per row of ``cc``, ``lc`` and ``pixel_diff``, arrays of
        one row of frames per trace over the shared times ``t``: trace ``r``
        is ``FrameTrace(t, cc[r], lc[r], pixel_diff[r], features[r],
        categories)``, made with one check of the whole block, which rejects
        what a check of each trace would with the same message.  The CLC and
        its cumulative sum are computed for the block at once."""
        _check_columns(t, cc, lc, pixel_diff, (len(features), len(t)))
        clc = cc * lc
        clc_sum = _prefix(clc)
        _read_only(t, cc, lc, pixel_diff, clc)
        traces = []
        for r, draw in enumerate(features):
            trace = object.__new__(cls)
            trace._fill(t, cc[r], lc[r], pixel_diff[r], clc[r], clc_sum[r], draw, categories)
            traces.append(trace)
        return tuple(traces)

    def _fill(self, t, cc, lc, pixel_diff, clc, clc_sum, features, categories) -> None:
        """Set this trace's state from read-only columns that passed the
        checks: the one builder of a trace, a block's row and a window."""
        self.t, self.cc, self.lc, self.pixel_diff, self.clc = t, cc, lc, pixel_diff, clc
        self.categories = tuple(categories)
        self._clc_sum = clc_sum
        self._settles = {}  # (t1 frame, DetectorConfig) -> t3 frame or None
        if callable(features):
            self._draw, self._drawn = features, None
        else:
            self._draw, self._drawn = None, self._checked(features, len(t))

    @property
    def features(self) -> np.ndarray:
        return self._features_to(len(self))

    def _checked(self, rows: np.ndarray, count: int) -> np.ndarray:
        """``rows``, made read-only, if they are ``count`` frames' features."""
        if rows.ndim != 3 or rows.shape[:2] != (count, len(self.categories)):
            raise ValueError(f"features of shape {rows.shape} for {count} frames with "
                             f"{len(self.categories)} detections each")
        rows.flags.writeable = False
        return rows

    def _features_to(self, stop: int) -> np.ndarray:
        """The features of the first ``stop`` frames or more; the rows not
        drawn yet are drawn."""
        drawn = self._drawn
        if drawn is None or stop > len(drawn):
            have = 0 if drawn is None else len(drawn)
            more = self._checked(self._draw(have, stop), stop - have)
            self._drawn = more if drawn is None else np.concatenate((drawn, more))
            self._drawn.flags.writeable = False
        return self._drawn

    @property
    def clc_sum(self) -> np.ndarray:
        """The cumulative CLC: ``clc_sum[i]`` is ``clc[0] + ... + clc[i - 1]``,
        added left to right, so ``len(self) + 1`` values from 0."""
        if self._clc_sum is None:
            self._clc_sum = _prefix(self.clc)
        return self._clc_sum

    def window(self, lo: int, hi: int) -> "FrameTrace":
        """Frames ``lo`` to ``hi - 1``, bounded as a slice is, as a trace that
        needs no checks of its own.  Its columns are views of this trace's,
        and a read of its features draws this trace's only up to the last
        row read."""
        lo, hi, _ = slice(lo, hi).indices(len(self))
        sub = object.__new__(FrameTrace)
        columns = (self.t, self.cc, self.lc, self.pixel_diff, self.clc)
        sub._fill(*(column[lo:hi] for column in columns), None,  # views of read-only columns
                  lambda start, stop: self._features_to(lo + stop)[lo + start:lo + stop],
                  self.categories)
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
        picked = np.arange(len(self))[rows]
        features = self._features_to(int(picked.max(initial=-1)) + 1)[picked]
        records = []
        for t, cc, lc, px, feats in zip(
                self.t[rows].tolist(), self.cc[rows].tolist(), self.lc[rows].tolist(),
                self.pixel_diff[rows].tolist(), features.tolist()):
            dets = tuple(Detection(c, tuple(f)) for c, f in zip(self.categories, feats))
            records.append(FrameRecord(t, cc, lc, px, dets))
        return records


@dataclass(frozen=True)
class DetectorConfig:
    window_frames: int = ranged(90, lo=0, open_lo=True)
    sub_windows: int = ranged(3, lo=0, open_lo=True)
    temp_window_frames: int = ranged(90, lo=0, open_lo=True)
    rod_threshold: float = ranged(0.55, lo=0, open_lo=True)
    variance_threshold: float = ranged(0.045 ** 2, lo=0, open_lo=True)
    tau: float = ranged(90.0, lo=0, open_lo=True)
    d0_factor: float = ranged(0.2, lo=0, open_lo=True)

    def __post_init__(self):
        check_numbers(self)
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
        self._last_t = None  # kept across a reset: times increase over the whole stream
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
        self._reset()
        return event


_EPS = float(np.finfo(float).eps)


def first_drift(trace: FrameTrace, start: int,
                config: DetectorConfig) -> Optional[Tuple[int, DriftEvent]]:
    """The first event a fresh :class:`DriftDetector` emits when fed
    ``trace[start]``, ``trace[start + 1]``, ..., with the index of the frame
    that emits it; ``None`` if it emits none.

    A pre-test reads the trailing window's sums off ``trace.clc_sum`` and
    finds the frames where the rod test can hold: where the window's mean
    is at most (1 - ``rod_threshold``) times the exact reference mean, give
    or take a margin for rounding.  With no such frame the detector never
    drifts, and the answer is ``None`` without a scan.  Otherwise the
    detector's running sum, repeated float for float, is tested at those
    frames only, in order, and the first that passes is t1.  From t1 until
    its temp window settles the detector reads the CLC of the frames from t1
    on and nothing else: not the start frame, not its reference window, and
    not the policy of a simulation, which only picks the start.  So the
    settle :func:`_settle` finds from a t1 frame under a config, a block of
    rows at a time, or its finding that none comes before the trace ends,
    holds for every later call: ``trace`` keeps it, keyed by the t1 frame
    and the config, and a call that drifts at a kept frame reads it back
    without a search.  Only the event's d and d0 read the reference window.
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
    # The trailing sum at frame k taken from the cumulative sum and the
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
    t1_at = _first_drop(trace.clc, ref, ref_mean, can_drop, config)
    if t1_at is None:
        return None
    key = (t1_at, config)
    if key not in trace._settles:
        trace._settles[key] = _settle(trace.clc, t1_at, config)
    t3_at = trace._settles[key]
    if t3_at is None:
        return None
    return _event(trace, start, t1_at, t3_at + 1 - config.temp_window_frames, t3_at, config)


def _first_drop(v: np.ndarray, ref: int, ref_mean: float, can_drop: np.ndarray,
                cfg: DetectorConfig) -> Optional[int]:
    """The first frame at which a detector whose reference window ends at
    frame ``ref - 1``, with the positive mean ``ref_mean``, and whose
    trailing window follows it drifts: the first frame ``ref + w - 1 + i``
    with ``can_drop[i]`` that passes the exact rod test; ``None`` if none
    does.  The test runs at those frames only and stops at the first pass."""
    w = cfg.window_frames
    head = ref + w - 1  # the trailing window's first full frame
    # The trailing window's running sum, ``-= oldest`` then ``+= newest`` per
    # frame, is one strictly left-to-right accumulation, carried from one
    # tested frame to the next.
    steps, at, i = v[ref:head + 1], head, 0
    while i < len(can_drop):
        i += int(can_drop[i:].argmax())
        if not can_drop[i]:
            return None
        k = head + i
        run = np.empty(len(steps) + 2 * (k - at))
        run[:len(steps)] = steps
        run[len(steps)::2] = -v[at + 1 - w:k + 1 - w]
        run[len(steps) + 1::2] = v[at + 1:k + 1]
        np.add.accumulate(run, out=run)
        if (ref_mean - run[-1] / w) / ref_mean >= cfg.rod_threshold:
            return k
        steps, at, i = run[-1:], k, i + 1
    return None


def _settle(v: np.ndarray, t1_at: int, cfg: DetectorConfig) -> Optional[int]:
    """The frame at which a detector that drifted at frame ``t1_at`` of a
    trace with CLC values ``v`` sees its temp window settle, t3; ``None`` if
    it does not before the trace ends.  The rows, one per frame count since
    t1, are tested in blocks, a temp window's worth and then twice as many
    as the last, and each block reads the CLC from t1 on only as far as its
    last row needs, so that the search ends soon after the first settle."""
    temp, parts = cfg.temp_window_frames, cfg.sub_windows
    sub = temp // parts
    # With n frames since t1 (n >= 2, from the frame after t1 on), the temp
    # window's sub-window means are means[n - temp + i * sub], i < parts,
    # where means[j] = (prefix[j + sub] - prefix[j]) / sub is the mean of
    # the sub-window at offset j from the detector's prefix sums of CLC.
    first_n, rest = max(temp, 2), len(v) - t1_at
    # These sums run in another order than the detector's, which may call a
    # compensated sum, and numpy squares by multiplying where the detector
    # calls pow: they can differ from its values by a few ulps, or by about
    # (parts * eps) ** 2 near a variance of 0, as CLC means are at most 1.
    # Rows below the margin are candidates, and the detector's own
    # expression on Python floats decides.
    margin = cfg.variance_threshold * (1 + 1e-9) + (2 * parts * _EPS) ** 2
    n, size = first_n, temp  # the block's first row and its row count
    while n <= rest:
        last_n = min(rest, n + size - 1)
        prefix = np.zeros(last_n + 1)
        np.add.accumulate(v[t1_at:t1_at + last_n], out=prefix[1:])
        means = (prefix[sub:] - prefix[:-sub]) / sub
        # block[i, row]: sub-window i's mean at n + row; the last is means[-1].
        block = np.ndarray((parts, last_n - n + 1), buffer=means,
                           offset=(n - temp) * means.itemsize,
                           strides=(sub * means.itemsize, means.itemsize))
        deviation = block - np.add.reduce(block) / parts
        deviation *= deviation
        for row in (np.add.reduce(deviation) / parts < margin).nonzero()[0].tolist():
            window = means[n + row - temp:n + row:sub].tolist()
            grand = sum(window) / len(window)
            if sum((m - grand) ** 2 for m in window) / len(window) < cfg.variance_threshold:
                return t1_at + n + row - 1
        n, size = last_n + 1, 2 * size
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
    """``x`` written as the text the reader parses back to it: an integer
    (a bool is not one) as itself and, if ``real``, any number as the repr
    of the float it equals; ValueError naming record ``i`` for anything
    else, such as an integer no finite float equals."""
    integer = isinstance(x, _INTS) and not isinstance(x, bool)
    if not real and integer:
        return str(int(x))
    if real and (integer or isinstance(x, _FLOATS)):
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        # an int and a float compare exactly
        if math.isfinite(value) and (not integer or value == int(x)):
            return repr(value)
    raise ValueError(f"record {i}: {what} {x!r} is not "
                     + ("a finite real number a float holds exactly" if real else "an integer"))


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
