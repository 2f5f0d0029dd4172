import functools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosched import drift
from evosched.drift import (
    Detection,
    DetectorConfig,
    DriftDetector,
    DriftType,
    FrameRecord,
    FrameTrace,
    classify_drift,
    clc,
    distribution_distance,
    first_drift,
    read_trace_csv,
    rod,
    write_trace_csv,
)


def frame(t, value, pixel=1000.0, dets=()):
    root = math.sqrt(value)
    return FrameRecord(t=t, cc=root, lc=root, pixel_diff=pixel, detections=dets)


def step_trace(n=400, step_at=200, hi=0.8, lo=0.3, pixel_hi=5000.0,
               pixel_lo=1000.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n):
        t = float(i + 1)
        v = hi if t < step_at else lo
        p = pixel_lo if t < step_at else pixel_hi
        if noise:
            v = min(1.0, max(1e-3, v + rng.normal(0, noise)))
        frames.append(frame(t, v, p))
    return frames


SMALL_CFG = DetectorConfig(window_frames=30, sub_windows=3, temp_window_frames=60,
                           rod_threshold=0.25, variance_threshold=1e-4, tau=90.0)


class TestPrimitives:
    def test_clc_product(self):
        f = FrameRecord(t=0.0, cc=0.9, lc=0.8, pixel_diff=0.0)
        assert clc(f) == pytest.approx(0.72)

    def test_clc_identity_and_zero(self):
        assert clc(FrameRecord(t=0, cc=1.0, lc=1.0, pixel_diff=0)) == 1.0
        assert clc(FrameRecord(t=0, cc=0.5, lc=0.0, pixel_diff=0)) == 0.0

    def test_rod(self):
        assert rod(0.8, 0.4) == pytest.approx(0.5)
        assert rod(0.8, 0.8) == 0.0
        with pytest.raises(ValueError):
            rod(0.0, 0.4)

    def test_distribution_distance(self):
        a = [frame(1, 0.5, 10.0), frame(2, 0.5, 10.0)]
        b = [frame(3, 0.5, 14.0), frame(4, 0.5, 14.0)]
        assert distribution_distance(a, a) == 0.0
        assert distribution_distance(a, b) == pytest.approx(4.0)
        assert distribution_distance(b, a) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            distribution_distance([], a)


class TestClassifyDrift:
    def test_short_transition_is_sudden(self):
        assert classify_drift(0, 30, 0.5, 0.2, 90.0) is DriftType.SUDDEN

    def test_long_with_large_d_is_incremental(self):
        assert classify_drift(0, 120, 0.5, 0.2, 90.0) is DriftType.INCREMENTAL

    def test_long_with_small_d_is_gradual(self):
        assert classify_drift(0, 120, 0.1, 0.2, 90.0) is DriftType.GRADUAL

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify_drift(10, 5, 0.1, 0.2, 90.0)
        with pytest.raises(ValueError):
            classify_drift(0, 5, -0.1, 0.2, 90.0)


class TestDetector:
    def test_constant_trace_no_event(self):
        det = DriftDetector(SMALL_CFG)
        for f in step_trace(n=500, step_at=10_000):
            assert det.update(f) is None

    def test_step_trace_sudden(self):
        det = DriftDetector(SMALL_CFG)
        events = [e for f in step_trace() if (e := det.update(f))]
        assert len(events) == 1
        ev = events[0]
        assert ev.drift_type is DriftType.SUDDEN
        assert abs(ev.t1 - 200.0) <= SMALL_CFG.window_frames
        assert ev.t1 <= ev.t2 <= ev.t3

    def test_temp_window_span(self):
        det = DriftDetector(SMALL_CFG)
        events = [e for f in step_trace() if (e := det.update(f))]
        # t3 - t2 covers temp_window_frames frames at 1 fps
        assert events[0].t3 - events[0].t2 == pytest.approx(
            SMALL_CFG.temp_window_frames - 1)

    def test_ramp_trace_not_sudden(self):
        frames = []
        for i in range(800):
            t = float(i + 1)
            if t < 100:
                v = 0.8
                p = 1000.0
            elif t < 400:
                v = 0.8 - 0.5 * (t - 100) / 300.0
                p = 1000.0 + 4000.0 * min(1.0, (t - 100) / 100.0)
            else:
                v = 0.3
                p = 5000.0
            frames.append(frame(t, v, p))
        det = DriftDetector(SMALL_CFG)
        events = [e for f in frames if (e := det.update(f))]
        assert len(events) == 1
        assert events[0].t2 - events[0].t1 >= SMALL_CFG.tau
        assert events[0].drift_type in (DriftType.INCREMENTAL, DriftType.GRADUAL)

    def test_determinism(self):
        trace = step_trace(noise=0.01, seed=3)
        runs = []
        for _ in range(2):
            det = DriftDetector(SMALL_CFG)
            runs.append([e for f in trace if (e := det.update(f))])
        assert runs[0] == runs[1]

    def test_reanchors_after_event(self):
        # Second drop must go below the re-anchored (post-drift) reference
        # level, since the rebuilt win1 freezes at the drifted distribution.
        frames = []
        for i in range(1200):
            t = float(i + 1)
            if t < 200:
                v, p = 0.8, 1000.0
            elif t < 700:
                v, p = 0.4, 5000.0
            else:
                v, p = 0.15, 9000.0
            frames.append(frame(t, v, p))
        det = DriftDetector(SMALL_CFG)
        events = [e for f in frames if (e := det.update(f))]
        assert len(events) == 2

    def test_out_of_order_rejected(self):
        det = DriftDetector(SMALL_CFG)
        det.update(frame(1.0, 0.8))
        with pytest.raises(ValueError):
            det.update(frame(1.0, 0.8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(sub_windows=7, temp_window_frames=90)
        with pytest.raises(ValueError):
            DetectorConfig(rod_threshold=0.0)
        for field in ("rod_threshold", "variance_threshold", "tau", "d0_factor"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=field):
                    DetectorConfig(**{field: value})


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        dets = (Detection(category=1, feature=(0.5, 1.5)),
                Detection(category=0, feature=(2.5, 3.5)))
        frames = [frame(1.0, 0.8, 1234.5, dets), frame(2.0, 0.7, 999.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, frames)
        back = read_trace_csv(path)
        assert back == frames

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_trace_csv(path, [frame(1.0, 0.8)])
        with open(path, "a") as fh:
            fh.write("not,a,valid,row,x\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", [
        "3.0,0.9,0.9,10,-1,0,0.5,7",      # a negative count of detections
        "3.0,0.9,0.9,10,0,1,0.5,7",       # fields past the declared detections
        "3.0,0.9,0.9,10,1,1,0.5,7,0,2",   # part of a second detection
        "3.0,0.9,0.9,10,2,1,0.5,7",       # a declared detection missing
    ])
    def test_row_fields_must_match_n_det(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        dets = (Detection(category=1, feature=(0.5, 1.5)),)
        write_trace_csv(path, [frame(1.0, 0.8, 10.0, dets), frame(2.0, 0.8)])
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=r"bad\.csv: malformed row at line 4: n_det"):
            read_trace_csv(path)

    def test_writer_rejects_mixed_feature_lengths(self, tmp_path):
        path = tmp_path / "bad.csv"
        frames = [frame(1.0, 0.8, 10.0, (Detection(category=0, feature=(1.0,)),)),
                  frame(2.0, 0.8, 10.0, (Detection(category=0, feature=(1.0, 2.0)),))]
        with pytest.raises(ValueError, match=r"record 1: features of lengths \[1, 2\]"):
            write_trace_csv(path, frames)
        assert not path.exists()

    def test_writer_rejects_times_that_do_not_increase(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="record 2: t 2.0 does not exceed"):
            write_trace_csv(path, [frame(1.0, 0.8), frame(2.0, 0.8), frame(2.0, 0.7)])
        assert not path.exists()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_numpy_scalars_written_as_numbers(self, tmp_path):
        dets = (Detection(category=np.int64(1), feature=(np.float64(0.5), np.float64(1.5))),)
        frames = [FrameRecord(t=np.float64(1.0), cc=np.float64(0.5), lc=np.float64(0.25),
                              pixel_diff=np.float64(10.0), detections=dets)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, frames)
        assert path.read_text().splitlines()[1] == "1.0,0.5,0.25,10.0,1,1,0.5,1.5"
        assert read_trace_csv(path) == frames

    def test_float32_feature_written_as_the_float_it_equals(self, tmp_path):
        feature = (np.float32(0.1), np.float32(2.0))
        frames = [frame(1.0, 0.8, 10.0, (Detection(category=0, feature=feature),))]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, frames)
        assert path.read_text().splitlines()[1].endswith(",0,0.10000000149011612,2.0")
        assert read_trace_csv(path) == frames

    @pytest.mark.parametrize("category", [1.5, 1.0, True, "x"])
    def test_writer_rejects_category_not_an_integer(self, tmp_path, category):
        path = tmp_path / "bad.csv"
        frames = [frame(1.0, 0.8),
                  frame(2.0, 0.8, 10.0, (Detection(category=category, feature=(0.5,)),))]
        with pytest.raises(ValueError, match=rf"record 1: category {category!r} is not an integer"):
            write_trace_csv(path, frames)
        assert not path.exists()

    def test_integers_written_as_the_float_they_equal(self, tmp_path):
        dets = (Detection(category=np.int64(2), feature=(3, np.int64(-2 ** 53))),)
        frames = [FrameRecord(t=1, cc=0, lc=1, pixel_diff=np.uint8(7), detections=dets)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, frames)
        assert path.read_text().splitlines()[1] == "1.0,0.0,1.0,7.0,1,2,3.0,-9007199254740992.0"
        assert read_trace_csv(path) == frames

    @pytest.mark.parametrize("value", [2 ** 53 + 1, np.int64(-2 ** 53 - 1),
                                       np.uint64(2 ** 64 - 1)])
    def test_writer_rejects_feature_integer_no_float_equals(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        frames = [frame(1.0, 0.8, 10.0, (Detection(category=0, feature=(0.5, value)),))]
        with pytest.raises(ValueError, match=rf"record 0: feature {re.escape(repr(value))} is not a finite real"):
            write_trace_csv(path, frames)
        assert not path.exists()

    def test_writer_rejects_pixel_diff_beyond_float_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="record 1: pixel_diff 1000+ is not a finite real"):
            write_trace_csv(path, [frame(1.0, 0.8), frame(2.0, 0.8, 10 ** 400)])
        assert not path.exists()

    @pytest.mark.parametrize("value", [True, "a"])
    def test_writer_rejects_feature_not_a_real_number(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        frames = [frame(1.0, 0.8, 10.0, (Detection(category=0, feature=(0.5, value)),))]
        with pytest.raises(ValueError, match=rf"record 0: feature {value!r} is not a finite real"):
            write_trace_csv(path, frames)
        assert not path.exists()


def _numbers(values):
    """``values`` as Python floats, numpy float64 and float32 scalars, and, for
    whole values, Python and numpy ints; every kind reads back equal."""
    kinds = [float, np.float64, np.float32]
    return values.flatmap(lambda v: st.sampled_from(
        kinds + [int, np.int64] if v == int(v) else kinds).map(lambda kind: kind(v)))


def _integers(signed=True):
    """Python ints of up to 1,100 bits and numpy int64s, each with whether no
    float equals it, so that the writer must reject it in a real field."""
    def no_float_equals(n):
        try:
            return float(n) != int(n)
        except OverflowError:
            return True

    bits = st.integers(0, 64) | st.sampled_from([1023, 1024, 1100])
    python = bits.flatmap(lambda b: st.integers(-2 ** b if signed else 0, 2 ** b))
    int64 = st.integers(-2 ** 63 if signed else 0, 2 ** 63 - 1).map(np.int64)
    return (python | int64).map(lambda n: (n, no_float_equals(n)))


# not numbers the reader parses back; each must make the writer raise
_BAD_CATEGORIES = (1.5, 1.0, True, "x", np.float64(2.0), np.bool_(True))
_BAD_FEATURES = (True, "a", np.bool_(False), math.nan, math.inf)


@st.composite
def _trace_records(draw):
    """Up to six records of Python and numpy scalars, 0 to 3 detections a
    frame and one feature length, and whether some category or feature is
    one of the bad values above."""
    unit = _numbers(st.floats(0.0, 1.0))
    dim, t, frames, bad = draw(st.integers(0, 3)), 0.0, [], False
    for _ in range(draw(st.integers(0, 6))):
        t += draw(st.floats(0.5, 10.0))
        dets = []
        for _ in range(draw(st.integers(0, 3))):
            category, bad_category = draw(st.one_of(
                st.integers().map(lambda c: (c, False)),
                st.integers(-2 ** 63, 2 ** 63 - 1).map(lambda c: (np.int64(c), False)),
                st.sampled_from(_BAD_CATEGORIES).map(lambda c: (c, True))))
            feature = draw(st.lists(st.one_of(
                _numbers(st.floats(-1e6, 1e6) | st.integers(-2 ** 20, 2 ** 20).map(float))
                .map(lambda x: (x, False)),
                _integers(),
                st.sampled_from(_BAD_FEATURES).map(lambda x: (x, True))),
                min_size=dim, max_size=dim))
            bad = bad or bad_category or any(b for _, b in feature)
            dets.append(Detection(category=category, feature=tuple(x for x, _ in feature)))
        pixel, bad_pixel = draw(_numbers(st.floats(0.0, 1e6)).map(lambda x: (x, False))
                                | _integers(signed=False))
        bad = bad or bad_pixel
        frames.append(FrameRecord(t=draw(_numbers(st.just(t))), cc=draw(unit), lc=draw(unit),
                                  pixel_diff=pixel, detections=tuple(dets)))
    return frames, bad


@settings(max_examples=300, deadline=None)
@given(case=_trace_records())
def test_trace_csv_reads_back_what_it_accepts(case, tmp_path_factory):
    frames, bad = case
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    if bad:
        with pytest.raises(ValueError, match=r"record \d+: (category|feature|pixel_diff) "):
            write_trace_csv(path, frames)
        assert not path.exists()
    else:
        write_trace_csv(path, frames)
        assert read_trace_csv(path) == frames


# --- the columnar trace and the array scan -------------------------------------

def columnar(t, cc, lc, pixel):
    t, cc, lc, pixel = (np.asarray(x, dtype=float) for x in (t, cc, lc, pixel))
    return FrameTrace(t=t, cc=cc, lc=lc, pixel_diff=pixel,
                      features=np.zeros((len(t), 1, 2)), categories=(3,))


class TestFrameTrace:
    def test_records_match_columns(self):
        trace = FrameTrace(t=np.array([1.0, 2.0, 3.0]), cc=np.array([0.5, 0.6, 0.7]),
                           lc=np.array([0.9, 0.8, 0.7]), pixel_diff=np.array([1.0, 2.0, 3.0]),
                           features=np.arange(12.0).reshape(3, 2, 2), categories=(0, 1))
        want = [FrameRecord(t=float(i + 1), cc=cc, lc=lc, pixel_diff=float(i + 1), detections=(
                    Detection(category=0, feature=(4.0 * i, 4.0 * i + 1)),
                    Detection(category=1, feature=(4.0 * i + 2, 4.0 * i + 3))))
                for i, (cc, lc) in enumerate([(0.5, 0.9), (0.6, 0.8), (0.7, 0.7)])]
        assert len(trace) == 3
        assert list(trace) == want and [repr(f) for f in trace] == [repr(f) for f in want]
        assert trace[1] == want[1] and trace[-1] == want[2]
        assert trace[1:] == want[1:] and trace[::-2] == want[::-2]
        assert list(trace.clc) == [clc(f) for f in want]
        with pytest.raises(IndexError):
            trace[3]
        with pytest.raises(ValueError):
            trace.t[0] = 5.0

    def test_features_drawn_on_first_read(self):
        eager = np.arange(24.0).reshape(4, 3, 2)
        calls = []

        def draw(start, stop):
            calls.append((start, stop))
            return eager[start:stop].copy()

        cols = dict(t=np.array([1.0, 2.0, 4.0, 8.0]), cc=np.full(4, 0.5), lc=np.full(4, 0.6),
                    pixel_diff=np.arange(4.0), categories=(0, 1, 1))
        lazy = FrameTrace(features=draw, **cols)
        window = lazy.window(0, 3)
        assert len(lazy) == 4 and list(window.t[::2]) == [1.0, 4.0] and not calls
        # reading the features of a part draws the trace's up to the part's last frame
        assert window[::2] == list(FrameTrace(features=eager, **cols))[0:3:2]
        assert calls == [(0, 3)]
        assert window.features.tobytes() == eager[:3].tobytes() and calls == [(0, 3)]
        # a later read draws only the frames not drawn yet
        features = lazy.features
        assert calls == [(0, 3), (3, 4)] and features.tobytes() == eager.tobytes()
        assert lazy.features is features and not features.flags.writeable
        assert lazy[1:3] == list(FrameTrace(features=eager.copy(), **cols))[1:3]
        assert len(calls) == 2
        with pytest.raises(AttributeError):
            lazy.features = eager

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 12), lo=st.integers(-15, 15), hi=st.integers(-15, 15),
           lazy=st.booleans(), read=st.integers(0, 11), seed=st.integers(0, 2**32 - 1))
    def test_window_is_a_view_of_its_rows(self, n, lo, hi, lazy, read, seed):
        """A window gives the records of the same slice of the trace, bounded
        as a slice is, over read-only views of its columns; a read of a
        window of a lazy trace draws the trace's features only up to the
        last row read."""
        rng = np.random.default_rng(seed)
        cols = dict(t=np.cumsum(rng.uniform(0.1, 1.0, n)), cc=rng.uniform(0.0, 1.0, n),
                    lc=rng.uniform(0.0, 1.0, n), pixel_diff=rng.uniform(0.0, 9.0, n),
                    categories=(4, 5))
        features = rng.normal(size=(n, 2, 3))
        drawn = []
        source = (lambda start, stop: drawn.append((start, stop)) or features[start:stop]
                  ) if lazy else features
        trace = FrameTrace(features=source, **cols)
        window = trace.window(lo, hi)
        want = list(FrameTrace(features=features, **cols))[lo:hi]
        first = range(n)[lo:hi].start
        assert len(window) == len(want) and window.categories == trace.categories
        for name in ("t", "cc", "lc", "pixel_diff", "clc"):
            column = getattr(window, name)
            assert column.tobytes() == getattr(trace, name)[lo:hi].tobytes()
            assert not column.flags.writeable
        assert not drawn
        if want:
            read %= len(want)
            assert window[read] == want[read] and repr(window[read]) == repr(want[read])
            assert drawn == ([(0, first + read + 1)] if lazy else [])
        assert list(window) == want and [repr(f) for f in window] == [repr(f) for f in want]
        assert window.features.tobytes() == features[lo:hi].tobytes()
        assert not lazy or max((stop for _, stop in drawn), default=0) == first + len(want)

    @pytest.mark.parametrize("rows", [(2, 9), (1, 10), (0, 0), (0, 4), (1, 4)])
    def test_taken_trace_is_an_eager_trace(self, rows):
        """A window gives the columns and records of a trace built from the
        same rows, and draws its features only when they are read."""
        lo, hi = rows
        rng = np.random.default_rng(5)
        cols = dict(t=np.cumsum(rng.uniform(0.1, 1.0, 10)), cc=rng.uniform(0.0, 1.0, 10),
                    lc=rng.uniform(0.0, 1.0, 10), pixel_diff=rng.uniform(0.0, 9.0, 10))
        features = rng.normal(size=(10, 2, 3))
        drawn = []
        lazy = FrameTrace(features=lambda start, stop: drawn.append((start, stop))
                          or features[start:stop], categories=(4, 5), **cols).window(lo, hi)
        eager = FrameTrace(features=features[lo:hi], categories=(4, 5),
                           **{k: v[lo:hi] for k, v in cols.items()})
        assert len(lazy) == len(eager)
        for name in ("t", "cc", "lc", "pixel_diff", "clc"):
            column = getattr(lazy, name)
            assert column.tobytes() == getattr(eager, name).tobytes()
            assert not column.flags.writeable and getattr(lazy, name) is column
        assert not drawn and lazy.categories == eager.categories
        assert [repr(f) for f in lazy] == [repr(f) for f in eager]
        # drawn once, up to the last row of the window
        assert drawn == [(0, hi)] and lazy.features.tobytes() == eager.features.tobytes()
        assert drawn == [(0, hi)]

    @pytest.mark.parametrize("column, value, message", [
        ("cc", 1.5, "cc and lc"), ("lc", -0.1, "cc and lc"), ("cc", math.nan, "cc and lc"),
        ("pixel", -1.0, "pixel_diff"), ("pixel", math.nan, "pixel_diff"),
        ("pixel", math.inf, "pixel_diff"), ("t", math.nan, "t must be finite"),
        ("t", math.inf, "t must be finite"), ("t", 1.0, "increasing"),
    ])
    def test_bad_frame_rejected(self, column, value, message):
        cols = {"t": [1.0, 2.0, 3.0], "cc": [0.5] * 3, "lc": [0.5] * 3, "pixel": [1.0] * 3}
        cols[column][1] = value
        with pytest.raises(ValueError, match=message):
            columnar(cols["t"], cols["cc"], cols["lc"], cols["pixel"])

    @pytest.mark.parametrize("lengths", [
        dict(t=3, cc=2, lc=2, pixel_diff=4, features=5),
        dict(cc=2), dict(lc=4), dict(pixel_diff=2), dict(features=2), dict(features=4),
    ])
    def test_columns_of_other_lengths_rejected(self, lengths):
        n = {"t": 3, "cc": 3, "lc": 3, "pixel_diff": 3, "features": 3, **lengths}
        cols = {name: np.arange(1.0, n[name] + 1) / 8 for name in ("t", "cc", "lc", "pixel_diff")}
        with pytest.raises(ValueError, match="one value per frame|features of shape"):
            FrameTrace(features=np.zeros((n["features"], 1, 2)), categories=(0,), **cols)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (3, 0, 2), (3, 1), (3,)])
    def test_features_of_other_detection_counts_rejected(self, shape):
        """One feature vector per frame and category, eager or as drawn."""
        cols = dict(t=np.array([1.0, 2.0, 3.0]), cc=np.full(3, 0.5), lc=np.full(3, 0.5),
                    pixel_diff=np.zeros(3), categories=(0,))
        with pytest.raises(ValueError, match=r"features of shape"):
            FrameTrace(features=np.zeros(shape), **cols)
        lazy = FrameTrace(features=lambda start, stop: np.zeros(shape)[start:stop], **cols)
        for read in (lambda: lazy.features, lambda: lazy[0], lambda: list(lazy.window(1, 2))):
            with pytest.raises(ValueError, match=r"features of shape"):
                read()
        short = FrameTrace(features=lambda start, stop: np.zeros((1, 1, 2)), **cols)
        with pytest.raises(ValueError, match=r"features of shape \(1, 1, 2\) for 3 frames"):
            short.features

    @pytest.mark.parametrize("field, value", [
        ("t", math.nan), ("t", math.inf), ("pixel_diff", math.nan),
        ("pixel_diff", math.inf), ("pixel_diff", -1.0), ("cc", math.nan),
    ])
    def test_non_finite_frame_record_rejected(self, field, value):
        fields = dict(t=1.0, cc=0.5, lc=0.5, pixel_diff=1.0)
        fields[field] = value
        with pytest.raises(ValueError):
            FrameRecord(**fields)


def _one_trace(t, cc, lc, pixel):
    """``FrameTrace`` of the columns."""
    return FrameTrace(t=t, cc=cc, lc=lc, pixel_diff=pixel,
                      features=np.zeros((len(t), 1, 2)), categories=(3,))


def _middle_of_three(t, cc, lc, pixel):
    """The columns as the middle trace of a ``FrameTrace.block`` of three,
    whose other rows are valid."""
    def rows(column, good):
        return np.stack([np.full(len(column), good), column, np.full(len(column), good)])

    cc_rows = rows(cc, 0.5)
    lc_rows = cc_rows if lc is cc else rows(lc, 0.5)
    traces = FrameTrace.block(t, cc_rows, lc_rows, rows(pixel, 1.0),
                              [np.zeros((len(t), 1, 2))] * 3, categories=(3,))
    return traces[1]


_ONE_VALUE = "t, cc, lc and pixel_diff must hold one value per frame"
_ORDER = "frames must arrive in strictly increasing time order"
_CLC = "cc and lc must be in [0, 1]"
_PIXEL = "pixel_diff must be finite and non-negative"


@pytest.mark.parametrize("build", [_one_trace, _middle_of_three], ids=["trace", "block"])
@pytest.mark.parametrize("shared", [False, True], ids=["own-lc", "lc-is-cc"])
@pytest.mark.parametrize("change, message", [
    ({}, None), ({"cc": [0.5, 0.5]}, _ONE_VALUE), ({"pixel": [1.0] * 4}, _ONE_VALUE),
    ({"t": [1.0, 2.0]}, _ONE_VALUE), ({"t": [1.0, math.nan, 3.0]}, "t must be finite"),
    ({"t": [1.0, 2.0, 2.0]}, _ORDER), ({"t": [1.0, 3.0, 2.0]}, _ORDER),
    ({"cc": [0.5, 1.5, 0.5]}, _CLC), ({"lc": [0.5, -0.1, 0.5]}, _CLC),
    ({"cc": [0.5, math.nan, 0.5]}, _CLC), ({"pixel": [1.0, -1.0, 1.0]}, _PIXEL),
    ({"pixel": [1.0, math.inf, 1.0]}, _PIXEL), ({"pixel": [1.0, math.nan, 1.0]}, _PIXEL),
], ids=["valid", "cc-short", "pixel-long", "t-short", "t-nan", "t-repeated", "t-falls",
        "cc-above-1", "lc-below-0", "cc-nan", "pixel-negative", "pixel-inf", "pixel-nan"])
def test_block_rejects_what_a_trace_rejects(build, shared, change, message):
    """A block's one check rejects a bad value in one of its rows, or
    columns of unequal length, with the message a trace of that row gives;
    a valid row gives the records a trace of it gives."""
    cols = {"t": [1.0, 2.0, 3.0], "cc": [0.5] * 3, "lc": [0.6] * 3, "pixel": [1.0] * 3, **change}
    t, cc, lc, pixel = (np.array(cols[name]) for name in ("t", "cc", "lc", "pixel"))
    if shared:  # as a synthesized trace's cc and lc are one array
        cc = lc = lc if "lc" in change else cc
    if message is None:
        want = _one_trace(*(column.copy() for column in (t, cc, lc, pixel)))
        got = build(t, cc, lc, pixel)
        assert list(got) == list(want) and [repr(f) for f in got] == [repr(f) for f in want]
    else:
        with pytest.raises(ValueError) as info:
            build(t, cc, lc, pixel)
        assert str(info.value) == message


def test_block_needs_one_row_per_trace():
    t, row = np.array([1.0, 2.0]), np.full(2, 0.5)
    with pytest.raises(ValueError) as info:
        FrameTrace.block(t, np.stack([row, row]), np.stack([row, row]), np.stack([row, row]),
                         [np.zeros((2, 1, 1))] * 3, categories=(0,))
    assert str(info.value) == _ONE_VALUE


def test_first_drift_start_checked():
    trace = columnar([1.0, 2.0], [0.5] * 2, [0.5] * 2, [1.0] * 2)
    assert first_drift(trace, 2, SMALL_CFG) is None
    with pytest.raises(ValueError, match="start"):
        first_drift(trace, -1, SMALL_CFG)


def _stream_events(trace, start, cfg):
    """(index, event) for every event one streaming detector emits over the
    frames from ``start`` on; after an event it goes on from a fresh state."""
    detector = DriftDetector(cfg)
    return [(i, event) for i, frame in enumerate(trace[start:], start)
            if (event := detector.update(frame)) is not None]


def _scan_events(trace, start, cfg):
    """The same from ``first_drift``, re-armed at the frame after each event."""
    events = []
    while (found := first_drift(trace, start, cfg)) is not None:
        events.append(found)
        start = found[0] + 1
    return events


def _realised_rods(frames, cfg):
    """Every relative drop a detector that never fires computes."""
    rods = []

    def recording(clc1, clc2):
        rods.append(rod(clc1, clc2))
        return rods[-1]

    detector = DriftDetector(replace(cfg, rod_threshold=2.0))  # rod never exceeds 1
    with mock.patch.object(drift, "rod", recording):
        for frame in frames:
            detector.update(frame)
    return rods


def _realised_variances(frames, cfg):
    """The variance a detector tests at each frame of its first drift, up to
    its first event, recomputed from its prefix sums as it computes it."""
    detector = DriftDetector(cfg)
    sub = cfg.temp_window_frames // cfg.sub_windows
    variances = []
    for frame in frames:
        was_drifting = detector._drifting
        if detector.update(frame) is not None:
            break
        prefix = detector._clc_prefix
        start = len(prefix) - 1 - cfg.temp_window_frames
        if was_drifting and start >= 0:
            means = [(prefix[start + i * sub + sub] - prefix[start + i * sub]) / sub
                     for i in range(cfg.sub_windows)]
            grand = sum(means) / len(means)
            variances.append(sum((m - grand) ** 2 for m in means) / len(means))
    return variances


@st.composite
def _scan_case(draw):
    """A trace whose CLC level takes turns between high and low, in steps or
    ramps, with or without noise, a start frame, and a detector config with
    windows from 2 to 90 frames; some traces are shorter than two windows,
    some hold the level for a quiet lead of up to 20 * (window + temp)
    frames first, so that events lie far past the start frame, and some
    take turns up to ten windows long, so that a temp window settles
    beyond the settle search's first and second blocks."""
    window = draw(st.integers(2, 90))
    parts = draw(st.sampled_from([1, 3, 12, 30]))
    temp = parts * draw(st.integers(1, 90 // parts))
    span = draw(st.sampled_from([3, 10]))  # the longest turn, in windows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = 0
    if rng.random() < 0.2:
        n = int(rng.integers(1, 2 * window))
    else:
        n = int(rng.integers(2 * window + temp, 2 * span * (window + temp)))
        if draw(st.booleans()):
            lead = draw(st.integers(0, 20 * (window + temp)))
    n += lead
    level, pixel = np.empty(n), np.empty(n)
    level[:lead], pixel[:lead] = 0.9, 2500.0
    i, prev, high = lead, 0.9, True
    while i < n:
        length = int(rng.integers(max(window, temp) // 2 + 1, span * max(window, temp)))
        new = rng.uniform(0.6, 0.95) if high else rng.uniform(0.1, 0.5)
        ramp = np.linspace(prev, new, length) if rng.random() < 0.4 else np.full(length, new)
        level[i:i + length] = ramp[:n - i]
        pixel[i:i + length] = rng.uniform(0.0, 5000.0)
        i, prev, high = i + length, new, not high
    noise = rng.choice([0.0, 0.005, 0.03])
    cc = np.clip(np.sqrt(level) + rng.normal(0.0, noise, n), 0.0, 1.0)
    lc = np.clip(np.sqrt(level) + rng.normal(0.0, noise, n), 0.0, 1.0)
    pixel = np.maximum(0.0, pixel + rng.normal(0.0, 50.0, n))
    t = np.arange(1, n + 1) / draw(st.sampled_from([1.0, 2.5]))
    cfg = DetectorConfig(window_frames=window, sub_windows=parts, temp_window_frames=temp,
                         rod_threshold=draw(st.floats(0.01, 0.6)),
                         variance_threshold=10.0 ** draw(st.floats(-7.0, -2.0)),
                         tau=draw(st.floats(1.0, 200.0)), d0_factor=draw(st.floats(0.05, 2.0)))
    return columnar(t, cc, lc, pixel), int(rng.integers(0, n // 4 + 1)), cfg


@settings(max_examples=300, deadline=None)
@given(case=_scan_case(), data=st.data())
def test_first_drift_matches_streaming_detector(case, data):
    """Every event, float for float, also when a threshold is a value the
    detector computed, so that decisions fall on its >= and < boundaries."""
    trace, start, cfg = case
    frames = trace[start:]
    if data.draw(st.booleans(), label="rod threshold on a realised drop"):
        drops = [r for r in _realised_rods(frames, cfg) if r > 0]
        if drops:
            drop = max(drops) if data.draw(st.booleans(), label="the largest") else (
                data.draw(st.sampled_from(drops), label="drop"))
            # The float above a drop: the frames with that drop pass the
            # pre-test and fail the exact test.
            if data.draw(st.booleans(), label="the float above it"):
                drop = math.nextafter(drop, math.inf)
            cfg = replace(cfg, rod_threshold=drop)
    if data.draw(st.booleans(), label="variance threshold on a realised variance"):
        variances = _realised_variances(frames, replace(cfg, variance_threshold=1e-300))
        lows = [v for k, v in enumerate(variances) if v > 0 and v <= min(variances[:k + 1])]
        if lows:
            cfg = replace(cfg, variance_threshold=data.draw(st.sampled_from(lows)))
    got, want = _scan_events(trace, start, cfg), _stream_events(trace, start, cfg)
    assert got == want and repr(got) == repr(want)


# The settle search tests rows n (frames since t1, from first_n =
# max(temp, 2)) in blocks of temp rows and then twice as many as the last:
# here rows 4-7, 8-15, 16-31, 32-63 and, capped by the trace, 64.
BLOCK_CFG = DetectorConfig(window_frames=4, sub_windows=2, temp_window_frames=4,
                           rod_threshold=0.3, variance_threshold=1e-6)


@pytest.mark.parametrize("settle_n", [4, 7, 8, 16, 40, 64, None], ids=[
    "first-row", "first-block-last-row", "second-block-first-row",
    "third-block-first-row", "fourth-block-row", "last-frame", "never"])
def test_settle_at_each_block_boundary(settle_n):
    """A trace that drifts at frame 7 and whose temp window first settles
    ``settle_n`` frames from t1 on: ``first_drift`` gives the streaming
    detector's first event there.  From t1 on the CLC rises by 0.005 a
    frame, so no temp window within the ramp settles, and then holds at
    0.6 from frame ``t1 + settle_n - temp`` on; with no settle it rises to
    the trace's end."""
    w, temp, t1_at, rest = 4, BLOCK_CFG.temp_window_frames, 7, 64
    steady = rest if settle_n is None else settle_n - temp
    after = [0.2 + 0.005 * j if j < steady else 0.6 for j in range(rest)]
    value = [0.81] * w + [0.2] * (t1_at - w) + after
    n = len(value)
    trace = columnar(np.arange(1.0, n + 1), value, [1.0] * n, np.linspace(0.0, 900.0, n))
    want = _stream_events(trace, 0, BLOCK_CFG)[:1] or [None]
    got = first_drift(trace, 0, BLOCK_CFG)
    assert got == want[0] and repr(got) == repr(want[0])
    if settle_n is None:
        assert got is None
    else:
        assert got[0] == t1_at + settle_n - 1 and got[1].t1 == trace.t[t1_at]


# --- the settle a trace keeps ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _scenario_traces():
    """Each end's trace in criterion 8's scenario and in the whole-second
    golden scenario, with two detector configs: the scenario's, and one with
    the same window and rod threshold, so that from every start frame both
    drift at the same frame, but a temp window of three single frames and a
    variance threshold so low that it settles rarely, often past the first
    blocks of the settle search and at times not before the trace ends."""
    from test_acceptance import bench_scenario
    from test_golden import whole_second_scenario

    from evosched.simenv import gen_trace
    cases = []
    for sc in (bench_scenario(0), whole_second_scenario()):
        strict = replace(sc.detector, temp_window_frames=3, sub_windows=3,
                         variance_threshold=3e-7)
        cases += [(gen_trace(spec, sc.seed, i, sc.duration, sc.sampler), (sc.detector, strict))
                  for i, spec in enumerate(sc.ends)]
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def _fresh_results(which):
    """``first_drift`` from every start frame of trace ``which`` under each
    of its configs, each call on a trace no call has read before."""
    trace, configs = _scenario_traces()[which]
    return tuple(tuple(first_drift(trace.window(0, len(trace)), start, cfg)
                       for start in range(len(trace)))
                 for cfg in configs)


@settings(max_examples=16, deadline=None)
@given(which=st.integers(0, 7), order=st.sampled_from(["up", "down", "shuffled"]),
       seed=st.integers(0, 2**32 - 1))
def test_settle_cache_matches_fresh_traces(which, order, seed):
    """``first_drift`` from every start frame under both configs, in a drawn
    order, on one trace that keeps the settles it finds: each result is the
    one a fresh trace gives."""
    trace, configs = _scenario_traces()[which]
    trace = trace.window(0, len(trace))  # keeps no settle yet
    calls = [(start, k) for start in range(len(trace)) for k in range(len(configs))]
    if order == "down":
        calls.reverse()
    elif order == "shuffled":
        calls = [calls[i] for i in np.random.default_rng(seed).permutation(len(calls))]
    fresh = _fresh_results(which)
    for start, k in calls:
        got, want = first_drift(trace, start, configs[k]), fresh[k][start]
        assert got == want and repr(got) == repr(want), (start, k)
