import math
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
                st.sampled_from(_BAD_FEATURES).map(lambda x: (x, True))),
                min_size=dim, max_size=dim))
            bad = bad or bad_category or any(b for _, b in feature)
            dets.append(Detection(category=category, feature=tuple(x for x, _ in feature)))
        frames.append(FrameRecord(t=draw(_numbers(st.just(t))), cc=draw(unit), lc=draw(unit),
                                  pixel_diff=draw(_numbers(st.floats(0.0, 1e6))),
                                  detections=tuple(dets)))
    return frames, bad


@settings(max_examples=300, deadline=None)
@given(case=_trace_records())
def test_trace_csv_reads_back_what_it_accepts(case, tmp_path_factory):
    frames, bad = case
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    if bad:
        with pytest.raises(ValueError, match=r"record \d+: (category|feature) "):
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

        def draw():
            calls.append(1)
            return eager.copy()

        cols = dict(t=np.array([1.0, 2.0, 4.0, 8.0]), cc=np.full(4, 0.5), lc=np.full(4, 0.6),
                    pixel_diff=np.arange(4.0), categories=(0, 1, 1))
        lazy = FrameTrace(features=draw, **cols)
        window = lazy.take(slice(1, 4))
        picks = window.take([0, 2])
        assert len(lazy) == 4 and list(picks.t) == [2.0, 8.0] and not calls
        # reading the features of a part reads them once for the whole trace
        assert list(picks) == list(FrameTrace(features=eager, **cols))[1:4:2]
        assert len(calls) == 1
        features = lazy.features
        assert lazy.features is features and not features.flags.writeable
        assert lazy[1:3] == list(FrameTrace(features=eager.copy(), **cols))[1:3]
        assert len(calls) == 1
        with pytest.raises(AttributeError):
            lazy.features = eager

    @pytest.mark.parametrize("rows", [slice(2, 9, 3), slice(1, None), [], [0, 2, 3],
                                      np.arange(1, 4)])
    def test_taken_trace_is_an_eager_trace(self, rows):
        """A taken trace gives the columns and records of a trace built from
        the same rows, and draws its features only when they are read."""
        rng = np.random.default_rng(5)
        cols = dict(t=np.cumsum(rng.uniform(0.1, 1.0, 10)), cc=rng.uniform(0.0, 1.0, 10),
                    lc=rng.uniform(0.0, 1.0, 10), pixel_diff=rng.uniform(0.0, 9.0, 10))
        features = rng.normal(size=(10, 2, 3))
        drawn = []
        lazy = FrameTrace(features=lambda: drawn.append(1) or features, categories=(4, 5),
                          **cols).take(rows)
        eager = FrameTrace(features=features[rows], categories=(4, 5),
                           **{k: v[rows] for k, v in cols.items()})
        assert len(lazy) == len(eager)
        for name in ("t", "cc", "lc", "pixel_diff", "clc"):
            column = getattr(lazy, name)
            assert column.tobytes() == getattr(eager, name).tobytes()
            assert not column.flags.writeable and getattr(lazy, name) is column
        assert not drawn and lazy.categories == eager.categories
        assert [repr(f) for f in lazy] == [repr(f) for f in eager]
        assert drawn == [1] and lazy.features.tobytes() == eager.features.tobytes()

    def test_take_out_of_range(self):
        trace = columnar([1.0, 2.0, 3.0], [0.5] * 3, [0.5] * 3, [1.0] * 3)
        with pytest.raises(IndexError):
            trace.take([1, 3])
        assert len(trace.take(slice(1, 9))) == 2

    @pytest.mark.parametrize("rows", [slice(3, 0, -1), [1, 1], [2, 1], [-1, 0]])
    def test_take_needs_increasing_rows(self, rows):
        trace = columnar([1.0, 2.0, 3.0], [0.5] * 3, [0.5] * 3, [1.0] * 3)
        with pytest.raises(ValueError):
            trace.take(rows)

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

    @pytest.mark.parametrize("field, value", [
        ("t", math.nan), ("t", math.inf), ("pixel_diff", math.nan),
        ("pixel_diff", math.inf), ("pixel_diff", -1.0), ("cc", math.nan),
    ])
    def test_non_finite_frame_record_rejected(self, field, value):
        fields = dict(t=1.0, cc=0.5, lc=0.5, pixel_diff=1.0)
        fields[field] = value
        with pytest.raises(ValueError):
            FrameRecord(**fields)


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
    and some hold the level for a quiet lead of up to 20 * (window + temp)
    frames first, so that events lie beyond the scan's first and second
    spans."""
    window = draw(st.integers(2, 90))
    parts = draw(st.sampled_from([1, 3, 12]))
    temp = parts * draw(st.integers(1, 90 // parts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = 0
    if rng.random() < 0.2:
        n = int(rng.integers(1, 2 * window))
    else:
        n = int(rng.integers(2 * window + temp, 6 * (window + temp)))
        if draw(st.booleans()):
            lead = draw(st.integers(0, 20 * (window + temp)))
    n += lead
    level, pixel = np.empty(n), np.empty(n)
    level[:lead], pixel[:lead] = 0.9, 2500.0
    i, prev, high = lead, 0.9, True
    while i < n:
        length = int(rng.integers(max(window, temp) // 2 + 1, 3 * max(window, temp)))
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
            cfg = replace(cfg, rod_threshold=max(drops))
    if data.draw(st.booleans(), label="variance threshold on a realised variance"):
        variances = _realised_variances(frames, replace(cfg, variance_threshold=1e-300))
        lows = [v for k, v in enumerate(variances) if v > 0 and v <= min(variances[:k + 1])]
        if lows:
            cfg = replace(cfg, variance_threshold=data.draw(st.sampled_from(lows)))
    got, want = _scan_events(trace, start, cfg), _stream_events(trace, start, cfg)
    assert got == want and repr(got) == repr(want)
