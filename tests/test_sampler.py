import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosched.drift import Detection, FrameRecord, FrameTrace
from evosched.sampler import (
    RATE_STEP_SECONDS,
    GlobalFeatureModel,
    SamplerConfig,
    feature_deviation,
    linear_rate,
    sample_gradual,
    sample_incremental,
    sample_sudden,
)


def frames_at(times, pixel=0.0, dets=()):
    return [FrameRecord(t=t, cc=0.8, lc=0.8, pixel_diff=pixel, detections=dets)
            for t in times]


def trace_at(times):
    """A trace of frames at ``times``, each with one detection."""
    t = np.asarray(times, dtype=float)
    return FrameTrace(t=t, cc=np.full(len(t), 0.8), lc=np.full(len(t), 0.8),
                      pixel_diff=np.zeros(len(t)), features=np.zeros((len(t), 1, 2)),
                      categories=(0,))


class TestSampleSudden:
    def test_rate_times_duration(self):
        trace = trace_at([i / 30.0 for i in range(1, 301)])  # 10 s at 30 fps
        picked = sample_sudden(trace, 0.6)
        assert len(picked) == 6
        assert all(abs(g - 1 / 0.6) < 1 / 30.0 + 1e-9 for g in np.diff(trace.t[picked]))

    def test_rate_above_trace_rate_takes_all(self):
        trace = trace_at([float(i) for i in range(1, 11)])
        assert sample_sudden(trace, 5.0).tolist() == list(range(len(trace)))

    def test_empty(self):
        assert len(sample_sudden(trace_at([]), 0.6)) == 0

    def test_subset_in_order_no_duplicates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            times = np.unique(rng.uniform(0, 100, int(rng.integers(1, 60))))
            picked = sample_sudden(trace_at(times), float(rng.uniform(0.05, 2.0)))
            assert (np.diff(picked) > 0).all()
            assert ((0 <= picked) & (picked < len(times))).all()

    def test_size_bound(self):
        trace = trace_at([float(i) for i in range(1, 101)])
        for rate in (0.1, 0.3, 0.6, 1.0):
            picked = sample_sudden(trace, rate)
            assert len(picked) <= math.ceil(rate * (trace.t[-1] - trace.t[0]))


class TestLinearRate:
    CFG = SamplerConfig()

    def test_grid(self):
        cases = {0: 0.1, 29: 0.1, 30: 0.15, 59: 0.15, 60: 0.2, 89: 0.2,
                 90: 0.25, 1_000_000: 1.0}
        for dt, expected in cases.items():
            assert linear_rate(dt, 0.0, self.CFG) == pytest.approx(expected)

    def test_non_decreasing_and_bounded(self):
        prev = 0.0
        for dt in range(0, 2000, 7):
            r = linear_rate(float(dt), 0.0, self.CFG)
            assert r >= prev
            assert r <= self.CFG.r_max
            prev = r

    def test_before_t1_rejected(self):
        with pytest.raises(ValueError):
            linear_rate(5.0, 10.0, self.CFG)


class TestSampleIncremental:
    def test_segment_rates(self):
        cfg = SamplerConfig()
        trace = trace_at([float(i) for i in range(100, 191)])  # 90 s span
        picked = sample_incremental(trace, cfg)
        # expected per-segment counts: round(rate_k * 30) with the exact
        # rate values the schedule produces
        expected = sum(round(linear_rate(100.0 + 30 * k, 100.0, cfg) * 30)
                       for k in range(3))
        assert len(picked) == expected
        rates = [linear_rate(100.0 + 30 * k, 100.0, cfg) for k in range(3)]
        assert rates == pytest.approx([0.1, 0.15, 0.2])

    def test_short_interval_constant_rate(self):
        cfg = SamplerConfig()
        trace = trace_at([float(i) for i in range(0, 21)])  # 20 s span
        picked = sample_incremental(trace, cfg)
        assert len(picked) == round(0.1 * 20)

    def test_subset_property(self):
        cfg = SamplerConfig()
        trace = trace_at([float(i) for i in range(0, 200)])
        picked = sample_incremental(trace, cfg)
        assert (np.diff(picked) > 0).all()
        assert ((0 <= picked) & (picked < len(trace))).all()


def model():
    return GlobalFeatureModel(centroids={
        0: ((0.0, 0.0),),
        1: ((3.0, 4.0), (10.0, 10.0)),
    })


class TestFeatureDeviation:
    def test_identity(self):
        f = frames_at([1.0], dets=(Detection(category=0, feature=(0.0, 0.0)),))[0]
        assert feature_deviation(f, model()) == 0.0

    def test_345_triangle(self):
        f = frames_at([1.0], dets=(Detection(category=1, feature=(0.0, 0.0)),))[0]
        assert feature_deviation(f, model()) == pytest.approx(5.0)

    def test_category_average(self):
        dets = (Detection(category=0, feature=(2.0, 0.0)),   # distance 2
                Detection(category=1, feature=(3.0, 0.0)))   # distance 4 to (3,4)
        f = frames_at([1.0], dets=dets)[0]
        assert feature_deviation(f, model()) == pytest.approx(3.0)

    def test_no_detections_zero(self):
        f = frames_at([1.0])[0]
        assert feature_deviation(f, model()) == 0.0

    def test_unknown_category_named(self):
        f = frames_at([1.0], dets=(Detection(category=7, feature=(0.0, 0.0)),))[0]
        with pytest.raises(KeyError, match="7"):
            feature_deviation(f, model())

    def test_box_permutation_invariance(self):
        a = (Detection(category=1, feature=(3.0, 3.0)),
             Detection(category=1, feature=(9.0, 9.0)))
        f1 = frames_at([1.0], dets=a)[0]
        f2 = frames_at([1.0], dets=a[::-1])[0]
        assert feature_deviation(f1, model()) == pytest.approx(
            feature_deviation(f2, model()))

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dets = tuple(
                Detection(category=int(rng.integers(0, 2)),
                          feature=tuple(rng.normal(0, 5, 2)))
                for _ in range(rng.integers(0, 4))
            )
            f = frames_at([1.0], dets=dets)[0]
            assert feature_deviation(f, model()) >= 0.0


class TestSampleGradual:
    CFG = SamplerConfig(frame_w=100, frame_h=100)  # threshold = 10000 * 0.55

    def test_all_redundant_empty(self):
        frames = frames_at([1.0, 2.0, 3.0], pixel=0.0)
        assert sample_gradual(frames, self.CFG, model()) == []

    def test_stage2_rejects_centroid_matches(self):
        dets = (Detection(category=0, feature=(0.0, 0.0)),)
        frames = frames_at([1.0, 2.0], pixel=1e9, dets=dets)
        assert sample_gradual(frames, self.CFG, model()) == []

    def test_two_stage_oracle(self):
        thresh = self.CFG.frame_w * self.CFG.frame_h * self.CFG.eps1
        drifted = (Detection(category=0, feature=(1.0, 1.0)),)
        clean = (Detection(category=0, feature=(0.0, 0.0)),)
        frames = [
            FrameRecord(t=1.0, cc=0.8, lc=0.8, pixel_diff=thresh + 1, detections=drifted),
            FrameRecord(t=2.0, cc=0.8, lc=0.8, pixel_diff=thresh - 1, detections=drifted),
            FrameRecord(t=3.0, cc=0.8, lc=0.8, pixel_diff=thresh + 1, detections=clean),
            FrameRecord(t=4.0, cc=0.8, lc=0.8, pixel_diff=thresh + 1, detections=drifted),
        ]
        picked = sample_gradual(frames, self.CFG, model())
        expected = [f for f in frames
                    if f.pixel_diff >= thresh
                    and feature_deviation(f, model()) > self.CFG.eps2]
        assert picked == expected
        assert [f.t for f in picked] == [1.0, 4.0]


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(r0=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(r0=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(eps1=0.0)
    for field, value in (("r_f", 0.0), ("r_f", math.inf), ("r0", math.nan),
                         ("r_max", math.inf), ("delta_r", math.nan), ("eps2", math.nan)):
        with pytest.raises(ValueError, match=field):
            SamplerConfig(**{field: value})


# --- reference samplers --------------------------------------------------------
# The record samplers the row selections on columns replaced: one pass over
# the frames per target time, the window rescanned for every segment, and
# feature_deviation called for every frame that passes stage 1.  The samplers
# must pick the same frames.

def _reference_pick_at_times(frames, targets):
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


def reference_sample_sudden(frames, r_f):
    if not frames:
        return []
    t0 = frames[0].t
    count = max(1, math.ceil(r_f * (frames[-1].t - t0)))
    return _reference_pick_at_times(frames, [t0 + k / r_f for k in range(count)])


def reference_sample_incremental(frames, cfg):
    if not frames:
        return []
    t1 = frames[0].t
    t_end = frames[-1].t
    if t_end == t1:
        return [frames[0]]
    picked = []
    seg_start = t1
    while seg_start < t_end:
        seg_len = min(RATE_STEP_SECONDS, t_end - seg_start)
        n = round(linear_rate(seg_start, t1, cfg) * seg_len)
        seg_frames = [f for f in frames if seg_start <= f.t < seg_start + RATE_STEP_SECONDS]
        if n > 0 and seg_frames:
            targets = [seg_start + j * seg_len / n for j in range(n)]
            picked.extend(_reference_pick_at_times(seg_frames, targets))
        seg_start += RATE_STEP_SECONDS
    return picked


def reference_sample_gradual(frames, cfg, model):
    threshold = cfg.frame_w * cfg.frame_h * cfg.eps1
    survivors = [f for f in frames if f.pixel_diff >= threshold]
    return [f for f in survivors if feature_deviation(f, model) > cfg.eps2]


def test_incremental_over_many_segments_matches_reference():
    """Hundreds of frames at 1 fps over 14 segments, two of them empty, one
    with fewer frames than its rate asks for, a partial last one, and the
    rate capped by r_max from the sixth segment on."""
    t = np.arange(1.0, 420.0) + 0.25
    t = t[((t < 91.0) | (t > 160.0)) & ((t < 250.0) | (t > 262.0))]
    cfg = SamplerConfig(r0=0.2, delta_r=0.15, r_max=0.9)
    assert [linear_rate(t[0] + 30.0 * k, t[0], cfg) == cfg.r_max for k in (4, 5)] == [False, True]
    trace = trace_at(t)
    want = reference_sample_incremental(list(trace), cfg)
    assert [trace[int(r)] for r in sample_incremental(trace, cfg)] == want
    picked = [f.t for f in want]
    assert not [p for p in picked if 91.25 <= p < 151.25]  # the empty segments
    assert len([p for p in picked if 241.25 <= p < 271.25]) == 17  # every frame there
    assert picked[-1] > 391.25  # the partial last segment


@st.composite
def _window_case(draw):
    """A trace window as the simulator passes it (a slice of a longer trace),
    a sampler configuration and a feature model.  Frame times are often on a
    regular grid that the sampling targets hit exactly; pixel differences
    are often at the stage-1 threshold or one ulp from it; and features are
    either random or placed so that deviations are ``eps2`` or one ulp from
    it.  Duplicate categories with several centroids need the greedy
    matching."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 50))
    lo = draw(st.integers(0, 3))
    hi = lo + draw(st.sampled_from([0, 1, 2, n]) | st.integers(0, n))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0, 30.0]))
    if draw(st.booleans()):
        t = np.arange(1, n + lo + 4) / rate
    else:
        t = np.cumsum(rng.uniform(1e-3, draw(st.sampled_from([1.0, 10.0, 40.0])), n + lo + 3))

    cfg = SamplerConfig(
        r_f=draw(st.sampled_from([0.5, 0.6, 1.0, 2.0]) | st.floats(0.01, 5.0)),
        r0=(r0 := draw(st.floats(0.01, 1.0))),
        r_max=draw(st.floats(r0, 3.0)),
        delta_r=draw(st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.5)),
        eps1=draw(st.floats(0.01, 1.0)), eps2=draw(st.sampled_from([0.2]) | st.floats(0.01, 2.0)),
        frame_w=draw(st.integers(1, 200)), frame_h=draw(st.integers(1, 200)))
    threshold = cfg.frame_w * cfg.frame_h * cfg.eps1
    near = [threshold, np.nextafter(threshold, -np.inf), np.nextafter(threshold, np.inf)]
    pixel = np.where(rng.random(len(t)) < 0.5, rng.choice(near, len(t)),
                     rng.uniform(0.0, 2.0 * threshold, len(t)))

    categories = draw(st.sampled_from([(0, 0), (1, 0, 0)])
                      | st.lists(st.integers(0, 2), max_size=3).map(tuple))
    dim = draw(st.sampled_from([1, 2, 4]))
    if draw(st.booleans()):  # random features and centroids, at distances near eps2
        spread = cfg.eps2 / math.sqrt(dim)
        centroids = {c: tuple(tuple(rng.normal(0.0, spread, dim).tolist())
                              for _ in range(draw(st.sampled_from([2]) | st.integers(0, 3))))
                     for c in range(3)}
        features = rng.normal(0.0, spread, (len(t), len(categories), dim))
    else:  # one centroid at the origin, every box at distance eps2 or one ulp off
        centroids = {c: ((0.0,) * dim,) for c in range(3)}
        eps2 = cfg.eps2
        at = rng.choice([eps2, np.nextafter(eps2, -np.inf), np.nextafter(eps2, np.inf)], len(t))
        features = np.zeros((len(t), len(categories), dim))
        features[:, :, 0] = at[:, None]
    model = GlobalFeatureModel(centroids=centroids)
    if draw(st.booleans()):
        eager = features
        features = lambda start, stop: eager[start:stop]  # noqa: E731  (a lazy trace)
    trace = FrameTrace(t=t, cc=np.full(len(t), 0.8), lc=np.full(len(t), 0.9),
                       pixel_diff=pixel, features=features, categories=categories)
    return trace.window(lo, hi), cfg, model


@settings(max_examples=300, deadline=None)
@given(case=_window_case())
def test_samplers_match_reference_on_columns(case):
    window, cfg, model = case
    records = list(window)
    for sample, reference, args in (
            (sample_sudden, reference_sample_sudden, (cfg.r_f,)),
            (sample_incremental, reference_sample_incremental, (cfg,)),
            (sample_gradual, reference_sample_gradual, (cfg, model))):
        want = reference(records, *args)
        rows = sample(window, *args)
        assert rows.dtype == np.intp and rows.ndim == 1
        assert (np.diff(rows) > 0).all() and ((0 <= rows) & (rows < len(window))).all()
        got = [window[int(r)] for r in rows]
        assert got == want
        assert [repr(f) for f in got] == [repr(f) for f in want]
    # a record sequence gets the same record objects back
    want = reference_sample_gradual(records, cfg, model)
    assert [id(f) for f in sample_gradual(records, cfg, model)] == [id(f) for f in want]
