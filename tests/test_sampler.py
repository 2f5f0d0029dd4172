import math

import numpy as np
import pytest

from evosched.drift import Detection, FrameRecord
from evosched.sampler import (
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


class TestSampleSudden:
    def test_rate_times_duration(self):
        frames = frames_at([i / 30.0 for i in range(1, 301)])  # 10 s at 30 fps
        picked = sample_sudden(frames, 0.6)
        assert len(picked) == 6
        gaps = [b.t - a.t for a, b in zip(picked, picked[1:])]
        assert all(abs(g - 1 / 0.6) < 1 / 30.0 + 1e-9 for g in gaps)

    def test_rate_above_trace_rate_takes_all(self):
        frames = frames_at([float(i) for i in range(1, 11)])
        assert sample_sudden(frames, 5.0) == frames

    def test_empty(self):
        assert sample_sudden([], 0.6) == []

    def test_subset_in_order_no_duplicates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            times = np.unique(rng.uniform(0, 100, int(rng.integers(1, 60))))
            frames = frames_at([float(t) for t in times])
            picked = sample_sudden(frames, float(rng.uniform(0.05, 2.0)))
            ids = [id(f) for f in picked]
            assert len(set(ids)) == len(ids)
            assert picked == [f for f in frames if id(f) in set(ids)]

    def test_size_bound(self):
        frames = frames_at([float(i) for i in range(1, 101)])
        for rate in (0.1, 0.3, 0.6, 1.0):
            picked = sample_sudden(frames, rate)
            assert len(picked) <= math.ceil(rate * (frames[-1].t - frames[0].t))


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
        frames = frames_at([float(i) for i in range(100, 191)])  # 90 s span
        picked = sample_incremental(frames, cfg)
        # expected per-segment counts: round(rate_k * 30) with the exact
        # rate values the schedule produces
        expected = sum(round(linear_rate(100.0 + 30 * k, 100.0, cfg) * 30)
                       for k in range(3))
        assert len(picked) == expected
        rates = [linear_rate(100.0 + 30 * k, 100.0, cfg) for k in range(3)]
        assert rates == pytest.approx([0.1, 0.15, 0.2])

    def test_short_interval_constant_rate(self):
        cfg = SamplerConfig()
        frames = frames_at([float(i) for i in range(0, 21)])  # 20 s span
        picked = sample_incremental(frames, cfg)
        assert len(picked) == round(0.1 * 20)

    def test_subset_property(self):
        cfg = SamplerConfig()
        frames = frames_at([float(i) for i in range(0, 200)])
        picked = sample_incremental(frames, cfg)
        assert all(f in frames for f in picked)
        times = [f.t for f in picked]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


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
