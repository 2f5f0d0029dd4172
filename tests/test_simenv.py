import functools
import gc
import math
import tempfile
import warnings
import weakref
from collections import Counter
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosched import simenv
from evosched.drift import (
    Detection, DetectorConfig, DriftDetector, DriftType, FrameRecord, FrameTrace, first_drift,
)
from evosched.profiler import (
    MB, AccuracyCurve, LayerKind, LayerSpec, ModelArch, fields_doc, from_doc,
)
from evosched.sampler import SamplerConfig
from evosched.scheduler import EvolutionTask, GpuPool, GroupingConfig, RunningEntry
from evosched.simenv import (
    FEATURE_DIM,
    MAX_EPOCHS,
    MAX_FRAMES_PER_END,
    PIXEL_OLD_FRACTION,
    PIXEL_NEW_FRACTION,
    SCHEMA_VERSION,
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    ServerSpec,
    _AccuracyModel,
    _Sim,
    _TaskState,
    _stream,
    admit,
    gen_trace,
    gen_traces,
    ground_truth_retrain_seconds,
    load_scenario,
    run,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    synth_regressor_samples,
    write_metrics_csv,
    write_summary_json,
)


def tiny_arch():
    return ModelArch(
        layers=(LayerSpec(kind=LayerKind.CONV, c_in=3, c_out=16,
                          k1=3, k2=3, s1=1, s2=1, p1=1, p2=1),),
        bitwidth=32, input_w=32, input_h=32,
    )


def sudden_end(end_id="end-a", t=120.0, magnitude=0.5):
    return MobileEndSpec(
        end_id=end_id,
        arch=tiny_arch(),
        drift_events=(DriftInjection(t=t, drift_type=DriftType.SUDDEN,
                                     magnitude=magnitude, transition_s=0.0,
                                     recovery_s=450.0),),
    )


def scenario(ends, policy=Policy.SERIAL_FIFO, seed=7, duration=600.0):
    return Scenario(seed=seed, ends=tuple(ends), policy=policy,
                    duration=duration)


class TestGenTrace:
    def test_quiet_trace_levels(self):
        spec = MobileEndSpec(end_id="e", arch=tiny_arch(), drift_events=())
        frames = gen_trace(spec, seed=1, end_index=0, duration=200.0)
        assert len(frames) == 200
        clc = np.array([f.cc * f.lc for f in frames])
        assert abs(clc.mean() - spec.base_accuracy) < 0.01
        area = 1280.0 * 720.0
        pix = np.array([f.pixel_diff for f in frames]) / area
        assert abs(pix.mean() - PIXEL_OLD_FRACTION) < 0.02

    def test_sudden_step_visible(self):
        spec = sudden_end(t=100.0)
        frames = gen_trace(spec, seed=1, end_index=0, duration=300.0)
        before = np.mean([f.cc * f.lc for f in frames if f.t <= 100])
        after = np.mean([f.cc * f.lc for f in frames if 110 < f.t <= 200])
        assert before - after == pytest.approx(0.5, abs=0.02)
        area = 1280.0 * 720.0
        pix_after = np.mean([f.pixel_diff for f in frames if 110 < f.t <= 200])
        assert pix_after / area == pytest.approx(PIXEL_NEW_FRACTION, abs=0.02)

    def test_recovery_restores_base(self):
        spec = sudden_end(t=50.0)
        spec = MobileEndSpec(end_id="e", arch=tiny_arch(), drift_events=(
            DriftInjection(t=50.0, drift_type=DriftType.SUDDEN, magnitude=0.5,
                           transition_s=0.0, recovery_s=100.0),))
        frames = gen_trace(spec, seed=1, end_index=0, duration=300.0)
        tail = np.mean([f.cc * f.lc for f in frames if f.t > 160])
        assert tail == pytest.approx(spec.base_accuracy, abs=0.01)

    def test_detections_shift_during_drift(self):
        spec = sudden_end(t=100.0)
        frames = gen_trace(spec, seed=1, end_index=0, duration=200.0)
        quiet = frames[10].detections[0].feature
        drifted = frames[150].detections[0].feature
        assert np.linalg.norm(quiet) < 0.3
        assert np.linalg.norm(drifted) > 0.5

    def test_deterministic_and_stream_isolated(self):
        spec = sudden_end()
        a = gen_trace(spec, seed=3, end_index=0, duration=100.0)
        b = gen_trace(spec, seed=3, end_index=0, duration=100.0)
        assert list(a) == list(b)
        c = gen_trace(spec, seed=3, end_index=1, duration=100.0)
        assert list(a) != list(c)


# --- reference trace synthesis ----------------------------------------------
# The frame-by-frame loop ``gen_trace`` replaced: one draw per stream per
# frame, and the drift events scanned for every frame.  ``gen_trace`` must
# reproduce it exactly.

def _reference_clc_level(spec, t, mix):
    base = spec.base_accuracy
    level = base
    for ev in spec.drift_events:
        settle = ev.t + ev.transition_s
        recover = settle + ev.recovery_s
        if t < ev.t or t >= recover:
            continue
        if t >= settle:
            level = base - ev.magnitude
        elif ev.drift_type is DriftType.SUDDEN:
            level = base - ev.magnitude
        elif ev.drift_type is DriftType.INCREMENTAL:
            frac = (t - ev.t) / ev.transition_s if ev.transition_s > 0 else 1.0
            level = base - ev.magnitude * frac
        else:
            q = (t - ev.t) / ev.transition_s if ev.transition_s > 0 else 1.0
            level = base - ev.magnitude if mix < q else base
    return level


def _reference_pixel_level(spec, t, area):
    p_old = PIXEL_OLD_FRACTION * area
    p_new = PIXEL_NEW_FRACTION * area
    level = p_old
    for ev in spec.drift_events:
        settle = ev.t + ev.transition_s
        recover = settle + ev.recovery_s
        if t < ev.t or t >= recover:
            continue
        if ev.drift_type is DriftType.SUDDEN:
            level = p_new
        elif ev.drift_type is DriftType.INCREMENTAL:
            ramp = ev.transition_s / 2.0
            frac = min(1.0, (t - ev.t) / ramp) if ramp > 0 else 1.0
            level = p_old + (p_new - p_old) * frac
        else:
            level = p_new if t >= settle else p_old
    return level


def _reference_drift_shift(spec, t):
    for ev in spec.drift_events:
        if ev.t <= t < ev.t + ev.transition_s + ev.recovery_s:
            return ev.magnitude
    return 0.0


def reference_gen_trace(spec, seed, end_index, duration, sampler_cfg=None):
    cfg = sampler_cfg or SamplerConfig()
    area = float(cfg.frame_w * cfg.frame_h)
    noise_rng = _stream(seed, end_index, 0)
    mix_rng = _stream(seed, end_index, 1)
    det_rng = _stream(seed, end_index, 2)
    model = simenv._FEATURE_MODEL

    frames = []
    for i in range(int(duration * spec.frame_rate)):
        t = (i + 1) / spec.frame_rate
        mix = mix_rng.random()
        level = _reference_clc_level(spec, t, mix)
        clc = min(1.0, max(1e-3, level + noise_rng.normal(0.0, 0.01)))
        root = math.sqrt(clc)
        pixel = max(0.0, _reference_pixel_level(spec, t, area)
                    + noise_rng.normal(0.0, 0.02 * area))
        shift = _reference_drift_shift(spec, t)
        dets = []
        for cat in (0, 1):
            centroid = np.asarray(model.centroids[cat][0])
            feat = centroid + shift + det_rng.normal(0.0, 0.03, size=FEATURE_DIM)
            dets.append(Detection(category=cat, feature=tuple(float(x) for x in feat)))
        frames.append(FrameRecord(t=t, cc=root, lc=root, pixel_diff=pixel,
                                  detections=tuple(dets)))
    return frames


@st.composite
def _end_spec(draw, duration, end_id="e"):
    """An end with random, possibly overlapping drifts over ``duration``.
    Onsets and transition ends often fall exactly on frame times."""
    frame_rate = draw(st.sampled_from([1.0, 2.5, 0.5, 3.0]) | st.floats(0.2, 5.0))
    n = int(duration * frame_rate)
    on_frame = st.integers(0, n + 2).map(lambda k: k / frame_rate)
    span = st.just(0.0) | on_frame | st.floats(0.0, 60.0)
    events = sorted(
        (draw(on_frame | st.floats(0.0, duration + 5.0)),
         draw(st.sampled_from(list(DriftType))),
         draw(st.floats(0.01, 0.99)), draw(span), draw(span))
        for _ in range(draw(st.integers(0, 4)))
    )
    return MobileEndSpec(
        end_id=end_id, arch=tiny_arch(), frame_rate=frame_rate,
        base_accuracy=draw(st.floats(0.05, 1.0)),
        drift_events=tuple(DriftInjection(t=t, drift_type=kind, magnitude=m,
                                          transition_s=tr, recovery_s=rec)
                           for t, kind, m, tr, rec in events))


_frame_size = st.builds(SamplerConfig, frame_w=st.integers(1, 2000),
                        frame_h=st.integers(1, 2000))


@st.composite
def _trace_case(draw):
    """An end with random drifts, and trace arguments."""
    duration = draw(st.floats(1.0, 120.0))
    spec = draw(_end_spec(duration))
    cfg = draw(_frame_size)
    return spec, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 64)), duration, cfg


@settings(max_examples=200, deadline=None)
@given(case=_trace_case())
def test_gen_trace_matches_reference_loop(case):
    spec, seed, end_index, duration, cfg = case
    got = gen_trace(spec, seed, end_index, duration, cfg)
    want = reference_gen_trace(spec, seed, end_index, duration, cfg)
    assert list(got) == want
    assert [repr(f) for f in got] == [repr(f) for f in want]


def test_gen_trace_subnormal_ramp_matches_reference_without_warnings():
    # the incremental pixel ramp lasts transition_s / 2, which a subnormal
    # transition_s turns into a division that overflows to inf
    spec = MobileEndSpec(end_id="e", arch=tiny_arch(), drift_events=(DriftInjection(
        t=10.0, drift_type=DriftType.INCREMENTAL, magnitude=0.5, transition_s=1e-310),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = list(gen_trace(spec, seed=3, end_index=0, duration=60.0))
    want = reference_gen_trace(spec, 3, 0, 60.0)
    assert got == want and [repr(f) for f in got] == [repr(f) for f in want]


@st.composite
def _scenario_trace_case(draw):
    """One to six ends drawn as ``_trace_case`` draws one, over one duration:
    frame rates mixed in one scenario, shared by some ends, and short
    durations at which an end of a low frame rate has no frame."""
    duration = draw(st.floats(1.0, 120.0))
    ends = tuple(draw(_end_spec(duration, f"e{i}")) for i in range(draw(st.integers(1, 6))))
    return ends, draw(st.integers(0, 2**32 - 1)), duration, draw(_frame_size)


def _drift(kind, t, transition_s=20.0):
    return DriftInjection(t=t, drift_type=kind, magnitude=0.4, transition_s=transition_s,
                          recovery_s=10.0)


@settings(max_examples=100, deadline=None)
@given(case=_scenario_trace_case())
@example(case=((
    MobileEndSpec(end_id="slow", arch=tiny_arch(), frame_rate=0.2),  # no frame
    MobileEndSpec(end_id="a", arch=tiny_arch(), frame_rate=2.5, drift_events=(
        _drift(DriftType.GRADUAL, 3.0), _drift(DriftType.SUDDEN, 10.0))),
    MobileEndSpec(end_id="b", arch=tiny_arch(), frame_rate=2.5, drift_events=(
        _drift(DriftType.INCREMENTAL, 2.0, 8.0),)),
    MobileEndSpec(end_id="c", arch=tiny_arch(), frame_rate=1.0),
    MobileEndSpec(end_id="d", arch=tiny_arch(), frame_rate=2.5, base_accuracy=0.6),
), 11, 4.9, SamplerConfig()))
def test_scenario_traces_match_reference_loop(case):
    """Each end's trace from the scenario-wide synthesis is the reference
    loop's for its own index, its cumulative CLC is a fresh one, and no end
    builds its features' substream before its features are read."""
    ends, seed, duration, cfg = case
    made = []  # (end index, purpose) of every substream simenv builds

    def counted(seed, end_index, purpose):
        made.append((end_index, purpose))
        return _stream(seed, end_index, purpose)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simenv, "_stream", counted)
        traces = gen_traces(ends, seed, duration, cfg)
        assert len(traces) == len(ends)
        for i, (spec, trace) in enumerate(zip(ends, traces)):
            clc_sum = np.concatenate(([0.0], np.cumsum(trace.clc)))
            assert trace.clc_sum.tobytes() == clc_sum.tobytes()
            assert [k for k, purpose in made if purpose == 2] == list(range(i))
            want = reference_gen_trace(spec, seed, i, duration, cfg)
            assert list(trace) == want
            assert [repr(f) for f in trace] == [repr(f) for f in want]
        assert [k for k, purpose in made if purpose == 2] == list(range(len(ends)))


def _count_streams(monkeypatch):
    """Record the purpose of every substream ``simenv`` draws from."""
    purposes = []

    def counted(seed, end_index, purpose):
        purposes.append(purpose)
        return _stream(seed, end_index, purpose)

    monkeypatch.setattr(simenv, "_stream", counted)
    return purposes


class _CountedRows:
    """A generator that records the rows of each standard normal draw."""

    def __init__(self, rng, rows):
        self._rng, self._rows = rng, rows

    def standard_normal(self, size):
        self._rows.append(size[0])
        return self._rng.standard_normal(size)


def _count_feature_rows(monkeypatch):
    """Record the purpose of every substream ``simenv`` draws from, and the
    rows of every draw from a features' substream."""
    purposes, rows = [], []

    def counted(seed, end_index, purpose):
        purposes.append(purpose)
        rng = _stream(seed, end_index, purpose)
        return _CountedRows(rng, rows) if purpose == 2 else rng

    monkeypatch.setattr(simenv, "_stream", counted)
    return purposes, rows


def test_gen_trace_draws_features_on_first_read(monkeypatch):
    purposes, rows = _count_feature_rows(monkeypatch)
    spec = sudden_end(t=50.0)
    trace = gen_trace(spec, seed=3, end_index=1, duration=120.0)
    window = trace.window(40, 80)
    assert len(window) == 40 and 2 not in purposes
    want = reference_gen_trace(spec, 3, 1, 120.0)
    assert list(window) == want[40:80]
    assert purposes.count(2) == 1 and sum(rows) == 80
    assert list(trace) == want and trace[5:9] == want[5:9]
    assert purposes.count(2) == 1 and sum(rows) == 120


GRADUAL_DETECTOR = DetectorConfig(window_frames=60, sub_windows=12, temp_window_frames=120,
                                  rod_threshold=0.05, variance_threshold=2e-4, tau=90.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradual_window_draws_features_to_its_last_row(monkeypatch, seed):
    """Sampling a gradual drift's window draws the trace's features up to
    the window's last frame, as the same rows of a draw of the whole trace;
    a later read of the whole trace goes on with the same substream."""
    purposes, rows = _count_feature_rows(monkeypatch)
    spec = MobileEndSpec(end_id="g", arch=tiny_arch(), drift_events=(DriftInjection(
        t=300.0, drift_type=DriftType.GRADUAL, magnitude=0.5, transition_s=160.0,
        recovery_s=450.0),))
    trace = gen_trace(spec, seed, 0, 1500.0)
    _, event = first_drift(trace, 0, GRADUAL_DETECTOR)
    assert event.drift_type is DriftType.GRADUAL
    lo, hi = np.searchsorted(trace.t, (event.t1, event.t3), side="right")
    assert simenv._sampled_frames(trace, event, SamplerConfig()) > 1
    assert purposes.count(2) == 1 and 0 < sum(rows) <= hi < len(trace)
    want = reference_gen_trace(spec, seed, 0, 1500.0)
    assert trace[lo - 1:hi] == want[lo - 1:hi] and sum(rows) <= hi
    assert list(trace) == want
    assert purposes.count(2) == 1 and sum(rows) == len(trace)


@pytest.mark.parametrize("kinds, mixes", [
    ((), False),
    ((DriftType.SUDDEN, DriftType.INCREMENTAL), False),
    ((DriftType.INCREMENTAL, DriftType.GRADUAL), True),
])
def test_gen_trace_draws_the_mixture_only_for_a_gradual_drift(monkeypatch, kinds, mixes):
    purposes = _count_streams(monkeypatch)
    spec = MobileEndSpec(end_id="e", arch=tiny_arch(), drift_events=tuple(
        DriftInjection(t=40.0 + 60.0 * k, drift_type=kind, magnitude=0.4,
                       transition_s=20.0, recovery_s=20.0)
        for k, kind in enumerate(kinds)))
    got = gen_trace(spec, seed=5, end_index=2, duration=200.0)
    assert (1 in purposes) is mixes and purposes.count(0) == 1
    assert list(got) == reference_gen_trace(spec, 5, 2, 200.0)


def test_sudden_only_run_builds_no_records_and_draws_no_features(monkeypatch):
    from test_acceptance import bench_scenario
    purposes = _count_streams(monkeypatch)

    def no_records(self, rows):
        raise AssertionError("a FrameRecord was built")

    monkeypatch.setattr(FrameTrace, "_records", no_records)
    simenv._starts.cache_clear()  # a cold run: an earlier test may have built these traces
    assert run(bench_scenario(0)).n_tasks > 0
    assert 0 in purposes and 2 not in purposes


class TestAccuracyModel:
    def spec(self, decay=0.002):
        return MobileEndSpec(
            end_id="e", arch=tiny_arch(), decay=decay,
            drift_events=(DriftInjection(t=100.0, drift_type=DriftType.SUDDEN,
                                         magnitude=0.3, transition_s=50.0),))

    def test_decay_only_during_transition(self):
        m = _AccuracyModel(self.spec())
        assert m.at(100.0) == pytest.approx(0.8)
        assert m.at(125.0) == pytest.approx(0.8 - 0.002 * 25)
        assert m.at(500.0) == pytest.approx(0.8 - 0.002 * 50)

    def test_mean_over_trapezoid(self):
        m = _AccuracyModel(self.spec())
        # constant 0.8 on [0,100], linear down to 0.7 on [100,150]
        expected = (100 * 0.8 + 50 * 0.75) / 150.0
        assert m.mean_over(0.0, 150.0) == pytest.approx(expected, abs=1e-12)

    def test_restore_resets_anchor(self):
        m = _AccuracyModel(self.spec())
        m.restore(125.0, 0.82)
        assert m.at(125.0) == pytest.approx(0.82)
        assert m.at(150.0) == pytest.approx(0.82 - 0.002 * 25)

    def test_floor_clamp(self):
        m = _AccuracyModel(self.spec(decay=0.1))
        assert m.at(150.0) == pytest.approx(0.05)
        assert 0.05 <= m.mean_over(100.0, 150.0) <= 0.8


def reference_mean_over(model, a, b):
    """``_AccuracyModel.mean_over`` as it was before it evaluated each
    breakpoint once, over the decays that overlap (anchor, b) only: every
    value through ``at`` and ``_unclamped`` over all decays."""
    if b <= a:
        return model.at(a)
    points = {a, b}
    for lo, hi, _ in model._decays:
        for p in (lo, hi):
            if a < p < b:
                points.add(p)
    grid = sorted(points)
    extra = []
    for left, right in zip(grid, grid[1:]):
        va, vb = model._unclamped(left), model._unclamped(right)
        if (va - simenv.ACCURACY_FLOOR) * (vb - simenv.ACCURACY_FLOOR) < 0:
            frac = (va - simenv.ACCURACY_FLOOR) / (va - vb)
            extra.append(left + frac * (right - left))
    grid = sorted(set(grid) | set(extra))
    total = 0.0
    for left, right in zip(grid, grid[1:]):
        total += (model.at(left) + model.at(right)) / 2.0 * (right - left)
    return total / (b - a)


_times = st.floats(0.0, 600.0) | st.sampled_from([0.0, 100.0, 150.0])


@st.composite
def _mean_over_case(draw):
    """Decays as (start, length, rate), an anchor, its value, and an
    interval [a, b] whose ends may fall on the anchor or a breakpoint."""
    decays = draw(st.lists(st.tuples(_times, st.sampled_from([0.0, 50.0]) | st.floats(0.0, 200.0),
                                     st.sampled_from([0.002, 0.02]) | st.floats(0.0, 0.05)),
                           max_size=6))
    anchor, value = draw(_times), draw(st.floats(0.0, 1.0))
    ends = [anchor] + [p for lo, length, _ in decays for p in (lo, lo + length)]
    a = draw(_times | st.sampled_from(ends), label="a")
    b = draw(_times | st.sampled_from(ends) | st.floats(a, a + 400.0), label="b")
    return decays, anchor, value, a, b


@settings(max_examples=400, deadline=None)
@given(case=_mean_over_case())
# A decay that ends before the anchor overlaps nothing, but its breakpoints
# inside (a, b) split the trapezoid sum: 0.30000000000000004, not 0.3.
@example(case=([(10.0, 50.0, 0.02)], 100.0, 0.3, 7.1, 431.9))
def test_mean_over_matches_reference(case):
    """Overlapping, zero-length and unordered decays, anchors before, inside
    and after them, intervals that cross the accuracy floor, and interval
    ends on breakpoints: the same floats as the reference."""
    decays, anchor, value, a, b = case
    model = _AccuracyModel(sudden_end())
    model._decays = [(lo, lo + length, rate) for lo, length, rate in decays]
    model.restore(anchor, value)
    got, want = model.mean_over(a, b), reference_mean_over(model, a, b)
    assert got == want and repr(got) == repr(want)


class TestBaselineStep:
    """One admission step of each policy through ``admit``."""

    def pool(self, running_mem=0.0):
        p = GpuPool(mem_capacity=8192.0, compute_capacity=8.0)
        if running_mem:
            p.running["r"] = RunningEntry(mem=running_mem, share=8.0,
                                          completion_t=float("inf"), t_r=1.0)
        return p

    def queue(self):
        def task(tid, mem, urg, arr):
            return EvolutionTask(id=tid, end_id=tid, arrival_t=arr,
                                 urgency=urg, mem_demand=mem,
                                 predicted_t_r=10.0)
        return [task("a", 3000, 20.0, 0.0),
                task("b", 6000, 80.0, 1.0),
                task("c", 1000, 50.0, 2.0)]

    def test_default_gpu_head_of_line(self):
        # "a" fits, "b" does not; admission stops there even though "c" fits
        shares = admit(Policy.DEFAULT_GPU, self.queue(), self.pool(), 0.0, [])
        assert shares == {"a": 8.0}

    def test_default_gpu_equal_shares(self):
        # admitting "a" halves the running task's share
        shares = admit(Policy.DEFAULT_GPU, self.queue(),
                       self.pool(running_mem=100.0), 0.0, [])
        assert shares == {"r": 4.0, "a": 4.0}
        # with nothing to admit, a share that is already equal stays put
        assert admit(Policy.DEFAULT_GPU, (), self.pool(running_mem=100.0), 0.0, []) == {}

    def test_serial_fifo_one_at_a_time(self):
        assert admit(Policy.SERIAL_FIFO, self.queue(), self.pool(), 0.0, []) == {"a": 8.0}
        assert admit(Policy.SERIAL_FIFO, self.queue(),
                     self.pool(running_mem=100.0), 0.0, []) == {}

    def test_serial_priority_highest_urgency(self):
        assert admit(Policy.SERIAL_PRIORITY, self.queue(), self.pool(), 0.0, []) == {"b": 8.0}

    def test_dp_no_grouping_knapsack(self):
        shares = admit(Policy.DP_NO_GROUPING, self.queue(), self.pool(), 0.0, [])
        # all three have equal predicted time; max count within 8192 MB
        assert set(shares) == {"a", "c"} or set(shares) == {"b", "c"}
        assert sum(shares.values()) == pytest.approx(8.0)

    def test_adaptive_serves_most_urgent_group_first(self):
        queue, boundaries = self.queue(), [60.0]
        # "b" (urgency 80) alone forms group 1 and is served although "a" and
        # "c" together would admit more tasks
        assert admit(Policy.ADAPTIVE, queue, self.pool(), 0.0, boundaries) == {"b": 8.0}
        # a group that does not fit falls through to the next one, which
        # splits the free compute in proportion to memory
        pool = self.pool(running_mem=4000.0)
        pool.running["r"].share = 4.0
        assert admit(Policy.ADAPTIVE, queue, pool, 0.0, boundaries) == {"a": 3.0, "c": 1.0}
        # no free compute, no admission
        assert admit(Policy.ADAPTIVE, queue, self.pool(running_mem=4000.0), 0.0,
                     boundaries) == {}


_POOL_MB = 16384.0
_POOL_COMPUTE = 8.0


@st.composite
def _admission_state(draw):
    """A pool whose running tasks fit it, a queue of waiting tasks, a time
    and urgency group boundaries."""
    pool = GpuPool(mem_capacity=_POOL_MB, compute_capacity=_POOL_COMPUTE)
    running = draw(st.lists(st.tuples(st.floats(100.0, 4000.0), st.floats(0.01, 1.0),
                                      st.floats(0.0, 200.0)), max_size=4))
    busy = draw(st.floats(0.0, 1.0))  # fraction of compute the running tasks hold
    weights = sum(w for _, w, _ in running)
    for i, (mem, w, completion_t) in enumerate(running):
        pool.running[f"r{i}"] = RunningEntry(mem=mem, share=_POOL_COMPUTE * busy * w / weights,
                                             completion_t=completion_t, t_r=1.0)
    queue = [
        EvolutionTask(id=f"q{i}", end_id=f"q{i}", arrival_t=float(i),
                      urgency=draw(st.floats(1.0, 99.0)),
                      mem_demand=draw(st.floats(100.0, 9000.0)),
                      predicted_t_r=draw(st.floats(1.0, 500.0)))
        for i in range(draw(st.integers(0, 6)))
    ]
    boundaries = sorted(draw(st.lists(st.floats(1.0, 99.0), max_size=3)))
    return pool, queue, draw(st.floats(0.0, 200.0)), boundaries


@settings(max_examples=100, deadline=None)
@given(state=_admission_state())
def test_admit_respects_free_memory_and_compute(state):
    pool, queue, now, boundaries = state
    # with no boundaries the adaptive rule is the knapsack over the whole queue
    assert admit(Policy.ADAPTIVE, queue, pool, now, []) == \
        admit(Policy.DP_NO_GROUPING, queue, pool, now, [])
    for policy in Policy:
        shares = admit(policy, queue, pool, now, boundaries)
        admitted = [task for task in queue if task.id in shares]
        assert set(shares) <= {task.id for task in admitted} | set(pool.running)
        assert sum(task.mem_demand for task in admitted) <= pool.free_memory_at(now)
        compute = sum(shares.get(tid, e.share) for tid, e in pool.running.items())
        compute += sum(shares[task.id] for task in admitted)
        assert compute <= pool.compute_capacity * (1 + 1e-12)
        assert all(share > 0 for share in shares.values())


def test_default_gpu_completion_gives_its_compute_to_the_running_task():
    """Two tasks start together with half the compute each; "a" needs 8
    compute-seconds and "b" 40.  When "a" finishes at 2 s, the admission of
    that completion, with nothing queued, gives "b" all 8 units at once: "b"
    has 32 left and finishes at 6 s instead of 10 s."""
    sim = _Sim(scenario([MobileEndSpec(end_id="e", arch=tiny_arch())],
                        policy=Policy.DEFAULT_GPU))
    for tid, work in (("a", 8.0), ("b", 40.0)):
        task = EvolutionTask(id=tid, end_id="e", arrival_t=0.0, urgency=50.0,
                             mem_demand=100.0, predicted_t_r=work / 8.0)
        sim.tasks[tid] = _TaskState(task=task, end=sim.ends[0], trigger_t=0.0,
                                    t_upload=0.0, remaining_work=work)
        sim.queue.append(task)

    def running():
        return {tid: (e.share, e.completion_t) for tid, e in sim.pool.running.items()}

    sim._admit(0.0)
    assert running() == {"a": (4.0, 2.0), "b": (4.0, 10.0)}
    sim._now = 2.0
    sim._on_retrain_done(2.0, "a")
    assert running() == {"b": (8.0, 6.0)}
    assert {m.task_id: m.t_retrain for m in sim.run().tasks} == {"a": 2.0, "b": 6.0}


# --- reference event loop ----------------------------------------------------
# The per-frame loop ``_Sim._arm`` replaced: every frame of every end is one
# heap event in push order, fed as a ``FrameRecord`` to the end's streaming
# detector unless the end is busy between its trigger and its download.
# ``run`` must reproduce it exactly.

class ReferenceSim(_Sim):
    def __init__(self, scenario):
        self.frames = {}
        self.detectors = {}
        self.busy = set()
        super().__init__(scenario)

    def _arm(self, t, end):
        if end.index not in self.frames:
            # a trace of its own, not the one the start-state cache holds
            self.frames[end.index] = frames = list(gen_trace(
                end.spec, self.sc.seed, end.index, self.sc.duration, self.sc.sampler))
            if frames:
                self._push(frames[0].t, self._on_frame, end, 0)
        self.detectors[end.index] = DriftDetector(self.sc.detector)
        self.busy.discard(end.index)

    def _on_frame(self, t, end, i):
        frames = self.frames[end.index]
        if i + 1 < len(frames):
            self._push(frames[i + 1].t, self._on_frame, end, i + 1)
        if end.index in self.busy:
            return
        event = self.detectors[end.index].update(frames[i])
        if event is not None:
            self.busy.add(end.index)
            n_frames = simenv._sampled_frames(end.start.trace, event, self.sc.sampler)
            self._on_trigger(t, end, event, n_frames)


_FC_10240 = ModelArch(layers=(LayerSpec(kind=LayerKind.FC, c_in=10240, c_out=10240),),
                      bitwidth=32, input_w=8, input_h=8)


@st.composite
def _tied_scenario(draw):
    """Identical ends with equal drift onsets on whole seconds, except that
    each end's first drift comes up to 30 s late, so the ends finish that
    cycle in any order and then trigger together.  A frame uploads in 1 s, a
    retrain with all compute takes 1 s per frame and a download 10 s, so
    events of different ends tie."""
    onsets = sorted(draw(st.sets(st.integers(1, 9).map(lambda k: 60.0 * k),
                                 min_size=2, max_size=4)))
    shared = [(t, draw(st.sampled_from(list(DriftType))),
               draw(st.sampled_from([0.0, 10.0])), draw(st.sampled_from([20.0, 40.0])))
              for t in onsets]
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))

    def end(i):
        late = draw(st.sampled_from([0.0, 10.0, 20.0, 30.0]))
        return MobileEndSpec(
            end_id=f"e{i}", arch=_FC_10240, frame_rate=rate, frame_bytes=10 * MB,
            drift_events=tuple(
                DriftInjection(t=t + (late if j == 0 else 0.0), drift_type=kind,
                               magnitude=0.5, transition_s=tr, recovery_s=rec)
                for j, (t, kind, tr, rec) in enumerate(shared)),
            decay=0.004, work_per_frame=0.8)

    return Scenario(
        seed=draw(st.integers(0, 2**16)), ends=tuple(end(i) for i in range(draw(st.integers(2, 4)))),
        policy=draw(st.sampled_from(list(Policy))),
        server=ServerSpec(mem_capacity_mb=draw(st.sampled_from([2100.0, 4200.0, 8400.0]))),
        detector=DetectorConfig(window_frames=12, sub_windows=3, temp_window_frames=12,
                                variance_threshold=2e-3, tau=20.0),
        unfrozen_fraction=0.5, duration=600.0)


def _trigger_tie_scenario():
    """Four ends where two triggers at 132 s tie with a retrain completion
    that admits a task ending at 137 s, when their uploads end.  The
    per-frame loop runs the completion first, as it was pushed before the
    frames that fire, so the task ends before the uploads are queued."""
    def end(i, late):
        return MobileEndSpec(
            end_id=f"e{i}", arch=_FC_10240, frame_rate=0.5, frame_bytes=10 * MB,
            drift_events=(DriftInjection(t=60.0 + late, drift_type=DriftType.SUDDEN,
                                         magnitude=0.5, transition_s=0.0, recovery_s=40.0),
                          DriftInjection(t=180.0, drift_type=DriftType.SUDDEN,
                                         magnitude=0.5, transition_s=0.0, recovery_s=20.0)),
            decay=0.004, work_per_frame=0.8)

    return Scenario(
        seed=0, ends=tuple(end(i, late) for i, late in enumerate((0.0, 0.0, 10.0, 10.0))),
        policy=Policy.ADAPTIVE, server=ServerSpec(mem_capacity_mb=4200.0),
        detector=DetectorConfig(window_frames=12, sub_windows=3, temp_window_frames=12,
                                variance_threshold=2e-3, tau=20.0),
        unfrozen_fraction=0.5, duration=600.0)


@settings(max_examples=100, deadline=None)
@given(sc=_tied_scenario())
@example(sc=_trigger_tie_scenario())
def test_run_matches_per_frame_reference(sc):
    simenv._starts.cache_clear()
    cold = run(sc)
    warm = run(sc)  # each end's trace and first trigger from the cache
    want = ReferenceSim(sc).run()
    assert cold == want and warm == want


# --- per-end start-state memo --------------------------------------------------

def _count_traces(monkeypatch):
    """Record ``(end_id, seed, end_index)`` for every trace ``simenv`` builds."""
    built = []

    def counted(ends, seed, duration, sampler_cfg=None):
        built.extend((spec.end_id, seed, i) for i, spec in enumerate(ends))
        return gen_traces(ends, seed, duration, sampler_cfg)

    monkeypatch.setattr(simenv, "gen_traces", counted)
    return built


def _count_samples(monkeypatch):
    """Record ``(drift type, frame times, confidences)`` of every window
    ``simenv`` samples; the confidences tell apart ends with equal times."""
    windows = []
    for kind in DriftType:
        sample = getattr(simenv, f"sample_{kind.value}")

        def counted(window, *args, kind=kind, sample=sample):
            windows.append((kind, window.t.tobytes(), window.cc.tobytes()))
            return sample(window, *args)

        monkeypatch.setattr(simenv, f"sample_{kind.value}", counted)
    return windows


def _first_windows(sc):
    """Each end's first-trigger window, as ``_count_samples`` records it."""
    windows = []
    for i, spec in enumerate(sc.ends):
        trace = gen_trace(spec, sc.seed, i, sc.duration, sc.sampler)
        found = first_drift(trace, 0, sc.detector)
        if found is not None:
            event = found[1]
            rows = (trace.t >= event.t1) & (trace.t <= event.t3)
            windows.append((event.drift_type, trace.t[rows].tobytes(), trace.cc[rows].tobytes()))
    return windows


def _output_bytes(sc, tmp_path):
    metrics = run(sc)
    write_metrics_csv(tmp_path / "metrics.csv", metrics)
    write_summary_json(tmp_path / "summary.json", metrics, sc)
    return (tmp_path / "metrics.csv").read_bytes() + (tmp_path / "summary.json").read_bytes()


def test_policies_build_each_trace_once_and_match_cold_runs(monkeypatch, tmp_path):
    from test_golden import mixed_drift_scenario
    sc = mixed_drift_scenario()  # sudden, incremental and gradual ends
    built = _count_traces(monkeypatch)
    simenv._starts.cache_clear()
    warm = {p: _output_bytes(replace(sc, policy=p), tmp_path) for p in Policy}
    assert sorted(built) == sorted((e.end_id, sc.seed, i) for i, e in enumerate(sc.ends))
    for p in Policy:
        simenv._starts.cache_clear()
        assert _output_bytes(replace(sc, policy=p), tmp_path) == warm[p], p


def _count_scans(monkeypatch):
    """Record ``(confidences, start frame)`` for every detector ``simenv``
    arms; the confidences tell the ends apart."""
    scans = []

    def counted(trace, start, config):
        scans.append((trace.cc.tobytes(), start))
        return first_drift(trace, start, config)

    monkeypatch.setattr(simenv, "first_drift", counted)
    return scans


@pytest.mark.parametrize("make, later_triggers", [
    ("mixed_drift_scenario", False),
    ("whole_second_scenario", True),  # ends trigger again after a download
])
def test_policies_sample_each_first_trigger_once(make, later_triggers, monkeypatch):
    """Each run from a cold memo samples every end's first window once.  A
    pass over the policies from a cold memo samples each window any of
    those runs samples once, the first ones and the later ones, and arms a
    detector at each start frame any of them arms once."""
    import test_golden
    sc = getattr(test_golden, make)()
    first = _first_windows(sc)
    assert len(first) == len(sc.ends)
    sampled, scanned = _count_samples(monkeypatch), _count_scans(monkeypatch)
    windows, starts = set(), set()
    for p in Policy:
        simenv._starts.cache_clear()
        s0, c0 = len(sampled), len(scanned)
        run(replace(sc, policy=p))
        assert Counter(w for w in sampled[s0:] if w in first) == Counter(first), p
        windows.update(sampled[s0:])
        starts.update(scanned[c0:])
    assert any(w not in first for w in windows) == later_triggers
    simenv._starts.cache_clear()
    s0, c0 = len(sampled), len(scanned)
    for p in Policy:
        run(replace(sc, policy=p))
    assert Counter(sampled[s0:]) == Counter(windows)
    assert Counter(scanned[c0:]) == Counter(starts)


def test_later_triggers_of_every_kind_match_cold_runs(monkeypatch, tmp_path):
    """Ends that trigger again after a download, with sudden, incremental
    and gradual later triggers: a pass over the policies, which reads each
    re-arm and later sample from the start state, gives the bytes of runs
    from a cold memo."""
    from test_golden import fleet_like_scenario
    sc = fleet_like_scenario(7)
    first = _first_windows(sc)
    sampled = _count_samples(monkeypatch)
    simenv._starts.cache_clear()
    warm = {p: _output_bytes(replace(sc, policy=p), tmp_path) for p in Policy}
    assert {w[0] for w in sampled if w not in first} == set(DriftType)
    for p in Policy:
        simenv._starts.cache_clear()
        assert _output_bytes(replace(sc, policy=p), tmp_path) == warm[p], p


@pytest.mark.parametrize("change, misses", [
    (lambda sc: replace(sc, seed=sc.seed + 1), 5),
    (lambda sc: replace(sc, ends=sc.ends[::-1]), 5),
    (lambda sc: replace(sc, ends=sc.ends[1:]), 4),    # every end moves up one index
    (lambda sc: replace(sc, duration=sc.duration - 50.0), 5),
    (lambda sc: replace(sc, ends=(replace(sc.ends[0], base_accuracy=0.75),) + sc.ends[1:]), 5),
    (lambda sc: replace(sc, sampler=replace(sc.sampler, frame_w=640)), 5),
    (lambda sc: replace(sc, sampler=replace(sc.sampler, frame_h=360)), 5),
    (lambda sc: replace(sc, detector=replace(sc.detector, rod_threshold=0.5)), 5),
], ids=["seed", "end-order", "end-index", "duration", "end-spec", "frame-w",
        "frame-h", "detector"])
def test_changed_key_input_misses_and_gives_cold_result(change, misses, monkeypatch,
                                                        tmp_path):
    from test_golden import mixed_drift_scenario
    sc = replace(mixed_drift_scenario(), policy=Policy.ADAPTIVE)
    simenv._starts.cache_clear()
    run(sc)
    changed = change(sc)
    built = _count_traces(monkeypatch)
    warm = _output_bytes(changed, tmp_path)
    assert len(built) == misses
    simenv._starts.cache_clear()
    assert _output_bytes(changed, tmp_path) == warm


def test_memo_keeps_only_the_scenario_in_use(monkeypatch):
    """A pass over a scenario's policies keeps the traces its first run
    built; a run with other settings lets every one of them go."""
    from test_golden import mixed_drift_scenario
    sc = mixed_drift_scenario()
    built = []

    def kept(*args):
        traces = gen_traces(*args)
        built.extend(weakref.ref(trace) for trace in traces)
        return traces

    monkeypatch.setattr(simenv, "gen_traces", kept)
    simenv._starts.cache_clear()
    for p in Policy:
        run(replace(sc, policy=p))
    assert len(built) == len(sc.ends) and all(ref() is not None for ref in built)
    run(replace(sc, seed=sc.seed + 1))
    gc.collect()
    assert [ref() for ref in built[:len(sc.ends)]] == [None] * len(sc.ends)


def test_memo_lets_the_last_scenario_go_before_it_builds_the_next(monkeypatch):
    """When a scenario's traces are synthesized, no trace of the scenario
    before it is held any more."""
    from test_golden import mixed_drift_scenario
    sc = mixed_drift_scenario()
    built, alive = [], []

    def kept(*args):
        alive.append(sum(ref() is not None for ref in built))
        traces = gen_traces(*args)
        built.extend(weakref.ref(trace) for trace in traces)
        return traces

    monkeypatch.setattr(simenv, "gen_traces", kept)
    simenv._starts.cache_clear()
    run(sc)
    assert alive == [0] and len(built) == len(sc.ends)
    run(replace(sc, seed=sc.seed + 1))
    assert alive == [0, 0] and len(built) == 2 * len(sc.ends)


def _quiet_ends(n, frames):
    return tuple(MobileEndSpec(end_id=f"q{i}", arch=tiny_arch()) for i in range(n)), float(frames)


@pytest.mark.parametrize("n, frames", [(30, 1500), (30, 5950)],
                         ids=["fleet-pass", "criterion-8-loop"])
def test_budget_holds_a_pass(n, frames, monkeypatch):
    """A five-policy pass builds no trace after its first run."""
    ends, duration = _quiet_ends(n, frames)
    sc = scenario(ends, duration=duration)
    simenv._starts.cache_clear()
    run(sc)
    built = _count_traces(monkeypatch)
    for policy in Policy:
        run(replace(sc, policy=policy))
    assert built == []


class TestRun:
    def test_single_end_cycle_identities(self):
        metrics = run(scenario([sudden_end()]))
        assert metrics.n_tasks >= 1
        for m in metrics.tasks:
            assert m.t_evolve == pytest.approx(
                m.t_upload + m.t_schedule + m.t_retrain + m.t_download, abs=1e-9)
            expected_qoe = m.avg_accuracy * m.t_infer / (m.t_infer + m.t_evolve)
            assert m.qoe == pytest.approx(expected_qoe, abs=1e-9)
            assert m.t_schedule == pytest.approx(0.0, abs=1e-9)
            assert m.t_retrain > 0 and m.t_upload > 0 and m.t_download > 0

    def test_two_ends_serial_queueing(self):
        ends = [sudden_end("end-a"), sudden_end("end-b")]
        metrics = run(scenario(ends, policy=Policy.SERIAL_FIFO))
        assert metrics.n_tasks >= 2
        waits = sorted(m.t_schedule for m in metrics.tasks)
        assert waits[0] == pytest.approx(0.0, abs=1e-9)
        assert waits[-1] > 1.0  # second task waits for the busy pool

    def test_all_policies_complete_work(self):
        ends = [sudden_end("end-a"), sudden_end("end-b")]
        for policy in Policy:
            metrics = run(scenario(ends, policy=policy))
            assert metrics.n_tasks >= 2, policy
            assert metrics.report is not None
            assert metrics.report.q_t <= metrics.report.q_avg + 1e-12

    def test_deterministic_metrics(self, tmp_path):
        sc = scenario([sudden_end("end-a"), sudden_end("end-b")],
                      policy=Policy.ADAPTIVE)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, run(sc))
        write_metrics_csv(p2, run(sc))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_trace(self):
        # detection times are frame-granular and may coincide across seeds,
        # but the underlying traces must differ
        spec = sudden_end()
        a = gen_trace(spec, seed=7, end_index=0, duration=100.0)
        b = gen_trace(spec, seed=8, end_index=0, duration=100.0)
        assert list(a) != list(b)

    def test_quiet_scenario_no_tasks(self):
        spec = MobileEndSpec(end_id="e", arch=tiny_arch(), drift_events=())
        metrics = run(scenario([spec], duration=300.0))
        assert metrics.n_tasks == 0
        assert metrics.report is None


class TestScenarioJson:
    def test_round_trip(self):
        sc = scenario([sudden_end("end-a"), sudden_end("end-b")],
                      policy=Policy.ADAPTIVE)
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_absent_keys_take_dataclass_defaults(self):
        doc = {"schema_version": SCHEMA_VERSION, "seed": 3, "ends": [{
            "end_id": "e", "arch": fields_doc(tiny_arch()),
            "drift_events": [{"t": 60.0, "type": "sudden", "magnitude": 0.5,
                              "transition_s": 0.0}]}]}
        event = DriftInjection(t=60.0, drift_type=DriftType.SUDDEN, magnitude=0.5,
                               transition_s=0.0)
        want = Scenario(seed=3, ends=(MobileEndSpec(end_id="e", arch=tiny_arch(),
                                                    drift_events=(event,)),))
        assert scenario_from_json(doc) == want
        doc["grouping"] = {}
        assert scenario_from_json(doc) == want
        del doc["ends"][0]["drift_events"]
        assert scenario_from_json(doc) == replace(
            want, ends=(replace(want.ends[0], drift_events=()),))

    def test_integral_numbers_stored_as_int(self):
        doc = scenario_to_json(scenario([sudden_end()]))
        doc.update(seed=7.0, epochs=3.0)
        doc["server"]["gpu_count"] = 2.0
        sc = scenario_from_json(doc)
        assert [type(v) for v in (sc.seed, sc.epochs, sc.server.gpu_count)] == [int] * 3
        assert (sc.seed, sc.epochs, sc.server.gpu_count) == (7, 3, 2)

    def test_schema_version_checked(self):
        doc = scenario_to_json(scenario([sudden_end()]))
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            scenario_from_json(doc)

    def test_missing_field_reported(self):
        doc = scenario_to_json(scenario([sudden_end()]))
        del doc["ends"]
        with pytest.raises(ValueError, match="invalid scenario"):
            scenario_from_json(doc)

    def test_summary_json(self, tmp_path):
        sc = scenario([sudden_end()])
        metrics = run(sc)
        path = tmp_path / "summary.json"
        write_summary_json(path, metrics, sc)
        import json
        doc = json.loads(path.read_text())
        assert doc["policy"] == "serial-fifo"
        assert doc["n_tasks"] == metrics.n_tasks
        assert "q_t" in doc


def _unlike(default, strategy):
    return strategy.filter(lambda value: value != default)


@functools.lru_cache(maxsize=256)  # a strategy is validated on its first draw
def _real(lo, hi, default):
    return _unlike(default, st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@functools.lru_cache(maxsize=256)
def _int(lo, hi, default):
    return _unlike(default, st.integers(lo, hi))


@st.composite
def _layers(draw):
    return LayerSpec(kind=draw(st.sampled_from(LayerKind)), c_in=draw(st.integers(1, 64)),
                     c_out=draw(st.integers(1, 64)), k1=draw(_int(1, 7, 1)),
                     k2=draw(_int(1, 7, 1)), s1=draw(_int(1, 3, 1)), s2=draw(_int(1, 3, 1)),
                     p1=draw(_int(0, 3, 0)), p2=draw(_int(0, 3, 0)))


_archs = st.builds(ModelArch, layers=st.lists(_layers(), min_size=1, max_size=3),
                   bitwidth=st.sampled_from((8, 16)), input_w=_int(1, 512, 224),
                   input_h=_int(1, 512, 224), batch=_int(2, 64, 1))


@st.composite
def _drift_events(draw):
    real = st.floats(0.0, 1e4, allow_nan=False)
    onsets = sorted(draw(st.lists(real, min_size=1, max_size=3)))
    return tuple(DriftInjection(t=t, drift_type=draw(st.sampled_from(DriftType)),
                                magnitude=draw(st.floats(1e-3, 0.999)),
                                transition_s=draw(st.floats(0.0, 500.0)),
                                recovery_s=draw(_real(0.0, 500.0, 150.0)))
                 for t in onsets)


@st.composite
def _ends(draw, end_id):
    curve = AccuracyCurve(a_max=draw(_real(0.1, 1.0, 0.82)), b=draw(_real(0.0, 5.0, 0.5)),
                          c=draw(_real(0.0, 5.0, 1.0)))
    return MobileEndSpec(end_id=end_id, arch=draw(_archs), drift_events=draw(_drift_events()),
                         frame_rate=draw(_real(0.01, 60.0, 1.0)),
                         frame_bytes=draw(_real(1.0, 1e7, 200_000.0)),
                         base_accuracy=draw(_real(1e-3, 1.0, 0.8)),
                         decay=draw(_real(0.0, 0.1, 0.002)), gain_curve_truth=curve,
                         work_per_frame=draw(_real(1e-3, 10.0, 1.0)))


@st.composite
def _scenarios(draw):
    """A scenario whose every field, and every field of every dataclass it
    holds, differs from its default."""
    n_min = draw(_int(1, 6, 3))
    lambda_min = draw(_real(-50.0, 50.0, 0.0))
    grouping = GroupingConfig(n_max=draw(_int(n_min, 40, 12)), n_min=n_min,
                              eps_range=draw(_real(1e-3, 100.0, 35.0)),
                              sigma=draw(_real(1e-3, 50.0, GroupingConfig.sigma)),
                              lambda_min=lambda_min,
                              lambda_max=lambda_min + draw(_real(1e-3, 200.0, 100.0 - lambda_min)))
    r_max = draw(_real(1e-3, 5.0, 1.0))
    sampler = SamplerConfig(r_f=draw(_real(1e-3, 5.0, 0.6)), r0=draw(_real(1e-4, r_max, 0.1)),
                            delta_r=draw(_real(0.0, 1.0, 0.05)), r_max=r_max,
                            eps1=draw(_real(1e-3, 1.0, 0.55)), eps2=draw(_real(1e-3, 1.0, 0.2)),
                            frame_w=draw(_int(1, 4096, 1280)), frame_h=draw(_int(1, 4096, 720)))
    sub_windows = draw(_int(1, 12, 3))
    detector = DetectorConfig(window_frames=draw(_int(1, 300, 90)), sub_windows=sub_windows,
                              temp_window_frames=sub_windows * draw(_int(1, 20, 90 / sub_windows)),
                              rod_threshold=draw(_real(1e-3, 1.0, 0.55)),
                              variance_threshold=draw(_real(1e-6, 1.0, 0.045 ** 2)),
                              tau=draw(_real(1e-3, 500.0, 90.0)),
                              d0_factor=draw(_real(1e-3, 5.0, 0.2)))
    n_ends = draw(st.integers(1, 3))
    ends = tuple(draw(_ends(f"end-{i}")) for i in range(n_ends))
    server = ServerSpec(mem_capacity_mb=draw(_real(1.0, 1e6, 8192.0)),
                        compute_capacity=draw(_real(1e-3, 1e3, 8.0)),
                        gpu_count=draw(_int(2, 16, 1)))
    return Scenario(seed=draw(st.integers(0, 2 ** 32 - 1)), ends=ends, server=server,
                    uplink_mbps=draw(_real(1e-3, 1e3, 10.0)),
                    downlink_mbps=draw(_real(1e-3, 1e3, 20.0)),
                    policy=draw(_unlike(Policy.ADAPTIVE, st.sampled_from(Policy))),
                    duration=draw(_real(1.0, 1e5, 600.0)), grouping=grouping, sampler=sampler,
                    detector=detector, epochs=draw(_int(1, 100, 10)),
                    data_reduction=draw(_real(1e-3, 1.0, 1.0)),
                    unfrozen_fraction=draw(_real(1e-3, 1.0, 0.31)),
                    lookahead_factor=draw(_real(0.0, 10.0, 0.1)))


def _names(cls, **renamed):
    """Field names of ``cls``, each in ``renamed`` under its JSON key."""
    return {renamed.get(f.name, f.name) for f in fields(cls)}


def _assert_no_defaults(obj):
    for f in fields(obj):
        value = getattr(obj, f.name)
        assert f.default is MISSING or value != f.default, f"{type(obj).__name__}.{f.name}"
        for item in value if isinstance(value, tuple) else (value,):
            if is_dataclass(item):
                _assert_no_defaults(item)


@settings(max_examples=100, deadline=None)
@given(sc=_scenarios())
def test_scenario_codec_round_trips_every_field(sc):
    _assert_no_defaults(sc)
    doc = scenario_to_json(sc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        save_scenario(path, sc)
        loaded = load_scenario(path)
    # repr tells apart values that compare equal: an enum member and its
    # string, an int and its float
    for got in (scenario_from_json(doc), loaded):
        assert got == sc and repr(got) == repr(sc)
    assert set(doc) == _names(Scenario) | {"schema_version"}
    for section, cls in (("server", ServerSpec), ("grouping", GroupingConfig),
                         ("sampler", SamplerConfig), ("detector", DetectorConfig)):
        assert set(doc[section]) == _names(cls)
    for end, end_doc in zip(sc.ends, doc["ends"]):
        assert repr(from_doc(ModelArch, fields_doc(end.arch))) == repr(end.arch)
        assert set(end_doc) == _names(MobileEndSpec, gain_curve_truth="gain_curve")
        assert set(end_doc["gain_curve"]) == _names(AccuracyCurve)
        assert set(end_doc["arch"]) == _names(ModelArch)
        assert all(set(layer) == _names(LayerSpec) for layer in end_doc["arch"]["layers"])
        assert all(set(ev) == _names(DriftInjection, drift_type="type")
                   for ev in end_doc["drift_events"])


class TestCostModel:
    def test_reference_value(self):
        got = ground_truth_retrain_seconds(1000.0, 100.0, 10.0, 20.0, 16.0)
        assert got == pytest.approx(2.0 + 0.0008 * 1000 * 10 + 0.02 * 100 * 20 / 4.0)

    def test_samples_deterministic_and_consistent(self):
        a = synth_regressor_samples(50, seed=5)
        b = synth_regressor_samples(50, seed=5)
        assert a == b
        for f, y in a:
            assert y == pytest.approx(ground_truth_retrain_seconds(*f))


def test_injection_validation():
    with pytest.raises(ValueError):
        DriftInjection(t=-1.0, drift_type=DriftType.SUDDEN, magnitude=0.5,
                       transition_s=0.0)
    with pytest.raises(ValueError):
        DriftInjection(t=0.0, drift_type=DriftType.SUDDEN, magnitude=1.5,
                       transition_s=0.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(seed=1, ends=())
    with pytest.raises(ValueError):
        scenario([sudden_end("same"), sudden_end("same")])


def test_scenario_bounds_admit_their_limits():
    """An end of ``MAX_FRAMES_PER_END`` frames and ``MAX_EPOCHS`` epochs are
    allowed, one frame or one epoch more is not; no trace is built."""
    end = sudden_end()  # 1 fps
    Scenario(seed=1, ends=(end,), duration=float(MAX_FRAMES_PER_END), epochs=MAX_EPOCHS)
    with pytest.raises(ValueError, match=r"ends\[0\]\.frame_rate 1\.0 over duration"):
        Scenario(seed=1, ends=(end,), duration=MAX_FRAMES_PER_END + 1.0)
    with pytest.raises(ValueError, match="epochs must be in"):
        Scenario(seed=1, ends=(end,), epochs=MAX_EPOCHS + 1)
