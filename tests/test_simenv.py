import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosched.drift import Detection, DetectorConfig, DriftDetector, DriftType, FrameRecord
from evosched.profiler import MB, LayerKind, LayerSpec, ModelArch
from evosched.sampler import SamplerConfig
from evosched.scheduler import EvolutionTask, GpuPool, RunningEntry
from evosched.simenv import (
    FEATURE_DIM,
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
    _stream,
    admit,
    default_centroids,
    gen_trace,
    ground_truth_retrain_seconds,
    run,
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
        assert a == b
        c = gen_trace(spec, seed=3, end_index=1, duration=100.0)
        assert a != c


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
    model = default_centroids()

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
def _trace_case(draw):
    """An end with random, possibly overlapping drifts, and trace arguments.
    Onsets and transition ends often fall exactly on frame times."""
    frame_rate = draw(st.sampled_from([1.0, 2.5, 0.5, 3.0]) | st.floats(0.2, 5.0))
    duration = draw(st.floats(1.0, 120.0))
    n = int(duration * frame_rate)
    on_frame = st.integers(0, n + 2).map(lambda k: k / frame_rate)
    span = st.just(0.0) | on_frame | st.floats(0.0, 60.0)
    events = sorted(
        (draw(on_frame | st.floats(0.0, duration + 5.0)),
         draw(st.sampled_from(list(DriftType))),
         draw(st.floats(0.01, 0.99)), draw(span), draw(span))
        for _ in range(draw(st.integers(0, 4)))
    )
    spec = MobileEndSpec(
        end_id="e", arch=tiny_arch(), frame_rate=frame_rate,
        base_accuracy=draw(st.floats(0.05, 1.0)),
        drift_events=tuple(DriftInjection(t=t, drift_type=kind, magnitude=m,
                                          transition_s=tr, recovery_s=rec)
                           for t, kind, m, tr, rec in events))
    cfg = SamplerConfig(frame_w=draw(st.integers(1, 2000)),
                        frame_h=draw(st.integers(1, 2000)))
    return spec, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 64)), duration, cfg


@settings(max_examples=200, deadline=None)
@given(case=_trace_case())
def test_gen_trace_matches_reference_loop(case):
    spec, seed, end_index, duration, cfg = case
    got = gen_trace(spec, seed, end_index, duration, cfg)
    want = reference_gen_trace(spec, seed, end_index, duration, cfg)
    assert got == want
    assert [repr(f) for f in got] == [repr(f) for f in want]


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


class TestBaselineStep:
    """One admission step of each policy through ``admit``."""

    def pool(self, running_mem=0.0):
        p = GpuPool(mem_capacity=8192.0, compute_capacity=8.0)
        if running_mem:
            p.running["r"] = RunningEntry(mem=running_mem, share=8.0,
                                          completion_t=float("inf"), t_r=1.0)
        return p

    def queue(self, groups=(None, None, None)):
        def task(tid, mem, urg, arr, group):
            return EvolutionTask(id=tid, end_id=tid, arrival_t=arr,
                                 urgency=urg, mem_demand=mem,
                                 predicted_t_r=10.0, group=group)
        return [task("a", 3000, 20.0, 0.0, groups[0]),
                task("b", 6000, 80.0, 1.0, groups[1]),
                task("c", 1000, 50.0, 2.0, groups[2])]

    def test_default_gpu_head_of_line(self):
        # "a" fits, "b" does not; admission stops there even though "c" fits
        shares = admit(Policy.DEFAULT_GPU, self.queue(), self.pool(), 0.0)
        assert shares == {"a": 8.0}

    def test_default_gpu_equal_shares(self):
        # admitting "a" halves the running task's share
        shares = admit(Policy.DEFAULT_GPU, self.queue(),
                       self.pool(running_mem=100.0), 0.0)
        assert shares == {"r": 4.0, "a": 4.0}
        # with nothing to admit, a share that is already equal stays put
        assert admit(Policy.DEFAULT_GPU, (), self.pool(running_mem=100.0), 0.0) == {}

    def test_serial_fifo_one_at_a_time(self):
        assert admit(Policy.SERIAL_FIFO, self.queue(), self.pool(), 0.0) == {"a": 8.0}
        assert admit(Policy.SERIAL_FIFO, self.queue(),
                     self.pool(running_mem=100.0), 0.0) == {}

    def test_serial_priority_highest_urgency(self):
        assert admit(Policy.SERIAL_PRIORITY, self.queue(), self.pool(), 0.0) == {"b": 8.0}

    def test_dp_no_grouping_knapsack(self):
        shares = admit(Policy.DP_NO_GROUPING, self.queue(), self.pool(), 0.0)
        # all three have equal predicted time; max count within 8192 MB
        assert set(shares) == {"a", "c"} or set(shares) == {"b", "c"}
        assert sum(shares.values()) == pytest.approx(8.0)

    def test_adaptive_serves_most_urgent_group_first(self):
        queue = self.queue(groups=(2, 1, 2))
        # "b" alone forms group 1 and is served although "a" and "c" together
        # would admit more tasks
        assert admit(Policy.ADAPTIVE, queue, self.pool(), 0.0) == {"b": 8.0}
        # a group that does not fit falls through to the next one, which
        # splits the free compute in proportion to memory
        pool = self.pool(running_mem=4000.0)
        pool.running["r"].share = 4.0
        assert admit(Policy.ADAPTIVE, queue, pool, 0.0) == {"a": 3.0, "c": 1.0}
        # no free compute, no admission
        assert admit(Policy.ADAPTIVE, queue, self.pool(running_mem=4000.0), 0.0) == {}


_POOL_MB = 16384.0
_POOL_COMPUTE = 8.0


@st.composite
def _admission_state(draw):
    """A pool whose running tasks fit it, a queue of waiting tasks, and a time."""
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
                      predicted_t_r=draw(st.floats(1.0, 500.0)),
                      group=draw(st.integers(1, 3)))
        for i in range(draw(st.integers(0, 6)))
    ]
    return pool, queue, draw(st.floats(0.0, 200.0))


@settings(max_examples=100, deadline=None)
@given(state=_admission_state())
def test_admit_respects_free_memory_and_compute(state):
    pool, queue, now = state
    for policy in Policy:
        shares = admit(policy, queue, pool, now)
        admitted = [task for task in queue if task.id in shares]
        assert set(shares) <= {task.id for task in admitted} | set(pool.running)
        assert sum(task.mem_demand for task in admitted) <= pool.free_memory_at(now)
        compute = sum(shares.get(tid, e.share) for tid, e in pool.running.items())
        compute += sum(shares[task.id] for task in admitted)
        assert compute <= pool.compute_capacity * (1 + 1e-12)
        assert all(share > 0 for share in shares.values())


# --- reference event loop ----------------------------------------------------
# The per-frame loop ``_Sim._arm`` replaced: every frame of every end is one
# heap event in push order, fed to the end's detector unless the end is busy
# between its trigger and its download.  ``run`` must reproduce it exactly.

class ReferenceSim(_Sim):
    def __init__(self, scenario):
        self.detectors = {}
        self.busy = set()
        super().__init__(scenario)

    def _arm(self, t, end):
        if end.index not in self.detectors and end.trace:
            self._push(end.trace[0].t, self._on_frame, end, 0)
        self.detectors[end.index] = DriftDetector(self.sc.detector)
        self.busy.discard(end.index)

    def _on_frame(self, t, end, i):
        if i + 1 < len(end.trace):
            self._push(end.trace[i + 1].t, self._on_frame, end, i + 1)
        if end.index in self.busy:
            return
        event = self.detectors[end.index].update(end.trace[i])
        if event is not None:
            self.busy.add(end.index)
            self._on_trigger(t, end, event)


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


@settings(max_examples=100, deadline=None)
@given(sc=_tied_scenario())
def test_run_matches_per_frame_reference(sc):
    assert run(sc) == ReferenceSim(sc).run()


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
        assert a != b

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
