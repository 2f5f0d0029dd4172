"""Deterministic discrete-event simulator for edge-assisted model evolution.

Each mobile end streams a synthetic frame trace through a drift detector; a
detected drift triggers frame sampling, upload, scheduling on the shared GPU
pool, retraining, and model download, closing one life cycle.  Five scheduling
policies are available, from plain serial FIFO to the full urgency-grouped
knapsack pipeline.  Identical (scenario, seed) inputs give identical outputs.
"""
from __future__ import annotations

import csv
import functools
import heapq
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    LifeCycle,
    QoEReport,
    UrgencyInput,
    check_numbers,
    penalized_average_qoe,
    penalty_weights_for_cycles,
    qoe_single,
    urgency,
)
from .drift import (
    DetectorConfig,
    DriftEvent,
    DriftType,
    FrameTrace,
    first_drift,
    write_trace_csv,
)
from .profiler import (
    MB,
    AccuracyCurve,
    ModelArch,
    arch_from_doc,
    doc_fields,
    fields_doc,
    memory_demand,
    read_json,
)
from .sampler import (
    GlobalFeatureModel,
    SamplerConfig,
    sample_gradual,
    sample_incremental,
    sample_sudden,
)
from .scheduler import (
    EvolutionTask,
    GpuPool,
    GroupingConfig,
    RunningEntry,
    allocate_compute,
    assign_group,
    decide_capacity,
    group_boundaries,
    group_number,
    select_tasks,
)

SCHEMA_VERSION = 1
ACCURACY_FLOOR = 0.05


class Policy(str, Enum):
    ADAPTIVE = "adaptive"            # grouping + knapsack + proportional compute
    DEFAULT_GPU = "default-gpu"      # FIFO admission, equal compute time-slices
    SERIAL_FIFO = "serial-fifo"      # one task at a time, arrival order
    SERIAL_PRIORITY = "serial-priority"  # one at a time, highest urgency first
    DP_NO_GROUPING = "dp-no-grouping"    # knapsack over the whole queue


@dataclass(frozen=True)
class DriftInjection:
    t: float                # drift onset
    drift_type: DriftType
    magnitude: float        # absolute CLC drop at full transition
    transition_s: float     # onset-to-settled duration
    recovery_s: float = 150.0  # CLC returns to base this long after settling

    def __post_init__(self):
        check_numbers(self)
        if self.t < 0 or self.transition_s < 0 or self.recovery_s < 0:
            raise ValueError("times must be non-negative")
        if not 0 < self.magnitude < 1:
            raise ValueError("magnitude must be in (0, 1)")


@dataclass(frozen=True)
class MobileEndSpec:
    end_id: str
    arch: ModelArch
    drift_events: Tuple[DriftInjection, ...] = ()
    frame_rate: float = 1.0
    frame_bytes: float = 200_000.0
    base_accuracy: float = 0.8
    decay: float = 0.002           # accuracy loss per second during a transition
    gain_curve_truth: AccuracyCurve = AccuracyCurve(a_max=0.82, b=0.5, c=1.0)
    work_per_frame: float = 1.0    # compute-seconds per frame per epoch

    def __post_init__(self):
        check_numbers(self)
        if self.frame_rate <= 0 or self.frame_bytes <= 0:
            raise ValueError("frame_rate and frame_bytes must be positive")
        if not 0 < self.base_accuracy <= 1:
            raise ValueError("base_accuracy must be in (0, 1]")
        if self.decay < 0 or self.work_per_frame <= 0:
            raise ValueError("decay must be >= 0 and work_per_frame > 0")
        times = [e.t for e in self.drift_events]
        if times != sorted(times):
            raise ValueError("drift events must be time-ordered")
        object.__setattr__(self, "drift_events", tuple(self.drift_events))


@dataclass(frozen=True)
class ServerSpec:
    mem_capacity_mb: float = 8192.0
    compute_capacity: float = 8.0   # compute units per second
    gpu_count: int = 1

    def __post_init__(self):
        check_numbers(self)
        if self.mem_capacity_mb <= 0 or self.compute_capacity <= 0 or self.gpu_count < 1:
            raise ValueError("server capacities must be positive")

    @property
    def total_mem_mb(self) -> float:
        return self.mem_capacity_mb * self.gpu_count

    @property
    def total_compute(self) -> float:
        return self.compute_capacity * self.gpu_count


@dataclass(frozen=True)
class Scenario:
    seed: int
    ends: Tuple[MobileEndSpec, ...]
    server: ServerSpec = ServerSpec()
    uplink_mbps: float = 10.0       # MiB per second
    downlink_mbps: float = 20.0     # MiB per second
    policy: Policy = Policy.ADAPTIVE
    duration: float = 600.0
    grouping: GroupingConfig = GroupingConfig(sigma=24.0)
    sampler: SamplerConfig = SamplerConfig()
    detector: DetectorConfig = DetectorConfig()
    epochs: int = 10
    data_reduction: float = 1.0
    unfrozen_fraction: float = 0.31
    lookahead_factor: float = 0.1

    def __post_init__(self):
        check_numbers(self)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.ends:
            raise ValueError("scenario needs at least one end")
        if self.uplink_mbps <= 0 or self.downlink_mbps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.data_reduction <= 1 or not 0 < self.unfrozen_fraction <= 1:
            raise ValueError("data_reduction and unfrozen_fraction must be in (0, 1]")
        if self.lookahead_factor < 0:
            raise ValueError("lookahead_factor must be non-negative")
        ids = [e.end_id for e in self.ends]
        if len(set(ids)) != len(ids):
            raise ValueError("end ids must be unique")
        object.__setattr__(self, "ends", tuple(self.ends))


# --- trace synthesis --------------------------------------------------------

FEATURE_DIM = 4
PIXEL_OLD_FRACTION = 0.3
PIXEL_NEW_FRACTION = 0.8


def default_centroids() -> GlobalFeatureModel:
    """Two-category feature model used by generated traces."""
    return GlobalFeatureModel(centroids={
        0: ((0.0, 0.0, 0.0, 0.0),),
        1: ((1.0, 1.0, 1.0, 1.0),),
    })


# the server's global view, against which the gradual sampler measures deviation
_FEATURE_MODEL = default_centroids()
# the centroids of categories 0 and 1, around which generated detections lie
_CENTROIDS = np.array([_FEATURE_MODEL.centroids[cat][0] for cat in (0, 1)])
_CENTROIDS.flags.writeable = False


def _stream(seed: int, end_index: int, purpose: int) -> np.random.Generator:
    """Named substream: adding an end or purpose never perturbs the others."""
    return np.random.default_rng(np.random.SeedSequence((seed, end_index, purpose)))


def gen_trace(
    spec: MobileEndSpec,
    seed: int,
    end_index: int,
    duration: float,
    sampler_cfg: Optional[SamplerConfig] = None,
) -> FrameTrace:
    """Deterministic per-frame trace realizing the end's declared drifts.

    Each substream is drawn in one call, in the order a frame-by-frame loop
    would draw it (CLC noise then pixel noise per frame; two detections of
    ``FEATURE_DIM`` per frame).  While a drift is active the mean CLC and
    pixel levels follow the last active event, and detections shift by the
    magnitude of the first one.  A gradual drift mixes old and new regimes,
    choosing the new one with a probability that rises over its transition.
    Each frame's cc and lc are both the square root of its CLC, and it has
    one detection of each category.  The detection features have a
    substream of their own, drawn on the first read of ``features``: most
    traces are never sampled by feature deviation nor written out.
    """
    cfg = sampler_cfg or SamplerConfig()
    area = float(cfg.frame_w * cfg.frame_h)
    noise_rng = _stream(seed, end_index, 0)
    mix_rng = _stream(seed, end_index, 1)

    n = max(0, int(duration * spec.frame_rate))
    t = np.arange(1, n + 1) / spec.frame_rate
    mix = mix_rng.random(n)
    # normal(0, scale) draws 0 + scale * z for each standard normal z
    noise = noise_rng.standard_normal((n, 2)) * [0.01, 0.02 * area]

    base = spec.base_accuracy
    p_old = PIXEL_OLD_FRACTION * area
    p_new = PIXEL_NEW_FRACTION * area
    level = np.full(n, base, dtype=float)
    pixel = np.full(n, p_old)
    shift = np.zeros(n)
    shifted = 0  # where the frames that earlier events are active on end
    for ev in spec.drift_events:
        settle = ev.t + ev.transition_s
        recover = settle + ev.recovery_s
        # t increases, so the event is active on frames lo to hi - 1, has
        # settled from mid on, and ramps on lo to mid - 1 (transition_s > 0)
        lo, mid, hi = np.searchsorted(t, (ev.t, settle, recover)).tolist()
        dropped = base - ev.magnitude
        # Events start in time order, so of the frames from lo on, those
        # before shifted have an earlier event's shift already.
        shift[max(lo, shifted):hi] = ev.magnitude
        shifted = max(shifted, hi)
        if ev.drift_type is DriftType.SUDDEN:
            level[lo:hi] = dropped
            pixel[lo:hi] = p_new
        elif ev.drift_type is DriftType.INCREMENTAL:
            level[mid:hi] = dropped
            level[lo:mid] = base - ev.magnitude * ((t[lo:mid] - ev.t) / ev.transition_s)
            # The scene statistics shift faster than the confidence does, so
            # the early transition already looks like the new distribution.
            ramp = ev.transition_s / 2.0
            # a subnormal ramp overflows to inf, and min(1, inf) is the 1 wanted
            with np.errstate(over="ignore"):
                frac = np.minimum(1.0, (t[lo:hi] - ev.t) / ramp) if ramp > 0 else 1.0
            pixel[lo:hi] = p_old + (p_new - p_old) * frac
        else:  # gradual: old/new mixture with rising new-regime probability
            q = (t[lo:mid] - ev.t) / ev.transition_s
            level[mid:hi] = dropped
            level[lo:mid] = np.where(mix[lo:mid] < q, dropped, base)
            # scene statistics only settle once the mixture does
            pixel[mid:hi] = p_new
            pixel[lo:mid] = p_old

    root = np.sqrt(np.minimum(1.0, np.maximum(1e-3, level + noise[:, 0])))
    pixel = np.maximum(0.0, pixel + noise[:, 1])

    def features():
        det_noise = _stream(seed, end_index, 2).standard_normal((n, 2, FEATURE_DIM)) * 0.03
        return (_CENTROIDS + shift[:, None, None]) + det_noise

    return FrameTrace(t=t, cc=root, lc=root, pixel_diff=pixel, features=features,
                      categories=(0, 1))


def _sampled_frames(trace: FrameTrace, event: DriftEvent, sampler_cfg: SamplerConfig) -> int:
    """Frames an end uploads for ``event``: its drift type's sampler run over
    the trigger window ``[t1, t3]`` of ``trace``, and at least one."""
    # the trace is time-ordered, so the window is one slice
    times = trace.t
    lo = int(np.searchsorted(times, event.t1, side="left"))
    hi = int(np.searchsorted(times, event.t3, side="right"))
    window = trace.take(slice(lo, hi))
    # the samplers are looked up as module globals, so a wrapper sees each call
    if event.drift_type is DriftType.SUDDEN:
        selected = sample_sudden(window, sampler_cfg.r_f)
    elif event.drift_type is DriftType.INCREMENTAL:
        selected = sample_incremental(window, sampler_cfg)
    else:
        selected = sample_gradual(window, sampler_cfg, _FEATURE_MODEL)
    return max(1, len(selected))


# --- per-end start state ----------------------------------------------------
# What an end sees does not depend on the policy, so the runs of a scenario
# share it: _starts keeps the last scenario's, keyed by everything gen_trace,
# first_drift and _sampled_frames read.  Nothing a policy does may change a
# start; whatever a run changes in what an end sees (a download lifting its
# confidence, say) must be applied where the run reads the trace and join the
# key of what it changes.

class _Start(NamedTuple):
    """An end's policy-free start: its trace, what a fresh detector armed at
    a given frame of it finds, and the frames the end samples for a drift's
    window.  Runs fill ``drifts`` and ``samples`` as they arm detectors and
    sample; a run may add entries but never changes one."""

    trace: FrameTrace
    # start frame -> first_drift(trace, start frame, detector)
    drifts: Dict[int, Optional[Tuple[int, DriftEvent]]]
    # (drift type, t1, t3), all that _sampled_frames reads of an event -> its result
    samples: Dict[Tuple[DriftType, float, float], int]


@functools.lru_cache(maxsize=1)
def _starts(ends: Tuple[MobileEndSpec, ...], seed: int, duration: float,
            sampler_cfg: SamplerConfig, detector: DetectorConfig) -> Tuple[_Start, ...]:
    """Each end's :class:`_Start`; ``detector`` keys the ``drifts`` runs add."""
    # looked up as a module global, so a wrapper of gen_trace sees each build
    return tuple(_Start(gen_trace(spec, seed, i, duration, sampler_cfg), {}, {})
                 for i, spec in enumerate(ends))


# --- ground-truth retraining cost model -------------------------------------

def ground_truth_retrain_seconds(
    param_mb: float,
    data_count: float,
    unfrozen_layers: float,
    epochs: float,
    batch: float,
) -> float:
    """Reference cost model the time regressor is trained against."""
    return (2.0
            + 0.0008 * param_mb * unfrozen_layers
            + 0.02 * data_count * epochs / math.sqrt(batch))


def synth_regressor_samples(n: int, seed: int) -> List[Tuple[List[float], float]]:
    """Feature/target pairs drawn from the ground-truth cost model."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        f = [
            float(rng.uniform(50, 2000)),       # parameter size, MB
            float(rng.uniform(20, 400)),        # retraining-data count
            float(rng.integers(1, 31)),         # unfrozen layers
            float(rng.integers(5, 41)),         # epochs
            float(rng.integers(4, 65)),         # batch size
        ]
        samples.append((f, ground_truth_retrain_seconds(*f)))
    return samples


# --- metrics ----------------------------------------------------------------

@dataclass(frozen=True)
class TaskMetrics(LifeCycle):
    """The life cycle one finished task closed, with the task that closed it."""

    task_id: str
    end_id: str
    urgency: float
    trigger_t: float

    @property
    def qoe(self) -> float:
        """QoE of this life cycle (:func:`qoe_single`)."""
        return qoe_single(self)


@dataclass(frozen=True)
class SimMetrics:
    tasks: Tuple[TaskMetrics, ...]
    report: Optional[QoEReport]
    mean_evolving_time: float
    mean_t_schedule: float
    mean_t_retrain: float

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


# --- accuracy model ---------------------------------------------------------

class _AccuracyModel:
    """Piecewise-linear served-model accuracy of one end.

    Decays at the end's rate during declared drift transitions, holds
    otherwise, and jumps up at each model download.  Evaluation is anchored at
    the most recent restoration point so simulated downloads simply reset it.
    """

    def __init__(self, spec: MobileEndSpec):
        self._decays = [(ev.t, ev.t + ev.transition_s, spec.decay)
                        for ev in spec.drift_events]
        self._anchor_t = 0.0
        self._anchor_a = spec.base_accuracy

    def at(self, t: float) -> float:
        return max(ACCURACY_FLOOR, self._unclamped(t))

    def restore(self, t: float, value: float) -> None:
        self._anchor_t = t
        self._anchor_a = max(ACCURACY_FLOOR, min(1.0, value))

    def mean_over(self, a: float, b: float) -> float:
        """Exact time-weighted mean over [a, b] (trapezoid on breakpoints,
        including points where the floor clamp engages)."""
        if b <= a:
            return self.at(a)
        points = {a, b}
        for lo, hi, _ in self._decays:
            for p in (lo, hi):
                if a < p < b:
                    points.add(p)
        grid = sorted(points)
        values = [self._unclamped(p) for p in grid]
        accuracy = {p: max(ACCURACY_FLOOR, v) for p, v in zip(grid, values)}
        # clamp crossings: within each segment the unclamped value is linear
        for left, right, va, vb in zip(grid, grid[1:], values, values[1:]):
            if (va - ACCURACY_FLOOR) * (vb - ACCURACY_FLOOR) < 0:
                frac = (va - ACCURACY_FLOOR) / (va - vb)
                cross = left + frac * (right - left)
                if cross not in accuracy:
                    accuracy[cross] = self.at(cross)
        grid = sorted(accuracy)
        total = 0.0
        for left, right in zip(grid, grid[1:]):
            total += (accuracy[left] + accuracy[right]) / 2.0 * (right - left)
        return total / (b - a)

    def _unclamped(self, t: float) -> float:
        drop = 0.0
        for lo, hi, rate in self._decays:
            overlap = min(t, hi) - max(self._anchor_t, lo)
            if overlap > 0:
                drop += rate * overlap
        return self._anchor_a - drop


# --- simulation -------------------------------------------------------------

@dataclass
class _EndState:
    spec: MobileEndSpec
    index: int
    start: _Start  # policy-free: see _Start
    accuracy: _AccuracyModel
    cycle_start: float = 0.0
    mem_demand_mb: float = 0.0
    param_bytes: float = 0.0


@dataclass
class _TaskState:
    task: EvolutionTask
    end: _EndState
    trigger_t: float
    t_upload: float
    remaining_work: float         # compute-seconds of retraining left
    admit_t: float = 0.0
    t_retrain: float = 0.0


class _Sim:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.pool = GpuPool(
            mem_capacity=scenario.server.total_mem_mb,
            compute_capacity=scenario.server.total_compute,
        )
        self.queue: List[EvolutionTask] = []
        self.tasks: Dict[str, _TaskState] = {}
        self.finished: List[TaskMetrics] = []
        self.heap: List[tuple] = []
        self._seq = 0
        self._now = 0.0  # time of the event being handled
        self._task_counter = 0
        self.boundaries: List[float] = []
        if scenario.policy in (Policy.ADAPTIVE,):
            k = group_number(scenario.grouping)
            g = scenario.grouping
            self.boundaries = group_boundaries(k, g.lambda_min, g.lambda_max, g.sigma)
        self._work_t = 0.0  # time up to which remaining_work is current

        self.ends = []
        starts = _starts(scenario.ends, scenario.seed, scenario.duration,
                         scenario.sampler, scenario.detector)
        for i, (spec, start) in enumerate(zip(scenario.ends, starts)):
            memory = memory_demand(spec.arch)
            end = _EndState(
                spec=spec, index=i, start=start,
                accuracy=_AccuracyModel(spec),
                mem_demand_mb=memory.total_mb,
                param_bytes=memory.m_p,
            )
            self.ends.append(end)
            self._arm(0.0, end)

    # -- event plumbing --

    def _push(self, t: float, handler, *args, key: Optional[tuple] = None) -> None:
        """Schedule ``handler(t, *args)``.  Events at the same ``t`` run in
        ``key`` order.  The default key is ``(time of the event being
        handled, 1, push order)``: events pushed earlier in simulated time
        run first, and a trigger's key ``(time of the frame before it, 0,
        end index)`` puts it before the events pushed at that frame's time,
        as the frame events of a per-frame loop would run."""
        if key is None:
            self._seq += 1
            key = (self._now, 1, self._seq)
        heapq.heappush(self.heap, (t, key, handler, args))

    def run(self) -> SimMetrics:
        while self.heap:
            t, _, handler, args = heapq.heappop(self.heap)
            if t > self.sc.duration:
                break
            self._now = t
            handler(t, *args)
        # Events left past the end hold bound methods of this simulation;
        # dropping them lets it go without waiting for the cycle GC.
        self.heap.clear()
        return self._collect()

    # -- mobile side --

    def _arm(self, t: float, end: _EndState) -> None:
        """Push a trigger at the frame where a fresh detector, fed the end's
        frames from ``t`` on, fires.  An idle end's detector reads its own
        trace only, so it can run ahead of the other events."""
        trace = end.start.trace
        times = trace.t
        start = int(np.searchsorted(times, t))
        drifts, samples = end.start.drifts, end.start.samples
        if start not in drifts:
            drifts[start] = first_drift(trace, start, self.sc.detector)
        found = drifts[start]
        if found is not None:
            i, event = found
            window = (event.drift_type, event.t1, event.t3)
            if window not in samples:
                samples[window] = _sampled_frames(trace, event, self.sc.sampler)
            # In the per-frame loop that tests/test_simenv.py keeps as the
            # reference, the end's previous frame pushed the frame that
            # fires; see _push.  A detector fires on its second frame at the
            # earliest.
            key = (float(times[i - 1]), 0, end.index)
            self._push(float(times[i]), self._on_trigger, end, event, samples[window], key=key)

    def _on_trigger(self, t: float, end: _EndState, event: DriftEvent, n_frames: int) -> None:
        """Upload the ``n_frames`` frames the end sampled for ``event``."""
        t_upload = n_frames * end.spec.frame_bytes / (self.sc.uplink_mbps * MB)
        work = (n_frames * self.sc.epochs * end.spec.work_per_frame
                * self.sc.data_reduction)

        current = end.accuracy.at(t)
        lam = urgency(UrgencyInput(
            current_accuracy=current,
            accuracy_drop=max(0.0, end.spec.base_accuracy - current),
        ))
        self._task_counter += 1
        task = EvolutionTask(
            id=f"task{self._task_counter:04d}",
            end_id=end.spec.end_id,
            arrival_t=t + t_upload,
            urgency=lam,
            mem_demand=end.mem_demand_mb,
            predicted_t_r=work / self.pool.compute_capacity,
        )
        if self.boundaries:
            task.group = assign_group(lam, self.boundaries)
        self.tasks[task.id] = _TaskState(task=task, end=end, trigger_t=t,
                                         t_upload=t_upload, remaining_work=work)
        self._push(t + t_upload, self._on_upload_done, task.id)

    # -- edge side --

    def _on_upload_done(self, t: float, task_id: str) -> None:
        self.queue.append(self.tasks[task_id].task)
        self._admit(t)

    def _on_retrain_done(self, t: float, task_id: str) -> None:
        entry = self.pool.running.get(task_id)
        if entry is None or entry.completion_t > t:
            return  # superseded by a share change, or already finished
        self._advance(t)
        if self.sc.policy in (Policy.ADAPTIVE, Policy.DP_NO_GROUPING):
            _, decision_t = decide_capacity(self.pool, self.sc.lookahead_factor, now=t)
            if decision_t > t:
                self._push(decision_t, self._admit)
                return
        self._admit(t)

    def _on_download_done(self, t: float, task_id: str) -> None:
        ts = self.tasks[task_id]
        end = ts.end
        restored = min(1.0, end.spec.gain_curve_truth.predict(self.sc.epochs))
        restored = max(restored, end.accuracy.at(t))
        avg_acc = end.accuracy.mean_over(end.cycle_start, t)
        end.accuracy.restore(t, restored)

        task = ts.task
        self.finished.append(TaskMetrics(
            t_infer=max(0.0, ts.trigger_t - end.cycle_start),
            t_upload=ts.t_upload,
            t_schedule=ts.admit_t - task.arrival_t,
            t_retrain=ts.t_retrain,
            t_download=t - (ts.admit_t + ts.t_retrain),
            avg_accuracy=avg_acc,
            task_id=task.id,
            end_id=task.end_id,
            urgency=task.urgency,
            trigger_t=ts.trigger_t,
        ))
        end.cycle_start = t
        self._arm(t, end)

    # -- admission and the completion engine --

    def _admit(self, t: float) -> None:
        """The one admission of an event: bring the pool up to ``t``, then
        apply the shares ``admit`` gives, with or without tasks queued."""
        self._advance(t)
        self._apply(t, admit(self.sc.policy, self.queue, self.pool, t))

    def _advance(self, t: float) -> None:
        """Charge every running task for the work done since the last advance,
        then finish, in running order, each task whose completion time has come."""
        dt = t - self._work_t
        for tid, entry in self.pool.running.items():
            ts = self.tasks[tid]
            ts.remaining_work = max(0.0, ts.remaining_work - entry.share * dt)
        self._work_t = t
        for tid in [tid for tid, e in self.pool.running.items() if e.completion_t <= t]:
            del self.pool.running[tid]
            ts = self.tasks[tid]
            ts.t_retrain = t - ts.admit_t
            t_download = (ts.end.param_bytes * self.sc.unfrozen_fraction
                          / (self.sc.downlink_mbps * MB))
            self._push(t + t_download, self._on_download_done, tid)

    def _apply(self, t: float, shares: Dict[str, float]) -> None:
        """Start each newly admitted task in ``shares`` and give every task in
        it a completion event at its new completion time; an older event
        finds its task finished or not yet due, and does nothing."""
        for tid, share in shares.items():
            ts = self.tasks[tid]
            if tid not in self.pool.running:
                self.queue.remove(ts.task)
                ts.admit_t = t
            duration = ts.remaining_work / share
            self.pool.running[tid] = RunningEntry(
                mem=ts.task.mem_demand, share=share, completion_t=t + duration,
                t_r=duration,
            )
            self._push(t + duration, self._on_retrain_done, tid)

    # -- reporting --

    def _collect(self) -> SimMetrics:
        if not self.finished:
            return SimMetrics(tasks=(), report=None, mean_evolving_time=0.0,
                              mean_t_schedule=0.0, mean_t_retrain=0.0)
        rows = tuple(self.finished)
        weights = penalty_weights_for_cycles(rows)
        report = penalized_average_qoe(
            ends=[(m.urgency, m.qoe) for m in rows],
            schedule_times=[m.t_schedule for m in rows],
            retrain_times=[m.t_retrain for m in rows],
            weights=weights,
        )
        n = len(rows)
        return SimMetrics(
            tasks=rows,
            report=report,
            mean_evolving_time=sum(m.t_evolve for m in rows) / n,
            mean_t_schedule=sum(m.t_schedule for m in rows) / n,
            mean_t_retrain=sum(m.t_retrain for m in rows) / n,
        )


def admit(
    policy: Policy,
    queue: Sequence[EvolutionTask],
    pool: GpuPool,
    now: float,
) -> Dict[str, float]:
    """Compute shares ``policy`` assigns at ``now``: one for each task it
    admits from ``queue``, in queue order, and one for each running task
    whose share changes.

    Adaptive: knapsack selection within the most urgent group that yields a
    selection, falling through to the next group otherwise; the admitted
    tasks split the free compute in proportion to memory.  DP-without-
    grouping: the same over the whole queue.  Default GPU: arrival order while
    memory fits, stopping at the first task that does not (head-of-line
    rule); every running and admitted task gets an equal share.  Serial
    policies: one task at a time with all compute, FIFO or highest urgency
    first.
    """
    free_mem = pool.free_memory_at(now)
    if policy is Policy.DEFAULT_GPU:
        ids = list(pool.running)
        for task in queue:
            if task.mem_demand > free_mem:
                break
            ids.append(task.id)
            free_mem -= task.mem_demand
        if not ids:
            return {}
        share = pool.compute_capacity / len(ids)
        return {tid: share for tid in ids
                if tid not in pool.running or pool.running[tid].share != share}
    if policy in (Policy.SERIAL_FIFO, Policy.SERIAL_PRIORITY):
        if pool.running:
            return {}
        order = list(queue)
        if policy is Policy.SERIAL_PRIORITY:
            order.sort(key=lambda task: (-task.urgency, task.arrival_t, task.id))
        for task in order:
            if task.mem_demand <= pool.mem_capacity:
                return {task.id: pool.compute_capacity}
        return {}
    free_compute = pool.compute_capacity - sum(e.share for e in pool.running.values())
    if not queue or free_mem <= 0 or free_compute <= 1e-9:
        return {}
    if policy is Policy.ADAPTIVE:
        for g in sorted({task.group for task in queue}):
            chosen = select_tasks([task for task in queue if task.group == g],
                                  free_mem, decision_t=now).selected
            if chosen:
                break
    else:
        chosen = select_tasks(queue, free_mem, decision_t=now).selected
    picked = [task for task in queue if task.id in chosen]
    return allocate_compute(picked, free_compute) if picked else {}


def run(scenario: Scenario) -> SimMetrics:
    """Simulate one scenario to completion and return its metrics."""
    return _Sim(scenario).run()


# --- scenario JSON ----------------------------------------------------------

def scenario_to_json(scenario: Scenario) -> dict:
    return {**fields_doc(scenario), "schema_version": SCHEMA_VERSION}


def _end_from_doc(e: dict) -> MobileEndSpec:
    return MobileEndSpec(**doc_fields(
        e, MobileEndSpec, arch=arch_from_doc, gain_curve_truth=lambda d: AccuracyCurve(**d),
        drift_events=lambda events: tuple(
            DriftInjection(**doc_fields(ev, DriftInjection, drift_type=DriftType))
            for ev in events)))


def scenario_from_json(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError(f"invalid scenario: expected a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} "
                         f"(expected {SCHEMA_VERSION})")
    try:
        return Scenario(**doc_fields(
            doc, Scenario, ends=lambda ends: tuple(map(_end_from_doc, ends)),
            server=lambda d: ServerSpec(**d), grouping=lambda d: GroupingConfig(**d),
            sampler=lambda d: SamplerConfig(**d), detector=lambda d: DetectorConfig(**d),
            policy=Policy))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_json(read_json(path))


def save_scenario(path, scenario: Scenario) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- metrics output ---------------------------------------------------------

METRICS_COLUMNS = [
    "task_id", "end_id", "urgency", "trigger_t", "t_infer", "t_upload",
    "t_schedule", "t_retrain", "t_download", "avg_accuracy", "qoe",
]


def write_metrics_csv(path, metrics: SimMetrics) -> None:
    """One row per finished task: each column's attribute, a number as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for m in metrics.tasks:
            values = [getattr(m, column) for column in METRICS_COLUMNS]
            writer.writerow([v if isinstance(v, str) else repr(v) for v in values])


def write_summary_json(path, metrics: SimMetrics, scenario: Scenario) -> None:
    """Policy, seed, task count, and the float fields of ``metrics`` and of
    its QoE report when there is one."""
    doc = {"policy": scenario.policy.value, "seed": scenario.seed, "n_tasks": metrics.n_tasks}
    for record in (metrics, metrics.report):
        if record is not None:
            doc.update((f.name, getattr(record, f.name))
                       for f in fields(record) if f.type == "float")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_traces(out_dir, scenario: Scenario) -> List[str]:
    """Materialize every end's generated trace as CSV; returns file paths."""
    import os
    paths = []
    for i, spec in enumerate(scenario.ends):
        trace = gen_trace(spec, scenario.seed, i, scenario.duration, scenario.sampler)
        path = os.path.join(out_dir, f"trace_{spec.end_id}.csv")
        write_trace_csv(path, trace)
        paths.append(path)
    return paths
