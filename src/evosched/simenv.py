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
import math
import operator
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
    qoe_single,
    ranged,
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
    MemoryBreakdown,
    ModelArch,
    fields_doc,
    from_doc,
    json_doc,
    memory_demand,
    parse_file,
    write_json,
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
# A scenario's bounds, so that what it asks for can be built: frames per
# end's trace (duration times frame rate; over a day at 100 fps) and epochs.
MAX_FRAMES_PER_END = 10_000_000
MAX_EPOCHS = 10_000


class Policy(str, Enum):
    ADAPTIVE = "adaptive"            # grouping + knapsack + proportional compute
    DEFAULT_GPU = "default-gpu"      # FIFO admission, equal compute time-slices
    SERIAL_FIFO = "serial-fifo"      # one task at a time, arrival order
    SERIAL_PRIORITY = "serial-priority"  # one at a time, highest urgency first
    DP_NO_GROUPING = "dp-no-grouping"    # knapsack over the whole queue


@dataclass(frozen=True)
class DriftInjection:
    t: float = ranged(lo=0)  # drift onset
    drift_type: DriftType
    # absolute CLC drop at full transition
    magnitude: float = ranged(lo=0, hi=1, open_lo=True, open_hi=True)
    transition_s: float = ranged(lo=0)  # onset-to-settled duration
    recovery_s: float = ranged(150.0, lo=0)  # CLC returns to base this long after settling

    def __post_init__(self):
        check_numbers(self)


@dataclass(frozen=True)
class MobileEndSpec:
    end_id: str
    arch: ModelArch
    drift_events: Tuple[DriftInjection, ...] = ()
    frame_rate: float = ranged(1.0, lo=0, open_lo=True)
    frame_bytes: float = ranged(200_000.0, lo=0, open_lo=True)
    base_accuracy: float = ranged(0.8, lo=0, hi=1, open_lo=True)
    decay: float = ranged(0.002, lo=0)  # accuracy loss per second during a transition
    gain_curve_truth: AccuracyCurve = AccuracyCurve(a_max=0.82, b=0.5, c=1.0)
    work_per_frame: float = ranged(1.0, lo=0, open_lo=True)  # compute-seconds per frame per epoch

    def __post_init__(self):
        check_numbers(self)
        times = [e.t for e in self.drift_events]
        if times != sorted(times):
            raise ValueError("drift events must be time-ordered")
        object.__setattr__(self, "drift_events", tuple(self.drift_events))


@dataclass(frozen=True)
class ServerSpec:
    mem_capacity_mb: float = ranged(8192.0, lo=0, open_lo=True)
    compute_capacity: float = ranged(8.0, lo=0, open_lo=True)  # compute units per second
    gpu_count: int = ranged(1, lo=0, open_lo=True)

    def __post_init__(self):
        check_numbers(self)


@dataclass(frozen=True)
class Scenario:
    seed: int = ranged(lo=0, hi=math.inf)  # of any size
    ends: Tuple[MobileEndSpec, ...]
    server: ServerSpec = ServerSpec()
    uplink_mbps: float = ranged(10.0, lo=0, open_lo=True)    # MiB per second
    downlink_mbps: float = ranged(20.0, lo=0, open_lo=True)  # MiB per second
    policy: Policy = Policy.ADAPTIVE
    duration: float = ranged(600.0, lo=0, open_lo=True)
    grouping: GroupingConfig = GroupingConfig()
    sampler: SamplerConfig = SamplerConfig()
    detector: DetectorConfig = DetectorConfig()
    epochs: int = ranged(10, lo=1, hi=MAX_EPOCHS)
    data_reduction: float = ranged(1.0, lo=0, hi=1, open_lo=True)
    unfrozen_fraction: float = ranged(0.31, lo=0, hi=1, open_lo=True)
    lookahead_factor: float = ranged(0.1, lo=0)

    def __post_init__(self):
        check_numbers(self)
        if not self.ends:
            raise ValueError("scenario needs at least one end")
        ids = [e.end_id for e in self.ends]
        if len(set(ids)) != len(ids):
            raise ValueError("end ids must be unique")
        for i, end in enumerate(self.ends):
            frames = self.duration * end.frame_rate
            if frames > MAX_FRAMES_PER_END:
                raise ValueError(f"ends[{i}].frame_rate {end.frame_rate!r} over duration "
                                 f"{self.duration!r} s gives more than MAX_FRAMES_PER_END "
                                 f"= {MAX_FRAMES_PER_END} frames")
            if frames >= 2:  # a detector fires on its second frame at the earliest
                self._check_task_times(i, end, int(frames))
        object.__setattr__(self, "ends", tuple(self.ends))

    def _check_task_times(self, i: int, end: MobileEndSpec, n: int) -> None:
        """Reject the fields of end ``i``, whose trace has ``n`` frames, if a
        task of 1 to ``n`` of them, timed as ``_Sim._on_trigger`` times it,
        would arrive after a time past a float's range, or retrain for 0 s,
        past that range, or for so short a time that its knapsack value
        ``100 / predicted_t_r`` is past it."""
        if not math.isfinite(self.duration + n * end.frame_bytes / (self.uplink_mbps * MB)):
            raise ValueError(f"ends[{i}].frame_bytes {end.frame_bytes!r} at uplink_mbps "
                             f"{self.uplink_mbps!r} gives {n} frames an upload time past "
                             f"a float's range")
        server = self.server
        compute = server.compute_capacity * server.gpu_count
        one, most = (k * self.epochs * end.work_per_frame * self.data_reduction / compute
                     for k in (1, n))
        if not math.isfinite(most):
            problem = f"{n} frames in a time past a float's range"
        elif one == 0 or not math.isfinite(100.0 / one):
            problem = f"one frame in {one!r} s, too short for a float to hold it or 100 / it"
        else:
            return
        raise ValueError(f"ends[{i}].work_per_frame {end.work_per_frame!r} over {self.epochs} "
                         f"epochs at data_reduction {self.data_reduction!r} on "
                         f"server.compute_capacity {server.compute_capacity!r} x gpu_count "
                         f"{server.gpu_count} retrains {problem}")


# --- trace synthesis --------------------------------------------------------

FEATURE_DIM = 4
PIXEL_OLD_FRACTION = 0.3
PIXEL_NEW_FRACTION = 0.8


# the server's global view, against which the gradual sampler measures deviation
_FEATURE_MODEL = GlobalFeatureModel(centroids={
    0: ((0.0, 0.0, 0.0, 0.0),),
    1: ((1.0, 1.0, 1.0, 1.0),),
})
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
    """The trace of end ``end_index`` of a scenario, as :func:`gen_traces`
    synthesizes it."""
    return _synthesize(((end_index, spec),), seed, duration, sampler_cfg)[0]


def gen_traces(
    ends: Sequence[MobileEndSpec],
    seed: int,
    duration: float,
    sampler_cfg: Optional[SamplerConfig] = None,
) -> Tuple[FrameTrace, ...]:
    """Each end's trace, in order: ``ends[i]``'s is ``gen_trace(ends[i],
    seed, i, duration, sampler_cfg)``, and the ends that share a frame rate
    are synthesized in one array pass."""
    groups: Dict[float, List[int]] = {}
    for i, spec in enumerate(ends):
        groups.setdefault(spec.frame_rate, []).append(i)
    traces: Dict[int, FrameTrace] = {}
    for rows in groups.values():
        traces.update(zip(rows, _synthesize([(i, ends[i]) for i in rows], seed, duration,
                                            sampler_cfg)))
    return tuple(traces[i] for i in range(len(ends)))


def _synthesize(
    rows: Sequence[Tuple[int, MobileEndSpec]],
    seed: int,
    duration: float,
    sampler_cfg: Optional[SamplerConfig],
) -> Tuple[FrameTrace, ...]:
    """Deterministic per-frame traces realizing the declared drifts of
    ends of one frame rate, given as ``(end index, spec)`` pairs, as one
    :meth:`FrameTrace.block` of one row per end over shared frame times.

    Each end draws from substreams of its own index, each in one call, in
    the order a frame-by-frame loop would draw it (CLC noise then pixel
    noise per frame; two detections of ``FEATURE_DIM`` per frame), and adds
    its noise into its rows as it is drawn.  While a drift is active the
    mean CLC and pixel levels follow the last active event, and detections
    shift by the magnitude of the first one.  A gradual drift mixes old and
    new regimes, choosing the new one with a probability that rises over its
    transition.  Each frame's cc and lc are both the square root of its
    CLC, clipped for the whole block at once.  The detection features' own
    substream is built and drawn only as far as ``features`` is read, since
    most traces are never sampled by feature deviation nor written out; a
    draw of ``k`` standard normal rows is the first ``k`` rows of a longer
    one, so the rows do not depend on how far reads went."""
    cfg = sampler_cfg or SamplerConfig()
    area = float(cfg.frame_w * cfg.frame_h)
    rate = rows[0][1].frame_rate
    n = int(duration * rate)
    t = np.arange(1, n + 1) / rate
    p_old = PIXEL_OLD_FRACTION * area
    p_new = PIXEL_NEW_FRACTION * area
    level = np.empty((len(rows), n))
    pixel = np.full((len(rows), n), p_old)
    noise = np.empty((n, 2))  # one end's draw at a time
    # normal(0, scale) draws 0 + scale * z for each standard normal z
    scale = np.array([0.01, 0.02 * area])
    features = []
    for r, (end_index, spec) in enumerate(rows):
        _stream(seed, end_index, 0).standard_normal(out=noise)
        noise *= scale
        # only a gradual drift reads the mixture, and substreams are independent
        gradual = any(ev.drift_type is DriftType.GRADUAL for ev in spec.drift_events)
        mix = _stream(seed, end_index, 1).random(n) if gradual else None
        # An array of the end's own, not a row of a block: only a read of
        # the features reads it, and a fleet's block of it raised the
        # benchmark's peak RSS by about 0.3 MiB.
        shift = np.zeros(n)
        _drift_levels(spec, t, mix, level[r], pixel[r], shift, p_old, p_new)
        level[r] += noise[:, 0]
        pixel[r] += noise[:, 1]
        features.append(_features(seed, end_index, shift))
    np.maximum(1e-3, level, out=level)
    np.minimum(1.0, level, out=level)
    root = np.sqrt(level, out=level)
    np.maximum(0.0, pixel, out=pixel)
    return FrameTrace.block(t, root, root, pixel, features, categories=(0, 1))


def _drift_levels(spec: MobileEndSpec, t: np.ndarray, mix: Optional[np.ndarray],
                  level: np.ndarray, pixel: np.ndarray, shift: np.ndarray,
                  p_old: float, p_new: float) -> None:
    """Write an end's noise-free CLC level, its pixel level and its
    detections' shift at frame times ``t`` into ``level``, ``pixel`` (which
    holds ``p_old`` on entry) and ``shift`` (zeros on entry)."""
    base = spec.base_accuracy
    level[:] = base
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
            # min(1, since / ramp), divided only where it is below 1, so that
            # a subnormal ramp overflows nowhere
            since = t[lo:hi] - ev.t
            frac = np.divide(since, ramp, out=np.ones_like(since), where=since < ramp)
            pixel[lo:hi] = p_old + (p_new - p_old) * frac
        else:  # gradual: old/new mixture with rising new-regime probability
            q = (t[lo:mid] - ev.t) / ev.transition_s
            level[mid:hi] = dropped
            level[lo:mid] = np.where(mix[lo:mid] < q, dropped, base)
            # scene statistics only settle once the mixture does
            pixel[mid:hi] = p_new
            pixel[lo:mid] = p_old


def _features(seed: int, end_index: int, shift: np.ndarray):
    """The ``features(start, stop)`` of an end's :class:`FrameTrace`:
    detections around the centroids moved by ``shift``, with noise from the
    end's features substream, which is built on the first draw."""
    rng = None

    def features(start, stop):
        nonlocal rng
        if rng is None:
            rng = _stream(seed, end_index, 2)
        det_noise = rng.standard_normal((stop - start, 2, FEATURE_DIM)) * 0.03
        return (_CENTROIDS + shift[start:stop, None, None]) + det_noise

    return features


def _sampled_frames(trace: FrameTrace, event: DriftEvent, sampler_cfg: SamplerConfig) -> int:
    """Frames an end uploads for ``event``: its drift type's sampler run over
    the trigger window ``[t1, t3]`` of ``trace``, and at least one."""
    # the trace is time-ordered, so the window is one slice
    times = trace.t
    lo = int(np.searchsorted(times, event.t1, side="left"))
    hi = int(np.searchsorted(times, event.t3, side="right"))
    window = trace.window(lo, hi)
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
# share it: _starts keeps the last scenario's, keyed by everything gen_traces,
# first_drift and _sampled_frames read.  Its one gen_traces call synthesizes
# every end's trace, one array pass per frame rate, after the kept scenario's
# traces are let go.  Nothing a policy does may change a start; whatever a
# run changes in what an end sees (a download lifting its confidence, say)
# must be applied where the run reads the trace and join the key of what it
# changes.

def _last_call(build):
    """``build`` keeping the result of its last call only, for calls with
    equal arguments.  A call with other arguments lets the kept result go
    before it builds, so two results are never held at once, and a build
    that raises keeps nothing; ``cache_clear()`` lets it go at once."""
    kept = []  # [(args, result)] after a build that returned

    @functools.wraps(build)
    def memo(*args):
        if not kept or kept[0][0] != args:
            kept.clear()
            kept.append((args, build(*args)))
        return kept[0][1]

    memo.cache_clear = kept.clear
    return memo


class _Start(NamedTuple):
    """An end's policy-free start: its trace, its model's memory demand, and
    what runs found as they armed detectors and sampled, to which a run may
    add entries but never changes one."""

    trace: FrameTrace
    memory: MemoryBreakdown
    # start frame -> first_drift(trace, start frame, detector)
    drifts: Dict[int, Optional[Tuple[int, DriftEvent]]]
    # (drift type, t1, t3), all that _sampled_frames reads of an event -> its result
    samples: Dict[Tuple[DriftType, float, float], int]


@_last_call
def _starts(ends: Tuple[MobileEndSpec, ...], seed: int, duration: float,
            sampler_cfg: SamplerConfig, detector: DetectorConfig) -> Tuple[_Start, ...]:
    """Each end's :class:`_Start`; ``detector`` keys the ``drifts`` runs add."""
    # looked up as module globals, so a wrapper of gen_traces or
    # memory_demand sees each call
    traces = gen_traces(ends, seed, duration, sampler_cfg)
    return tuple(_Start(trace, memory_demand(spec.arch), {}, {})
                 for spec, trace in zip(ends, traces))


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
    """The life cycle one finished task closed, with the task that closed it:
    its id, its end's id and the time its drift triggered it.  The cycle's
    ``urgency`` is the task's."""

    task_id: str
    end_id: str
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
    ``anchor_t``, the last download or 0, where the end's current cycle began."""

    def __init__(self, spec: MobileEndSpec):
        self._decays = [(ev.t, ev.t + ev.transition_s, spec.decay)
                        for ev in spec.drift_events]
        self.anchor_t = 0.0
        self._anchor_a = spec.base_accuracy

    def at(self, t: float) -> float:
        return max(ACCURACY_FLOOR, self._unclamped(t))

    def restore(self, t: float, value: float) -> None:
        self.anchor_t = t
        self._anchor_a = max(ACCURACY_FLOOR, min(1.0, value))

    def mean_over(self, a: float, b: float) -> float:
        """Exact time-weighted mean over [a, b] (trapezoid on breakpoints,
        including points where the floor clamp engages).

        Only the decays with ``lo <= b`` and ``hi > min(a, anchor)`` are
        read, which gives the same floats as reading all.  Any other decay
        has no breakpoint inside (a, b), and its overlap
        ``min(t, hi) - max(anchor, lo)`` is at most 0 at every point
        evaluated: a decay ending by the anchor overlaps nothing, and one
        starting past b overlaps nothing up to the float after b, the
        farthest a floor crossing in the last segment can round to."""
        if b <= a:
            return self.at(a)
        since = min(a, self.anchor_t)
        decays = [d for d in self._decays if d[0] <= b and d[1] > since]
        points = {a, b}
        for lo, hi, _ in decays:
            for p in (lo, hi):
                if a < p < b:
                    points.add(p)
        grid = sorted(points)
        values = [self._unclamped(p, decays) for p in grid]
        accuracy = {p: max(ACCURACY_FLOOR, v) for p, v in zip(grid, values)}
        # clamp crossings: within each segment the unclamped value is linear
        for left, right, va, vb in zip(grid, grid[1:], values, values[1:]):
            if (va - ACCURACY_FLOOR) * (vb - ACCURACY_FLOOR) < 0:
                frac = (va - ACCURACY_FLOOR) / (va - vb)
                cross = left + frac * (right - left)
                if cross not in accuracy:
                    accuracy[cross] = max(ACCURACY_FLOOR, self._unclamped(cross, decays))
        grid = sorted(accuracy)
        total = 0.0
        for left, right in zip(grid, grid[1:]):
            total += (accuracy[left] + accuracy[right]) / 2.0 * (right - left)
        return total / (b - a)

    def _unclamped(self, t: float, decays=None) -> float:
        """The accuracy at ``t`` before the floor, from ``decays``: all of
        the end's when not given."""
        drop = 0.0
        for lo, hi, rate in self._decays if decays is None else decays:
            overlap = min(t, hi) - max(self.anchor_t, lo)
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
        server = scenario.server
        self.pool = GpuPool(mem_capacity=server.mem_capacity_mb * server.gpu_count,
                            compute_capacity=server.compute_capacity * server.gpu_count)
        self.queue: List[EvolutionTask] = []
        self.tasks: Dict[str, _TaskState] = {}
        self.finished: List[TaskMetrics] = []
        self.heap: List[tuple] = []
        self._seq = 0
        self._now = 0.0  # time of the event being handled
        g = scenario.grouping  # only the adaptive policy splits the queue into groups
        self.boundaries = (group_boundaries(group_number(g), g.lambda_min, g.lambda_max, g.sigma)
                           if scenario.policy is Policy.ADAPTIVE else [])
        self._work_t = 0.0  # time up to which remaining_work is current

        self.ends = []
        starts = _starts(scenario.ends, scenario.seed, scenario.duration,
                         scenario.sampler, scenario.detector)
        for i, (spec, start) in enumerate(zip(scenario.ends, starts)):
            end = _EndState(spec=spec, index=i, start=start, accuracy=_AccuracyModel(spec))
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
        task = EvolutionTask(
            id=f"task{len(self.tasks) + 1:04d}",
            mem_demand=end.start.memory.total_mb,
            predicted_t_r=work / self.pool.compute_capacity,
            end_id=end.spec.end_id,
            arrival_t=t + t_upload,
            urgency=lam,
        )
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
        restored = max(end.spec.gain_curve_truth.predict(self.sc.epochs), end.accuracy.at(t))
        cycle_start = end.accuracy.anchor_t
        avg_acc = end.accuracy.mean_over(cycle_start, t)
        end.accuracy.restore(t, restored)

        task = ts.task
        self.finished.append(TaskMetrics(
            t_infer=max(0.0, ts.trigger_t - cycle_start),
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
        self._arm(t, end)

    # -- admission and the completion engine --

    def _admit(self, t: float) -> None:
        """The one admission of an event: bring the pool up to ``t``, then
        apply the shares ``admit`` gives, with or without tasks queued."""
        self._advance(t)
        self._apply(t, admit(self.sc.policy, self.queue, self.pool, t, self.boundaries))

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
            t_download = (ts.end.start.memory.m_p * self.sc.unfrozen_fraction
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
        n = len(rows)
        return SimMetrics(
            tasks=rows,
            report=penalized_average_qoe(rows),
            mean_evolving_time=sum(m.t_evolve for m in rows) / n,
            mean_t_schedule=sum(m.t_schedule for m in rows) / n,
            mean_t_retrain=sum(m.t_retrain for m in rows) / n,
        )


def admit(
    policy: Policy,
    queue: Sequence[EvolutionTask],
    pool: GpuPool,
    now: float,
    boundaries: Sequence[float],
) -> Dict[str, float]:
    """Compute shares ``policy`` assigns at ``now``: one for each task it
    admits from ``queue``, in queue order, and one for each running task
    whose share changes.

    Adaptive: the queue splits into urgency groups at ``boundaries``, and
    knapsack selection runs within the most urgent group that yields a
    selection, falling through to the next group otherwise; the admitted
    tasks split the free compute in proportion to memory.  DP-without-
    grouping is the same rule with no boundaries.  Default GPU: arrival
    order while memory fits, stopping at the first task that does not
    (head-of-line rule); every running and admitted task gets an equal
    share.  Serial policies: one task at a time with all compute, FIFO or
    highest urgency first."""
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
    groups: Dict[int, List[EvolutionTask]] = {}
    for task in queue:
        groups.setdefault(assign_group(task.urgency, boundaries), []).append(task)
    for g in sorted(groups):
        chosen = select_tasks(groups[g], free_mem, decision_t=now).selected
        if chosen:
            break
    picked = [task for task in queue if task.id in chosen]
    return allocate_compute(picked, free_compute) if picked else {}


def run(scenario: Scenario) -> SimMetrics:
    """Simulate one scenario to completion and return its metrics."""
    return _Sim(scenario).run()


# --- scenario JSON ----------------------------------------------------------

def scenario_to_json(scenario: Scenario) -> dict:
    return {**fields_doc(scenario), "schema_version": SCHEMA_VERSION}


def scenario_from_json(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError(f"invalid scenario: expected a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} "
                         f"(expected {SCHEMA_VERSION})")
    try:
        return from_doc(Scenario, {k: v for k, v in doc.items() if k != "schema_version"})
    except ValueError as exc:
        raise ValueError(f"invalid scenario: {exc}") from exc


@_last_call
def _scenario_in(text: str) -> Scenario:
    """The scenario JSON ``text`` holds, kept until another text is parsed:
    a scenario is frozen, and callers apply a policy or seed of their own
    with ``replace``."""
    # looked up as a module global, so a wrapper sees each parse
    return scenario_from_json(json_doc(text))


def load_scenario(path) -> Scenario:
    """The scenario in file ``path``; ValueError naming the file if not one."""
    return parse_file(path, _scenario_in)


def save_scenario(path, scenario: Scenario) -> None:
    write_json(path, scenario_to_json(scenario), sort_keys=True)


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
        # csv writes a float as str(), which is its repr
        writer.writerows(map(operator.attrgetter(*METRICS_COLUMNS), metrics.tasks))


def write_summary_json(path, metrics: SimMetrics, scenario: Scenario) -> None:
    """Policy, seed, task count, and the float fields of ``metrics`` and of
    its QoE report when there is one."""
    doc = {"policy": scenario.policy.value, "seed": scenario.seed, "n_tasks": metrics.n_tasks}
    for record in (metrics, metrics.report):
        if record is not None:
            doc.update((f.name, getattr(record, f.name))
                       for f in fields(record) if f.type == "float")
    write_json(path, doc, sort_keys=True)


def write_traces(out_dir, scenario: Scenario) -> List[str]:
    """Write every end's generated trace to ``trace_<end id>.csv`` in
    ``out_dir``; returns the file paths.  ValueError naming the end, before
    any trace is synthesized or file written, for an end id that cannot
    name a file there."""
    import os
    names = [f"trace_{spec.end_id}.csv" for spec in scenario.ends]
    for i, (spec, name) in enumerate(zip(scenario.ends, names)):
        if os.path.basename(name) != name or "\0" in name:
            raise ValueError(f"Scenario.ends[{i}]: end_id {spec.end_id!r} cannot name a "
                             f"file: {name!r} holds a path separator or a NUL")
    paths = [os.path.join(out_dir, name) for name in names]
    traces = gen_traces(scenario.ends, scenario.seed, scenario.duration, scenario.sampler)
    for path, trace in zip(paths, traces):
        write_trace_csv(path, trace)
    return paths
