"""Per-layer tracing from outside the program.

The traced run replaces public functions at the module attribute each caller
looks up with a wrapper that records a span (name, start, end, parent span,
operation id) plus the counts the per-layer metrics need.  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
spans' duration minus the part their child spans cover.  The untraced run
patches nothing.
"""
from __future__ import annotations

import collections
import functools
import gzip
import math
import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter

OP_SPAN = "bench.op"
# select_tasks capacity buckets: one 8 GB GPU, a 10-GPU pool, an 80-GPU pool
CAPACITY_BUCKETS = (("cap8g", 8192), ("cap80g", 81920), ("cap640g", math.inf))


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = collections.Counter()
        self.select_times = collections.defaultdict(list)  # capacity bucket -> seconds
        self.peak_alloc = 0  # bytes, largest tracemalloc peak of one call
        self.op = -1
        self._stack = []
        self._saved = []

    def _traced(self, name, fn, observe=None, track_alloc=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if track_alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if track_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.op)
            if observe is not None:
                observe(self, args, kwargs, result, end - start)
            return result
        return traced

    def wrap(self, owner, attr, name, observe=None, track_alloc=False):
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._traced(name, fn, observe, track_alloc))

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def operation(self, op_id, fn, *args):
        """Run one benchmark operation inside an ``OP_SPAN`` span."""
        self.op = op_id
        return self._traced(OP_SPAN, fn)(*args)

    def layer_times(self):
        """Span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[index]
        return out

    def write_spans(self, path: Path):
        """Spans as gzipped CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")


# --- observers: counts recorded at the same boundaries as the spans -----------

def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _on_gen_trace(tr, args, kwargs, result, dt):
    tr.counts["frames"] += len(result)


def _on_update(tr, args, kwargs, result, dt):
    if result is not None:
        tr.counts[f"drift.{result.drift_type.value}"] += 1


def _on_sample(tr, args, kwargs, result, dt):
    tr.counts["sampler.frames_in"] += len(args[0])
    tr.counts["sampler.frames_kept"] += len(result)


def _on_select(tr, args, kwargs, result, dt):
    candidates = _arg(args, kwargs, 0, "candidates")
    capacity = _arg(args, kwargs, 1, "capacity_mb")
    n = len(candidates)
    tr.counts["select.candidates"] += n
    tr.counts["select.candidates_max"] = max(tr.counts["select.candidates_max"], n)
    if capacity > 0 and n:
        tr.counts["select.cells"] += n * (math.floor(capacity) + 1)
    if result.selected:
        tr.counts["select.admitted"] += 1
    bucket = next(label for label, top in CAPACITY_BUCKETS if capacity <= top)
    tr.select_times[bucket].append(dt)


def _on_decide(tr, args, kwargs, result, dt):
    if result[1] > _arg(args, kwargs, 2, "now", 0.0):
        tr.counts["decide.deferrals"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics need."""
    from evosched import cli, drift, sampler, scheduler, simenv

    tracer.wrap(cli, "main", "cli.main")
    for attr in ("run", "load_scenario", "write_metrics_csv", "write_summary_json"):
        tracer.wrap(simenv, attr, f"simenv.{attr}")
    tracer.wrap(simenv, "gen_trace", "simenv.gen_trace", _on_gen_trace)
    for kind in ("sudden", "incremental", "gradual"):
        tracer.wrap(simenv, f"sample_{kind}", f"sampler.{kind}", _on_sample)
    tracer.wrap(sampler, "feature_deviation", "sampler.feature_deviation")
    tracer.wrap(drift.DriftDetector, "update", "drift.update", _on_update)
    # simenv holds its own reference to select_tasks; both record one layer.
    for owner in (simenv, scheduler):
        tracer.wrap(owner, "select_tasks", "scheduler.select_tasks", _on_select,
                    track_alloc=True)
    tracer.wrap(simenv, "decide_capacity", "scheduler.decide_capacity", _on_decide)
    tracer.wrap(simenv, "allocate_compute", "scheduler.allocate_compute")
    tracer.wrap(simenv, "urgency", "core.urgency")
    tracer.wrap(simenv, "penalized_average_qoe", "core.penalized_average_qoe")
    tracer.wrap(simenv, "memory_demand", "profiler.memory_demand")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit); absent layers read 0."""
    times = tracer.layer_times()
    c = tracer.counts

    def calls(name):
        return times[name][0] if name in times else 0

    def self_s(name):
        return times[name][2] if name in times else 0.0

    frames = c["frames"]
    updates = calls("drift.update")
    selects = calls("scheduler.select_tasks")
    m = {
        "simenv.gen_trace.calls": (calls("simenv.gen_trace"), "count"),
        "simenv.gen_trace.self_s": (self_s("simenv.gen_trace"), "s"),
        "simenv.gen_trace.us_per_frame": (_ratio(self_s("simenv.gen_trace") * 1e6, frames), "us"),
        "simenv.frames": (frames, "count"),
        "simenv.run.s": (times["simenv.run"][1] if "simenv.run" in times else 0.0, "s"),
        "simenv.run.loop_self_s": (self_s("simenv.run"), "s"),
        "simenv.write_metrics_csv.self_s": (self_s("simenv.write_metrics_csv"), "s"),
        "simenv.write_summary_json.self_s": (self_s("simenv.write_summary_json"), "s"),
        "simenv.load_scenario.self_s": (self_s("simenv.load_scenario"), "s"),
        "cli.simulate.self_s": (self_s("cli.main"), "s"),
        "drift.update.calls": (updates, "count"),
        "drift.update.self_s": (self_s("drift.update"), "s"),
        "drift.update.us_per_call": (_ratio(self_s("drift.update") * 1e6, updates), "us"),
        "drift.frames_fed_ratio": (_ratio(updates, frames), "ratio"),
    }
    for kind in ("sudden", "incremental", "gradual"):
        m[f"drift.events.{kind}"] = (c[f"drift.{kind}"], "count")
    for kind in ("sudden", "incremental", "gradual"):
        m[f"sampler.{kind}.calls"] = (calls(f"sampler.{kind}"), "count")
        m[f"sampler.{kind}.self_s"] = (self_s(f"sampler.{kind}"), "s")
    m.update({
        "sampler.feature_deviation.calls": (calls("sampler.feature_deviation"), "count"),
        "sampler.frames_in": (c["sampler.frames_in"], "count"),
        "sampler.frames_kept": (c["sampler.frames_kept"], "count"),
        "sampler.keep_ratio": (_ratio(c["sampler.frames_kept"], c["sampler.frames_in"]), "ratio"),
        "scheduler.select_tasks.calls": (selects, "count"),
        "scheduler.select_tasks.self_s": (self_s("scheduler.select_tasks"), "s"),
        "scheduler.select_tasks.cells": (c["select.cells"], "count"),
        "scheduler.select_tasks.ns_per_cell": (
            _ratio(self_s("scheduler.select_tasks") * 1e9, c["select.cells"]), "ns"),
        "scheduler.select_tasks.admit_ratio": (_ratio(c["select.admitted"], selects), "ratio"),
        "scheduler.select_tasks.candidates_mean": (_ratio(c["select.candidates"], selects), "count"),
        "scheduler.select_tasks.candidates_max": (c["select.candidates_max"], "count"),
    })
    for label, _ in CAPACITY_BUCKETS:
        samples = tracer.select_times.get(label)
        m[f"scheduler.select_tasks.s_p50.{label}"] = (
            statistics.median(samples) if samples else 0.0, "s")
    m.update({
        "scheduler.select_tasks.peak_alloc_mb": (tracer.peak_alloc / 2 ** 20, "MiB"),
        "scheduler.decide_capacity.calls": (calls("scheduler.decide_capacity"), "count"),
        "scheduler.decide_capacity.deferrals": (c["decide.deferrals"], "count"),
        "scheduler.allocate_compute.calls": (calls("scheduler.allocate_compute"), "count"),
        "core.urgency.calls": (calls("core.urgency"), "count"),
        "core.penalized_average_qoe.self_s": (self_s("core.penalized_average_qoe"), "s"),
        "profiler.memory_demand.calls": (calls("profiler.memory_demand"), "count"),
        "profiler.memory_demand.self_s": (self_s("profiler.memory_demand"), "s"),
        "trace.op_s": (times[OP_SPAN][1] if OP_SPAN in times else 0.0, "s"),
        "trace.overhead_frac": (_ratio(traced_s, untraced_s) - 1.0, "ratio"),
    })
    return m
