"""Whole-run invariants, checked after every event handler of a simulation.

After each handler the pool holds no more memory and hands out no more
compute than it has, no running task is past its completion time, and every
finished life cycle has non-negative phase times and a QoE in [0, 1].  A task
is done when its completion time has come, whatever the policy: after a
handler that brought the pool up to its time (a completion, or an admission),
no running task's completion time is that time either.  A trigger or a
download at the same instant may run before the completion event, as neither
reads the pool.  The checks run over every golden scenario under every
policy, and over small random scenarios whose ends repeat so that their
events tie.
"""
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosched import simenv
from evosched.drift import DetectorConfig, DriftType
from evosched.profiler import MB, LayerKind, LayerSpec, ModelArch
from evosched.simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    ServerSpec,
    _Sim,
    run,
    write_metrics_csv,
)

from test_golden import SCENARIOS, contended_scenario

PHASES = ("t_infer", "t_upload", "t_schedule", "t_retrain", "t_download")


class DeparturesSim(_Sim):
    """A simulation that keeps, for each handler it runs, the ids of the
    tasks that left ``pool.running`` in it, and calls ``after`` with the
    handler's time."""

    def __init__(self, scenario):
        self.departures = []
        super().__init__(scenario)

    def _push(self, t, handler, *args, key=None):
        def recorded(t, *args):
            before = set(self.pool.running)
            handler(t, *args)
            self.departures.append(before - set(self.pool.running))
            self.after(t)
        super()._push(t, recorded, *args, key=key)

    def after(self, now):
        pass


class CheckedSim(DeparturesSim):
    """A simulation that checks the invariants after every handler."""

    def __init__(self, scenario):
        self._checked = 0  # finished tasks checked so far
        super().__init__(scenario)

    def after(self, now):
        pool = self.pool
        assert sum(e.mem for e in pool.running.values()) <= pool.mem_capacity
        assert (sum(e.share for e in pool.running.values())
                <= pool.compute_capacity * (1 + 1e-12))
        advanced = self._work_t == now
        overdue = sorted(tid for tid, e in pool.running.items()
                         if e.completion_t < now or (advanced and e.completion_t == now))
        assert not overdue, f"{overdue} still running at {now}, past their completion"
        for m in self.finished[self._checked:]:
            assert all(getattr(m, name) >= 0 for name in PHASES), m
            assert 0.0 <= m.qoe <= 1.0, m
        self._checked = len(self.finished)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenarios_keep_invariants(name):
    base = SCENARIOS[name]()
    for policy in Policy:
        sc = replace(base, policy=policy)
        assert CheckedSim(sc).run() == run(sc), policy


@pytest.mark.parametrize("seed", [3, 2], ids=["contended", "contended-2"])
@pytest.mark.parametrize("policy", [Policy.ADAPTIVE, Policy.DP_NO_GROUPING])
def test_tied_twins_finish_together(seed, policy):
    """The contended scenario's three identical twins finish their first
    retraining at one instant.  All three leave the pool in one handler, so
    the admission that follows sees the memory and the compute of each."""
    sim = DeparturesSim(replace(contended_scenario(), seed=seed, policy=policy))
    sim.run()
    first = {}
    for tid in sorted(sim.tasks):
        first.setdefault(sim.tasks[tid].task.end_id, tid)
    twins = {first[f"twin-{i}"] for i in range(3)}
    assert any(twins <= left for left in sim.departures)


# --- random scenarios with ties ---------------------------------------------
# A frame uploads in 1 s and a retrain with all of one GPU's compute takes 1 or
# 2 s per frame; a download takes 10 s (the larger model) or 2.5 s.  Onsets fall
# on whole seconds, and ends drawn from one template differ only in their
# noise, so their triggers, completions and downloads tie.

_ARCHS = (ModelArch(layers=(LayerSpec(kind=LayerKind.FC, c_in=10240, c_out=10240),),
                    bitwidth=32, input_w=8, input_h=8),
          ModelArch(layers=(LayerSpec(kind=LayerKind.FC, c_in=5120, c_out=5120),),
                    bitwidth=32, input_w=8, input_h=8))

_DETECTOR = DetectorConfig(window_frames=12, sub_windows=3, temp_window_frames=12,
                           variance_threshold=2e-3, tau=20.0)


@st.composite
def _template(draw):
    onsets = sorted(draw(st.sets(st.integers(1, 6).map(lambda k: 40.0 * k),
                                 min_size=1, max_size=2)))
    events = tuple(DriftInjection(t=t, drift_type=draw(st.sampled_from(list(DriftType))),
                                  magnitude=0.5,
                                  transition_s=draw(st.sampled_from([0.0, 10.0])),
                                  recovery_s=draw(st.sampled_from([20.0, 40.0])))
                   for t in onsets)
    return dict(arch=draw(st.sampled_from(_ARCHS)), drift_events=events,
                frame_rate=draw(st.sampled_from([0.5, 1.0, 2.0])), frame_bytes=10 * MB,
                decay=0.004, work_per_frame=draw(st.sampled_from([0.8, 1.6])))


@st.composite
def _scenarios(draw):
    templates = draw(st.lists(_template(), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(templates), min_size=2, max_size=6))
    ends = tuple(MobileEndSpec(end_id=f"e{i}", **t) for i, t in enumerate(picks))
    server = ServerSpec(mem_capacity_mb=draw(st.sampled_from([2100.0, 4200.0])),
                        gpu_count=draw(st.integers(1, 3)))
    return Scenario(seed=draw(st.integers(0, 2 ** 16)), ends=ends, server=server,
                    policy=draw(st.sampled_from(list(Policy))), detector=_DETECTOR,
                    unfrozen_fraction=0.5, duration=400.0)


def _metrics_bytes(metrics):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        write_metrics_csv(path, metrics)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(sc=_scenarios())
def test_random_runs_keep_invariants_and_repeat(sc):
    checked = _metrics_bytes(CheckedSim(sc).run())
    simenv._starts.clear()
    assert _metrics_bytes(run(sc)) == checked
