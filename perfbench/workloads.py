"""Workload generators.

Every input the program receives is made here from the benchmark's seed; the
program never sees the seed itself.  Three workloads stress different layers:

* ``bench3``: the 3-end x 5-round scenario of acceptance criterion 8.  Per-frame
  work (trace synthesis and the event loop) dominates; the scheduler barely runs.
* ``fleet-mixed``: 30 ends over 1,500 s with desynchronised sudden,
  incremental and gradual drifts on a 10-GPU pool.  All three samplers run and the knapsack sees real
  queues under compute contention.
* ``knapsack-grid``: direct ``select_tasks`` calls over an n x capacity grid.
  The scheduler does all the work; trace synthesis and the loop do none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from evosched.drift import DetectorConfig, DriftType
from evosched.profiler import AccuracyCurve, LayerKind, LayerSpec, ModelArch
from evosched.scheduler import EvolutionTask
from evosched.simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    ServerSpec,
    load_scenario,
    save_scenario,
    scenario_to_json,
)

POLICIES = tuple(p.value for p in Policy)


def pass_seed(seed: int, pass_index: int) -> int:
    """Input seed of one pass, drawn from the benchmark seed.  Every pass of a
    run gets inputs of its own, so no repeat reuses an earlier input."""
    return int(np.random.SeedSequence([seed, pass_index]).generate_state(1)[0])


def fc_arch_with_memory(total_mb: float) -> ModelArch:
    """Single-FC architecture whose retraining demand is about ``total_mb`` MB.

    Total bytes are workspace + 12*n^2 (parameters n^2*4, optimizer state
    doubles that, features negligible), so n is solved from the target.
    """
    n = int(math.sqrt((total_mb - 847.3) * 1024 ** 2 / 12.0))
    return ModelArch(layers=(LayerSpec(kind=LayerKind.FC, c_in=n, c_out=n),),
                     bitwidth=32, input_w=8, input_h=8)


# --- bench3 -------------------------------------------------------------------
#
# The benchmark's own copy of ``bench_scenario`` in tests/test_acceptance.py,
# so that editing the tests cannot silently change the benchmark's input.
# ``run.py --self-check`` compares the copy with the original through
# ``scenario_to_json``.

BENCH3_ROUND_S = 1150.0
BENCH3_BASE_S = 100.0
BENCH3_PATTERN = "ZYZYZ"
BENCH3_ONSETS = {
    "Z": {"light": (0.0, 220.0), "heavy": (25.0,), "critical": (30.0,)},
    "Y": {"light": (350.0,), "heavy": (250.0,), "critical": (360.0,)},
}
# role: (memory MB, target retrain seconds, accuracy decay per second)
BENCH3_ROLES = {
    "light": (4000.0, 95.0, 0.0002),
    "critical": (1400.0, 147.0, 0.0103),
    "heavy": (7000.0, 550.0, 0.0002),
}
BENCH3_SAMPLED_FRAMES = 18.0
BENCH3_DETECTOR = DetectorConfig(window_frames=30, sub_windows=3,
                                 temp_window_frames=30, rod_threshold=0.55,
                                 variance_threshold=2e-3, tau=90.0)


def _bench3_end(role: str) -> MobileEndSpec:
    mem, t_r, decay = BENCH3_ROLES[role]
    events = []
    for k, shape in enumerate(BENCH3_PATTERN):
        for off in BENCH3_ONSETS[shape][role]:
            events.append(DriftInjection(
                t=BENCH3_BASE_S + k * BENCH3_ROUND_S + off,
                drift_type=DriftType.SUDDEN, magnitude=0.6,
                transition_s=50.0, recovery_s=80.0))
    return MobileEndSpec(
        end_id=f"cam-{role}", arch=fc_arch_with_memory(mem),
        drift_events=tuple(events), decay=decay,
        work_per_frame=t_r * 8.0 / (BENCH3_SAMPLED_FRAMES * 10.0),
        gain_curve_truth=AccuracyCurve(a_max=0.98, b=0.5, c=1.0))


def bench3_scenario(seed: int) -> Scenario:
    ends = tuple(_bench3_end(r) for r in ("light", "critical", "heavy"))
    return Scenario(seed=seed, ends=ends, detector=BENCH3_DETECTOR,
                    duration=BENCH3_BASE_S + len(BENCH3_PATTERN) * BENCH3_ROUND_S + 100.0)


# --- fleet-mixed ----------------------------------------------------------------

FLEET_ENDS = 30
FLEET_DURATION_S = 1500.0
FLEET_GPUS = 10  # 8,192 MB each: an 81,920 MB knapsack grid
# Criterion 5's DETECT_SLOW at 1 fps tells all three drift types apart.
FLEET_DETECTOR = DetectorConfig(window_frames=60, sub_windows=12,
                                temp_window_frames=120, rod_threshold=0.05,
                                variance_threshold=2e-4, tau=90.0)
# drift type: (CLC magnitude, transition seconds)
FLEET_SHAPES = {
    DriftType.SUDDEN: (0.3, 0.0),
    DriftType.INCREMENTAL: (0.3, 180.0),
    DriftType.GRADUAL: (0.5, 160.0),
}
FLEET_RECOVERY_S = 450.0
# Onsets over the first 540 s, about one every 18 s across the fleet: queues
# of a dozen candidates form, and the last drift still recovers before the end.
FLEET_ONSETS_S = (60.0, 600.0)


def fleet_scenario(seed: int, n_ends: int = FLEET_ENDS,
                   duration: float = FLEET_DURATION_S) -> Scenario:
    """Ends with independent onsets, mixed drift types and 1.4-7 GB models.

    Every end drifts once, and the drift types take turns over the ends in
    an order of the seed's, so the number of frames and of drifts of each
    type, which set most of the simulator's work, is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    shapes = list(FLEET_SHAPES)
    kinds = rng.permutation(np.arange(n_ends) % len(shapes))
    ends = []
    for j in range(n_ends):
        drift_type = shapes[int(kinds[j])]
        magnitude, transition = FLEET_SHAPES[drift_type]
        onset = float(rng.uniform(*FLEET_ONSETS_S))
        ends.append(MobileEndSpec(
            end_id=f"end{j:02d}",
            arch=fc_arch_with_memory(float(rng.uniform(1400.0, 7000.0))),
            drift_events=(DriftInjection(t=round(onset, 1), drift_type=drift_type,
                                         magnitude=magnitude, transition_s=transition,
                                         recovery_s=FLEET_RECOVERY_S),),
            decay=float(rng.uniform(0.0005, 0.01)),
            work_per_frame=float(rng.uniform(2.0, 10.0)),
            gain_curve_truth=AccuracyCurve(a_max=0.98, b=0.5, c=1.0)))
    return Scenario(seed=seed, ends=tuple(ends), detector=FLEET_DETECTOR,
                    server=ServerSpec(gpu_count=FLEET_GPUS), duration=duration)


def frames_of(scenario: Scenario) -> int:
    """Frames the simulator generates for a scenario (as ``gen_trace`` counts)."""
    return sum(int(scenario.duration * e.frame_rate) for e in scenario.ends)


@dataclass(frozen=True)
class ScenarioFile:
    path: Path
    frames: int


def write_scenario(scenario: Scenario, path: Path) -> Tuple[ScenarioFile, List[str]]:
    """Write a scenario through the public JSON codec and load it back.

    Returns the file and a list of round-trip mismatches (empty when the
    codec reproduces the scenario).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(path, scenario)
    loaded = load_scenario(path)
    problems = []
    if scenario_to_json(loaded) != scenario_to_json(scenario):
        problems.append(f"{path.name}: JSON round trip changed the scenario")
    return ScenarioFile(path=path, frames=frames_of(loaded)), problems


# --- knapsack-grid --------------------------------------------------------------

KNAPSACK_SIZES = (10, 50, 100)
KNAPSACK_CAPACITIES_MB = (8192.0, 81920.0, 655360.0)
# 100 / t_r is exact in binary for these, so equal-value selections tie
# exactly and the lexicographic tie-break is exercised.
KNAPSACK_T_R = (5.0, 8.0, 10.0, 16.0, 20.0, 25.0, 40.0, 50.0)


def knapsack_block(seed: int, sizes=KNAPSACK_SIZES,
                   capacities=KNAPSACK_CAPACITIES_MB) -> List[Tuple[List[EvolutionTask], float]]:
    """(candidates, capacity) calls, one per grid cell.

    Demands are fractional, so ``select_tasks`` rounds them up, and total
    demand is about twice the capacity, so every call must choose.  Ids are
    assigned in shuffled order, so the id sort inside the scheduler matters.
    """
    rng = np.random.default_rng(seed)
    block = []
    for capacity in capacities:
        for n in sizes:
            mem = rng.uniform(0.2, 1.8, n) * (2.0 * capacity / n)
            t_r = rng.choice(KNAPSACK_T_R, n)
            ids = rng.permutation(n)
            tasks = [EvolutionTask(id=f"t{ids[j]:03d}", end_id=f"e{ids[j]:03d}",
                                   arrival_t=0.0, urgency=50.0,
                                   mem_demand=float(mem[j]),
                                   predicted_t_r=float(t_r[j]))
                     for j in range(n)]
            block.append((tasks, capacity))
    return block
