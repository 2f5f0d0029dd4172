"""Golden output digests.

The sha256 of ``metrics.csv`` followed by ``summary.json`` for every policy on
two scenarios, recorded before the five policies shared one admission
function and one completion engine.  A change to the simulator that moves
any output byte, even by one ulp, fails here; if the change is meant to move
outputs, record the new digests and say why in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import pytest

from evosched.drift import DriftType
from evosched.profiler import AccuracyCurve
from evosched.simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    run,
    write_metrics_csv,
    write_summary_json,
)

from test_acceptance import bench_scenario, fc_arch_with_memory


def contended_end(end_id, mem, onsets, kind=DriftType.SUDDEN, transition=0.0,
                  work_per_frame=1.0):
    return MobileEndSpec(
        end_id=end_id, arch=fc_arch_with_memory(mem),
        drift_events=tuple(
            DriftInjection(t=t, drift_type=kind, magnitude=0.5,
                           transition_s=transition, recovery_s=200.0)
            for t in onsets),
        decay=0.004, work_per_frame=work_per_frame,
        gain_curve_truth=AccuracyCurve(a_max=0.98, b=0.5, c=1.0))


def contended_scenario():
    """Six ends on one 8 GB GPU.  Memory and compute are both contended, so
    default-gpu shares change while tasks run, tasks queue behind memory, and
    the three identical twins finish at the same instant while others wait."""
    ends = tuple(contended_end(f"twin-{i}", 1500.0, (120.0, 700.0)) for i in range(3))
    ends += (
        contended_end("mid", 3000.0, (100.0, 650.0), work_per_frame=2.0),
        contended_end("big", 5000.0, (140.0, 800.0), work_per_frame=3.0),
        contended_end("late", 2500.0, (200.0, 760.0), DriftType.INCREMENTAL,
                      transition=60.0, work_per_frame=1.5),
    )
    return Scenario(seed=3, ends=ends, duration=1500.0)


DIGESTS = {
    "bench-0": {
        "adaptive": "9162d437e39a1d78f06902ac84d643392198747e315556b6565b936edf04ae14",
        "default-gpu": "6d67c0bdbdc0a3f0d943939f86e167d3d35a5c470c6a84d7469e14c0fc6cd4d2",
        "serial-fifo": "09341bfbe5f8754749e9763ee3332106cd71981cf0441a566ddaba87199c0312",
        "serial-priority": "f62bf16f522ccba2edc0f2c88a5f35f3f2cc27e88a95798ec7433fef9123d23f",
        "dp-no-grouping": "5eb56a2fbd83798dff4f650b9b3177e125778e21f8688b4ef3319becab4ec726",
    },
    "contended": {
        "adaptive": "291db9d9c5f6b22ae2417998e66ded53755e89c870e03af9a97b26dbf125bfb8",
        "default-gpu": "d8321945ad96b0a6e7799c489d8bbeda397507f943fe696add6b1fa283b3f3d9",
        "serial-fifo": "7dafcc4f4017b8b43048212a9d4348b3e22a525c8ad82f50bf2b31f08f5887b8",
        "serial-priority": "2b7ccd36873b1d9eff6231e33416edc91e566a3e9eecb2a67d68608d4fc41ff1",
        "dp-no-grouping": "10b157aa4af2a22e6b7ea131bb19dd8c4d8edacfc833dcd523fee6c50651d427",
    },
}

SCENARIOS = {"bench-0": lambda: bench_scenario(0), "contended": contended_scenario}


def output_digest(scenario, tmp_path):
    metrics = run(scenario)
    csv_path, json_path = tmp_path / "metrics.csv", tmp_path / "summary.json"
    write_metrics_csv(csv_path, metrics)
    write_summary_json(json_path, metrics, scenario)
    return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_digests(name, tmp_path):
    base = SCENARIOS[name]()
    got = {policy.value: output_digest(replace(base, policy=policy), tmp_path)
           for policy in Policy}
    assert got == DIGESTS[name]
