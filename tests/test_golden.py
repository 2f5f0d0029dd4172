"""Golden output digests.

The sha256 of ``metrics.csv`` followed by ``summary.json`` for every policy on
three scenarios, and of every end's ``gen-traces`` CSV on two of them.  The
bench and contended digests were recorded before the five policies shared one
admission function and one completion engine; the mixed-drift and trace
digests before trace synthesis became array code.  A change to the simulator
that moves any output byte, even by one ulp, fails here; if the change is
meant to move outputs, record the new digests and say why in CHANGES.md.
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
    write_traces,
)

from test_acceptance import BENCH_DETECTOR, bench_scenario, fc_arch_with_memory


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


def mixed_drift_scenario():
    """Every branch of trace synthesis: sudden, incremental with and without
    a transition, gradual (the only reader of the mixture stream), two
    overlapping events on one end, and a frame rate that is not an integer."""
    def end(end_id, mem, events, frame_rate=1.0):
        return MobileEndSpec(
            end_id=end_id, arch=fc_arch_with_memory(mem),
            drift_events=tuple(DriftInjection(t=t, drift_type=kind, magnitude=m,
                                              transition_s=tr, recovery_s=rec)
                               for t, kind, m, tr, rec in events),
            frame_rate=frame_rate, decay=0.004,
            gain_curve_truth=AccuracyCurve(a_max=0.98, b=0.5, c=1.0))

    ends = (
        end("sudden", 1500.0, [(150.0, DriftType.SUDDEN, 0.5, 0.0, 200.0)]),
        end("ramp", 2500.0, [(120.0, DriftType.INCREMENTAL, 0.45, 60.0, 150.0)]),
        end("step", 2000.0, [(200.0, DriftType.INCREMENTAL, 0.5, 0.0, 120.0)]),
        end("mixture", 3000.0, [(100.0, DriftType.GRADUAL, 0.5, 90.0, 150.0)],
            frame_rate=2.5),
        end("overlap", 1800.0, [(90.0, DriftType.SUDDEN, 0.4, 20.0, 150.0),
                                (160.0, DriftType.GRADUAL, 0.55, 80.0, 100.0),
                                (420.0, DriftType.INCREMENTAL, 0.5, 40.0, 0.0)]),
    )
    return Scenario(seed=5, ends=ends, detector=BENCH_DETECTOR, duration=600.0)


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
    "mixed-drift": {
        "adaptive": "860ad745aafd25440c93bcaaf0ec131a0523e23a62b3e2f190271eb6d233a605",
        "default-gpu": "ce6518c14844e4f8c19d4a8274619aa4953162529570974d96cb4da9a4c1cb05",
        "serial-fifo": "e5961f3eec8cc5df4ba8f6766a6e62ac4269d81868fb0d692a083c196f663b01",
        "serial-priority": "b3e639b5e5d4124c0e1475e75764e80184fd5c05d33312cea4872b4ff0691eef",
        "dp-no-grouping": "989f09d041d3cc89d41d1444c4209d5e7b8a035e7880b29657c0e75e28fcd85b",
    },
}

TRACE_DIGESTS = {
    "bench-0": "60da83b4909e66af6db99437c67f916f0bfa69243eedbcd363129afff9551bfc",
    "mixed-drift": "64669eb73095fc8bf938f1caa6473d346a7120d2091ea21ff351ad330a612055",
}

SCENARIOS = {"bench-0": lambda: bench_scenario(0), "contended": contended_scenario,
             "mixed-drift": mixed_drift_scenario}


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


def trace_digest(scenario, tmp_path):
    """sha256 of every end's ``gen-traces`` CSV, in end order."""
    paths = write_traces(tmp_path, scenario)
    return hashlib.sha256(b"".join(open(p, "rb").read() for p in paths)).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_traces_match_golden_digests(name, tmp_path):
    assert trace_digest(SCENARIOS[name](), tmp_path) == TRACE_DIGESTS[name]
