"""Golden output digests.

The sha256 of ``metrics.csv`` followed by ``summary.json`` for every policy on
five scenarios, and of every end's ``gen-traces`` CSV on two of them.  The
bench and contended digests were recorded before the five policies shared one
admission function and one completion engine; the mixed-drift and trace
digests before trace synthesis became array code; the contended-2 and
whole-second digests while every frame was still one heap event.  The last
two pin the order of triggers that tie: a loop that runs triggers in the
order their ends became idle moves the contended-2 default-gpu and
serial-fifo digests and all five whole-second ones.  A change to the simulator
that moves any output byte, even by one ulp, fails here; if the change is
meant to move outputs, record the new digests and say why in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import pytest

from evosched.drift import DriftType
from evosched.profiler import MB, AccuracyCurve, LayerKind, LayerSpec, ModelArch
from evosched.simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    ServerSpec,
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


def whole_second_scenario(seed=0):
    """Five ends whose frames, uploads, retrains and downloads all fall on
    whole or half seconds.  A frame uploads in 1 s, a retrain with all
    compute takes 1 s per frame, and a download takes 10 s; two models fit
    at once.  Onsets are staggered by frame rate so that ends of different
    rates trigger at the same instant, each round in another order of
    finishing the last one."""
    arch = ModelArch(layers=(LayerSpec(kind=LayerKind.FC, c_in=10240, c_out=10240),),
                     bitwidth=32, input_w=8, input_h=8)

    def end(end_id, frame_rate, shifts):
        lag = 55.0 - 55.0 / frame_rate  # a sudden drift triggers ~55 frames in
        return MobileEndSpec(
            end_id=end_id, arch=arch, frame_rate=frame_rate, frame_bytes=10 * MB,
            drift_events=tuple(DriftInjection(t=base + lag + shift,
                                              drift_type=DriftType.SUDDEN,
                                              magnitude=0.5, transition_s=0.0,
                                              recovery_s=60.0 / frame_rate)
                               for base, shift in zip((201.0, 501.0, 801.0), shifts)),
            decay=0.004, work_per_frame=0.8,
            gain_curve_truth=AccuracyCurve(a_max=0.98, b=0.5, c=1.0))

    ends = (end("e0", 1.0, (0.0, 0.0, 0.0)), end("e1", 1.0, (0.0, 0.0, -20.0)),
            end("e2", 2.0, (0.0, 0.0, 0.0)), end("e3", 0.5, (-1.0, -1.0, -1.0)),
            end("e4", 1.0, (-30.0, 0.0, 0.0)))
    return Scenario(seed=seed, ends=ends, server=ServerSpec(mem_capacity_mb=4200.0),
                    detector=BENCH_DETECTOR, unfrozen_fraction=0.5, duration=1100.0)


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
    "contended-2": {
        "adaptive": "0fd138e0d6e073931d888ce43a10c4aa635303b309fc0c10914e9e73b48524de",
        "default-gpu": "e40d593ed8d6011fd39ed36ad8224aeda70b1f21be5d936ac9640cd2d9b290e9",
        "serial-fifo": "3563af4a9fa72b5c43184bb5984b7d842f9ab5f36339706489c257cd84a87416",
        "serial-priority": "c1143b7e7fb14211f152b9d003d1e06532759769125bf033332ab916cf15a938",
        "dp-no-grouping": "1fd4ba60acc005b02fa0d9ed7d6c0ab8055dbeb176d435d45423ab976e926386",
    },
    "mixed-drift": {
        "adaptive": "860ad745aafd25440c93bcaaf0ec131a0523e23a62b3e2f190271eb6d233a605",
        "default-gpu": "ce6518c14844e4f8c19d4a8274619aa4953162529570974d96cb4da9a4c1cb05",
        "serial-fifo": "e5961f3eec8cc5df4ba8f6766a6e62ac4269d81868fb0d692a083c196f663b01",
        "serial-priority": "b3e639b5e5d4124c0e1475e75764e80184fd5c05d33312cea4872b4ff0691eef",
        "dp-no-grouping": "989f09d041d3cc89d41d1444c4209d5e7b8a035e7880b29657c0e75e28fcd85b",
    },
    "whole-second-0": {
        "adaptive": "b3ec60f52161322a3cae83204fb20277b9c64151fbf0559deca83ceb3d8cf0e7",
        "default-gpu": "e8658bbdd24149c5e8a39db0e362fce4aceb2025e9bae7ef4dee9c68f5969781",
        "serial-fifo": "6dca3702f27d1b6b716b5506d46425549fca834615642ef84029e348747f1779",
        "serial-priority": "8e25dd49fbe76e1e5844ee8116361d4be87ef66208da0df638043dca664399ca",
        "dp-no-grouping": "5a756939c1d2885515fa000d4ba1908621432bca0d6c543790b1c33151a1e3a5",
    },
}

TRACE_DIGESTS = {
    "bench-0": "60da83b4909e66af6db99437c67f916f0bfa69243eedbcd363129afff9551bfc",
    "mixed-drift": "64669eb73095fc8bf938f1caa6473d346a7120d2091ea21ff351ad330a612055",
}

SCENARIOS = {"bench-0": lambda: bench_scenario(0), "contended": contended_scenario,
             "contended-2": lambda: replace(contended_scenario(), seed=2),
             "mixed-drift": mixed_drift_scenario, "whole-second-0": whole_second_scenario}


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
