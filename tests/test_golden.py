"""Golden output digests.

``DIGESTS`` holds the sha256 of ``metrics.csv`` followed by ``summary.json``
for every policy on seven scenarios, and what each pins:

* bench-0: criterion 8's three ends under the five policies;
* contended and contended-2: memory and compute both contended on one GPU,
  so default-gpu shares change while tasks run, tasks queue behind memory,
  and tasks that finish at one instant all leave the pool before the
  admission that follows;
* mixed-drift: every branch of trace synthesis;
* whole-second-0: events that tie on whole seconds, so that the order of
  tied triggers shows (a loop that runs triggers in the order their ends
  became idle moves all five of its digests and contended-2's default-gpu
  and serial-fifo ones), with tied completions as in contended;
* fleet-like and fleet-like-7: the fleet benchmark's detector on two GPUs;
  only fleet-like-7 reaches a default-gpu share that the admission at a
  completion leaves as it is rather than changing it and back.

``TRACE_DIGESTS`` pins every end's ``gen-traces`` CSV on two scenarios, and
``SCENARIO_DIGESTS`` and ``ARCH_DIGESTS`` the files ``save_scenario`` writes
for the seven scenarios and ``write_arch_json`` for each distinct
architecture in them.  A change that moves any of these bytes, even by one
ulp, fails here; if it is meant to, record the new digests and say why in
CHANGES.md.

Beside the digests, ``summary.json`` is checked to follow, bit for bit, from
the life cycles ``metrics.csv`` holds.
"""
import csv
import hashlib
import json
from dataclasses import asdict, fields, replace

import pytest

from evosched.core import penalized_average_qoe, qoe_single
from evosched.drift import DetectorConfig, DriftType
from evosched.profiler import (
    MB, AccuracyCurve, LayerKind, LayerSpec, ModelArch, write_arch_json,
)
from evosched.simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    ServerSpec,
    TaskMetrics,
    run,
    save_scenario,
    write_metrics_csv,
    write_summary_json,
    write_traces,
)
from evosched.scheduler import GroupingConfig, group_number

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


FLEET_LIKE_DETECTOR = DetectorConfig(window_frames=60, sub_windows=12, temp_window_frames=120,
                                     rod_threshold=0.05, variance_threshold=2e-4, tau=90.0)


def fleet_like_scenario(seed=4):
    """Twelve ends on two GPUs with the fleet benchmark's detector: twelve
    sub-windows in the temp window and a rod threshold of 0.05.  Sudden,
    incremental and gradual drifts take turns over the ends at staggered
    onsets, every other end drifts a second time, and models of 1.4-6.7 GB
    queue for memory and compute."""
    shapes = ((DriftType.SUDDEN, 0.3, 0.0), (DriftType.INCREMENTAL, 0.3, 180.0),
              (DriftType.GRADUAL, 0.5, 160.0))
    ends = []
    for j in range(12):
        kind, magnitude, transition = shapes[j % 3]
        onsets = (60.0 + 23.0 * j, 760.0 + 17.0 * j) if j % 2 == 0 else (60.0 + 23.0 * j,)
        ends.append(MobileEndSpec(
            end_id=f"end{j:02d}", arch=fc_arch_with_memory(1400.0 + 480.0 * ((5 * j) % 12)),
            drift_events=tuple(DriftInjection(t=t, drift_type=kind, magnitude=magnitude,
                                              transition_s=transition, recovery_s=250.0)
                               for t in onsets),
            decay=0.0005 + 0.0008 * ((7 * j) % 12), work_per_frame=0.5 + 0.25 * ((3 * j) % 12),
            gain_curve_truth=AccuracyCurve(a_max=0.98, b=0.5, c=1.0)))
    return Scenario(seed=seed, ends=tuple(ends), detector=FLEET_LIKE_DETECTOR,
                    server=ServerSpec(gpu_count=2), duration=1300.0)


DIGESTS = {
    "bench-0": {
        "adaptive": "9162d437e39a1d78f06902ac84d643392198747e315556b6565b936edf04ae14",
        "default-gpu": "6d67c0bdbdc0a3f0d943939f86e167d3d35a5c470c6a84d7469e14c0fc6cd4d2",
        "serial-fifo": "09341bfbe5f8754749e9763ee3332106cd71981cf0441a566ddaba87199c0312",
        "serial-priority": "f62bf16f522ccba2edc0f2c88a5f35f3f2cc27e88a95798ec7433fef9123d23f",
        "dp-no-grouping": "5eb56a2fbd83798dff4f650b9b3177e125778e21f8688b4ef3319becab4ec726",
    },
    "contended": {
        "adaptive": "7241ff14e39baf7f3dc4317f928ff6fea5aa3af7dec65b6842c85a24c709817e",
        "default-gpu": "d8321945ad96b0a6e7799c489d8bbeda397507f943fe696add6b1fa283b3f3d9",
        "serial-fifo": "7dafcc4f4017b8b43048212a9d4348b3e22a525c8ad82f50bf2b31f08f5887b8",
        "serial-priority": "2b7ccd36873b1d9eff6231e33416edc91e566a3e9eecb2a67d68608d4fc41ff1",
        "dp-no-grouping": "8e6aa0b481480812cfa13bed35a87eda62ab017a4cb710e5f523eceb91e71297",
    },
    "contended-2": {
        "adaptive": "540b8284f59dbbca8ab389ced818c86d1e5734a0ebdd9595c7c23b271328fc49",
        "default-gpu": "e40d593ed8d6011fd39ed36ad8224aeda70b1f21be5d936ac9640cd2d9b290e9",
        "serial-fifo": "3563af4a9fa72b5c43184bb5984b7d842f9ab5f36339706489c257cd84a87416",
        "serial-priority": "c1143b7e7fb14211f152b9d003d1e06532759769125bf033332ab916cf15a938",
        "dp-no-grouping": "ba2c130acffe52ab4884d289935b0dace9d9490fbcf4dfea40f71c8afe180273",
    },
    "mixed-drift": {
        "adaptive": "860ad745aafd25440c93bcaaf0ec131a0523e23a62b3e2f190271eb6d233a605",
        "default-gpu": "ce6518c14844e4f8c19d4a8274619aa4953162529570974d96cb4da9a4c1cb05",
        "serial-fifo": "e5961f3eec8cc5df4ba8f6766a6e62ac4269d81868fb0d692a083c196f663b01",
        "serial-priority": "b3e639b5e5d4124c0e1475e75764e80184fd5c05d33312cea4872b4ff0691eef",
        "dp-no-grouping": "989f09d041d3cc89d41d1444c4209d5e7b8a035e7880b29657c0e75e28fcd85b",
    },
    "whole-second-0": {
        "adaptive": "11ff59c281452a2118ec22605091645ff9aa16e163b3bea7cb7e9fe68fbc6a6f",
        "default-gpu": "e8658bbdd24149c5e8a39db0e362fce4aceb2025e9bae7ef4dee9c68f5969781",
        "serial-fifo": "6dca3702f27d1b6b716b5506d46425549fca834615642ef84029e348747f1779",
        "serial-priority": "8e25dd49fbe76e1e5844ee8116361d4be87ef66208da0df638043dca664399ca",
        "dp-no-grouping": "f9bcf83efce7188e24751d50602697d75dd9d16d87bd881a45d36e369ab91017",
    },
    "fleet-like": {
        "adaptive": "4020f91245adc4af4476f265c9b38abf683eb95b1734c3eecf9f9b0dcd4b5fea",
        "default-gpu": "474785ec1b538189870196a5883fcc92c9800c698904c6e1c30c902043c9a073",
        "serial-fifo": "dd5cc5590202843b7180820a15c5845d8b63c6c68bd1a9a44ecfed149877c99a",
        "serial-priority": "21b29c8856888c1df360621d1d7dbc0110e632b8f8526584f02fc0584de35f4e",
        "dp-no-grouping": "f41b66aa119e198d104da4544b21b7dcc18777c1690da07e38dad062ceea6f2b",
    },
    "fleet-like-7": {
        "adaptive": "b59da68648f5c9d25f623ccec9a31068d8d15fcf3c1168372c770a93050c3c84",
        "default-gpu": "3678d26281b74b534dc7c8b8bed0d4ad27d08f2d1a57a88d70e3feb0860b92f9",
        "serial-fifo": "81fa81f1ee30e00b3da1c00ecf1ef2470f97021e747f707ec1cbb52e722456fa",
        "serial-priority": "4ee5ca8fe1e688dea342f982adbbb1fb54e10b94e45599a02e42e9aa4410669e",
        "dp-no-grouping": "31506fa8449f571b8af53ecacb3e1c1861b0916e2323ac0c2a446a7fc3f9dcaf",
    },
}

TRACE_DIGESTS = {
    "bench-0": "60da83b4909e66af6db99437c67f916f0bfa69243eedbcd363129afff9551bfc",
    "mixed-drift": "64669eb73095fc8bf938f1caa6473d346a7120d2091ea21ff351ad330a612055",
}

SCENARIO_DIGESTS = {
    "bench-0": "12c9743cefefe3c6e1b3fcd3e96e9133b75dc7e24651606322ac8d5e18d31b32",
    "contended": "bac9ddf4f202ed9ff7b112f2c6f787108da2810fd40001c0f1d84cd101419023",
    "contended-2": "a9d920eecadb40c0bc9f0b6c55848262e0685dd77f63fb3728f933e282e474ea",
    "fleet-like": "d19c410bb264c2f0b28d014fc93d46cf2cab586bf92bee5b9adac4acd76df56b",
    "fleet-like-7": "52acc064da4dbd038b098373cc2e943d8a43a6f8311b05e6f92ca597eb72ec9c",
    "mixed-drift": "0abeaece99c1d77e05b082e72dbce3aaf2168fdaa8743b8a38a275c0fcd7b40f",
    "whole-second-0": "74fd8eacc449fb6ae4231d951740e5f5fda7709467fc39173fb8945b50cf6d9e",
}

ARCH_DIGESTS = {
    "0420cfe210b3ccff0411d4b307ce9a53b89e3767e3fe77ed590e57aa32894c1c",
    "2e0975ddad91dc348d52a9dc56b37c3da989954cb4fa22b3ede33ab3acfa027f",
    "3422ae5437f0157863592f07029328d926056006a8e1f618a396bae55883c236",
    "3754b11a3acf8142ee8ef14e02cff5513c8f958a4676aea03c2f18ecc8898012",
    "419d6a75cc08600612290536cd820194b9f20c1675e546255faefc0ef7ce5807",
    "4ef7eacd9d6845959974d7c1ef599b56e3a8ef7e63f1ea8100a76af65c839986",
    "4f1ab6cd314ab41f9ca77f02a2d19c67159c8e1ef87364de14b617bec83c1a24",
    "571ae73e694df15a50c36df928f29d36e012d6fc3a4c1448d232865d68041cc1",
    "5b2c5ac9f3ba1b77a44c3e749b78ef485c203befc2b1de468ab105ed01500f48",
    "78f5202c6fe2bd85ab683c2fa789a94055ec377aa3d319213e1bb5013451629d",
    "7bb200ec6883af3ee7878964d461dd838de13c81377b9b938e9e4a4373419aa8",
    "7fa3ea61b9ce14a5da1a1b083240b6c0b425725dcdcba59a2b3b9120066ebc73",
    "82cadd37d8ebb6bce91a45bd306e521e067be8976b748f41ce3e98d9e799a203",
    "88b8265297170bd91a25eb2133f8fa76864af80cac9acad2c08672bb903e9fdc",
    "92e9b4360e5cfe33c402334fa1c1b3f8e2d5b3bc67ffd4c3fa650679bbd04285",
    "b176bf7957158d86244a4fd5d40a843f642767705dac1c7a02f69c341a918b69",
    "b5e3887548c2f7c5d2a21baf232e9bebc6e3f19f375ffd307692c3c23627b73b",
    "ceb849be6ac7243a0eed608362f4b208dd051ef76682d8fd438fb46bc2e65dd1",
    "e198a4fcb140e3fd3e4500268a2169333c8cb1df12f966d009a463c1e68bf7ae",
    "f21a301a2538a1a2d1746b82f07ebfa9aeb8cc7b71b5b8b1c29c873d009fa56b",
    "f5b47740b8cb05ff096fc0f87e35b5dd275151a009a09f974fda68baa2fa4ded",
}

SCENARIOS = {"bench-0": lambda: bench_scenario(0), "contended": contended_scenario,
             "contended-2": lambda: replace(contended_scenario(), seed=2),
             "mixed-drift": mixed_drift_scenario, "whole-second-0": whole_second_scenario,
             "fleet-like": fleet_like_scenario,
             "fleet-like-7": lambda: fleet_like_scenario(seed=7)}


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


def read_metrics_csv(path):
    """``(TaskMetrics, qoe)`` for each row of the ``metrics.csv`` file ``path``."""
    kinds = {f.name: f.type for f in fields(TaskMetrics)}
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            qoe = float(rec.pop("qoe"))
            rows.append((TaskMetrics(**{k: v if kinds[k] == "str" else float(v)
                                        for k, v in rec.items()}), qoe))
    return rows


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_summary_follows_from_metrics_csv(name, tmp_path):
    """Every float of ``summary.json`` is, bit for bit, the objective or a
    mean of the life cycles that ``metrics.csv`` holds, and each row's
    ``qoe`` is that cycle's."""
    base = SCENARIOS[name]()
    for policy in Policy:
        sc = replace(base, policy=policy)
        metrics = run(sc)
        write_metrics_csv(tmp_path / "metrics.csv", metrics)
        write_summary_json(tmp_path / "summary.json", metrics, sc)
        rows = read_metrics_csv(tmp_path / "metrics.csv")
        assert rows, policy
        for m, qoe in rows:
            assert repr(qoe) == repr(qoe_single(m)), (policy, m)
        cycles = [m for m, _ in rows]
        n = len(cycles)
        want = {"policy": policy.value, "seed": sc.seed, "n_tasks": n,
                "mean_evolving_time": sum(m.t_evolve for m in cycles) / n,
                "mean_t_schedule": sum(m.t_schedule for m in cycles) / n,
                "mean_t_retrain": sum(m.t_retrain for m in cycles) / n,
                **asdict(penalized_average_qoe(cycles))}
        got = json.loads((tmp_path / "summary.json").read_text())
        assert {k: repr(v) for k, v in got.items()} == \
            {k: repr(v) for k, v in want.items()}, policy


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_adaptive_with_one_group_is_dp_no_grouping(name):
    """Under a grouping with one urgency group the adaptive policy admits
    as dp-no-grouping does, so the two runs give equal metrics."""
    grouping = GroupingConfig(sigma=24.0, eps_range=80.0)
    assert group_number(grouping) == 1
    base = replace(SCENARIOS[name](), grouping=grouping)
    assert run(replace(base, policy=Policy.ADAPTIVE)) == \
        run(replace(base, policy=Policy.DP_NO_GROUPING))


def trace_digest(scenario, tmp_path):
    """sha256 of every end's ``gen-traces`` CSV, in end order."""
    paths = write_traces(tmp_path, scenario)
    return hashlib.sha256(b"".join(open(p, "rb").read() for p in paths)).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_traces_match_golden_digests(name, tmp_path):
    assert trace_digest(SCENARIOS[name](), tmp_path) == TRACE_DIGESTS[name]


def file_digest(write, obj, path):
    """sha256 of the file ``write(path, obj)`` leaves."""
    write(path, obj)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_file_matches_golden_digest(name, tmp_path):
    got = file_digest(save_scenario, SCENARIOS[name](), tmp_path / "scenario.json")
    assert got == SCENARIO_DIGESTS[name]


def test_arch_files_match_golden_digests(tmp_path):
    archs = {end.arch for make in SCENARIOS.values() for end in make().ends}
    assert {file_digest(write_arch_json, arch, tmp_path / "arch.json")
            for arch in archs} == ARCH_DIGESTS
