import json
import os
import subprocess
import sys

import numpy as np
import pytest

import evosched
from evosched import simenv
from evosched.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, OUT_DIR_ENV, main
from evosched.drift import DriftType, write_trace_csv
from evosched.profiler import write_arch_json
from evosched.scheduler import EvolutionTask, select_tasks
from evosched.simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    gen_trace,
    save_scenario,
)

from test_simenv import sudden_end, tiny_arch


@pytest.fixture
def scenario_path(tmp_path):
    sc = Scenario(seed=7, ends=(sudden_end("end-a"), sudden_end("end-b")),
                  policy=Policy.ADAPTIVE)
    path = tmp_path / "scenario.json"
    save_scenario(path, sc)
    return path


class TestSimulate:
    def test_writes_outputs(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scenario_path),
                   "--out", str(out), "--verbose"])
        assert rc == EXIT_OK
        assert (out / "metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy"] == "adaptive"
        assert "finished tasks" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, scenario_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["simulate", "--scenario", str(scenario_path),
                         "--seed", "11", "--out", str(out)]) == EXIT_OK
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_policy_override(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scenario_path),
                   "--policy", "serial-fifo", "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy"] == "serial-fifo"

    def test_out_dir_env(self, scenario_path, tmp_path, monkeypatch):
        out = tmp_path / "env-out"
        monkeypatch.setenv(OUT_DIR_ENV, str(out))
        assert main(["simulate", "--scenario", str(scenario_path)]) == EXIT_OK
        assert (out / "metrics.csv").exists()

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "nope.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT

    def test_bad_policy_is_input_error(self, scenario_path, tmp_path):
        rc = main(["simulate", "--scenario", str(scenario_path),
                   "--policy", "warp-speed", "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("section, field, value", [
        ("sampler", "r_f", 0.0), ("sampler", "r_f", float("inf")),
        ("detector", "rod_threshold", float("nan")),
        ("server", "compute_capacity", float("nan")), ("server", "gpu_count", 1.5),
        (None, "duration", float("inf")), (None, "lookahead_factor", float("nan")),
        (None, "lookahead_factor", -1.0), (None, "epochs", 2.5), (None, "seed", 3.7),
        (None, "seed", -1),
        ("ends.0", "frame_rate", float("inf")), ("ends.0", "decay", float("nan")),
        ("ends.0.drift_events.0", "t", float("nan")),
        ("grouping", "sigma", float("nan")), ("grouping", "lambda_max", float("nan")),
        ("sampler", "frame_w", 2.5), ("detector", "window_frames", 2.5),
        ("sampler", "frame_h", float("inf")),
        pytest.param(None, "duration", 10 ** 400, id="None-duration-1e400"),
        ("ends.0.gain_curve", "a_max", float("nan")), ("ends.0.gain_curve", "b", float("inf")),
        ("ends.1.gain_curve", "c", float("nan")),
        ("ends.0.arch", "batch", 1.9), ("ends.0.arch", "input_w", float("inf")),
        ("ends.0.arch.layers.0", "c_in", 2.5), ("ends.1.arch.layers.0", "k1", float("nan")),
        ("server", "gpu_count", True), (None, "duration", False), (None, "seed", True),
        ("ends.0.arch", "batch", True), ("ends.0.drift_events.0", "t", True),
    ])
    def test_bad_setting_is_input_error(self, scenario_path, tmp_path, capsys,
                                        section, field, value):
        """``section`` is a dotted path into the document, None its top level."""
        doc = json.loads(scenario_path.read_text())
        target = doc
        for key in section.split(".") if section else ():
            target = target[int(key)] if key.isdigit() else target[key]
        target[field] = value
        scenario_path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(scenario_path),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert f"{field} must" in capsys.readouterr().err

    def test_negative_seed_option_is_input_error(self, scenario_path, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(scenario_path), "--seed", "-3",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_seed_of_any_size_runs(self, scenario_path, tmp_path):
        doc = json.loads(scenario_path.read_text())
        doc["seed"] = 10 ** 400  # beyond the range of a float
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario_path),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["seed"] == 10 ** 400

    @pytest.mark.parametrize("doc", [[], "scenario"])
    def test_non_object_scenario_is_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
        assert "JSON object" in capsys.readouterr().err

    def test_uncaught_exception_is_internal_error(self, scenario_path, tmp_path,
                                                  monkeypatch, capsys):
        def broken_run(scenario):
            raise RuntimeError("event heap corrupted")
        monkeypatch.setattr(simenv, "run", broken_run)
        rc = main(["simulate", "--scenario", str(scenario_path),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error: ")
        assert "event heap corrupted" in err


def test_sweep_runs_all(scenario_path, tmp_path):
    listing = tmp_path / "sweep.txt"
    listing.write_text(f"{scenario_path}\n\n{scenario_path}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--sweep", str(listing), "--out", str(out)]) == EXIT_OK
    assert (out / "scenario_metrics.csv").exists()
    assert (out / "scenario_summary.json").exists()


def test_sweep_rejects_paths_sharing_a_stem(scenario_path, tmp_path, capsys):
    """Two scenario files with one stem would write the same outputs."""
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "scenario.json")
        paths[-1].write_bytes(scenario_path.read_bytes())
    listing = tmp_path / "sweep.txt"
    listing.write_text("".join(f"{p}\n" for p in paths))
    out = tmp_path / "out"
    assert main(["sweep", "--sweep", str(listing), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not (out / "scenario_metrics.csv").exists()


@pytest.mark.parametrize("command, flag", [("profile-memory", "--arch"),
                                           ("schedule", "--tasks")])
def test_invalid_json_names_its_file(tmp_path, capsys, command, flag):
    path = tmp_path / "input.json"
    path.write_text("{not json")
    argv = [command, flag, str(path)] + (["--capacity", "10"] if command == "schedule" else [])
    assert main(argv) == EXIT_INPUT
    assert f"{path}: invalid JSON at line 1" in capsys.readouterr().err


def test_main_builds_its_parser_once_and_calls_share_no_state(monkeypatch):
    """Consecutive calls in one process parse with one parser, each into a
    namespace of its own, and dispatch to the command function the module
    holds at the time of the call."""
    from evosched import cli
    build, builds = cli.build_parser, []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(vars(args)) or EXIT_OK)
    assert main(["simulate", "--scenario", "a.json", "--seed", "5", "--verbose"]) == EXIT_OK
    assert main(["simulate", "--scenario", "b.json"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "5"])  # no --scenario
    assert exc.value.code == EXIT_INPUT
    assert main(["simulate", "--scenario", "c.json", "--policy", "adaptive"]) == EXIT_OK
    common = dict(command="simulate", out=None, seed=None, policy=None, verbose=False)
    assert seen == [{**common, "scenario": "a.json", "seed": 5, "verbose": True},
                    {**common, "scenario": "b.json"},
                    {**common, "scenario": "c.json", "policy": "adaptive"}]
    assert builds == [1]


def test_cli_import_leaves_scipy_unloaded():
    """Only curve fitting and regressor training need scipy, and each
    command imports the modules it runs, so loading the CLI must pull in
    neither scipy nor numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evosched.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, evosched.cli; print([m for m in ('scipy', 'numpy') if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestDriftDetect:
    def test_detects_step_trace(self, tmp_path, capsys):
        frames = gen_trace(sudden_end(t=120.0), seed=1, end_index=0,
                           duration=500.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, frames)
        assert main(["drift-detect", "--trace", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 1
        event = json.loads(lines[0])
        assert event["type"] == DriftType.SUDDEN.value
        assert 90.0 <= event["t1"] <= 250.0

    def test_quiet_trace_silent(self, tmp_path, capsys):
        spec = MobileEndSpec(end_id="e", arch=tiny_arch(), drift_events=())
        frames = gen_trace(spec, seed=1, end_index=0, duration=300.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, frames)
        assert main(["drift-detect", "--trace", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == ""

    def test_corrupt_trace_is_input_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,cc,lc,pixel_diff,n_det\n1.0,oops,0.8,0,0\n")
        assert main(["drift-detect", "--trace", str(path)]) == EXIT_INPUT

    @pytest.mark.parametrize("row", ["nan,0.8,0.8,0,0", "1.0,0.8,0.8,nan,0",
                                     "1.0,0.8,0.8,inf,0"])
    def test_non_finite_frame_is_input_error(self, tmp_path, capsys, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,cc,lc,pixel_diff,n_det\n{row}\n")
        assert main(["drift-detect", "--trace", str(path)]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1.0,0.9,0.9,10,-1,0,0.5,7,8",
                                     "1.0,0.9,0.9,10,0,0,0.5,7"])
    def test_row_past_its_detections_is_input_error(self, tmp_path, capsys, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,cc,lc,pixel_diff,n_det,det0_category,det0_f0,det0_f1\n{row}\n")
        assert main(["drift-detect", "--trace", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "line 2" in err

    @pytest.mark.parametrize("second", ["1.0,0.8,0.8,0,0", "0.5,0.8,0.8,0,0"],
                             ids=["repeated-t", "earlier-t"])
    def test_row_out_of_time_order_is_input_error(self, tmp_path, capsys, second):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,cc,lc,pixel_diff,n_det\n1.0,0.8,0.8,0,0\n{second}\n")
        assert main(["drift-detect", "--trace", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "line 3" in err


def test_profile_memory_matches_library(tmp_path, capsys):
    from evosched.profiler import memory_demand
    arch = tiny_arch()
    path = tmp_path / "arch.json"
    write_arch_json(path, arch)
    assert main(["profile-memory", "--arch", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    breakdown = memory_demand(arch)
    assert doc["total"] == breakdown.total
    assert doc["m_p"] == breakdown.m_p


@pytest.mark.parametrize("path, value", [
    (("batch",), 1.9), (("layers", 0, "c_in"), 2.5), (("layers", 0, "p1"), 0.5),
    (("input_h",), float("nan")), (("bitwidth",), float("inf")), (("layers", 0, "c_out"), "16"),
    (("batch",), True), (("layers", 0, "c_in"), True), (("layers", 0, "k1"), False),
])
def test_profile_memory_rejects_bad_numbers(tmp_path, capsys, path, value):
    """A fractional or non-finite architecture number exits 2 naming its
    field; it is not truncated."""
    arch = tmp_path / "arch.json"
    write_arch_json(arch, tiny_arch())
    doc = json.loads(arch.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    arch.write_text(json.dumps(doc))
    assert main(["profile-memory", "--arch", str(arch)]) == EXIT_INPUT
    assert f"{path[-1]} must" in capsys.readouterr().err


def test_profile_memory_names_a_missing_layer_field(tmp_path, capsys):
    arch = tmp_path / "arch.json"
    write_arch_json(arch, tiny_arch())
    doc = json.loads(arch.read_text())
    del doc["layers"][0]["c_in"]
    arch.write_text(json.dumps(doc))
    assert main(["profile-memory", "--arch", str(arch)]) == EXIT_INPUT
    assert "c_in" in capsys.readouterr().err


def test_profile_memory_takes_integral_floats(tmp_path, capsys):
    arch = tmp_path / "arch.json"
    write_arch_json(arch, tiny_arch())
    assert main(["profile-memory", "--arch", str(arch)]) == EXIT_OK
    want = capsys.readouterr().out
    doc = json.loads(arch.read_text())
    doc["batch"], doc["layers"][0]["c_in"] = 1.0, 3.0
    arch.write_text(json.dumps(doc))
    assert main(["profile-memory", "--arch", str(arch)]) == EXIT_OK
    assert capsys.readouterr().out == want


class TestSchedule:
    def test_reference_selection(self, tmp_path, capsys):
        tasks = [
            {"id": "a", "mem_demand": 4096, "predicted_t_r": 10},
            {"id": "b", "mem_demand": 3072, "predicted_t_r": 20},
            {"id": "c", "mem_demand": 5120, "predicted_t_r": 5},
        ]
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(tasks))
        rc = main(["schedule", "--tasks", str(path), "--capacity", "8192"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["selected"]) == {"b", "c"}

    def test_nonpositive_capacity_rejected(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text("[]")
        rc = main(["schedule", "--tasks", str(path), "--capacity", "-5"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("capacity", ["inf", "1e13"])
    def test_capacity_past_total_demand_selects_all(self, tmp_path, capsys, capacity):
        tasks = [{"id": "b", "mem_demand": 3072, "predicted_t_r": 20},
                 {"id": "a", "mem_demand": 4096.5, "predicted_t_r": 10}]
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(tasks))
        rc = main(["schedule", "--tasks", str(path), "--capacity", capacity])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"selected": ["a", "b"], "total_value": 15.0, "capacity_used": 7169.0}

    def test_nan_capacity_rejected(self, tmp_path, capsys):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps([{"id": "a", "mem_demand": 10, "predicted_t_r": 1}]))
        rc = main(["schedule", "--tasks", str(path), "--capacity", "nan"])
        assert rc == EXIT_INPUT
        assert "capacity_mb" in capsys.readouterr().err

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps([{"id": "a"}]))
        rc = main(["schedule", "--tasks", str(path), "--capacity", "10"])
        assert rc == EXIT_INPUT

    def test_large_grid_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        records = [{"id": f"t{i:03d}", "mem_demand": float(rng.uniform(4000.0, 16000.0)),
                    "predicted_t_r": float(rng.choice([5, 8, 10, 16, 20, 25, 40, 50]))}
                   for i in rng.permutation(100)]
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(records))
        rc = main(["schedule", "--tasks", str(path), "--capacity", "655360"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        want = select_tasks([EvolutionTask(end_id=r["id"], arrival_t=0.0, urgency=50.0, **r)
                             for r in records], 655360.0)
        assert doc["selected"] == list(want.selected)
        assert doc["total_value"] == want.total_value
        assert doc["capacity_used"] == want.capacity_used

    @pytest.mark.parametrize("tasks, bad", [
        ([1, 2], "record 0 1"),
        ([{"id": "a", "mem_demand": 10, "predicted_t_r": 1},
          {"id": "b", "mem_demand": "big", "predicted_t_r": 1}], "record 1 {'id': 'b'"),
        ([{"id": 7, "mem_demand": 10, "predicted_t_r": 1}], "record 0"),
        ({"id": "a", "mem_demand": 10, "predicted_t_r": 1}, "JSON list"),
        ([{"id": "a", "mem_demand": True, "predicted_t_r": 1}], "mem_demand must be a number"),
        ([{"id": "a", "mem_demand": 10, "predicted_t_r": float("nan")}],
         "predicted_t_r must be finite"),
    ])
    def test_malformed_record_is_input_error(self, tmp_path, capsys, tasks, bad):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(tasks))
        rc = main(["schedule", "--tasks", str(path), "--capacity", "10"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err


def test_gen_traces_deterministic(scenario_path, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["gen-traces", "--scenario", str(scenario_path),
                     "--out", str(out)]) == EXIT_OK
    name = "trace_end-a.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "trace_end-b.csv").exists()
