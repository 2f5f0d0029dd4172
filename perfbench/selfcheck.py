"""Fast self-check: every output check, the traced-run bookkeeping, the
benchmark's copy of criterion 8's scenario and every workload on tiny inputs,
in a few seconds.

    python3 perfbench/run.py --self-check
"""
from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

import run


def _write_outputs(out: Path, header, rows, summary) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh)
    return out


def check_simulation_checker(failures: list) -> None:
    from checks import check_simulation
    from evosched.simenv import METRICS_COLUMNS as cols

    good = ["task0001", "e", "50.0", "1.0", "2.0", "3.0", "4.0", "5.0", "6.0", "0.7", "0.5"]
    base = run.OUT / "selfcheck"
    cases = {
        "good": (cols, [good], {"n_tasks": 1, "q_t": 1.0}, 0, False),
        "qoe 1.5": (cols, [good[:-1] + ["1.5"]], {"n_tasks": 1, "q_t": 1.0}, 0, True),
        "negative t_retrain": (cols, [good[:7] + ["-1.0"] + good[8:]],
                               {"n_tasks": 1, "q_t": 1.0}, 0, True),
        "header": (cols[::-1], [good], {"n_tasks": 1, "q_t": 1.0}, 0, True),
        "n_tasks": (cols, [good], {"n_tasks": 2, "q_t": 1.0}, 0, True),
        "q_t nan": (cols, [good], {"n_tasks": 1, "q_t": math.nan}, 0, True),
        "exit code": (cols, [good], {"n_tasks": 1, "q_t": 1.0}, 2, True),
    }
    for k, (name, (header, rows, summary, code, bad)) in enumerate(cases.items()):
        out = _write_outputs(base / f"case{k}", header, rows, summary)
        flagged = bool(check_simulation(out, code, cols))
        if flagged != bad:
            failures.append(f"simulation check on case '{name}': flagged={flagged}")


def check_selection_checker(failures: list) -> None:
    from checks import check_selection
    from evosched.scheduler import EvolutionTask, SelectionResult, select_tasks

    tasks = [EvolutionTask(id=i, end_id=i, arrival_t=0.0, urgency=50.0,
                           mem_demand=9.5, predicted_t_r=10.0) for i in ("b", "a")]
    real = select_tasks(tasks, 10.0)

    def result(ids, value):
        return SelectionResult(selected=ids, total_value=value, capacity_used=0.0,
                               decision_t=0.0)
    cases = {
        "select_tasks": (real, False),
        "tie-break": (result(("b",), 10.0), True),
        "duplicate": (result(("a", "a"), 20.0), True),
        "over capacity": (result(("a", "b"), 20.0), True),
        "suboptimal": (result((), 0.0), True),
    }
    for name, (res, bad) in cases.items():
        flagged = bool(check_selection(tasks, 10.0, res))
        if flagged != bad:
            failures.append(f"selection check on case '{name}': flagged={flagged}")


def check_self_time(failures: list) -> None:
    from tracer import Tracer

    tr = Tracer()
    tr.spans = [("a", 0.0, 10.0, -1, 1), ("b", 1.0, 4.0, 0, 1),
                ("c", 2.0, 3.0, 1, 1), ("b", 5.0, 6.0, 0, 1)]
    times = tr.layer_times()
    expected = {"a": [1, 10.0, 6.0], "b": [2, 4.0, 3.0], "c": [1, 1.0, 1.0]}
    if {k: list(v) for k, v in times.items()} != expected:
        failures.append(f"self times {dict(times)} != {expected}")

    tr = Tracer()

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    tr.wrap(Box, "inner", "inner")
    tr.wrap(Box, "outer", "outer")
    tr.operation(7, Box.outer)
    tr.restore()
    shape = [(name, parent, op) for name, _, _, parent, op in tr.spans]
    if shape != [("bench.op", -1, 7), ("outer", 0, 7), ("inner", 1, 7), ("inner", 1, 7)]:
        failures.append(f"span nesting {shape}")
    if hasattr(Box.inner, "__wrapped__") or hasattr(Box.outer, "__wrapped__"):
        failures.append("restore left a wrapper in place")


def spans_self_total(path: Path):
    """Sum of self times and of root durations from a written spans file."""
    with gzip.open(path, "rt", newline="") as fh:
        rows = list(csv.DictReader(fh))
    child = [0.0] * len(rows)
    for row in rows:
        if int(row["parent"]) >= 0:
            child[int(row["parent"])] += float(row["end_s"]) - float(row["start_s"])
    total_self = sum(float(r["end_s"]) - float(r["start_s"]) - child[i]
                     for i, r in enumerate(rows))
    roots = sum(float(r["end_s"]) - float(r["start_s"])
                for r in rows if int(r["parent"]) < 0)
    return total_self, roots


def check_bench3_copy(failures: list) -> None:
    """The benchmark's copy of ``bench_scenario`` must equal criterion 8's."""
    import sys
    if str(run.ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(run.ROOT / "tests"))
    try:
        from test_acceptance import bench_scenario
    except ImportError as exc:
        failures.append(f"cannot import bench_scenario from tests/test_acceptance.py: {exc}")
        return
    from evosched.simenv import scenario_to_json
    from workloads import bench3_scenario, pass_seed
    for s in [0, 1, 7] + [pass_seed(seed, p) for seed in (0, 1) for p in (0, 1, 2)]:
        if scenario_to_json(bench3_scenario(s)) != scenario_to_json(bench_scenario(s)):
            failures.append(f"bench3 scenario for seed {s} differs from tests' bench_scenario")


def check_workloads(failures: list) -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            doc, lines = run.execute(workload, seed=3, seconds=0.0, trace=trace, tiny=True)
            label = f"{workload} trace={int(trace)}"
            print(f"  {label}: {doc['attempted']} ops, correct={doc['correct']}")
            if not doc["correct"] or doc["failed"]:
                failures.append(f"{label}: " + "; ".join(
                    line for line in lines if line.startswith("problem")))
            units = {k: v["unit"] for k, v in doc["metrics"].items()}
            if units != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(declared[trace]))}")
            if not trace and not all(v["value"] > 0 for v in doc["metrics"].values()):
                failures.append(f"{label}: an end-to-end metric is not positive")
            if trace:
                total_self, roots = spans_self_total(run.OUT / workload / "spans.csv.gz")
                if abs(total_self - roots) > 1e-4 * max(1.0, roots):
                    failures.append(f"{label}: self times sum to {total_self}, "
                                    f"root spans to {roots}")


def main() -> int:
    run.import_program()
    failures: list = []
    for check in (check_simulation_checker, check_selection_checker,
                  check_self_time, check_bench3_copy, check_workloads):
        print(f"self-check: {check.__name__}")
        check(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-check: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1
