"""Command-line interface: run simulations, exercise individual components,
and materialize trace fixtures.

Exit codes: 0 success, 2 input error, 3 internal error (any other uncaught
exception, a defect in the program).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from dataclasses import replace
from typing import Optional, Sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

OUT_DIR_ENV = "EVOSCHED_OUT"


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_scenario(path, args):
    """The scenario at ``path`` with ``--seed`` and, where given, ``--policy`` applied."""
    from .simenv import load_scenario
    scenario = load_scenario(path)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "policy", None):
        from .simenv import Policy
        scenario = replace(scenario, policy=Policy(args.policy))
    return scenario


def _simulate(path, args, csv_path, json_path):
    """Run the scenario ``_load_scenario`` gives, write its two outputs, return its metrics."""
    from .simenv import run, write_metrics_csv, write_summary_json
    scenario = _load_scenario(path, args)
    metrics = run(scenario)
    write_metrics_csv(csv_path, metrics)
    write_summary_json(json_path, metrics, scenario)
    return metrics


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    csv_path = os.path.join(out, "metrics.csv")
    json_path = os.path.join(out, "summary.json")
    metrics = _simulate(args.scenario, args, csv_path, json_path)
    if args.verbose:
        print(f"wrote {csv_path} and {json_path} "
              f"({metrics.n_tasks} finished tasks)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    with open(args.sweep) as fh:
        paths = [line.strip() for line in fh if line.strip()]
    stems = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    first = {}
    for path, stem in zip(paths, stems):
        other = first.setdefault(stem, path)
        if os.path.abspath(other) != os.path.abspath(path):
            raise ValueError(f"{other} and {path} would both write {stem}_metrics.csv "
                             f"and {stem}_summary.json")
    for path, stem in zip(paths, stems):
        metrics = _simulate(path, args, os.path.join(out, f"{stem}_metrics.csv"),
                            os.path.join(out, f"{stem}_summary.json"))
        if args.verbose:
            print(f"{stem}: {metrics.n_tasks} tasks")
    return EXIT_OK


def cmd_drift_detect(args) -> int:
    from .drift import DetectorConfig, DriftDetector, read_trace_csv
    from .profiler import fields_doc
    frames = read_trace_csv(args.trace)
    detector = DriftDetector(DetectorConfig())
    for frame in frames:
        event = detector.update(frame)
        if event is not None:
            print(json.dumps(fields_doc(event), sort_keys=True))
    return EXIT_OK


def cmd_profile_memory(args) -> int:
    from .profiler import fields_doc, memory_demand, read_arch_json
    breakdown = memory_demand(read_arch_json(args.arch))
    print(json.dumps({**fields_doc(breakdown), "total": breakdown.total}, sort_keys=True))
    return EXIT_OK


def cmd_schedule(args) -> int:
    from .profiler import fields_doc, read_json
    from .scheduler import EvolutionTask, select_tasks
    if args.capacity <= 0:
        raise ValueError("capacity must be positive MB")
    doc = read_json(args.tasks)
    if not isinstance(doc, list):
        raise ValueError(f"{args.tasks}: expected a JSON list of task records")
    tasks = []
    for i, rec in enumerate(doc):
        try:
            if not isinstance(rec, dict):
                raise ValueError("not a JSON object")
            rec = {"end_id": rec.get("id"), "arrival_t": 0.0, "urgency": 50.0, **rec}
            if not isinstance(rec["id"], str) or not isinstance(rec["end_id"], str):
                raise ValueError("id and end_id must be strings")
            tasks.append(EvolutionTask(**{k: rec[k] for k in (
                "id", "end_id", "arrival_t", "urgency", "mem_demand", "predicted_t_r")}))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{args.tasks}: bad task record {i} {doc[i]!r}: {exc}") from exc
    doc = fields_doc(select_tasks(tasks, args.capacity))
    del doc["decision_t"]  # the command takes no decision time
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_gen_traces(args) -> int:
    from .simenv import write_traces
    out = _out_dir(args)
    scenario = _load_scenario(args.scenario, args)
    for path in write_traces(out, scenario):
        if args.verbose:
            print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evosched",
        description="Model-evolution scheduling simulator and component tools",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run one scenario end to end")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--policy")

    p = sub.add_parser("sweep", parents=[common], help="run every scenario listed in a file")
    p.add_argument("--sweep", required=True, help="file with one scenario path per line")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("drift-detect", parents=[common], help="emit drift events for a trace CSV")
    p.add_argument("--trace", required=True)

    p = sub.add_parser("profile-memory", parents=[common], help="memory breakdown for an architecture")
    p.add_argument("--arch", required=True)

    p = sub.add_parser("schedule", parents=[common], help="knapsack selection over a task list")
    p.add_argument("--tasks", required=True, help="JSON list of task records")
    p.add_argument("--capacity", type=float, required=True, help="memory capacity, MB")

    p = sub.add_parser("gen-traces", parents=[common], help="write per-end trace CSVs for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call only: every ``parse_args``
    returns a namespace of its own, so the calls share no state."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, so the command's current function runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a defect, not bad input
        if args.verbose:
            traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
