"""Output checks.  Each returns a list of problems; an empty list means the
operation's output is correct.  An operation with any problem counts as failed."""
from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path
from typing import List, Sequence

EXHAUSTIVE_MAX_CANDIDATES = 12
VALUE_SCALE = 100.0  # select_tasks' default: a task is worth VALUE_SCALE / predicted_t_r


def check_simulation(out_dir: Path, exit_code: int, columns: Sequence[str]) -> List[str]:
    """Checks on one ``simulate`` call's ``metrics.csv`` and ``summary.json``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if not rows or rows[0] != list(columns):
        problems.append("metrics.csv header is not METRICS_COLUMNS")
    else:
        qoe_col = columns.index("qoe")
        time_cols = [i for i, name in enumerate(columns) if name.startswith("t_")]
        for line, row in enumerate(rows[1:], start=2):
            try:
                if len(row) != len(columns):
                    raise ValueError(f"{len(row)} fields")
                qoe = float(row[qoe_col])
                times = [float(row[i]) for i in time_cols]
            except ValueError as exc:
                problems.append(f"metrics.csv line {line}: {exc}")
                continue
            if not 0.0 <= qoe <= 1.0:
                problems.append(f"metrics.csv line {line}: qoe {qoe} outside [0, 1]")
            if not all(t >= 0.0 for t in times):
                problems.append(f"metrics.csv line {line}: negative or NaN t_*")
    if summary.get("n_tasks") != len(rows) - 1:
        problems.append(f"summary n_tasks {summary.get('n_tasks')!r} != "
                        f"{len(rows) - 1} CSV rows")
    q_t = summary.get("q_t")
    if not isinstance(q_t, (int, float)) or not math.isfinite(q_t):
        problems.append(f"summary q_t {q_t!r} is not finite")
    return problems


def exhaustive_selection(candidates, capacity_mb: float):
    """Best value over all subsets and the lexicographically smallest id-sorted
    subset reaching it (acceptance criterion 1's rule)."""
    cap = math.floor(capacity_mb)
    weights = [math.ceil(t.mem_demand) for t in candidates]
    values = [VALUE_SCALE / t.predicted_t_r for t in candidates]
    best, best_ids = 0.0, ()
    for r in range(len(candidates) + 1):
        for comb in itertools.combinations(range(len(candidates)), r):
            if sum(weights[j] for j in comb) > cap:
                continue
            value = sum(values[j] for j in comb)
            tol = 1e-9 * max(1.0, best)
            if value < best - tol:
                continue
            ids = tuple(sorted(candidates[j].id for j in comb))
            if value > best + tol or ids < best_ids:
                best, best_ids = value, ids
    return best, best_ids


def check_selection(candidates, capacity_mb: float, result) -> List[str]:
    """Checks on one ``select_tasks`` result."""
    problems = []
    selected = list(result.selected)
    if len(set(selected)) != len(selected):
        problems.append("selected ids are not unique")
    by_id = {t.id: t for t in candidates}
    unknown = [i for i in selected if i not in by_id]
    if unknown:
        return problems + [f"selected unknown ids {unknown[:3]}"]
    cap = math.floor(capacity_mb)
    used = sum(math.ceil(by_id[i].mem_demand) for i in selected)
    if used > cap:
        problems.append(f"selection uses {used} MB > capacity {cap}")
    value = sum(VALUE_SCALE / by_id[i].predicted_t_r for i in selected)
    if abs(result.total_value - value) > 1e-9 * max(1.0, value):
        problems.append(f"total_value {result.total_value} != {value} of the selected tasks")
    # Every value is positive, so an optimal selection leaves no room for
    # another candidate: a check that holds for any number of candidates.
    chosen = set(selected)
    left_out = [t.id for t in candidates
                if t.id not in chosen and math.ceil(t.mem_demand) <= cap - used]
    if left_out:
        problems.append(f"{left_out[0]} still fits beside the selection")
    if len(candidates) <= EXHAUSTIVE_MAX_CANDIDATES:
        best, best_ids = exhaustive_selection(candidates, capacity_mb)
        if abs(result.total_value - best) > 1e-9 * max(1.0, best):
            problems.append(f"value {result.total_value} != exhaustive {best}")
        elif tuple(selected) != best_ids:
            problems.append(f"tie-break chose {tuple(selected)}, expected {best_ids}")
    return problems
