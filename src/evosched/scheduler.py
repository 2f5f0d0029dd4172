"""Urgency grouping, memory-aware knapsack task selection, and proportional
compute allocation for the edge GPU pool.

Pending retraining tasks are split into K urgency groups (equal-probability
bands of a normal urgency model); the most urgent group is served first via a
0/1 knapsack DP over discretized memory, valuing short tasks higher; compute
is then divided among admitted tasks in proportion to their memory demands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import check_numbers, ranged


@dataclass
class EvolutionTask:
    """One server-side retraining request, and a record of a ``schedule``
    task list: the defaults are that file format's, and an absent
    ``end_id`` is the task's own id."""

    id: str
    mem_demand: float = ranged(lo=0, open_lo=True)     # MB
    predicted_t_r: float = ranged(lo=0, open_lo=True)  # seconds
    end_id: Optional[str] = None
    arrival_t: float = 0.0
    urgency: float = ranged(50.0, lo=0, hi=100, open_lo=True, open_hi=True)

    def __post_init__(self):
        if self.end_id is None:
            self.end_id = self.id
        check_numbers(self)


@dataclass(frozen=True)
class GroupingConfig:
    n_max: int = 12                                      # expected concurrent requests N
    n_min: int = ranged(3, lo=0, open_lo=True)           # minimum tasks per group
    eps_range: float = ranged(35.0, lo=0, open_lo=True)  # acceptable tail band length
    sigma: float = ranged(24.0, lo=0, open_lo=True)      # urgency model spread
    lambda_min: float = 0.0
    lambda_max: float = 100.0

    def __post_init__(self):
        check_numbers(self)
        if self.n_max < self.n_min:
            raise ValueError("need n_max >= n_min")
        if self.lambda_min >= self.lambda_max:
            raise ValueError("need lambda_min < lambda_max")


@dataclass(frozen=True)
class SelectionResult:
    selected: Tuple[str, ...]
    total_value: float
    capacity_used: float  # MB
    decision_t: float


@dataclass
class RunningEntry:
    mem: float          # MB
    share: float        # compute units/s
    completion_t: float
    t_r: float          # predicted retraining duration of this task


@dataclass
class GpuPool:
    mem_capacity: float      # MB
    compute_capacity: float  # compute units/s
    running: Dict[str, RunningEntry] = field(default_factory=dict)

    def free_memory_at(self, t: float) -> float:
        used = sum(e.mem for e in self.running.values() if e.completion_t > t)
        return self.mem_capacity - used


def group_number(cfg: GroupingConfig) -> int:
    """Number of urgency groups.

    The tail band length beta is the largest value not exceeding ``eps_range``
    whose expected tail population still reaches ``n_min``.  The population
    is monotone increasing in beta, so that value is ``eps_range`` itself
    whenever any band is feasible.
    """
    beta = cfg.eps_range
    half = (cfg.lambda_max - cfg.lambda_min) / 2.0
    # twice the probability mass of one tail band of length beta
    tail_mass = 1.0 - math.erf((half - beta) / (math.sqrt(2.0) * cfg.sigma))
    if (cfg.n_max / 2.0) * tail_mass < cfg.n_min:
        raise ValueError(
            "infeasible grouping config: even the widest allowed tail band "
            f"(eps_range={cfg.eps_range}) holds fewer than n_min={cfg.n_min} tasks"
        )
    k = 2.0 / tail_mass
    return max(1, math.floor(k + 0.5))


def calibrate_sigma(cfg: GroupingConfig, target_k: int) -> float:
    """Midpoint of the sigma interval in [10, 25], stepped by 0.05, for which
    ``group_number`` returns ``target_k``; error if none exists."""
    feasible = []
    s = 10.0
    while s <= 25.0 + 1e-12:
        try:
            if group_number(replace(cfg, sigma=s)) == target_k:
                feasible.append(s)
        except ValueError:
            pass
        s += 0.05
    if not feasible:
        raise ValueError(f"no sigma in [10.0, 25.0] yields K={target_k}")
    return (feasible[0] + feasible[-1]) / 2.0


def group_boundaries(k: int, lambda_min: float, lambda_max: float, sigma: float) -> List[float]:
    """Ascending urgency cut points giving each group equal probability under
    Normal(mu=(lambda_min+lambda_max)/2, sigma)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dist = NormalDist((lambda_min + lambda_max) / 2.0, sigma)
    return [
        min(lambda_max, max(lambda_min, dist.inv_cdf(j / k)))
        for j in range(1, k)
    ]


def assign_group(lam: float, boundaries: Sequence[float]) -> int:
    """Group index, 1 = most urgent.  Bands are half-open with a boundary
    value landing on its lower-urgency side."""
    return 1 + sum(1 for b in boundaries if b >= lam)


def decide_capacity(
    pool: GpuPool,
    lookahead_factor: float = 0.1,
    now: float = 0.0,
) -> Tuple[float, float]:
    """Memory capacity for the next admission round and the time it applies.

    At the earliest pending completion t_i, if further completions land within
    a look-ahead window of ``lookahead_factor`` times that task's retraining
    time, defer the decision to the last such completion so the freed memory
    is pooled into one admission round.
    """
    pending = [e for e in pool.running.values() if e.completion_t >= now]
    if not pending:
        return pool.free_memory_at(now), now
    first = min(pending, key=lambda e: e.completion_t)
    t_i = first.completion_t
    window_end = t_i + lookahead_factor * first.t_r
    decision_t = max(e.completion_t for e in pending if e.completion_t <= window_end)
    return pool.free_memory_at(decision_t), decision_t


def select_tasks(
    candidates: Sequence[EvolutionTask],
    capacity_mb: float,
    decision_t: float = 0.0,
) -> SelectionResult:
    """0/1 knapsack over memory (1 MB grid, demands rounded up) maximizing
    the sum of ``100 / predicted_t_r`` over admitted tasks; ValueError naming
    a task if the sum over all tasks is not finite.

    Ties between equal-value solutions resolve to the lexicographically
    smallest selected-id set: a suffix DP over id-sorted candidates gives
    ``best_i(m)``, the most value tasks i..n-1 attain within m MB, and a
    forward pass includes each task whose inclusion still attains it.  The
    grid ends at the total demand, since any larger capacity admits every
    task.

    Each ``best_i`` is a nondecreasing step function of m, kept as a
    staircase: the grid points where it rises and its values there (the
    list algorithm of Nemhauser and Ullmann, 1969).  Task i's step merges
    row i + 1 with the same row shifted by the task's weight and value, so
    it costs the number of points, not the grid size.  Every value is one of
    the sums the dense DP over the grid forms, so the results are the same
    to the bit.  Row i holds at most ``min(cap + 1, 2 ** (n - i))`` points:
    the simulator's calls (at most about a dozen candidates, values
    ``100 / t_r`` that do not rise with memory) keep rows short, and 100 tasks
    at 655,360 MB with retraining times from a small set give 9 to 910
    points.  Values that rise with memory are the worst case, where rows
    approach ``cap + 1`` points of 16 bytes each and the staircase costs
    more than the dense DP (30 tasks at 81,920 MB: 5 ms and 4 MiB become
    about 90 ms and 17 MiB; 100 tasks at 655,360 MB: 0.17 s and 78 MiB
    become 3.7 s and 0.7 GiB).
    """
    if math.isnan(capacity_mb):
        raise ValueError("capacity_mb must not be NaN")
    if capacity_mb <= 0 or not candidates:
        return SelectionResult(selected=(), total_value=0.0, capacity_used=0.0,
                               decision_t=decision_t)
    tasks = sorted(candidates, key=lambda t: t.id)
    weights = [int(math.ceil(t.mem_demand)) for t in tasks]
    values = [100.0 / t.predicted_t_r for t in tasks]
    for t, total in zip(tasks, accumulate(values)):
        if not math.isfinite(total):
            raise ValueError(f"task {t.id!r}: the sum of 100 / predicted_t_r up to it is not finite")
    cap = math.floor(min(capacity_mb, sum(weights)))
    if cap > np.iinfo(np.int64).max:
        raise ValueError(f"a {cap} MB grid does not fit in int64")

    # rows[i] is best_{i+1} as (points, values): best(m) = values[j] for the
    # last j with points[j] <= m; points start at 0 and values rise strictly
    points = np.zeros(1, dtype=np.int64)
    vals = np.zeros(1, dtype=np.float64)
    rows = [(points, vals)] * len(tasks)
    for i in range(len(tasks) - 1, 0, -1):  # best_0 is never read
        if weights[i] <= cap:
            points, vals = _add_task(points, vals, weights[i], values[i], cap)
        rows[i - 1] = (points, vals)

    selected: List[str] = []
    total = 0.0
    m = cap
    for i, t in enumerate(tasks):
        w = weights[i]
        if w <= m:
            points, vals = rows[i]
            at_m, at_rest = points.searchsorted((m, m - w), side="right")
            if vals[at_rest - 1] + values[i] >= vals[at_m - 1]:
                selected.append(t.id)
                total += values[i]
                m -= w
    return SelectionResult(selected=tuple(selected), total_value=total,
                           capacity_used=float(cap - m), decision_t=decision_t)


def _add_task(points: np.ndarray, vals: np.ndarray, w: int, v: float,
              cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """The staircase of ``max(best(m), best(m - w) + v)`` over the grid
    0..cap, given the staircase ``(points, vals)`` of ``best``."""
    k = points.searchsorted(cap - w, side="right")
    merged = np.concatenate((points, points[:k] + w))
    order = merged.argsort(kind="stable")
    merged = merged[order]
    top = np.maximum.accumulate(np.concatenate((vals, vals[:k] + v))[order])
    # of equal points the last holds the running maximum: keep it, then
    # keep the points where that maximum rises
    keep = np.empty(len(merged), dtype=bool)
    keep[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[:-1])
    merged, top = merged[keep], top[keep]
    keep = np.empty(len(merged), dtype=bool)
    keep[0] = True
    np.greater(top[1:], top[:-1], out=keep[1:])
    return merged[keep], top[keep]


def allocate_compute(
    selected: Sequence[EvolutionTask],
    compute_available: float,
) -> Dict[str, float]:
    """Compute shares proportional to memory demand, exhausting the budget."""
    if not selected:
        raise ValueError("no tasks to allocate compute to")
    if compute_available <= 0:
        raise ValueError("compute_available must be positive")
    total_mem = sum(t.mem_demand for t in selected)
    return {t.id: compute_available * t.mem_demand / total_mem for t in selected}
