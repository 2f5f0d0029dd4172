"""Urgency grouping, memory-aware knapsack task selection, and proportional
compute allocation for the edge GPU pool.

Pending retraining tasks are split into K urgency groups (equal-probability
bands of a normal urgency model); the most urgent group is served first via a
0/1 knapsack DP over discretized memory, valuing short tasks higher; compute
is then divided among admitted tasks in proportion to their memory demands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class EvolutionTask:
    """One server-side retraining request."""

    id: str
    end_id: str
    arrival_t: float
    urgency: float
    mem_demand: float        # MB
    predicted_t_r: float     # seconds
    work: float = 0.0        # ground-truth compute-seconds (simulator only)
    group: Optional[int] = None

    def __post_init__(self):
        if self.mem_demand <= 0:
            raise ValueError("mem_demand must be positive")
        if self.predicted_t_r <= 0:
            raise ValueError("predicted_t_r must be positive")
        if not 0 < self.urgency < 100:
            raise ValueError("urgency must be in (0, 100)")


@dataclass(frozen=True)
class GroupingConfig:
    n_max: int = 12             # expected concurrent requests N
    n_min: int = 3              # minimum tasks per group
    eps_range: float = 35.0     # acceptable tail band length
    sigma: float = 100.0 / 6.0  # urgency model spread
    lambda_min: float = 0.0
    lambda_max: float = 100.0

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("need n_max >= n_min >= 1")
        if self.lambda_min >= self.lambda_max:
            raise ValueError("need lambda_min < lambda_max")
        if self.sigma <= 0 or self.eps_range <= 0:
            raise ValueError("sigma and eps_range must be positive")


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


def _tail_count(cfg: GroupingConfig, beta: float) -> float:
    """Expected number of tasks in one tail band of length ``beta``."""
    half = (cfg.lambda_max - cfg.lambda_min) / 2.0
    return (cfg.n_max / 2.0) * (1.0 - math.erf((half - beta) / (math.sqrt(2.0) * cfg.sigma)))


def group_number(cfg: GroupingConfig) -> int:
    """Number of urgency groups.

    The tail band length beta is the largest value not exceeding ``eps_range``
    whose expected tail population still reaches ``n_min``.  The population
    is monotone increasing in beta, so that value is ``eps_range`` itself
    whenever any band is feasible.
    """
    if _tail_count(cfg, cfg.eps_range) < cfg.n_min:
        raise ValueError(
            "infeasible grouping config: even the widest allowed tail band "
            f"(eps_range={cfg.eps_range}) holds fewer than n_min={cfg.n_min} tasks"
        )
    beta = cfg.eps_range
    half = (cfg.lambda_max - cfg.lambda_min) / 2.0
    tail_mass = 1.0 - math.erf((half - beta) / (math.sqrt(2.0) * cfg.sigma))
    k = 2.0 / tail_mass
    return max(1, math.floor(k + 0.5))


def calibrate_sigma(
    cfg: GroupingConfig,
    target_k: int,
    sigma_lo: float = 10.0,
    sigma_hi: float = 25.0,
    step: float = 0.05,
) -> float:
    """Midpoint of the sigma interval in [sigma_lo, sigma_hi] for which
    ``group_number`` returns ``target_k``; error if none exists."""
    feasible = []
    s = sigma_lo
    while s <= sigma_hi + 1e-12:
        trial = GroupingConfig(
            n_max=cfg.n_max, n_min=cfg.n_min, eps_range=cfg.eps_range,
            sigma=s, lambda_min=cfg.lambda_min, lambda_max=cfg.lambda_max,
        )
        try:
            if group_number(trial) == target_k:
                feasible.append(s)
        except ValueError:
            pass
        s += step
    if not feasible:
        raise ValueError(f"no sigma in [{sigma_lo}, {sigma_hi}] yields K={target_k}")
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
    value_scale: float = 100.0,
    decision_t: float = 0.0,
) -> SelectionResult:
    """0/1 knapsack over memory (1 MB grid, demands rounded up) maximizing
    the sum of ``value_scale / predicted_t_r`` over admitted tasks.

    Ties between equal-value solutions resolve to the lexicographically
    smallest selected-id set, realized by a suffix-table DP with a greedy
    include-if-still-optimal forward pass over id-sorted candidates.
    """
    if capacity_mb <= 0 or not candidates:
        return SelectionResult(selected=(), total_value=0.0, capacity_used=0.0,
                               decision_t=decision_t)
    tasks = sorted(candidates, key=lambda t: t.id)
    cap = int(math.floor(capacity_mb))
    weights = [int(math.ceil(t.mem_demand)) for t in tasks]
    values = [value_scale / t.predicted_t_r for t in tasks]
    n = len(tasks)

    # best[i] over grid m: max value achievable with tasks i..n-1 and capacity m
    best = np.zeros(cap + 1, dtype=np.float64)
    tables = [None] * n
    for i in range(n - 1, -1, -1):
        nxt = best
        cur = nxt.copy()
        w, v = weights[i], values[i]
        if w <= cap:
            np.maximum(cur[w:], nxt[:cap + 1 - w] + v, out=cur[w:])
        tables[i] = cur
        best = cur

    selected: List[str] = []
    used = 0
    total = 0.0
    m = cap
    for i in range(n):
        w, v = weights[i], values[i]
        nxt = tables[i + 1] if i + 1 < n else np.zeros(cap + 1)
        if w <= m and v + nxt[m - w] >= tables[i][m]:
            selected.append(tasks[i].id)
            used += w
            total += v
            m -= w
    return SelectionResult(selected=tuple(selected), total_value=total,
                           capacity_used=float(used), decision_t=decision_t)


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
