"""Quality-of-experience objective, life-cycle time decomposition, and urgency scoring.

Shared by the scheduler and the simulator; everything here is a pure function
over small value types.
"""
from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence


INT_BOUND = 2 ** 53  # an int field's bound: such ints, and products of four, are finite floats


def ranged(default=MISSING, *, lo, hi=None, open_lo=False, open_hi=False):
    """A dataclass field of ``default`` (none: required) that :func:`check_numbers`
    keeps in ``[lo, hi]``, or ``(lo, hi]`` where ``open_lo`` and ``[lo, hi)``
    where ``open_hi``; with no ``hi``, an ``int`` field also within ``INT_BOUND``
    in magnitude, and with ``hi=math.inf``, at any size."""
    if hi is None or hi == math.inf:
        rule = ("positive" if open_lo else "non-negative") if lo == 0 else f"at least {lo}"
    else:
        rule = f"in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    return field(default=default, metadata={
        "range": (lo, math.inf if hi is None else hi, open_lo, open_hi, rule),
        "int_bound": INT_BOUND if hi is None else math.inf})


def check_numbers(obj) -> None:
    """Reject a value of a ``float`` or ``int`` field of dataclass ``obj``
    that is not a finite number (a bool is not a number), a fractional one
    of an ``int`` field, and one outside the field's range (the one
    :func:`ranged` declares, and for an ``int`` field with no upper bound,
    ``INT_BOUND`` in magnitude), naming the field; store each ``int`` field
    as an int.  (The callers' annotations are strings.)"""
    for name, integral, int_bound, bounds in _numeric_fields(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, bool):
            raise ValueError(f"{name} must be a number")
        if not (integral and isinstance(value, int)):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the range of a float
                finite = False
            except TypeError:
                raise ValueError(f"{name} must be a number") from None
            if not finite:
                raise ValueError(f"{name} must be finite")
            if integral:
                if value != int(value):
                    raise ValueError(f"{name} must be an integer")
                object.__setattr__(obj, name, int(value))
        if integral and abs(value) > int_bound:
            raise ValueError(f"{name} must be at most {int_bound} in magnitude")
        if bounds is not None:
            lo, hi, open_lo, open_hi, rule = bounds
            if value < lo or value > hi or open_lo and value == lo or open_hi and value == hi:
                raise ValueError(f"{name} must be {rule}")


@functools.lru_cache(maxsize=None)
def _numeric_fields(cls) -> tuple:
    """``(name, is int, bound on an int's magnitude, range or None)`` for each
    ``float`` or ``int`` field of ``cls``, as :func:`ranged` declares them."""
    return tuple((f.name, f.type == "int", f.metadata.get("int_bound", INT_BOUND),
                  f.metadata.get("range")) for f in fields(cls) if f.type in ("float", "int"))


@dataclass(frozen=True)
class LifeCycle:
    """One model life cycle: high-accuracy service followed by an evolution round.

    ``t_retrain`` is only the on-server retraining phase; the full evolution
    time is ``t_upload + t_schedule + t_retrain + t_download``.  ``urgency``
    is the evolving urgency of the round, the cycle's weight in
    :func:`penalized_average_qoe`.
    """

    t_infer: float
    t_upload: float
    t_schedule: float
    t_retrain: float
    t_download: float
    avg_accuracy: float
    urgency: float

    def __post_init__(self):
        for name in ("t_infer", "t_upload", "t_schedule", "t_retrain", "t_download"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.avg_accuracy <= 1.0:
            raise ValueError("avg_accuracy must be in [0, 1]")

    @property
    def t_evolve(self) -> float:
        """Total evolution time: upload + scheduling + retraining + download."""
        return self.t_upload + self.t_schedule + self.t_retrain + self.t_download

    @property
    def duration(self) -> float:
        return self.t_infer + self.t_evolve


@dataclass(frozen=True)
class UrgencyInput:
    current_accuracy: float  # live accuracy proxy, in (0, 1]
    accuracy_drop: float     # estimated drop since the last evolution, >= 0

    def __post_init__(self):
        if self.current_accuracy <= 0:
            raise ValueError("current_accuracy must be positive")
        if self.accuracy_drop < 0:
            raise ValueError("accuracy_drop must be non-negative")


@dataclass(frozen=True)
class QoEReport:
    q_avg: float
    sd_schedule: float
    sd_retrain: float
    q_t: float


def qoe_single(cycle: LifeCycle) -> float:
    """Accuracy-weighted fraction of the life cycle spent in high-quality service."""
    total = cycle.duration
    if total <= 0:
        raise ValueError("life cycle has zero duration")
    return cycle.avg_accuracy * cycle.t_infer / total


def urgency(u: UrgencyInput) -> float:
    """Evolving-urgency score in (0, 100).

    Arctan-shaped in the relative accuracy drop; the midpoint (score 50) sits
    at a drop of 80% of the current accuracy.
    """
    ratio = u.accuracy_drop / u.current_accuracy
    return (100.0 / math.pi) * (math.atan(math.pi * (ratio - 0.8)) + math.pi / 2.0)


def _population_sd(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def penalized_average_qoe(cycles: Sequence[LifeCycle]) -> QoEReport:
    """Urgency-weighted average QoE of ``cycles`` minus the population standard
    deviations of their scheduling and retraining times, each weighted by
    1 / mean life-cycle duration, which makes the second-scale penalties
    commensurate with the dimensionless average."""
    if not cycles:
        raise ValueError("need at least one cycle")
    n = len(cycles)
    q_avg = sum(c.urgency * qoe_single(c) for c in cycles) / n
    w = 1.0 / (sum(c.duration for c in cycles) / n)
    sd_s = _population_sd([c.t_schedule for c in cycles])
    sd_r = _population_sd([c.t_retrain for c in cycles])
    return QoEReport(q_avg=q_avg, sd_schedule=sd_s, sd_retrain=sd_r,
                     q_t=q_avg - w * sd_s - w * sd_r)
