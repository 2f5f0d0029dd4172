import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosched import core, drift, profiler, sampler, scheduler, simenv
from evosched.core import (
    INT_BOUND,
    LifeCycle,
    QoEReport,
    UrgencyInput,
    check_numbers,
    penalized_average_qoe,
    qoe_single,
    urgency,
)
from evosched.scheduler import EvolutionTask

from test_acceptance import bench_scenario


def make_cycle(t_infer, t_retrain_total, acc, t_upload=0.0, t_download=0.0):
    t_r = t_retrain_total - t_upload - t_download
    return LifeCycle(t_infer=t_infer, t_upload=t_upload, t_schedule=0.0,
                     t_retrain=t_r, t_download=t_download, avg_accuracy=acc,
                     urgency=50.0)


def cycle(urgency, t_infer, t_schedule, t_retrain, acc, t_upload=0.0, t_download=0.0):
    return LifeCycle(t_infer=t_infer, t_upload=t_upload, t_schedule=t_schedule,
                     t_retrain=t_retrain, t_download=t_download, avg_accuracy=acc,
                     urgency=urgency)


def reference_penalized_average_qoe(cycles):
    """The objective as the simulator computed it while it took the cycles
    apart: weights 1 / mean duration, then the urgency-weighted average of
    each cycle's QoE minus the weighted population SDs of the scheduling and
    retraining times."""
    durations = [c.duration for c in cycles]
    mean = sum(durations) / len(durations)
    w_s, w_r = 1.0 / mean, 1.0 / mean
    ends = [(c.urgency, c.avg_accuracy * c.t_infer / (c.t_infer + c.t_evolve))
            for c in cycles]

    def population_sd(values):
        m = sum(values) / len(values)
        return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))

    q_avg = sum(lam * q for lam, q in ends) / len(ends)
    sd_s = population_sd([c.t_schedule for c in cycles])
    sd_r = population_sd([c.t_retrain for c in cycles])
    return QoEReport(q_avg=q_avg, sd_schedule=sd_s, sd_retrain=sd_r,
                     q_t=q_avg - w_s * sd_s - w_r * sd_r)


class TestQoeSingle:
    def test_basic_arithmetic(self):
        assert qoe_single(make_cycle(300, 100, 0.5)) == pytest.approx(0.375)

    def test_perfect_service(self):
        assert qoe_single(make_cycle(100, 0, 1.0)) == pytest.approx(1.0)

    def test_reference_durations(self):
        # t_u + t_s + t_r + t_d = 3.9 + 0 + 45.5 + 19.9 = 69.3
        cycle = LifeCycle(t_infer=330.7, t_upload=3.9, t_schedule=0.0,
                          t_retrain=45.5, t_download=19.9, avg_accuracy=0.7,
                          urgency=50.0)
        assert cycle.t_evolve == pytest.approx(69.3)
        assert qoe_single(cycle) == pytest.approx(0.579, abs=5e-4)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            qoe_single(make_cycle(0, 0, 0.5))

    def test_monotonicity(self):
        base = qoe_single(make_cycle(300, 100, 0.5))
        assert qoe_single(make_cycle(300, 100, 0.6)) > base
        assert qoe_single(make_cycle(350, 100, 0.5)) > base
        assert qoe_single(make_cycle(300, 150, 0.5)) < base

    def test_evolve_decomposition_identity(self):
        c = LifeCycle(t_infer=10, t_upload=1, t_schedule=2, t_retrain=3,
                      t_download=4, avg_accuracy=0.5, urgency=50.0)
        assert c.t_evolve == pytest.approx(1 + 2 + 3 + 4)


class TestUrgency:
    def test_midpoint_is_50(self):
        for acc in (0.1, 0.5, 0.99):
            u = UrgencyInput(current_accuracy=acc, accuracy_drop=0.8 * acc)
            assert urgency(u) == pytest.approx(50.0, abs=1e-9)

    def test_zero_drop(self):
        u = UrgencyInput(current_accuracy=0.5, accuracy_drop=0.0)
        assert urgency(u) == pytest.approx(12.06, abs=0.01)

    def test_large_drop(self):
        u = UrgencyInput(current_accuracy=0.5, accuracy_drop=0.9)
        assert urgency(u) == pytest.approx(90.19, abs=0.01)

    def test_bounded_and_increasing(self):
        rng = np.random.default_rng(0)
        ratios = np.sort(rng.uniform(0, 10, 1000))
        values = [urgency(UrgencyInput(1.0, r)) for r in ratios]
        assert all(0 < v < 100 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            UrgencyInput(current_accuracy=0.0, accuracy_drop=0.1)
        with pytest.raises(ValueError):
            UrgencyInput(current_accuracy=0.5, accuracy_drop=-0.1)


class TestPenalizedAverage:
    def test_single_end_no_dispersion(self):
        c = cycle(50.0, 300.0, 12.0, 34.0, 0.5)
        rep = penalized_average_qoe([c])
        assert rep.sd_schedule == 0.0
        assert rep.sd_retrain == 0.0
        assert rep.q_t == pytest.approx(50.0 * qoe_single(c))

    def test_identical_ends(self):
        c = cycle(50.0, 300.0, 10.0, 20.0, 0.5)
        rep = penalized_average_qoe([c, c])
        assert rep.q_avg == pytest.approx(50.0 * qoe_single(c))
        assert rep.q_t == pytest.approx(rep.q_avg)

    def test_hand_example(self):
        # durations 64 and 192 s: both weights are exactly 1 / 128
        a = cycle(50.0, 32.0, 0.0, 20.0, 0.5, t_download=12.0)    # qoe 0.25
        b = cycle(100.0, 96.0, 10.0, 40.0, 1.0, t_download=46.0)  # qoe 0.5
        rep = penalized_average_qoe([a, b])
        assert rep.q_avg == 31.25
        assert rep.sd_schedule == 5.0
        assert rep.sd_retrain == 10.0
        assert rep.q_t == 31.25 - 15.0 / 128.0

    def test_invariant_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(1, 8)
            cycles = [cycle(float(rng.uniform(1, 99)), float(rng.uniform(1, 500)),
                            float(rng.uniform(0, 50)), float(rng.uniform(0, 200)),
                            float(rng.uniform(0, 1))) for _ in range(n)]
            w = n / sum(c.duration for c in cycles)
            rep = penalized_average_qoe(cycles)
            assert rep.q_t == pytest.approx(
                rep.q_avg - w * rep.sd_schedule - w * rep.sd_retrain)

    def test_permutation_invariance(self):
        cycles = [cycle(30.0, 100.0, 1.0, 10.0, 0.2), cycle(60.0, 200.0, 5.0, 20.0, 0.5),
                  cycle(90.0, 300.0, 9.0, 30.0, 0.9)]
        rep1 = penalized_average_qoe(cycles)
        rep2 = penalized_average_qoe([cycles[i] for i in (2, 0, 1)])
        assert rep1.q_t == pytest.approx(rep2.q_t)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            penalized_average_qoe([])


_times = st.floats(0.0, 1e5)
_cycles = st.lists(st.builds(
    LifeCycle, t_infer=st.floats(1e-3, 1e5), t_upload=_times, t_schedule=_times,
    t_retrain=_times, t_download=_times, avg_accuracy=st.floats(0.0, 1.0),
    urgency=st.floats(1e-3, 100.0, exclude_max=True)), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_cycles)
def test_objective_matches_the_reference_bit_for_bit(cycles):
    got = penalized_average_qoe(cycles)
    want = reference_penalized_average_qoe(cycles)
    assert got == want
    assert repr(got) == repr(want)


def test_lifecycle_validation():
    with pytest.raises(ValueError):
        LifeCycle(t_infer=-1, t_upload=0, t_schedule=0, t_retrain=0,
                  t_download=0, avg_accuracy=0.5, urgency=50.0)
    with pytest.raises(ValueError):
        LifeCycle(t_infer=1, t_upload=0, t_schedule=0, t_retrain=0,
                  t_download=0, avg_accuracy=1.5, urgency=50.0)


def _instances(value, found):
    """``found`` with each dataclass instance in ``value``, its fields and
    its tuples added, the first of each class."""
    if dataclasses.is_dataclass(value):
        found.setdefault(type(value), value)
        for f in dataclasses.fields(value):
            _instances(getattr(value, f.name), found)
    elif isinstance(value, tuple):
        for item in value:
            _instances(item, found)
    return found


def _bounds(f):
    """``(bound, is open, side)`` for each finite bound that number field
    ``f`` keeps, side -1 for the lower and +1 for the upper: its declared
    range's, or an int field's ``INT_BOUND`` where that binds first."""
    lo, hi, open_lo, open_hi, _ = f.metadata.get("range", (-math.inf, math.inf, False, False, ""))
    if f.type == "int":
        cap = f.metadata.get("int_bound", INT_BOUND)
        lo, open_lo = (lo, open_lo) if lo >= -cap else (-cap, False)
        hi, open_hi = (hi, open_hi) if hi <= cap else (cap, False)
    return [(b, is_open, side) for b, is_open, side in ((lo, open_lo, -1), (hi, open_hi, 1))
            if math.isfinite(b)]


def _step(f, value, side):
    """The nearest value of field ``f``'s type beyond ``value`` on ``side``."""
    return value + side if f.type == "int" else math.nextafter(value, side * math.inf)


def test_every_declared_range_holds_at_its_bounds():
    """For every number field of every class that declares a range with
    ``ranged``: ``check_numbers`` accepts each closed bound and the nearest
    value inside each open one, and building the class with the nearest
    value past a closed bound, or an open bound itself, raises a ValueError
    that names the field.  Acceptance is asked of ``check_numbers`` alone,
    since a class's cross-field rules may reject a bound."""
    declaring = {cls for module in (core, drift, profiler, sampler, scheduler, simenv)
                 for cls in vars(module).values()
                 if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                 and any("range" in f.metadata for f in dataclasses.fields(cls))}
    bases = _instances(bench_scenario(1), {
        EvolutionTask: EvolutionTask(id="a", mem_demand=10.0, predicted_t_r=10.0)})
    assert declaring <= bases.keys(), f"no instance of {declaring - bases.keys()}"
    failures, checked = [], 0
    for cls in declaring:
        for f in dataclasses.fields(cls):
            if f.type not in ("float", "int"):
                continue
            for bound, is_open, side in _bounds(f):
                inside = _step(f, bound, -side) if is_open else bound
                outside = bound if is_open else _step(f, bound, side)
                where = f"{cls.__name__}.{f.name}"
                obj = copy.copy(bases[cls])
                object.__setattr__(obj, f.name, inside)
                try:
                    check_numbers(obj)
                except ValueError as exc:
                    failures.append(f"{where} = {inside!r} rejected: {exc}")
                try:
                    dataclasses.replace(bases[cls], **{f.name: outside})
                    failures.append(f"{where} = {outside!r} accepted")
                except ValueError as exc:
                    if not str(exc).startswith(f"{f.name} must be "):
                        failures.append(f"{where} = {outside!r}: {exc}")
                checked += 1
    assert not failures, failures
    assert checked
