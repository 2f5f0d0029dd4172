import math

import numpy as np
import pytest

from evosched.core import (
    LifeCycle,
    UrgencyInput,
    penalized_average_qoe,
    penalty_weights_for_cycles,
    qoe_single,
    urgency,
)


def make_cycle(t_infer, t_retrain_total, acc, t_upload=0.0, t_download=0.0):
    t_r = t_retrain_total - t_upload - t_download
    return LifeCycle(t_infer=t_infer, t_upload=t_upload, t_schedule=0.0,
                     t_retrain=t_r, t_download=t_download, avg_accuracy=acc)


class TestQoeSingle:
    def test_basic_arithmetic(self):
        assert qoe_single(make_cycle(300, 100, 0.5)) == pytest.approx(0.375)

    def test_perfect_service(self):
        assert qoe_single(make_cycle(100, 0, 1.0)) == pytest.approx(1.0)

    def test_reference_durations(self):
        # t_u + t_s + t_r + t_d = 3.9 + 0 + 45.5 + 19.9 = 69.3
        cycle = LifeCycle(t_infer=330.7, t_upload=3.9, t_schedule=0.0,
                          t_retrain=45.5, t_download=19.9, avg_accuracy=0.7)
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
                      t_download=4, avg_accuracy=0.5)
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
        rep = penalized_average_qoe([(50.0, 0.5)], [12.0], [34.0])
        assert rep.sd_schedule == 0.0
        assert rep.sd_retrain == 0.0
        assert rep.q_t == pytest.approx(50.0 * 0.5)

    def test_identical_ends(self):
        rep = penalized_average_qoe(
            [(50.0, 0.5), (50.0, 0.5)], [10, 10], [20, 20])
        assert rep.q_avg == pytest.approx(25.0)
        assert rep.q_t == pytest.approx(25.0)

    def test_hand_example(self):
        rep = penalized_average_qoe(
            [(50.0, 0.4), (100.0, 0.6)], [0, 10], [20, 40],
            weights=(1.0, 1.0))
        assert rep.q_avg == pytest.approx(40.0)
        assert rep.sd_schedule == pytest.approx(5.0)
        assert rep.sd_retrain == pytest.approx(10.0)
        assert rep.q_t == pytest.approx(25.0)

    def test_invariant_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(1, 8)
            ends = [(float(rng.uniform(1, 99)), float(rng.uniform(0, 1)))
                    for _ in range(n)]
            ts = rng.uniform(0, 50, n).tolist()
            tr = rng.uniform(0, 200, n).tolist()
            w = (float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            rep = penalized_average_qoe(ends, ts, tr, weights=w)
            assert rep.q_t == pytest.approx(
                rep.q_avg - w[0] * rep.sd_schedule - w[1] * rep.sd_retrain)

    def test_permutation_invariance(self):
        ends = [(30.0, 0.2), (60.0, 0.5), (90.0, 0.9)]
        ts, tr = [1.0, 5.0, 9.0], [10.0, 20.0, 30.0]
        rep1 = penalized_average_qoe(ends, ts, tr)
        perm = [2, 0, 1]
        rep2 = penalized_average_qoe([ends[i] for i in perm],
                                     [ts[i] for i in perm],
                                     [tr[i] for i in perm])
        assert rep1.q_t == pytest.approx(rep2.q_t)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            penalized_average_qoe([], [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            penalized_average_qoe([(50.0, 0.5)], [1.0, 2.0], [3.0])


def test_default_penalty_weights():
    cycles = [make_cycle(300, 100, 0.5), make_cycle(100, 100, 0.5)]
    w_s, w_r = penalty_weights_for_cycles(cycles)
    assert w_s == pytest.approx(1.0 / 300.0)
    assert w_r == w_s


def test_lifecycle_validation():
    with pytest.raises(ValueError):
        LifeCycle(t_infer=-1, t_upload=0, t_schedule=0, t_retrain=0,
                  t_download=0, avg_accuracy=0.5)
    with pytest.raises(ValueError):
        LifeCycle(t_infer=1, t_upload=0, t_schedule=0, t_retrain=0,
                  t_download=0, avg_accuracy=1.5)
