import itertools
import math

import numpy as np
import pytest

from evosched.scheduler import (
    EvolutionTask,
    GpuPool,
    GroupingConfig,
    RunningEntry,
    allocate_compute,
    assign_group,
    calibrate_sigma,
    decide_capacity,
    group_boundaries,
    group_number,
    select_tasks,
)


def task(tid, mem, t_r, urgency=50.0, arrival=0.0):
    return EvolutionTask(id=tid, end_id=f"end-{tid}", arrival_t=arrival,
                         urgency=urgency, mem_demand=mem, predicted_t_r=t_r)


class TestGroupNumber:
    def test_center_band_gives_two_groups(self):
        # tail band spanning half the range puts the erf argument at zero
        cfg = GroupingConfig(n_max=12, n_min=3, eps_range=50.0, sigma=20.0)
        assert group_number(cfg) == 2

    def test_reference_settings_give_four_groups(self):
        cfg = GroupingConfig(n_max=12, n_min=3, eps_range=35.0)
        sigma = calibrate_sigma(cfg, target_k=4)
        cal = GroupingConfig(n_max=12, n_min=3, eps_range=35.0, sigma=sigma)
        assert group_number(cal) == 4

    def test_matches_quadrature_oracle(self):
        from scipy.integrate import quad
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 20:
            sigma = float(rng.uniform(10, 40))
            eps = float(rng.uniform(10, 49))
            cfg = GroupingConfig(n_max=24, n_min=2, eps_range=eps, sigma=sigma)
            try:
                k = group_number(cfg)
            except ValueError:
                continue
            checked += 1
            # tail mass of Normal(mu=50, sigma) beyond lambda_max - eps
            lo = 100.0 - eps
            pdf = lambda x: math.exp(-((x - 50.0) ** 2) / (2 * sigma ** 2)) / (
                sigma * math.sqrt(2 * math.pi))
            mass, _ = quad(pdf, lo, np.inf)
            assert k == max(1, math.floor(1.0 / mass + 0.5))

    def test_infeasible_raises(self):
        cfg = GroupingConfig(n_max=4, n_min=3, eps_range=10.0, sigma=10.0)
        with pytest.raises(ValueError, match="infeasible"):
            group_number(cfg)


class TestBoundaries:
    def test_k1_no_boundaries(self):
        assert group_boundaries(1, 0, 100, 15.0) == []

    def test_k2_median(self):
        (b,) = group_boundaries(2, 0, 100, 15.0)
        assert b == pytest.approx(50.0)

    def test_k4_quantiles(self):
        bounds = group_boundaries(4, 0, 100, 15.0)
        assert bounds == pytest.approx([39.88, 50.0, 60.12], abs=0.01)

    def test_clamped_to_range(self):
        bounds = group_boundaries(10, 0, 100, 80.0)
        assert all(0 <= b <= 100 for b in bounds)

    def test_equal_mass(self):
        rng = np.random.default_rng(8)
        sigma = 24.0
        k = 4
        bounds = group_boundaries(k, 0, 100, sigma)
        draws = rng.normal(50.0, sigma, 100_000)
        draws = draws[(draws >= 0) & (draws <= 100)]
        counts = np.zeros(k)
        for lam in draws:
            counts[assign_group(float(lam), bounds) - 1] += 1
        masses = counts / len(draws)
        assert np.all(np.abs(masses - 1.0 / k) <= 0.03)


class TestAssignGroup:
    BOUNDS = [30.0, 50.0, 70.0]

    def test_above_top_is_group1(self):
        assert assign_group(90.0, self.BOUNDS) == 1

    def test_boundary_goes_to_lower_urgency_side(self):
        assert assign_group(70.0, self.BOUNDS) == 2
        assert assign_group(50.0, self.BOUNDS) == 3
        assert assign_group(30.0, self.BOUNDS) == 4

    def test_below_bottom_is_group_k(self):
        assert assign_group(10.0, self.BOUNDS) == 4


class TestDecideCapacity:
    def pool_with(self, entries, capacity=8192.0):
        pool = GpuPool(mem_capacity=capacity, compute_capacity=8.0)
        for i, (mem, done, t_r) in enumerate(entries):
            pool.running[f"r{i}"] = RunningEntry(mem=mem, share=1.0,
                                                 completion_t=done, t_r=t_r)
        return pool

    def test_near_completions_batched(self):
        pool = self.pool_with([(1000.0, 100.0, 50.0), (2000.0, 103.0, 50.0)])
        mc, t = decide_capacity(pool, lookahead_factor=0.1, now=90.0)
        assert t == 103.0
        assert mc == 8192.0  # both freed by t=103

    def test_far_completion_not_batched(self):
        pool = self.pool_with([(1000.0, 100.0, 50.0), (2000.0, 120.0, 50.0)])
        mc, t = decide_capacity(pool, lookahead_factor=0.1, now=90.0)
        assert t == 100.0
        assert mc == 8192.0 - 2000.0

    def test_empty_pool_full_capacity_now(self):
        pool = self.pool_with([])
        mc, t = decide_capacity(pool, now=42.0)
        assert (mc, t) == (8192.0, 42.0)


class TestSelectTasks:
    def test_reference_instance(self):
        tasks = [task("a", 4096, 10), task("b", 3072, 20), task("c", 5120, 5)]
        result = select_tasks(tasks, 8192.0, value_scale=100.0)
        assert set(result.selected) == {"b", "c"}
        assert result.total_value == pytest.approx(25.0)

    def test_single_fitting_task(self):
        result = select_tasks([task("a", 100, 10)], 8192.0)
        assert result.selected == ("a",)

    def test_nothing_fits(self):
        result = select_tasks([task("a", 9000, 10)], 8192.0)
        assert result.selected == ()
        assert result.total_value == 0.0

    def test_zero_capacity(self):
        assert select_tasks([task("a", 10, 10)], 0.0).selected == ()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            tasks = [task(f"t{i}", float(rng.integers(1, 8193)),
                          float(rng.integers(1, 121)))
                     for i in range(n)]
            cap = float(rng.integers(1, 8193))
            result = select_tasks(tasks, cap)
            best = 0.0
            for r in range(n + 1):
                for comb in itertools.combinations(range(n), r):
                    w = sum(math.ceil(tasks[i].mem_demand) for i in comb)
                    if w <= math.floor(cap):
                        v = sum(100.0 / tasks[i].predicted_t_r for i in comb)
                        best = max(best, v)
            assert result.total_value == pytest.approx(best)
            used = sum(math.ceil(t.mem_demand) for t in tasks
                       if t.id in result.selected)
            assert used <= cap

    def test_value_scale_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            tasks = [task(f"t{i}", float(rng.integers(1, 4097)),
                          float(rng.integers(1, 121)))
                     for i in range(n)]
            cap = float(rng.integers(1, 8193))
            a = select_tasks(tasks, cap, value_scale=100.0)
            b = select_tasks(tasks, cap, value_scale=7.25)
            assert a.selected == b.selected

    def test_lexicographic_tie_break(self):
        # identical tasks: only one fits; the smallest id must win
        tasks = [task("b", 1000, 10), task("a", 1000, 10), task("c", 1000, 10)]
        result = select_tasks(tasks, 1500.0)
        assert result.selected == ("a",)


class TestAllocateCompute:
    def test_proportional(self):
        tasks = [task("a", 2048, 10), task("b", 2048, 10), task("c", 4096, 10)]
        shares = allocate_compute(tasks, 8.0)
        assert shares == pytest.approx({"a": 2.0, "b": 2.0, "c": 4.0})

    def test_single_task_full_budget(self):
        assert allocate_compute([task("a", 123, 5)], 8.0)["a"] == pytest.approx(8.0)

    def test_shares_sum_to_budget(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            tasks = [task(f"t{i}", float(rng.uniform(1, 5000)),
                          float(rng.uniform(1, 100))) for i in range(n)]
            budget = float(rng.uniform(0.5, 64))
            shares = allocate_compute(tasks, budget)
            assert sum(shares.values()) == pytest.approx(budget, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allocate_compute([], 8.0)


def test_task_validation():
    with pytest.raises(ValueError):
        task("a", -1, 10)
    with pytest.raises(ValueError):
        task("a", 10, 0)
    with pytest.raises(ValueError):
        task("a", 10, 10, urgency=100.0)
