import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosched.scheduler import (
    EvolutionTask,
    GpuPool,
    GroupingConfig,
    RunningEntry,
    SelectionResult,
    _add_task,
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
        result = select_tasks(tasks, 8192.0)
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

    def test_lexicographic_tie_break(self):
        # identical tasks: only one fits; the smallest id must win
        tasks = [task("b", 1000, 10), task("a", 1000, 10), task("c", 1000, 10)]
        result = select_tasks(tasks, 1500.0)
        assert result.selected == ("a",)

    def test_memory_stays_small(self):
        # one float64 row per task over this grid would take 505 MiB
        rng = np.random.default_rng(12)
        tasks = [task(f"t{i:03d}", float(rng.uniform(4000.0, 16000.0)),
                      float(rng.uniform(1.0, 120.0))) for i in range(100)]
        assert sum(math.ceil(t.mem_demand) for t in tasks) > 655_360
        tracemalloc.start()
        try:
            select_tasks(tasks, 655_360.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    def test_memory_follows_the_staircase(self):
        # the keep-bit table alone would take 62.5 MiB on this grid
        rng = np.random.default_rng(12)
        tasks = [task(f"t{i:03d}", float(rng.uniform(4000.0, 16000.0)),
                      float(rng.uniform(1.0, 120.0))) for i in range(100)]
        tracemalloc.start()
        try:
            select_tasks(tasks, 655_360.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # 1.2 MiB measured

    def test_grid_past_int64_rejected(self):
        tasks = [task("a", 5, 10), task("b", 1e20, 10)]
        with pytest.raises(ValueError, match="int64"):
            select_tasks(tasks, math.inf)

    @pytest.mark.parametrize("capacity", [1e12, math.inf])
    def test_capacity_past_total_demand_selects_all(self, capacity):
        tasks = [task("c", 5000.5, 10), task("a", 3000, 20), task("b", 1, 5)]
        result = select_tasks(tasks, capacity)
        assert result.selected == ("a", "b", "c")
        assert result.capacity_used == 8002.0
        assert result.total_value == 5.0 + 20.0 + 10.0

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity_mb"):
            select_tasks([task("a", 10, 10)], math.nan)

    @pytest.mark.parametrize("t_rs, bad", [((1e-320,), "a"), ((1e-306, 1e-306), "b")])
    def test_values_past_the_largest_float_rejected(self, t_rs, bad):
        """``100 / 1e-320`` is inf, and two values near 1e308 sum to inf:
        every subset holding them would tie at inf."""
        tasks = [task(tid, 10, t_r) for tid, t_r in zip("ab", t_rs)]
        with pytest.raises(ValueError, match=f"task '{bad}': the sum of 100 / predicted_t_r"):
            select_tasks(tasks, 100.0)


def reference_select_tasks(candidates, capacity_mb, value_scale=100.0, decision_t=0.0):
    """The float-table knapsack: one row per task over the whole requested
    grid, and a forward pass that recomputes each include decision."""
    if capacity_mb <= 0 or not candidates:
        return SelectionResult(selected=(), total_value=0.0, capacity_used=0.0,
                               decision_t=decision_t)
    tasks = sorted(candidates, key=lambda t: t.id)
    cap = int(math.floor(capacity_mb))
    weights = [int(math.ceil(t.mem_demand)) for t in tasks]
    values = [value_scale / t.predicted_t_r for t in tasks]
    n = len(tasks)

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

    selected = []
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


@st.composite
def _knapsack_case(draw, min_n=0, max_n=12, max_demand=120):
    """Candidates with shuffled ids, and a capacity below, at or above their
    total rounded-up demand.  Demands are integral or fractional and may
    exceed the capacity; retraining times from a small set give values that
    tie exactly."""
    n = draw(st.integers(min_n, max_n))
    demand = st.integers(1, max_demand) | st.floats(0.01, float(max_demand))
    t_r = st.sampled_from([5, 8, 10, 16, 20, 25, 40, 50]) | st.floats(0.5, 100.0)
    ids = draw(st.permutations([f"t{k}" for k in range(n)]))
    tasks = [task(tid, draw(demand), draw(t_r)) for tid in ids]
    total = sum(math.ceil(t.mem_demand) for t in tasks)
    where = draw(st.sampled_from(["below", "at", "above"]))
    if where == "below":
        capacity = draw(st.floats(0.0, max(total - 1e-3, 0.0)))
    elif where == "at":
        capacity = float(total) + draw(st.sampled_from([0.0, 0.5]))
    else:
        capacity = total + draw(st.floats(0.0, 500.0))
    return tasks, capacity


def _assert_same_as_reference(tasks, capacity):
    want = reference_select_tasks(tasks, capacity)
    got = select_tasks(tasks, capacity)
    assert got.selected == want.selected
    assert repr(got.total_value) == repr(want.total_value)
    assert got.capacity_used == want.capacity_used


@settings(max_examples=500, deadline=None)
@given(case=_knapsack_case())
def test_select_tasks_matches_reference(case):
    _assert_same_as_reference(*case)


@settings(max_examples=150, deadline=None)
@given(case=_knapsack_case(min_n=13, max_n=60, max_demand=2000))
def test_large_select_tasks_matches_reference(case):
    """Larger sets than the test above, so the staircases merge many points."""
    _assert_same_as_reference(*case)


def test_value_rising_with_memory_matches_reference():
    """The staircase's worst case: each task's value is proportional to its
    memory, so almost every grid point is a step of the optimum."""
    rng = np.random.default_rng(13)
    mem = rng.uniform(50.0, 1500.0, 30)
    tasks = [task(f"t{i:02d}", float(m), 1000.0 / float(m)) for i, m in enumerate(mem)]
    _assert_same_as_reference(tasks, 0.5 * sum(math.ceil(m) for m in mem))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(1, 60), st.sampled_from([1.25, 2.5, 5.0, 10.0])
                                | st.floats(0.0, 50.0)), min_size=1, max_size=12),
       cap=st.integers(1, 300))
def test_staircase_rows_equal_dense_rows(steps, cap):
    """Each staircase is the dense DP row over 0..cap, value for value to
    the bit, with one point at 0 and one per rise of the row."""
    points = np.zeros(1, dtype=np.int64)
    vals = np.zeros(1, dtype=np.float64)
    dense = np.zeros(cap + 1, dtype=np.float64)
    for w, v in steps:
        if w > cap:
            continue
        points, vals = _add_task(points, vals, w, v, cap)
        dense[w:] = np.maximum(dense[w:], dense[:cap + 1 - w] + v)
        read = vals[points.searchsorted(np.arange(cap + 1), side="right") - 1]
        assert read.tobytes() == dense.tobytes()
        rises = np.flatnonzero(dense[1:] > dense[:-1]) + 1
        assert points.tolist() == [0] + rises.tolist()


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


@pytest.mark.parametrize("field, value, message", [
    ("predicted_t_r", math.nan, "predicted_t_r must be finite"),
    ("mem_demand", math.inf, "mem_demand must be finite"),
    ("mem_demand", math.nan, "mem_demand must be finite"),
    ("urgency", True, "urgency must be a number"),
    ("arrival_t", "0", "arrival_t must be a number"),
])
def test_task_numbers_checked(field, value, message):
    kwargs = dict(id="a", end_id="e", arrival_t=0.0, urgency=50.0,
                  mem_demand=10.0, predicted_t_r=10.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=message):
        EvolutionTask(**kwargs)
