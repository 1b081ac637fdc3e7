"""Tests for the Gilmore-Gomory and bin-packing baseline heuristics."""

import math
import random

import pytest

from repro.core import Task, tasks_from_pairs, validate_schedule
from repro.heuristics import BinPackingFirstFit, GilmoreGomory, first_fit_bins


class TestFirstFitBins:
    def test_single_bin_when_everything_fits(self):
        tasks = tasks_from_pairs([(1, 1), (2, 1), (3, 1)])
        bins = first_fit_bins(tasks, capacity=10)
        assert len(bins) == 1
        assert [t.name for t in bins[0]] == ["T0", "T1", "T2"]

    def test_first_fit_placement(self):
        tasks = tasks_from_pairs([(4, 1), (3, 1), (2, 1), (3, 1)])
        bins = first_fit_bins(tasks, capacity=6)
        assert [[t.name for t in bucket] for bucket in bins] == [["T0", "T2"], ["T1", "T3"]]

    def test_bin_memory_never_exceeds_capacity(self):
        tasks = tasks_from_pairs([(4, 1), (3, 1), (2, 1), (5, 1), (1, 1)])
        for capacity in (5, 6, 8):
            for bucket in first_fit_bins(tasks, capacity):
                assert sum(t.memory for t in bucket) <= capacity + 1e-9

    def test_infinite_capacity(self):
        tasks = tasks_from_pairs([(1, 1), (2, 2)])
        assert len(first_fit_bins(tasks, math.inf)) == 1
        assert first_fit_bins([], math.inf) == []

    def test_oversized_task_rejected(self):
        with pytest.raises(ValueError):
            first_fit_bins([Task.from_times("A", 10, 1)], capacity=5)


def _linear_first_fit_bins(tasks, capacity):
    """Frozen copy of the O(n x bins) First-Fit scan (the oracle)."""
    if not math.isfinite(capacity):
        return [list(tasks)] if tasks else []
    bins = []
    residual = []
    for task in tasks:
        if task.memory > capacity + 1e-12:
            raise ValueError(
                f"task {task.name!r} needs {task.memory:g} memory but bins have capacity {capacity:g}"
            )
        for index, space in enumerate(residual):
            if task.memory <= space + 1e-12:
                bins[index].append(task)
                residual[index] = space - task.memory
                break
        else:
            bins.append([task])
            residual.append(capacity - task.memory)
    return bins


def _names(bins):
    return [[t.name for t in bucket] for bucket in bins]


def _random_tasks(rng, n, draw):
    return [Task(f"T{i}", 1.0, 1.0, memory=draw()) for i in range(n)]


class TestFirstFitBinsMatchesTheLinearScan:
    """The segment-tree First-Fit picks the very bins of the linear scan."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_float_memories(self, seed):
        rng = random.Random(seed)
        scale = rng.choice([1.0, 1e6, 1e9])
        tasks = _random_tasks(rng, rng.randint(0, 300), lambda: rng.random() * scale)
        capacity = max((t.memory for t in tasks), default=0.0) * rng.uniform(1.0, 4.0)
        assert _names(first_fit_bins(tasks, capacity)) == _names(
            _linear_first_fit_bins(tasks, capacity)
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_tied_memories_and_exact_fits(self, seed):
        # Small integer footprints: equal residuals tie and bins fill exactly.
        rng = random.Random(1000 + seed)
        capacity = float(rng.randint(1, 12))
        tasks = _random_tasks(rng, rng.randint(1, 200), lambda: float(rng.randint(0, int(capacity))))
        assert _names(first_fit_bins(tasks, capacity)) == _names(
            _linear_first_fit_bins(tasks, capacity)
        )

    def test_fits_within_the_tolerance(self):
        # Each of these is one ulp-scale step over the residual: the 1e-12
        # slack decides, in both implementations alike.
        capacity = 1.0
        memories = [0.1] * 10 + [0.3, 0.7, 0.7 + 5e-13, 0.3 + 2e-12, 1e-12, 0.0]
        tasks = [Task(f"T{i}", 1.0, 1.0, memory=m) for i, m in enumerate(memories)]
        assert _names(first_fit_bins(tasks, capacity)) == _names(
            _linear_first_fit_bins(tasks, capacity)
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 9, 64, 65])
    def test_every_tree_size(self, n):
        rng = random.Random(n)
        tasks = _random_tasks(rng, n, lambda: float(rng.randint(1, 4)))
        for capacity in (4.0, 5.0, 7.5, math.inf):
            assert _names(first_fit_bins(tasks, capacity)) == _names(
                _linear_first_fit_bins(tasks, capacity)
            )

    def test_infinite_capacity_keeps_one_bin(self):
        rng = random.Random(7)
        tasks = _random_tasks(rng, 50, lambda: rng.random() * 1e9)
        assert _names(first_fit_bins(tasks, math.inf)) == _names(
            _linear_first_fit_bins(tasks, math.inf)
        ) == [[t.name for t in tasks]]

    def test_over_capacity_message_matches(self):
        tasks = [Task("a", 1.0, 1.0, memory=2.0), Task("big", 1.0, 1.0, memory=7.25)]
        with pytest.raises(ValueError) as expected:
            _linear_first_fit_bins(tasks, 5.0)
        with pytest.raises(ValueError) as raised:
            first_fit_bins(tasks, 5.0)
        assert str(raised.value) == str(expected.value)
        assert "'big' needs 7.25 memory but bins have capacity 5" in str(raised.value)


class TestBinPackingHeuristic:
    def test_schedule_is_feasible(self, table3_instance):
        schedule = BinPackingFirstFit().schedule(table3_instance)
        assert validate_schedule(schedule, table3_instance).is_feasible
        assert sorted(e.name for e in schedule) == ["A", "B", "C", "D"]

    def test_order_follows_bins(self, table3_instance):
        # capacity 6: bins are [A(3), B(1), D(2)], [C(4)].
        order = BinPackingFirstFit().order(table3_instance)
        assert [t.name for t in order] == ["A", "B", "D", "C"]


class TestGilmoreGomoryHeuristic:
    def test_schedule_is_feasible(self, table3_instance):
        schedule = GilmoreGomory().schedule(table3_instance)
        assert validate_schedule(schedule, table3_instance).is_feasible

    def test_order_contains_all_tasks(self, table4_instance):
        order = GilmoreGomory().order(table4_instance)
        assert sorted(t.name for t in order) == ["A", "B", "C", "D"]

    def test_never_better_than_omim(self, table3_instance):
        from repro.core import omim

        schedule = GilmoreGomory().schedule(table3_instance)
        assert schedule.makespan >= omim(table3_instance) - 1e-9
