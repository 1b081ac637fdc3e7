"""Unit tests for makespan bounds and evaluation metrics."""

import pytest

from repro.core import (
    Instance,
    Task,
    bounds,
    evaluate,
    idle_fractions,
    overlap_fraction,
    ratio_to_optimal,
    static_example_instance,
)
from repro.flowshop import johnson_schedule
from repro.simulator import FixedOrderPolicy, simulate


class TestBounds:
    def test_bounds_on_paper_instance(self):
        instance = static_example_instance()
        values = bounds(instance)
        assert values.total_comm == 10
        assert values.total_comp == 10
        assert values.area_lower_bound == 10
        assert values.sequential_upper_bound == 20
        assert values.omim == pytest.approx(12.0)

    def test_bound_ordering(self):
        instance = static_example_instance()
        values = bounds(instance)
        assert values.area_lower_bound <= values.omim <= values.sequential_upper_bound

    def test_normalised_bounds(self):
        values = bounds(static_example_instance()).normalised()
        assert values.omim == 1.0
        assert values.sequential_upper_bound == pytest.approx(20 / 12)

    def test_max_possible_overlap_fraction(self):
        values = bounds(static_example_instance())
        assert values.max_possible_overlap_fraction == pytest.approx(0.5)

    def test_empty_instance(self):
        values = bounds(Instance([]))
        assert values.omim == 0.0
        assert values.max_possible_overlap_fraction == 0.0


class TestMetrics:
    def test_ratio_to_optimal_at_least_one(self):
        instance = static_example_instance()
        schedule = simulate(instance, FixedOrderPolicy(instance.tasks)).schedule
        assert ratio_to_optimal(schedule, instance) >= 1.0

    def test_ratio_uses_supplied_reference(self):
        instance = static_example_instance()
        schedule = simulate(instance, FixedOrderPolicy(instance.tasks)).schedule
        assert ratio_to_optimal(schedule, instance, reference=schedule.makespan) == pytest.approx(1.0)

    def test_overlap_and_idle_fractions(self):
        instance = static_example_instance().without_memory_constraint()
        schedule = johnson_schedule(instance)
        overlap = overlap_fraction(schedule)
        comm_idle, comp_idle = idle_fractions(schedule)
        assert 0 <= overlap <= 1
        assert 0 <= comm_idle <= 1 and 0 <= comp_idle <= 1
        # Busy + idle accounts for the full makespan on each resource.
        assert comm_idle == pytest.approx(1 - schedule.communication_busy_time / schedule.makespan)

    def test_evaluate_bundle(self):
        instance = static_example_instance()
        schedule = simulate(instance, FixedOrderPolicy(instance.tasks)).schedule
        metrics = evaluate(schedule, instance, heuristic="OS")
        assert metrics.heuristic == "OS"
        assert metrics.task_count == 4
        assert metrics.makespan == schedule.makespan
        assert metrics.ratio_to_optimal == pytest.approx(schedule.makespan / 12.0)
        assert metrics.peak_memory <= instance.capacity + 1e-9
        assert 0 <= metrics.overlap_fraction <= 1

    def test_zero_reference_handling(self):
        instance = Instance([Task.from_times("A", 0, 0)])
        schedule = simulate(instance, FixedOrderPolicy(instance.tasks)).schedule
        assert ratio_to_optimal(schedule, instance) == 1.0
