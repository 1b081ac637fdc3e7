"""Fixed-order runs of the kernel (semantics pinned by Figure 4)."""

import pytest

from repro.core import Instance, Task, validate_schedule
from repro.core.paper_instances import proposition1_instance
from repro.simulator import (
    DeadlockError,
    FixedOrderPolicy,
    InfeasibleOrderError,
    resolve_order,
    simulate,
)


def fixed(instance, order=None, comp_order=None):
    """The kernel's schedule for ``order`` (task names or tasks) on both
    resources, or a distinct computation order with ``comp_order``."""
    policy = FixedOrderPolicy(tuple(resolve_order(instance, order)))
    return simulate(instance, policy, comp_order=comp_order).schedule


class TestFigure4Semantics:
    """The kernel must reproduce the paper's worked schedules exactly."""

    def test_oosim_order_schedule(self, table3_instance):
        schedule = fixed(table3_instance, ["B", "C", "A", "D"])
        assert schedule.makespan == pytest.approx(15.0)
        assert schedule["A"].comm_start == pytest.approx(9.0)  # must wait for C's computation
        assert schedule["D"].comp_start == pytest.approx(14.0)

    def test_iocms_order_schedule(self, table3_instance):
        schedule = fixed(table3_instance, ["B", "D", "A", "C"])
        assert schedule.makespan == pytest.approx(16.0)
        assert schedule["C"].comm_start == pytest.approx(8.0)

    def test_docps_order_schedule(self, table3_instance):
        schedule = fixed(table3_instance, ["C", "B", "A", "D"])
        assert schedule.makespan == pytest.approx(14.0)

    def test_schedules_respect_memory(self, table3_instance):
        for order in (["B", "C", "A", "D"], ["C", "A", "B", "D"], None):
            schedule = fixed(table3_instance, order)
            assert validate_schedule(schedule, table3_instance).is_feasible
            assert schedule.peak_memory() <= table3_instance.capacity + 1e-9


class TestGeneralBehaviour:
    def test_defaults_to_submission_order(self, table3_instance):
        assert fixed(table3_instance).communication_order() == ["A", "B", "C", "D"]

    def test_order_by_task_objects(self, table3_instance):
        order = [table3_instance["D"], table3_instance["C"], table3_instance["B"], table3_instance["A"]]
        schedule = simulate(table3_instance, FixedOrderPolicy(tuple(order))).schedule
        assert schedule.communication_order() == ["D", "C", "B", "A"]

    def test_incomplete_order_rejected(self, table3_instance):
        with pytest.raises(ValueError, match="missing"):
            resolve_order(table3_instance, ["A", "B"])

    def test_oversized_task_rejected(self):
        instance = Instance([Task.from_times("A", 5, 1)], capacity=4)
        with pytest.raises(InfeasibleOrderError):
            fixed(instance)

    def test_infinite_memory_matches_unconstrained_timing(self, table3_instance):
        unconstrained = table3_instance.without_memory_constraint()
        schedule = fixed(unconstrained, ["B", "C", "A", "D"])
        assert schedule.makespan == pytest.approx(12.0)

    def test_zero_length_tasks(self):
        instance = Instance([Task.from_times("A", 0, 0), Task.from_times("B", 1, 1)], capacity=2)
        schedule = fixed(instance)
        assert schedule.makespan == pytest.approx(2.0)


class TestTwoOrderExecutor:
    def test_identical_orders_match_fixed_executor(self, table3_instance):
        order = ["B", "C", "A", "D"]
        two = fixed(table3_instance, order, comp_order=order)
        assert two == fixed(table3_instance, order)
        assert two.makespan == pytest.approx(15.0)

    def test_proposition1_improving_schedule(self):
        instance = proposition1_instance()
        schedule = fixed(
            instance,
            ["A", "B", "C", "D", "E", "F"],
            comp_order=["A", "B", "C", "E", "D", "F"],
        )
        assert validate_schedule(schedule, instance).is_feasible
        assert schedule.makespan == pytest.approx(22.0)
        assert not schedule.is_permutation_schedule()

    def test_deadlocking_orders_raise_deadlock_error(self):
        tasks = [Task.from_times("A", 4, 10), Task.from_times("B", 4, 1)]
        instance = Instance(tasks, capacity=5)
        # Computation order wants B first, but B's transfer cannot start while
        # A (already transferred, not yet computed) occupies the memory.
        with pytest.raises(DeadlockError, match="'B' can never acquire its memory"):
            fixed(instance, ["A", "B"], comp_order=["B", "A"])
