"""Tests for the static-ordering heuristics (Section 4.1)."""

import pytest

from repro.core import Instance, Task, validate_schedule
from repro.heuristics import (
    BinPackingFirstFit,
    Category,
    DecreasingCommPlusComp,
    DecreasingComputation,
    GilmoreGomory,
    IncreasingCommPlusComp,
    IncreasingCommunication,
    OptimalOrderInfiniteMemory,
    OrderOfSubmission,
    StaticOrderHeuristic,
)
from repro.heuristics.baselines import ExactNoWait

EXPECTED_MAKESPANS = {
    "OOSIM": 15.0,
    "IOCMS": 16.0,
    "DOCPS": 14.0,
    "IOCCS": 16.0,
    "DOCCS": 17.0,
}

EXPECTED_ORDERS = {
    "OOSIM": ["B", "C", "A", "D"],
    "IOCMS": ["B", "D", "A", "C"],
    "DOCPS": ["C", "B", "A", "D"],
    "IOCCS": ["D", "B", "A", "C"],
    "DOCCS": ["C", "A", "B", "D"],
}

HEURISTICS = {
    "OOSIM": OptimalOrderInfiniteMemory,
    "IOCMS": IncreasingCommunication,
    "DOCPS": DecreasingComputation,
    "IOCCS": IncreasingCommPlusComp,
    "DOCCS": DecreasingCommPlusComp,
}


class TestFigure4Reproduction:
    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_makespan_matches_paper(self, name, table3_instance):
        schedule = HEURISTICS[name]().schedule(table3_instance)
        assert schedule.makespan == pytest.approx(EXPECTED_MAKESPANS[name])

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_order_matches_paper(self, name, table3_instance):
        schedule = HEURISTICS[name]().schedule(table3_instance)
        assert schedule.communication_order() == EXPECTED_ORDERS[name]

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_schedules_feasible(self, name, table3_instance):
        schedule = HEURISTICS[name]().schedule(table3_instance)
        assert validate_schedule(schedule, table3_instance).is_feasible


class TestOrderOfSubmission:
    def test_keeps_submission_order(self, table3_instance):
        schedule = OrderOfSubmission().schedule(table3_instance)
        assert schedule.communication_order() == ["A", "B", "C", "D"]
        assert OrderOfSubmission.category == Category.SUBMISSION


class TestMetadata:
    def test_names_and_categories(self):
        assert OptimalOrderInfiniteMemory.name == "OOSIM"
        assert IncreasingCommunication().category == Category.STATIC
        info = DecreasingComputation().info
        assert info.name == "DOCPS"
        assert "communication intensive" in info.favorable_situation

    def test_infinite_memory_oosim_matches_omim(self, table3_instance):
        from repro.core import omim

        unconstrained = table3_instance.without_memory_constraint()
        schedule = OptimalOrderInfiniteMemory().schedule(unconstrained)
        assert schedule.makespan == pytest.approx(omim(unconstrained))


class TestOrderMemo:
    """Capacity-free orders are resolved once per task tuple."""

    CAPACITY_FREE = (
        OrderOfSubmission,
        OptimalOrderInfiniteMemory,
        IncreasingCommunication,
        DecreasingComputation,
        IncreasingCommPlusComp,
        DecreasingCommPlusComp,
        GilmoreGomory,
        ExactNoWait,
    )

    @staticmethod
    def counting(base):
        class Counting(base):
            calls = 0

            def order(self, instance):
                type(self).calls += 1
                return super().order(instance)

        return Counting

    @staticmethod
    def tasks():
        return tuple(
            Task(name=f"T{i}", comm=float(c), comp=float(p), memory=float(m))
            for i, (c, p, m) in enumerate(
                [(3, 2, 5), (1, 3, 2), (4, 4, 6), (2, 1, 3), (5, 2, 1), (1, 1, 4)]
            )
        )

    def test_declarations(self):
        for cls in self.CAPACITY_FREE:
            assert cls.order_ignores_capacity, cls.name
        assert not BinPackingFirstFit.order_ignores_capacity
        assert not StaticOrderHeuristic.order_ignores_capacity

    @pytest.mark.parametrize("base", CAPACITY_FREE, ids=lambda cls: cls.name)
    def test_capacity_free_order_resolves_once_per_task_tuple(self, base):
        heuristic = self.counting(base)()
        tasks = self.tasks()
        policies = [
            heuristic.kernel_policy(Instance(tasks, capacity=capacity))
            for capacity in (6.0, 7.5, 9.0, 12.0)
        ]
        assert type(heuristic).calls == 1
        assert all(policy.tasks is policies[0].tasks for policy in policies)
        fresh = base().kernel_policy(Instance(tasks, capacity=9.0))
        assert policies[0].tasks == fresh.tasks

    def test_equal_but_distinct_task_tuples_resolve_again(self):
        heuristic = self.counting(GilmoreGomory)()
        heuristic.kernel_policy(Instance(self.tasks(), capacity=6.0))
        heuristic.kernel_policy(Instance(self.tasks(), capacity=6.0))
        assert type(heuristic).calls == 2

    def test_memo_holds_one_entry(self):
        heuristic = self.counting(OptimalOrderInfiniteMemory)()
        first, second = self.tasks(), self.tasks()
        for tasks in (first, second, first):
            heuristic.kernel_policy(Instance(tasks, capacity=6.0))
        assert type(heuristic).calls == 3

    def test_bin_packing_resolves_on_every_call(self):
        heuristic = self.counting(BinPackingFirstFit)()
        tasks = self.tasks()
        orders = [
            heuristic.kernel_policy(Instance(tasks, capacity=capacity)).tasks
            for capacity in (6.0, 7.0, 100.0)
        ]
        assert type(heuristic).calls == 3
        assert orders[0] != orders[2]  # the order reads the capacity

    def test_undeclared_subclass_resolves_on_every_call(self):
        class Reverse(StaticOrderHeuristic):
            name = "REV"
            calls = 0

            def order(self, instance):
                type(self).calls += 1
                return list(reversed(instance.tasks))

        heuristic = Reverse()
        tasks = self.tasks()
        for capacity in (6.0, 7.0, 8.0):
            heuristic.kernel_policy(Instance(tasks, capacity=capacity))
        assert Reverse.calls == 3
