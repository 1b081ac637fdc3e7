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
from repro import Study
from repro.heuristics.base import ORDER_MEMO_SLOTS
from repro.heuristics.baselines import ExactNoWait
from repro.simulator import OnlinePlanPolicy, PoissonArrivals, resolve_order, run_online
from repro.traces.generator import synthetic_trace

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

    def test_memo_holds_the_last_tuples(self):
        heuristic = self.counting(OptimalOrderInfiniteMemory)()
        tuples = [self.tasks() for _ in range(ORDER_MEMO_SLOTS + 1)]
        for tasks in (tuples[0], tuples[1], tuples[0]):
            heuristic.kernel_policy(Instance(tasks, capacity=6.0))
        assert type(heuristic).calls == 2
        for tasks in tuples[2:]:  # fills the memo: the oldest tuple drops out
            heuristic.kernel_policy(Instance(tasks, capacity=6.0))
        calls = type(heuristic).calls
        heuristic.kernel_policy(Instance(tuples[-1], capacity=6.0))
        assert type(heuristic).calls == calls
        heuristic.kernel_policy(Instance(tuples[0], capacity=6.0))
        assert type(heuristic).calls == calls + 1

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


def test_barrier_sweep_resolves_each_batch_order_once(monkeypatch):
    """Every factor's batches share the chunk tuples, so the kept orders
    hit on 8 of the 9 default factors."""
    batches = []
    original = IncreasingCommunication.order

    def counting(self, instance):
        batches.append(instance.tasks)
        return original(self, instance)

    monkeypatch.setattr(IncreasingCommunication, "order", counting)
    trace = synthetic_trace("mixed-intensity", tasks=250, seed=0)
    results = Study().traces(trace).solvers("IOCMS").batched(100).run()
    assert len(set(results.column("capacity_factor"))) == 9
    assert len(batches) == 3  # one per batch, on the first factor only
    assert len(set(map(id, batches))) == 3


KEY_SORTED = (
    OptimalOrderInfiniteMemory,
    IncreasingCommunication,
    DecreasingComputation,
    IncreasingCommPlusComp,
    DecreasingCommPlusComp,
)


def test_key_sorted_declarations():
    for cls in KEY_SORTED:
        assert cls.key_sorted, cls.name
    for cls in (OrderOfSubmission, GilmoreGomory, BinPackingFirstFit, StaticOrderHeuristic):
        assert not cls.key_sorted, cls.name


@pytest.mark.parametrize("base", KEY_SORTED, ids=lambda cls: cls.name)
@pytest.mark.parametrize("seed", [1, 2])
def test_streaming_key_sort_equals_the_window_planner(base, seed):
    """Restricting the whole order to each epoch's ready set schedules
    exactly what re-sorting a windowed sub-instance per epoch does."""
    instance = synthetic_trace("mixed-intensity", tasks=120, seed=seed).to_instance()
    instance = instance.with_capacity_factor(1.25)
    heuristic = base()

    def window_planner(ready):
        window = Instance(ready, capacity=instance.capacity, name=instance.name)
        return resolve_order(window, heuristic.order(window))

    arrivals = PoissonArrivals(load=1.3)
    expected = run_online(
        instance, OnlinePlanPolicy(planner=window_planner), arrivals=arrivals, seed=seed
    ).schedule
    got = run_online(instance, heuristic, arrivals=arrivals, seed=seed).schedule
    assert [repr(entry) for entry in got] == [repr(entry) for entry in expected]
