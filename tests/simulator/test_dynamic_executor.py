"""Dynamic and corrected runs of the kernel (semantics pinned by Figures 5 and 6)."""

import pytest

from repro.core import Instance, Task, validate_schedule
from repro.simulator import (
    CorrectedOrderPolicy,
    CriterionPolicy,
    ExecutionState,
    InfeasibleOrderError,
    largest_communication,
    maximum_acceleration,
    simulate,
    smallest_communication,
)


class TestFigure5Semantics:
    def test_lcmr_schedule(self, table4_instance):
        schedule = simulate(table4_instance, CriterionPolicy(largest_communication)).schedule
        assert schedule.communication_order() == ["B", "D", "A", "C"]
        assert schedule.makespan == pytest.approx(23.0)

    def test_scmr_schedule(self, table4_instance):
        schedule = simulate(table4_instance, CriterionPolicy(smallest_communication)).schedule
        assert schedule.communication_order() == ["B", "A", "C", "D"]
        assert schedule.makespan == pytest.approx(25.0)

    def test_mamr_schedule(self, table4_instance):
        schedule = simulate(table4_instance, CriterionPolicy(maximum_acceleration)).schedule
        assert schedule.communication_order() == ["B", "C", "A", "D"]
        assert schedule.makespan == pytest.approx(24.0)

    def test_minimum_idle_filter_overrides_criterion(self, table4_instance):
        """At time 8 of the LCMR schedule, A is selected over the larger C
        because it induces less idle time on the computation resource."""
        schedule = simulate(table4_instance, CriterionPolicy(largest_communication)).schedule
        assert schedule["A"].comm_start == pytest.approx(8.0)
        assert schedule["C"].comm_start == pytest.approx(13.0)


class TestFigure6Semantics:
    def test_oolcmr_schedule(self, table5_instance):
        policy = CorrectedOrderPolicy(order=["B", "C", "D", "E", "A"], criterion=largest_communication)
        schedule = simulate(table5_instance, policy).schedule
        assert schedule.communication_order() == ["B", "D", "A", "E", "C"]
        assert schedule.makespan == pytest.approx(33.0)

    def test_ooscmr_schedule(self, table5_instance):
        policy = CorrectedOrderPolicy(order=["B", "C", "D", "E", "A"], criterion=smallest_communication)
        schedule = simulate(table5_instance, policy).schedule
        assert schedule.communication_order() == ["B", "E", "A", "D", "C"]
        assert schedule.makespan == pytest.approx(35.0)

    def test_oomamr_schedule(self, table5_instance):
        policy = CorrectedOrderPolicy(order=["B", "C", "D", "E", "A"], criterion=maximum_acceleration)
        schedule = simulate(table5_instance, policy).schedule
        assert schedule.communication_order() == ["B", "D", "E", "A", "C"]
        assert schedule.makespan == pytest.approx(33.0)


class TestEngineBehaviour:
    def test_schedules_are_feasible_permutation_schedules(self, table4_instance):
        for criterion in (largest_communication, smallest_communication, maximum_acceleration):
            schedule = simulate(table4_instance, CriterionPolicy(criterion)).schedule
            assert validate_schedule(schedule, table4_instance).is_feasible
            assert schedule.is_permutation_schedule()

    def test_oversized_task_rejected(self):
        instance = Instance([Task.from_times("A", 9, 1)], capacity=5)
        with pytest.raises(InfeasibleOrderError):
            simulate(instance, CriterionPolicy(smallest_communication))

    def test_infinite_capacity_runs_without_waiting(self):
        instance = Instance([Task.from_times("A", 2, 2), Task.from_times("B", 2, 2)])
        schedule = simulate(instance, CriterionPolicy(smallest_communication)).schedule
        assert schedule.communication_idle_time() == pytest.approx(schedule.makespan - 4)
        assert schedule.makespan == pytest.approx(6.0)

    def test_execution_state_induced_idle(self):
        state = ExecutionState(
            time=5.0, available_memory=4.0, comm_available=5.0, comp_available=9.0, scheduled=()
        )
        assert state.induced_idle(Task.from_times("X", 3, 1)) == 0.0
        assert state.induced_idle(Task.from_times("Y", 6, 1)) == pytest.approx(2.0)

    def test_corrected_policy_schedules_every_task_exactly_once(self, table5_instance):
        policy = CorrectedOrderPolicy(order=["B", "C", "D", "E", "A"], criterion=largest_communication)
        schedule = simulate(table5_instance, policy).schedule
        assert sorted(e.name for e in schedule) == ["A", "B", "C", "D", "E"]
        assert validate_schedule(schedule, table5_instance).is_feasible
