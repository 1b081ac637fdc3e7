"""Tests for the dynamic and corrected heuristic families (Sections 4.2-4.3)."""

import pytest

from repro.core import validate_schedule
from repro.heuristics import (
    Category,
    CorrectedLargestCommunication,
    CorrectedMaximumAcceleration,
    CorrectedSmallestCommunication,
    LargestCommunicationFirst,
    MaximumAccelerationFirst,
    SmallestCommunicationFirst,
)

DYNAMIC_EXPECTED = {
    LargestCommunicationFirst: (23.0, ["B", "D", "A", "C"]),
    SmallestCommunicationFirst: (25.0, ["B", "A", "C", "D"]),
    MaximumAccelerationFirst: (24.0, ["B", "C", "A", "D"]),
}

CORRECTED_EXPECTED = {
    CorrectedLargestCommunication: (33.0, ["B", "D", "A", "E", "C"]),
    CorrectedSmallestCommunication: (35.0, ["B", "E", "A", "D", "C"]),
    CorrectedMaximumAcceleration: (33.0, ["B", "D", "E", "A", "C"]),
}


class TestFigure5Reproduction:
    @pytest.mark.parametrize("cls", list(DYNAMIC_EXPECTED))
    def test_dynamic_schedules_match_paper(self, cls, table4_instance):
        makespan, order = DYNAMIC_EXPECTED[cls]
        schedule = cls().schedule(table4_instance)
        assert schedule.makespan == pytest.approx(makespan)
        assert schedule.communication_order() == order
        assert validate_schedule(schedule, table4_instance).is_feasible

    def test_dynamic_category(self):
        assert LargestCommunicationFirst().category == Category.DYNAMIC


class TestFigure6Reproduction:
    @pytest.mark.parametrize("cls", list(CORRECTED_EXPECTED))
    def test_corrected_schedules_match_paper(self, cls, table5_instance):
        makespan, order = CORRECTED_EXPECTED[cls]
        schedule = cls().schedule(table5_instance)
        assert schedule.makespan == pytest.approx(makespan)
        assert schedule.communication_order() == order
        assert validate_schedule(schedule, table5_instance).is_feasible

    def test_corrected_category(self):
        assert CorrectedSmallestCommunication().category == Category.CORRECTED

    def test_corrected_equals_oosim_without_memory_pressure(self, table5_instance):
        """With ample memory the corrected heuristics never deviate from Johnson."""
        from repro.core import omim
        from repro.heuristics import OptimalOrderInfiniteMemory

        relaxed = table5_instance.with_capacity(1000)
        for cls in CORRECTED_EXPECTED:
            schedule = cls().schedule(relaxed)
            assert schedule.makespan == pytest.approx(omim(relaxed))
            assert schedule.communication_order() == (
                OptimalOrderInfiniteMemory().schedule(relaxed).communication_order()
            )


class TestJohnsonOrderMemo:
    """Corrected heuristics sort Johnson's order once per task tuple."""

    def test_same_task_tuple_reuses_the_order(self, table4_instance):
        heuristic = CorrectedMaximumAcceleration()
        first = heuristic.kernel_policy(table4_instance)
        again = heuristic.kernel_policy(table4_instance.with_capacity(1e9))
        assert again.order is first.order

    def test_new_task_tuple_resolves_again(self, table4_instance, table3_instance):
        heuristic = CorrectedLargestCommunication()
        heuristic.kernel_policy(table4_instance)
        policy = heuristic.kernel_policy(table3_instance)
        assert sorted(policy.order) == sorted(table3_instance.task_names)
        assert policy.order == CorrectedLargestCommunication().kernel_policy(table3_instance).order
