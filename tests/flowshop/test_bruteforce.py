"""Tests for exhaustive-search optima and the Proposition 1 reproduction."""

import pytest

from repro.core import Instance, proposition1_instance, static_example_instance, tasks_from_pairs, validate_schedule
from repro.flowshop import (
    best_permutation_schedule,
    best_schedule_allowing_reordering,
    enumerate_permutation_makespans,
    omim_makespan,
)


class TestEnumeration:
    def test_enumerates_all_orders(self):
        instance = static_example_instance()
        table = enumerate_permutation_makespans(instance)
        assert len(table) == 24
        assert min(table.values()) >= omim_makespan(instance) - 1e-9

    def test_guard_on_large_instances(self):
        instance = Instance(tasks_from_pairs([(1, 1)] * 9))
        with pytest.raises(ValueError):
            enumerate_permutation_makespans(instance)


class TestBestSchedules:
    def test_best_permutation_is_feasible_and_consistent(self):
        instance = static_example_instance()
        schedule, makespan = best_permutation_schedule(instance)
        assert validate_schedule(schedule, instance).is_feasible
        assert schedule.makespan == pytest.approx(makespan)
        assert makespan == pytest.approx(min(enumerate_permutation_makespans(instance).values()))

    def test_best_free_order_never_worse_than_permutation(self):
        instance = static_example_instance()
        _, permutation = best_permutation_schedule(instance)
        _, free = best_schedule_allowing_reordering(instance)
        assert free <= permutation + 1e-9


class TestProposition1:
    """Table 2 / Figure 3: different orders strictly beat identical orders."""

    def test_reordering_strictly_improves(self, proposition1_free_optimum):
        instance = proposition1_instance()
        _, permutation = best_permutation_schedule(instance)
        free_schedule, free = proposition1_free_optimum
        assert free < permutation - 1e-9
        assert not free_schedule.is_permutation_schedule()
        assert validate_schedule(free_schedule, instance).is_feasible

    def test_free_order_reaches_papers_makespan(self, proposition1_free_optimum):
        _, free = proposition1_free_optimum
        # The paper exhibits a schedule of makespan 22 (Figure 3b).
        assert free == pytest.approx(22.0)

    def test_makespans_stay_above_omim(self):
        instance = proposition1_instance()
        _, permutation = best_permutation_schedule(instance)
        assert permutation >= omim_makespan(instance) - 1e-9
