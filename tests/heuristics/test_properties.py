"""Property-based invariants shared by every heuristic.

For any instance whose tasks individually fit in memory, every heuristic must
produce a schedule that

* contains every task exactly once,
* is feasible (validated against exclusivity, precedence and memory),
* never beats the infinite-memory optimum (OMIM is a true lower bound),
* keeps identical communication and computation orders (all the paper's
  heuristics are permutation schedules).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import get_solver, paper_lineup
from repro.core import Instance, omim, tasks_from_pairs, validate_schedule

task_pairs = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False),
    ),
    min_size=1,
    max_size=14,
)
capacity_factors = st.floats(min_value=1.0, max_value=3.0, allow_nan=False)


def build_instance(pairs, factor):
    instance = Instance(tasks_from_pairs(pairs))
    mc = instance.min_capacity
    if mc == 0:
        return instance.with_capacity(math.inf)
    return instance.with_capacity(mc * factor)


@settings(max_examples=25, deadline=None)
@given(pairs=task_pairs, factor=capacity_factors)
def test_all_heuristics_produce_feasible_schedules(pairs, factor):
    instance = build_instance(pairs, factor)
    reference = omim(instance)
    for heuristic in paper_lineup():
        name = heuristic.name
        schedule = heuristic.schedule(instance)
        report = validate_schedule(schedule, instance)
        assert report.is_feasible, f"{name} produced an infeasible schedule: {report.summary()}"
        assert len(schedule) == len(instance)
        assert schedule.makespan >= reference - 1e-6, f"{name} beat the OMIM lower bound"
        assert schedule.is_permutation_schedule(), f"{name} used different orders"


@settings(max_examples=25, deadline=None)
@given(pairs=task_pairs)
def test_heuristics_reach_omim_with_infinite_memory_when_using_johnson(pairs):
    """OOSIM with unlimited memory must equal the OMIM lower bound exactly."""
    instance = Instance(tasks_from_pairs(pairs))
    heuristic = get_solver("OOSIM")
    assert heuristic.schedule(instance).makespan == pytest.approx(omim(instance))


@settings(max_examples=20, deadline=None)
@given(pairs=task_pairs, factor=capacity_factors)
def test_peak_memory_never_exceeds_capacity(pairs, factor):
    instance = build_instance(pairs, factor)
    for heuristic in paper_lineup():
        schedule = heuristic.schedule(instance)
        if instance.has_memory_constraint:
            assert schedule.peak_memory() <= instance.capacity + 1e-6, heuristic.name


@settings(max_examples=20, deadline=None)
@given(pairs=task_pairs, factor=capacity_factors)
def test_unconstrained_execution_never_worse_for_a_fixed_order(pairs, factor):
    """For a fixed order, removing the memory capacity cannot increase the makespan."""
    instance = build_instance(pairs, factor)
    if not instance.has_memory_constraint:
        return
    unconstrained = instance.without_memory_constraint()
    for name in ("OS", "OOSIM", "IOCMS", "DOCPS", "IOCCS", "DOCCS", "GG"):
        heuristic = get_solver(name)
        constrained_makespan = heuristic.schedule(instance).makespan
        free_makespan = heuristic.schedule(unconstrained).makespan
        assert free_makespan <= constrained_makespan + 1e-6, name
