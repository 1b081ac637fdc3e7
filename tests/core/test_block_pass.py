"""The block pass against the one-row path, row by row.

``check_schedules`` and ``evaluate_schedules`` stack the rows drawn from one
packed task tuple into a :class:`~repro.core.schedule.PlacementBlock`.  Every
row must come out exactly as the one-row path gives it: a free-standing
:class:`Schedule` of the same placements never enters a block, so its
metrics come from :func:`~repro.core.schedule.sweep_intervals` and its
verdict from :func:`validate_schedule`.  Metrics compare by ``repr``, so a
last-bit difference or a ``-0.0`` fails.
"""

from __future__ import annotations

import math

import pytest

from repro import Study
from repro.api import paper_lineup, run_solvers_on_instance
from repro.core import (
    InfeasibleScheduleError,
    Instance,
    Schedule,
    Task,
    check_schedules,
    evaluate,
    evaluate_schedules,
    validate_schedule,
)
from repro.core.schedule import BLOCK_EVENTS, placement_blocks
from repro.simulator import ColumnarSchedule, MachineModel
from repro.traces.generator import synthetic_trace


def columnar(schedule: Schedule, instance: Instance) -> ColumnarSchedule:
    """``schedule``'s placements as a row drawn from ``instance``'s tuple."""
    index = {task.name: i for i, task in enumerate(instance.tasks)}
    comm_starts = [0.0] * len(instance)
    comp_starts = [0.0] * len(instance)
    placed = []
    for entry in schedule:
        i = index[entry.name]
        placed.append(i)
        comm_starts[i], comp_starts[i] = entry.comm_start, entry.comp_start
    return ColumnarSchedule(instance.tasks, placed, comm_starts, comp_starts)


def hand_made(instance: Instance, starts: dict[str, tuple[float, float]]) -> ColumnarSchedule:
    """A row with the given ``{name: (comm start, comp start)}`` placements."""
    names = [task.name for task in instance.tasks]
    return ColumnarSchedule(
        instance.tasks,
        list(range(len(names))),
        [starts[name][0] for name in names],
        [starts[name][1] for name in names],
    )


def assert_rows_match(schedules, instances, machine=None):
    """Block metrics and verdicts equal the one-row path on every row."""
    got = evaluate_schedules(
        schedules,
        instances,
        heuristics=[f"row{i}" for i in range(len(schedules))],
        references=[None] * len(schedules),
    )
    for i, (schedule, instance, metrics) in enumerate(zip(schedules, instances, got)):
        rows = Schedule(schedule.entries)
        assert rows.source_placement() is None
        assert repr(metrics) == repr(evaluate(rows, instance, heuristic=f"row{i}")), i
    first_error = None
    for schedule, instance in zip(schedules, instances):
        report = validate_schedule(Schedule(schedule.entries), instance, machine=machine)
        if not report.is_feasible:
            first_error = report.summary()
            break
    if first_error is None:
        check_schedules(schedules, instances, machine=machine)
    else:
        with pytest.raises(InfeasibleScheduleError) as raised:
            check_schedules(schedules, instances, machine=machine)
        assert str(raised.value) == first_error


def undecided_rows(schedules):
    return sum(
        sweep is None
        for _, block in placement_blocks(schedules)
        for sweep in block.interval_sweeps()
    )


# --------------------------------------------------------------------------- #
# Kernel rows of whole sweeps
# --------------------------------------------------------------------------- #
def sweep_rows(instance: Instance, factors=(1.0, 1.125, 1.5, 2.0), machine=None):
    """Every paper heuristic's row at each capacity factor (``None``: the
    instance's own capacity)."""
    schedules, instances = [], []
    for factor in factors:
        scaled = instance if factor is None else instance.with_capacity_factor(factor)
        for solver in paper_lineup():
            schedule = solver.simulate(scaled, machine=machine).schedule
            if schedule.source_placement() is None:
                schedule = columnar(schedule, scaled)
            schedules.append(schedule)
            instances.append(scaled)
    return schedules, instances


@pytest.mark.parametrize(
    "regime, tasks, seed",
    [("mixed-intensity", 25, 0), ("mixed-intensity", 25, 7), ("heterogeneous", 60, 3)],
)
def test_sweep_rows_match(regime, tasks, seed):
    instance = synthetic_trace(regime, tasks=tasks, seed=seed).to_instance()
    assert_rows_match(*sweep_rows(instance))


def test_unbounded_capacity_rows_match():
    instance = synthetic_trace("balanced", tasks=30, seed=2).to_instance()
    schedules, instances = sweep_rows(instance.without_memory_constraint(), factors=(None,))
    assert all(math.isinf(i.capacity) for i in instances)
    assert_rows_match(schedules, instances)


def test_zero_comm_and_comp_rows_match():
    tasks = [
        Task(f"t{i}", comm, comp, memory=1.0 + i % 3)
        for i, (comm, comp) in enumerate(
            [(0.0, 2.0), (1.0, 0.0), (0.0, 0.0), (2.0, 1.0), (0.0, 3.0), (1.5, 0.0)]
        )
    ]
    assert_rows_match(*sweep_rows(Instance(tasks, capacity=3.0)))


@pytest.mark.parametrize(
    "machine", [MachineModel(link_count=2), MachineModel(cpu_count=2)], ids=["2-link", "2-cpu"]
)
def test_multi_server_rows_match(machine):
    instance = synthetic_trace("mixed-intensity", tasks=25, seed=4).to_instance()
    schedules, instances = sweep_rows(instance, factors=(1.0, 2.0), machine=machine)
    assert_rows_match(schedules, instances, machine=machine)


def test_a_block_crosses_the_event_budget():
    instance = synthetic_trace("heterogeneous", tasks=300, seed=1).to_instance()
    schedules, instances = sweep_rows(instance, factors=(1.0, 1.25))
    blocks = list(placement_blocks(schedules))
    assert len(blocks) > 1
    assert all(2 * len(instance) * len(block) <= BLOCK_EVENTS for _, block in blocks)
    assert sorted(row for rows, _ in blocks for row in rows) == list(range(len(schedules)))
    assert_rows_match(schedules, instances)


# --------------------------------------------------------------------------- #
# Hand-made rows where the float details bite
# --------------------------------------------------------------------------- #
#: A (0.3) then B (0.6) acquired, A then B released: the running sum ends at
#: -1.1e-16, residue the memory profile clamps to zero.
RESIDUE = Instance(
    [Task("A", 1.0, 1.0, memory=0.3), Task("B", 1.0, 1.0, memory=0.6), Task("C", 1.0, 1.0, 0.5)],
    capacity=1.0,
)
RESIDUE_LAST = {"A": (0.0, 1.0), "B": (1.0, 2.0), "C": (2.0, 3.0)}
RESIDUE_MID = {"A": (0.0, 1.0), "B": (1.0, 2.0), "C": (4.0, 5.0)}


def test_residue_at_the_last_instant_is_decided_in_the_block():
    instance = Instance(RESIDUE.tasks[:2], capacity=1.0)
    row = hand_made(instance, RESIDUE_LAST)
    assert 0.3 + 0.6 - 0.3 - 0.6 < 0
    assert undecided_rows([row]) == 0
    assert_rows_match([row, row], [instance, instance])


def test_residue_on_a_lone_instant_is_clamped_out_of_the_peak():
    # Zero-length tasks all at time 0: -0.2 - 0.1 + 0.1 + 0.2 = -2.8e-17.
    instance = Instance(
        [Task("A", 0.0, 0.0, memory=0.1), Task("B", 0.0, 0.0, memory=0.2)], capacity=1.0
    )
    row = hand_made(instance, {"A": (0.0, 0.0), "B": (0.0, 0.0)})
    assert undecided_rows([row]) == 0
    (metrics,) = evaluate_schedules([row], [instance], heuristics=[""], references=[1.0])
    assert repr(metrics.peak_memory) == "0.0"
    assert_rows_match([row], [instance])


def test_residue_mid_profile_goes_to_the_one_row_path():
    row = hand_made(RESIDUE, RESIDUE_MID)
    assert undecided_rows([row]) == 1
    assert_rows_match([row, hand_made(RESIDUE, RESIDUE_LAST)], [RESIDUE, RESIDUE])


def test_instants_inside_the_merge_tolerance_go_to_the_one_row_path():
    instance = Instance(
        [Task("A", 1.0, 1.0, memory=2.0), Task("B", 1.0, 1.0, memory=2.0)], capacity=2.0
    )
    close = hand_made(instance, {"A": (0.0, 1.0), "B": (2.0 - 4e-10, 3.0)})
    apart = hand_made(instance, {"A": (0.0, 1.0), "B": (2.0, 3.0)})
    assert undecided_rows([close, apart]) == 1
    assert_rows_match([close, apart], [instance, instance])


def test_an_undecided_row_still_gets_its_memory_overrun():
    tasks = [Task("A", 1.0, 1.0, memory=2.0), Task("B", 1.0, 1.0, memory=2.0)]
    instance = Instance([*tasks, Task("C", 1.0, 1.0, memory=1.0)], capacity=3.0)
    # A and B overlap in memory (4 > 3); C's transfer starts within the
    # merge tolerance of B's release, so the block leaves the row undecided.
    row = hand_made(instance, {"A": (0.0, 1.0), "B": (1.0, 2.0), "C": (3.0 - 4e-10, 4.0)})
    assert undecided_rows([row]) == 1
    assert not validate_schedule(Schedule(row.entries), instance).is_feasible
    assert_rows_match([row], [instance])


def test_byte_scale_capacity_rows_match():
    instance = synthetic_trace("heterogeneous", tasks=40, seed=5).to_instance()
    assert instance.min_capacity > 1e5
    schedules, instances = sweep_rows(instance, factors=(1.0, 1.0625))
    assert_rows_match(schedules, instances)


def test_the_first_infeasible_row_raises_its_report():
    instance = Instance(
        [Task("A", 2.0, 1.0, memory=1.0), Task("B", 2.0, 1.0, memory=1.0)], capacity=10.0
    )
    feasible = hand_made(instance, {"A": (0.0, 2.0), "B": (2.0, 4.0)})
    overlap = hand_made(instance, {"A": (0.0, 2.0), "B": (1.0, 3.0)})
    precedence = hand_made(instance, {"A": (0.0, 1.0), "B": (2.0, 4.0)})
    tight = Instance(instance.tasks, capacity=1.5)
    rows = [feasible, overlap, precedence, feasible]
    assert_rows_match(rows, [instance, instance, instance, tight])
    assert_rows_match([feasible, feasible], [instance, tight])


# --------------------------------------------------------------------------- #
# The sweep engine defers rows to the block; failures keep their order
# --------------------------------------------------------------------------- #
class _Fixed:
    """A schedule-only solver returning a hand-made row."""

    category = "static"

    def __init__(self, name, starts):
        self.name = name
        self.starts = starts

    def schedule(self, instance):
        return hand_made(instance, self.starts)


class _Raising:
    name = "RAISES"
    category = "static"

    def schedule(self, instance):
        raise RuntimeError("solver failed")


TWO = Instance([Task("A", 2.0, 1.0, memory=1.0), Task("B", 2.0, 1.0, memory=1.0)], capacity=10.0)
FEASIBLE = {"A": (0.0, 2.0), "B": (2.0, 4.0)}
OVERLAP = {"A": (0.0, 2.0), "B": (1.0, 3.0)}


def test_an_infeasible_pending_row_fails_before_a_later_solver_error():
    expected = validate_schedule(Schedule(hand_made(TWO, OVERLAP).entries), TWO).summary()
    solvers = [_Fixed("OK", FEASIBLE), _Fixed("BAD", OVERLAP), _Raising()]
    with pytest.raises(InfeasibleScheduleError) as raised:
        run_solvers_on_instance(TWO, solvers)
    assert str(raised.value) == expected


def test_a_solver_error_after_feasible_rows_propagates():
    with pytest.raises(RuntimeError, match="solver failed"):
        run_solvers_on_instance(TWO, [_Fixed("OK", FEASIBLE), _Raising()])


def test_without_validation_the_solver_error_propagates():
    with pytest.raises(RuntimeError, match="solver failed"):
        run_solvers_on_instance(TWO, [_Fixed("BAD", OVERLAP), _Raising()], validate=False)


def test_each_row_keeps_the_outcome_of_its_own_run():
    """Solvers are reused on every factor before the block is measured."""

    class Outcome:
        def __init__(self, selected):
            self.selected = selected
            self.cache_hit = None

    class Reporting:
        name = "REPORTS"
        category = "static"

        def schedule(self, instance):
            self.last_outcome = Outcome(f"{instance.capacity:g}")
            return paper_lineup()[0].simulate(instance).schedule

    trace = synthetic_trace("mixed-intensity", tasks=8, seed=0)
    results = Study().traces(trace).capacities(1.0, 1.5, 2.0).solvers(Reporting()).run()
    assert len(results) == 3
    for record in results:
        assert record.selected_solver == f"{record.capacity:g}"
