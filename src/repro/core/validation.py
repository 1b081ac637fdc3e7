"""Feasibility validation for Problem DT schedules.

A schedule is feasible for an instance with capacity ``C`` when

1. every task of the instance appears exactly once,
2. the communication link carries at most one transfer at a time,
3. the processing unit executes at most one task at a time,
4. every task starts computing no earlier than its transfer completes,
5. at every instant the memory held by tasks whose interval
   ``[comm_start, comp_end)`` covers that instant does not exceed ``C``, and
6. no task starts its transfer before its release (arrival) date.

The checks report *all* violations (not just the first) so tests and the
experiment harness can produce actionable diagnostics.  :func:`check_schedules`
first tries a certificate of the same rules on the schedules drawn from their
instance's own packed task tuple (the array engines' schedules), stacked a
block of rows at a time, so a feasible run is accepted without building row
objects; anything the certificate cannot certify gets the full report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .instance import Instance
from .schedule import (
    PlacementBlock,
    Schedule,
    ScheduleColumns,
    ScheduledTask,
    _gather,
    memory_steps,
    placement_blocks,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (core must not import simulator)
    from ..simulator.resources import MachineModel

__all__ = [
    "Violation",
    "ValidationReport",
    "validate_schedule",
    "check_schedule",
    "check_schedules",
    "InfeasibleScheduleError",
    "TOLERANCE",
]

#: Absolute tolerance used for all floating-point feasibility comparisons.
TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class Violation:
    """A single feasibility violation."""

    kind: str
    message: str
    tasks: tuple[str, ...] = ()
    time: float = math.nan


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_schedule`."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def is_feasible(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str, tasks: Sequence[str] = (), time: float = math.nan) -> None:
        self.violations.append(Violation(kind=kind, message=message, tasks=tuple(tasks), time=time))

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def summary(self) -> str:
        if self.is_feasible:
            return "feasible"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  - [{v.kind}] {v.message}" for v in self.violations)
        return "\n".join(lines)


class InfeasibleScheduleError(ValueError):
    """Raised by :func:`check_schedule` when a schedule is infeasible."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


def _check_resource_exclusivity(
    report: ValidationReport,
    entries: Sequence[ScheduledTask],
    resource: str,
) -> None:
    """Check that intervals on one resource do not overlap pairwise."""
    if resource == "communication":
        intervals = [(e.comm_start, e.comm_end, e.name) for e in entries if e.task.comm > 0]
    else:
        intervals = [(e.comp_start, e.comp_end, e.name) for e in entries if e.task.comp > 0]
    intervals.sort()
    for (s1, e1, n1), (s2, e2, n2) in zip(intervals, intervals[1:]):
        if s2 < e1 - TOLERANCE:
            report.add(
                kind=f"{resource}-overlap",
                message=(
                    f"tasks {n1!r} and {n2!r} overlap on the {resource} resource: "
                    f"[{s1:g}, {e1:g}) and [{s2:g}, {e2:g})"
                ),
                tasks=(n1, n2),
                time=s2,
            )


def _check_resource_concurrency(
    report: ValidationReport,
    entries: Sequence[ScheduledTask],
    resource: str,
    limit: int,
) -> None:
    """Check that at most ``limit`` intervals run concurrently on one resource.

    Generalisation of :func:`_check_resource_exclusivity` for machine models
    with parallel links or processing units.
    """
    if resource == "communication":
        intervals = [(e.comm_start, e.comm_end, e.name) for e in entries if e.task.comm > 0]
    else:
        intervals = [(e.comp_start, e.comp_end, e.name) for e in entries if e.task.comp > 0]
    boundaries = sorted(
        [(start + TOLERANCE, 1, name) for start, _, name in intervals]
        + [(end, -1, name) for _, end, name in intervals]
    )
    depth = 0
    over = False
    for time, delta, name in boundaries:
        depth += delta
        if depth > limit and not over:
            # Report once per contiguous excess window, not per boundary.
            over = True
            active = sorted(n for s, e, n in intervals if s + TOLERANCE <= time < e)
            report.add(
                kind=f"{resource}-overlap",
                message=(
                    f"{depth} tasks run concurrently on the {resource} resource "
                    f"(limit {limit}) around time {time:g}: {active}"
                ),
                tasks=active,
                time=time,
            )
        elif depth <= limit:
            over = False


def _effective_machine(
    instance: Instance, machine: "MachineModel | None"
) -> tuple[int, int, float]:
    """``(link count, cpu count, capacity)`` the rules are checked against."""
    if machine is None:
        return 1, 1, instance.capacity
    capacity = instance.capacity if machine.capacity is None else machine.capacity
    return machine.link_count, machine.cpu_count, capacity


def validate_schedule(
    schedule: Schedule,
    instance: Instance,
    *,
    machine: "MachineModel | None" = None,
) -> ValidationReport:
    """Validate ``schedule`` against ``instance`` and return a full report.

    ``machine`` adapts the feasibility rules to a custom machine model: up to
    ``link_count`` concurrent transfers, up to ``cpu_count`` concurrent
    computations, and the model's capacity override instead of the
    instance's.  ``None`` checks the paper's machine (rules 1–5 above).
    """
    report = ValidationReport()

    scheduled_names = {e.name for e in schedule}
    instance_names = set(instance.task_names)
    missing = sorted(instance_names - scheduled_names)
    extra = sorted(scheduled_names - instance_names)
    if missing:
        report.add("missing-task", f"tasks not scheduled: {missing}", tasks=missing)
    if extra:
        report.add("unknown-task", f"scheduled tasks not in instance: {extra}", tasks=extra)

    lookup = instance.by_name()
    for entry in schedule:
        reference = lookup.get(entry.name)
        if reference is not None and (
            not math.isclose(reference.comm, entry.task.comm, abs_tol=TOLERANCE)
            or not math.isclose(reference.comp, entry.task.comp, abs_tol=TOLERANCE)
            or not math.isclose(reference.memory, entry.task.memory, abs_tol=TOLERANCE)
        ):
            report.add(
                "task-mismatch",
                f"task {entry.name!r} has different characteristics in the schedule "
                f"(comm={entry.task.comm}, comp={entry.task.comp}, mem={entry.task.memory}) "
                f"and the instance (comm={reference.comm}, comp={reference.comp}, "
                f"mem={reference.memory})",
                tasks=(entry.name,),
            )

    # Precedence (transfer before computation) is enforced by the ScheduledTask
    # constructor, but re-check here in case entries were built via subclassing.
    for entry in schedule:
        if entry.comp_start + TOLERANCE < entry.comm_end:
            report.add(
                "precedence",
                f"task {entry.name!r} computes at {entry.comp_start:g} before its "
                f"transfer completes at {entry.comm_end:g}",
                tasks=(entry.name,),
                time=entry.comp_start,
            )

    for entry in schedule:
        if entry.task.release > 0 and entry.comm_start + TOLERANCE < entry.task.release:
            report.add(
                "release",
                f"task {entry.name!r} starts its transfer at {entry.comm_start:g} "
                f"before its release date {entry.task.release:g}",
                tasks=(entry.name,),
                time=entry.comm_start,
            )

    link_count, cpu_count, capacity = _effective_machine(instance, machine)
    if link_count == 1:
        _check_resource_exclusivity(report, schedule.entries, "communication")
    else:
        _check_resource_concurrency(report, schedule.entries, "communication", link_count)
    if cpu_count == 1:
        _check_resource_exclusivity(report, schedule.entries, "computation")
    else:
        _check_resource_concurrency(report, schedule.entries, "computation", cpu_count)

    for time, usage in _memory_overruns(schedule.columns(), capacity):
        active = sorted(e.name for e in schedule if e.comm_start <= time < e.comp_end)
        report.add(
            "memory",
            f"memory usage {usage:g} exceeds capacity {capacity:g} "
            f"at time {time:g} (active: {active})",
            tasks=active,
            time=time,
        )

    return report


def _memory_overruns(columns: ScheduleColumns, capacity: float) -> list[tuple[float, float]]:
    """``(time, usage)`` of every memory-profile step above ``capacity``."""
    if not math.isfinite(capacity):
        return []
    instants, usage = memory_steps(*columns.memory_events())
    # Absolute tolerance for small (unit-free) instances, relative tolerance
    # for byte-sized capacities where float accumulation noise is larger.
    over = usage > capacity + max(TOLERANCE, 1e-9 * capacity)
    return list(zip(instants[over].tolist(), usage[over].tolist()))


def check_schedule(
    schedule: Schedule,
    instance: Instance,
    *,
    machine: "MachineModel | None" = None,
) -> Schedule:
    """Validate and return ``schedule``; raise :class:`InfeasibleScheduleError` otherwise.

    :func:`check_schedules` on one row.
    """
    check_schedules((schedule,), (instance,), machine=machine)
    return schedule


def check_schedules(
    schedules: Sequence[Schedule],
    instances: Sequence[Instance],
    *,
    machine: "MachineModel | None" = None,
) -> None:
    """Check ``schedules[i]`` against ``instances[i]`` for every row.

    Raises the first infeasible row's :class:`InfeasibleScheduleError`.
    Rows drawn from their instance's own packed task tuple are certified
    together, a block at a time (:func:`~repro.core.schedule.placement_blocks`);
    every row the certificate does not accept gets
    :func:`validate_schedule`'s full report, so the verdict and the error
    are the same as for a row checked alone.
    """
    certified = [False] * len(schedules)
    offline = [
        None if instance.has_releases else schedule
        for schedule, instance in zip(schedules, instances)
    ]
    for rows, block in placement_blocks(offline):
        for row, ok in zip(rows, _certify(block, [instances[row] for row in rows], machine)):
            certified[row] = ok and block.tasks is instances[row].tasks
    for schedule, instance, ok in zip(schedules, instances, certified):
        if ok:
            continue
        report = validate_schedule(schedule, instance, machine=machine)
        if not report.is_feasible:
            raise InfeasibleScheduleError(report)


def _certify(
    block: PlacementBlock, instances: Sequence[Instance], machine: "MachineModel | None"
) -> list[bool]:
    """Whether the rules hold for each row, checked on the block's matrices.

    A row drawn from its instance's task tuple passes rule 1 when its
    placement is a permutation (:attr:`PlacementBlock.complete`).  Each
    other test is the float expression :func:`validate_schedule`
    evaluates, over the same values: precedence per task; one resource
    server as consecutive pairs of start-sorted intervals, several as a
    running count of starts and ends (idle tasks sort last as ``+inf`` and
    count 0); memory on the very profile steps the report reads, from the
    block's profile where it decides the row and from the row's own
    :func:`memory_steps` where not.  ``False`` decides nothing: the caller
    builds the report.  (The report pairs equal starts by end; any
    overlap it finds, some consecutive pair in start order also shows, so
    the certificate never accepts what the report rejects.)
    """
    comm, comp, memory = block.task_columns
    if np.isnan(comm + comp + memory).any():
        return [False] * len(block)  # NaN characteristics never compare equal: a task mismatch
    ok = block.complete & ~(block.comp_start + TOLERANCE < block.comm_end).any(axis=1)
    machines = [_effective_machine(instance, machine) for instance in instances]
    link_count, cpu_count, _ = machines[0]
    for starts, durations, ends, limit in (
        (block.comm_start, block.comm, block.comm_end, link_count),
        (block.comp_start, block.comp, block.comp_end, cpu_count),
    ):
        busy = durations > 0
        starts = np.where(busy, starts, np.inf)
        ends = np.where(busy, ends, np.inf)
        if limit == 1:
            starts, ends = _gather(np.argsort(starts, axis=1, kind="stable"), starts, ends)
            ok &= ~(starts[:, 1:] < ends[:, :-1] - TOLERANCE).any(axis=1)
        else:
            times = np.concatenate((starts + TOLERANCE, ends), axis=1)
            steps = np.concatenate((busy, busy), axis=1) * np.repeat([1, -1], busy.shape[1])
            (steps,) = _gather(np.lexsort((steps, times), axis=1), steps)
            depth = np.cumsum(steps, axis=1)
            ok &= ~(depth > limit).any(axis=1)
    capacity = np.array([capacity for _, _, capacity in machines])
    bounded = np.isfinite(capacity)
    if bounded.any():
        _, usage, ends, decided = block.memory_profile()
        # Absolute tolerance for small (unit-free) instances, relative
        # tolerance for byte-sized capacities where float accumulation
        # noise is larger.
        with np.errstate(invalid="ignore"):
            limit = capacity + np.maximum(TOLERANCE, 1e-9 * capacity)
        over = (ends & (usage > limit[:, None])).any(axis=1)
        ok &= ~(bounded & decided & over)
        for row in np.flatnonzero(ok & bounded & ~decided).tolist():
            columns = _row_columns(block, row)
            ok[row] = not _memory_overruns(columns, float(capacity[row]))
    return ok.tolist()


def _row_columns(block: PlacementBlock, row: int) -> ScheduleColumns:
    """One row of ``block`` as the schedule's own columns."""
    return ScheduleColumns(
        comm_start=block.comm_start[row],
        comm=block.comm[row],
        comm_end=block.comm_end[row],
        comp_start=block.comp_start[row],
        comp=block.comp[row],
        comp_end=block.comp_end[row],
        memory=block.memory[row],
    )
