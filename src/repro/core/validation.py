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
experiment harness can produce actionable diagnostics.  :func:`check_schedule`
first tries a column-level certificate of the same rules on schedules drawn
from the instance's own packed task tuple (the array engines' schedules), so
a feasible run is accepted without building row objects; anything the
certificate cannot certify gets the full report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .instance import Instance
from .schedule import Schedule, ScheduleColumns, ScheduledTask, memory_steps

if TYPE_CHECKING:  # pragma: no cover - typing only (core must not import simulator)
    from ..simulator.resources import MachineModel

__all__ = [
    "Violation",
    "ValidationReport",
    "validate_schedule",
    "check_schedule",
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

    A schedule the column-level certificate accepts is returned at once;
    every other one gets :func:`validate_schedule`'s full report, so the
    verdict and the error are the same as without the certificate.
    """
    if _certified(schedule, instance, machine):
        return schedule
    report = validate_schedule(schedule, instance, machine=machine)
    if not report.is_feasible:
        raise InfeasibleScheduleError(report)
    return schedule


def _certified(
    schedule: Schedule, instance: Instance, machine: "MachineModel | None"
) -> bool:
    """Whether the rules hold, checked on numpy columns without row objects.

    Applies only to a schedule drawn from ``instance``'s own task tuple, so
    rule 1 reduces to its index column being a permutation.  Each other
    test is the float expression :func:`validate_schedule` evaluates, over
    the same values: precedence and release per task; one resource server
    as consecutive pairs of ``(start, end)``-sorted intervals, several as a
    running count of starts and ends; memory on the very profile steps the
    report reads.  ``False`` decides nothing: the caller builds the report.
    """
    if schedule.source_tasks is not instance.tasks:
        return False
    columns = schedule.columns()
    n = len(instance.tasks)
    index = columns.index
    if len(index) != n or not np.array_equal(np.sort(index), np.arange(n)):
        return False
    if np.isnan(columns.comm + columns.comp + columns.memory).any():
        return False  # NaN characteristics never compare equal: a task mismatch
    if (columns.comp_start + TOLERANCE < columns.comm_end).any():
        return False
    if instance.has_releases:
        release = np.array([t.release for t in instance.tasks], dtype=np.float64)[index]
        if ((release > 0) & (columns.comm_start + TOLERANCE < release)).any():
            return False
    link_count, cpu_count, capacity = _effective_machine(instance, machine)
    for starts, durations, ends, limit in (
        (columns.comm_start, columns.comm, columns.comm_end, link_count),
        (columns.comp_start, columns.comp, columns.comp_end, cpu_count),
    ):
        busy = durations > 0
        starts, ends = starts[busy], ends[busy]
        if limit == 1:
            order = np.lexsort((ends, starts))
            starts, ends = starts[order], ends[order]
            if (starts[1:] < ends[:-1] - TOLERANCE).any():
                return False
        else:
            times = np.concatenate((starts + TOLERANCE, ends))
            steps = np.repeat([1, -1], [len(starts), len(ends)])
            if (np.cumsum(steps[np.lexsort((steps, times))]) > limit).any():
                return False
    return not _memory_overruns(columns, capacity)
