"""Schedules for Problem DT.

A schedule assigns to each task a communication start time and a computation
start time.  The communication link processes one transfer at a time, the
processing unit one computation at a time, a task may only compute once its
transfer has completed, and a task holds its memory from the start of its
communication to the end of its computation.

:class:`Schedule` is a value object: it stores the decisions and derives the
makespan, idle times, memory profile and Gantt-chart information.  Validation
(feasibility with respect to a capacity) lives in
:mod:`repro.core.validation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .task import Task

__all__ = ["ScheduledTask", "Schedule", "MemoryEvent"]


@dataclass(frozen=True, slots=True)
class ScheduledTask:
    """Placement of one task on the two resources.

    ``comm_start``/``comm_end`` bound the data transfer on the communication
    link; ``comp_start``/``comp_end`` bound the execution on the processing
    unit.  Memory is held over ``[comm_start, comp_end)``.
    """

    task: Task
    comm_start: float
    comp_start: float

    def __post_init__(self) -> None:
        if self.comm_start < 0 or self.comp_start < 0:
            raise ValueError(f"negative start time for task {self.task.name!r}")
        if self.comp_start + 1e-9 < self.comm_start + self.task.comm:
            raise ValueError(
                f"task {self.task.name!r} starts computing at {self.comp_start} "
                f"before its transfer completes at {self.comm_start + self.task.comm}"
            )

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def comm_end(self) -> float:
        return self.comm_start + self.task.comm

    @property
    def comp_end(self) -> float:
        return self.comp_start + self.task.comp

    @property
    def memory_interval(self) -> tuple[float, float]:
        """Half-open interval during which the task occupies local memory."""
        return (self.comm_start, self.comp_end)

    @property
    def wait_time(self) -> float:
        """Time spent between the end of the transfer and the start of the computation."""
        return self.comp_start - self.comm_end


@dataclass(frozen=True, slots=True)
class MemoryEvent:
    """One step of the piecewise-constant memory-occupation profile."""

    time: float
    usage: float


class Schedule:
    """An ordered collection of :class:`ScheduledTask` placements."""

    __slots__ = ("_entries", "_by_name")

    def __init__(self, entries: Iterable[ScheduledTask]):
        entries = tuple(entries)
        by_name: dict[str, ScheduledTask] = {}
        for entry in entries:
            if entry.name in by_name:
                raise ValueError(f"task {entry.name!r} scheduled twice")
            by_name[entry.name] = entry
        self._entries = entries
        self._by_name = by_name

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries)

    def __getitem__(self, key: int | str) -> ScheduledTask:
        if isinstance(key, str):
            return self._by_name[key]
        return self._entries[key]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{e.name}@(comm={e.comm_start:g}, comp={e.comp_start:g})" for e in self._entries
        )
        return f"Schedule({parts})"

    @property
    def entries(self) -> tuple[ScheduledTask, ...]:
        return self._entries

    @property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(e.task for e in self._entries)

    def entry(self, name: str) -> ScheduledTask:
        return self._by_name[name]

    # ------------------------------------------------------------------ #
    # Orders
    # ------------------------------------------------------------------ #
    def communication_order(self) -> list[str]:
        """Task names sorted by communication start time (ties: comp start, name)."""
        return [
            e.name
            for e in sorted(self._entries, key=lambda e: (e.comm_start, e.comp_start, e.name))
        ]

    def computation_order(self) -> list[str]:
        """Task names sorted by computation start time (ties: comm start, name)."""
        return [
            e.name
            for e in sorted(self._entries, key=lambda e: (e.comp_start, e.comm_start, e.name))
        ]

    def is_permutation_schedule(self) -> bool:
        """True when communication and computation follow the same order.

        All heuristics of the paper (Section 4, except the MILP) produce
        permutation schedules; Proposition 1 shows optimal schedules need not be.
        """
        return self.communication_order() == self.computation_order()

    # ------------------------------------------------------------------ #
    # Aggregate metrics
    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        """Completion time of the last event on either resource."""
        if not self._entries:
            return 0.0
        return max(max(e.comp_end, e.comm_end) for e in self._entries)

    @property
    def communication_busy_time(self) -> float:
        return sum(e.task.comm for e in self._entries)

    @property
    def computation_busy_time(self) -> float:
        return sum(e.task.comp for e in self._entries)

    def communication_idle_time(self) -> float:
        """Idle time on the link within ``[0, makespan]``."""
        return self.makespan - self.communication_busy_time

    def computation_idle_time(self) -> float:
        """Idle time on the processing unit within ``[0, makespan]``."""
        return self.makespan - self.computation_busy_time

    def overlap_time(self) -> float:
        """Total time during which the link and the processor are both busy."""
        if not self._entries:
            return 0.0
        points = sorted(
            {e.comm_start for e in self._entries}
            | {e.comm_end for e in self._entries}
            | {e.comp_start for e in self._entries}
            | {e.comp_end for e in self._entries}
        )
        overlap = 0.0
        for left, right in zip(points, points[1:]):
            mid = 0.5 * (left + right)
            comm_busy = any(e.comm_start <= mid < e.comm_end for e in self._entries)
            comp_busy = any(e.comp_start <= mid < e.comp_end for e in self._entries)
            if comm_busy and comp_busy:
                overlap += right - left
        return overlap

    # ------------------------------------------------------------------ #
    # Memory profile
    # ------------------------------------------------------------------ #
    def memory_profile(self) -> list[MemoryEvent]:
        """Piecewise-constant memory occupation sampled at every breakpoint.

        Returns a list of :class:`MemoryEvent` such that the usage between
        ``events[i].time`` and ``events[i+1].time`` equals ``events[i].usage``.
        Breakpoints closer than a small tolerance are merged, so that
        floating-point noise from numerical solvers does not create spurious
        zero-length usage spikes.
        """
        if not self._entries:
            return []
        deltas: dict[float, float] = {}
        for e in self._entries:
            start, end = e.memory_interval
            deltas[start] = deltas.get(start, 0.0) + e.task.memory
            deltas[end] = deltas.get(end, 0.0) - e.task.memory
        horizon = max(abs(t) for t in deltas)
        # The kernel treats a release due within 1e-9 of an instant as
        # already free, so a transfer may start up to 1e-9 (plus float
        # representation error, bounded by 1e-12 * horizon) before the
        # releasing computation ends; breakpoints that close are one instant.
        merge_tolerance = 1e-9 + 1e-12 * horizon
        usage = 0.0
        events: list[MemoryEvent] = []
        for time in sorted(deltas):
            usage += deltas[time]
            # Clamp tiny negative rounding residue.
            if -1e-9 < usage < 0:
                usage = 0.0
            if events and time - events[-1].time <= merge_tolerance:
                events[-1] = MemoryEvent(time=events[-1].time, usage=usage)
            else:
                events.append(MemoryEvent(time=time, usage=usage))
        return events

    def peak_memory(self) -> float:
        """Largest simultaneous memory occupation over the whole schedule."""
        profile = self.memory_profile()
        if not profile:
            return 0.0
        return max(event.usage for event in profile)

    def memory_usage_at(self, time: float) -> float:
        """Memory occupied at instant ``time`` (half-open interval convention)."""
        return float(
            sum(
                e.task.memory
                for e in self._entries
                if e.comm_start <= time < e.comp_end
            )
        )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def restricted_to(self, names: Sequence[str]) -> "Schedule":
        """Sub-schedule containing only the named tasks (times unchanged)."""
        names_set = set(names)
        return Schedule(e for e in self._entries if e.name in names_set)

    def shifted(self, offset: float) -> "Schedule":
        """Schedule translated in time by ``offset`` (used by batch execution)."""
        if offset < 0 and any(
            e.comm_start + offset < -1e-12 or e.comp_start + offset < -1e-12
            for e in self._entries
        ):
            raise ValueError("shift would move a task before time zero")
        return Schedule(
            ScheduledTask(
                task=e.task,
                comm_start=max(0.0, e.comm_start + offset),
                comp_start=max(0.0, e.comp_start + offset),
            )
            for e in self._entries
        )

    def concatenated(self, other: "Schedule") -> "Schedule":
        """Append ``other`` after this schedule, shifting it by this makespan."""
        shifted = other.shifted(self.makespan)
        return Schedule(list(self._entries) + list(shifted.entries))

    def as_dict(self) -> Mapping[str, tuple[float, float]]:
        """``{task name: (comm_start, comp_start)}`` mapping (for serialisation)."""
        return {e.name: (e.comm_start, e.comp_start) for e in self._entries}

    @classmethod
    def from_dict(
        cls, tasks: Iterable[Task], placements: Mapping[str, tuple[float, float]]
    ) -> "Schedule":
        """Inverse of :meth:`as_dict`."""
        entries = []
        for task in tasks:
            comm_start, comp_start = placements[task.name]
            entries.append(ScheduledTask(task=task, comm_start=comm_start, comp_start=comp_start))
        return cls(entries)

    @classmethod
    def empty(cls) -> "Schedule":
        return cls(())
