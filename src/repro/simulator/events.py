"""Structured event traces emitted by the simulation kernel.

A :class:`EventTrace` is the kernel's journal of one run: transfer start/end,
computation start/end and memory acquire/release events in time order.
Downstream consumers — the Gantt renderer, the metrics module — read the
trace's interval views.  Overlap, idle time and the memory profile come from
the same interval sweep as a finished
:class:`~repro.core.schedule.Schedule`'s
(:func:`~repro.core.schedule.sweep_intervals`), so a run's trace and its
schedule give bit-identical metrics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from ..core.schedule import (
    IntervalSweep,
    MemoryEvent,
    busy_union,
    memory_steps,
    sweep_intervals,
)
from ..core.task import Task

__all__ = ["EventKind", "SimEvent", "EventTrace"]


class EventKind(str, Enum):
    """What happened at one instant of a kernel run."""

    TASK_ARRIVAL = "task_arrival"
    TRANSFER_START = "transfer_start"
    TRANSFER_END = "transfer_end"
    COMPUTE_START = "compute_start"
    COMPUTE_END = "compute_end"
    MEMORY_ACQUIRE = "memory_acquire"
    MEMORY_RELEASE = "memory_release"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Tie-break so that, at equal instants, completions precede the starts they
#: enable (and arrivals precede the decisions they feed) and the log reads
#: causally.
_KIND_RANK = {
    EventKind.TRANSFER_END: 0,
    EventKind.COMPUTE_END: 1,
    EventKind.MEMORY_RELEASE: 2,
    EventKind.TASK_ARRIVAL: 3,
    EventKind.MEMORY_ACQUIRE: 4,
    EventKind.TRANSFER_START: 5,
    EventKind.COMPUTE_START: 6,
}


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One kernel event; ``amount`` is the memory delta for ``MEMORY_*`` kinds."""

    time: float
    kind: EventKind
    task: str
    amount: float = 0.0


class EventTrace:
    """Time-ordered journal of one kernel run.

    Derived views (interval lists, makespan, memory profile) are computed
    lazily and cached: the sweep engine reads several of them per run record.
    """

    __slots__ = ("_events", "_memory_profile", "_intervals", "_makespan")

    def __init__(self, events: Iterable[SimEvent]):
        self._events = tuple(
            sorted(events, key=lambda e: (e.time, _KIND_RANK[e.kind], e.task))
        )
        self._memory_profile: list[MemoryEvent] | None = None
        self._intervals: dict[EventKind, list[tuple[float, float, str]]] = {}
        self._makespan: float | None = None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> SimEvent:
        return self._events[index]

    @property
    def events(self) -> tuple[SimEvent, ...]:
        return self._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventTrace({len(self._events)} events, makespan={self.makespan:g})"

    def shifted(self, offset: float, tasks: Iterable[Task]) -> "EventTrace":
        """Trace translated in time by ``offset`` (batch chaining).

        Start instants (and arrivals) move by ``offset``; every end instant
        is re-derived as its shifted start plus the duration of the task in
        ``tasks`` — the arithmetic of
        :meth:`~repro.core.schedule.Schedule.shifted`, so a shifted trace
        and its shifted schedule give bit-identical metrics.  Adding
        ``offset`` to an end instant instead can round differently.
        """
        if offset == 0.0:
            return self
        by_name = {task.name: task for task in tasks}
        transfer_start: dict[str, float] = {}
        compute_start: dict[str, float] = {}
        for event in self._events:
            if event.kind is EventKind.TRANSFER_START:
                transfer_start[event.task] = event.time + offset
            elif event.kind is EventKind.COMPUTE_START:
                compute_start[event.task] = event.time + offset

        def moved(event: SimEvent) -> float:
            if event.kind is EventKind.TRANSFER_END:
                return transfer_start[event.task] + by_name[event.task].comm
            if event.kind in (EventKind.COMPUTE_END, EventKind.MEMORY_RELEASE):
                return compute_start[event.task] + by_name[event.task].comp
            return event.time + offset

        return EventTrace(
            SimEvent(moved(e), e.kind, e.task, e.amount) for e in self._events
        )

    @classmethod
    def merged(cls, traces: Iterable["EventTrace"]) -> "EventTrace":
        """One trace holding every event of ``traces`` (re-sorted)."""
        return cls(event for trace in traces for event in trace)

    # ------------------------------------------------------------------ #
    # Resource timelines
    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        """Completion time of the last transfer or computation."""
        if self._makespan is None:
            self._makespan = max(
                (
                    e.time
                    for e in self._events
                    if e.kind in (EventKind.TRANSFER_END, EventKind.COMPUTE_END)
                ),
                default=0.0,
            )
        return self._makespan

    def _paired_intervals(
        self, start_kind: EventKind, end_kind: EventKind
    ) -> list[tuple[float, float, str]]:
        cached = self._intervals.get(start_kind)
        if cached is not None:
            return cached
        # Pair per task rather than by event order: a zero-length interval
        # sorts its end event before its own start event.
        starts: dict[str, float] = {}
        ends: dict[str, float] = {}
        order: list[str] = []
        for event in self._events:
            if event.kind is start_kind:
                starts[event.task] = event.time
                order.append(event.task)
            elif event.kind is end_kind:
                ends[event.task] = event.time
        intervals = [(starts[task], ends[task], task) for task in order]
        self._intervals[start_kind] = intervals
        return intervals

    def transfer_intervals(self) -> list[tuple[float, float, str]]:
        """``(start, end, task)`` for every transfer, in placement order."""
        return self._paired_intervals(EventKind.TRANSFER_START, EventKind.TRANSFER_END)

    def compute_intervals(self) -> list[tuple[float, float, str]]:
        """``(start, end, task)`` for every computation, in placement order."""
        return self._paired_intervals(EventKind.COMPUTE_START, EventKind.COMPUTE_END)

    def _resource_columns(self, resource: str) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of ``"communication"`` or ``"computation"``."""
        if resource == "communication":
            raw = self.transfer_intervals()
        elif resource == "computation":
            raw = self.compute_intervals()
        else:
            raise ValueError(f"unknown resource {resource!r}")
        columns = np.array([(start, end) for start, end, _ in raw], dtype=np.float64)
        columns = columns.reshape(-1, 2)
        return columns[:, 0], columns[:, 1]

    def _memory_events(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, deltas)`` of every memory acquire and release."""
        events = np.array(
            [
                (event.time, event.amount)
                for event in self._events
                if event.kind in (EventKind.MEMORY_ACQUIRE, EventKind.MEMORY_RELEASE)
            ],
            dtype=np.float64,
        ).reshape(-1, 2)
        return events[:, 0], events[:, 1]

    def interval_sweep(self) -> IntervalSweep:
        """Overlap, idle times and peak memory from one interval sweep."""
        return sweep_intervals(
            *self._resource_columns("communication"),
            *self._resource_columns("computation"),
            *self._memory_events(),
        )

    def busy_intervals(self, resource: str) -> list[tuple[float, float]]:
        """Merged busy intervals of ``"communication"`` or ``"computation"``."""
        starts, ends = busy_union(*self._resource_columns(resource))
        return list(zip(starts.tolist(), ends.tolist()))

    def idle_intervals(self, resource: str) -> list[tuple[float, float]]:
        """Idle gaps of one resource within ``[0, makespan]``."""
        busy = self.busy_intervals(resource)
        horizon = self.makespan
        gaps: list[tuple[float, float]] = []
        cursor = 0.0
        for start, end in busy:
            if start > cursor:
                gaps.append((cursor, start))
            cursor = max(cursor, end)
        if horizon > cursor:
            gaps.append((cursor, horizon))
        return gaps

    def idle_time(self, resource: str) -> float:
        """Total idle time of one resource within ``[0, makespan]``."""
        if resource not in ("communication", "computation"):
            raise ValueError(f"unknown resource {resource!r}")
        return getattr(self.interval_sweep(), f"{resource}_idle")

    def overlap_time(self) -> float:
        """Total time during which the link and the processor are both busy."""
        return self.interval_sweep().overlap_time

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def memory_profile(self) -> list[MemoryEvent]:
        """Piecewise-constant memory occupation (same shape as
        :meth:`~repro.core.schedule.Schedule.memory_profile`)."""
        if self._memory_profile is None:
            instants, usage = memory_steps(*self._memory_events())
            self._memory_profile = [
                MemoryEvent(time=time, usage=held)
                for time, held in zip(instants.tolist(), usage.tolist())
            ]
        return self._memory_profile

    def peak_memory(self) -> float:
        """Largest simultaneous memory occupation over the whole run."""
        return max((event.usage for event in self.memory_profile()), default=0.0)

    def memory_usage_at(self, time: float) -> float:
        """Memory occupied at instant ``time`` (half-open step convention)."""
        profile = self.memory_profile()
        index = bisect.bisect_right([event.time for event in profile], time) - 1
        return profile[index].usage if index >= 0 else 0.0
