"""Frozen seed executors — differential-testing oracle and benchmark baseline.

These are the pre-kernel implementations of the three execution modes,
kept verbatim (holder re-sum and all, O(n²) per schedule) so that

* ``tests/simulator/test_kernel_crosscheck.py`` can assert the unified
  kernel reproduces them byte-for-byte on randomly generated instances, and
* ``benchmarks/bench_engine_scaling.py`` can measure the kernel's speedup
  against the seed code path.

Do not use these in production code paths and do not "fix" them: their
value is being exactly the seed semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduledTask
from ..core.task import Task
from ..core.validation import TOLERANCE
from .engine import InfeasibleOrderError, resolve_order
from .policies import ExecutionState, minimum_idle_filter

__all__ = [
    "reference_execute_fixed_order",
    "reference_execute_two_orders",
    "reference_execute_with_policy",
    "ReferenceCorrectedOrderPolicy",
]


def _earliest_memory_feasible_start(
    ready_time: float,
    memory_needed: float,
    capacity: float,
    holders: Iterable[tuple[float, float]],
) -> float:
    """Seed implementation: re-sorts and re-sums the holders at every call."""
    if not math.isfinite(capacity):
        return ready_time
    slack = max(TOLERANCE, TOLERANCE * capacity)
    active = [(release, amount) for release, amount in holders if release > ready_time + TOLERANCE]
    used = sum(amount for _, amount in active)
    if used + memory_needed <= capacity + slack:
        return ready_time
    for release, amount in sorted(active):
        used -= amount
        if not math.isfinite(release):
            break
        if used + memory_needed <= capacity + slack:
            return release
    return math.inf


def reference_execute_fixed_order(
    instance: Instance, order: Sequence[Task] | Sequence[str] | None = None
) -> Schedule:
    """Seed fixed-order executor: per-task holder re-scan."""
    tasks = resolve_order(instance, order)
    capacity = instance.capacity
    for task in tasks:
        if task.memory > capacity + TOLERANCE:
            raise InfeasibleOrderError(
                f"task {task.name!r} needs {task.memory:g} memory but capacity is {capacity:g}"
            )

    comm_available = 0.0
    comp_available = 0.0
    entries: list[ScheduledTask] = []
    holders: list[tuple[float, float]] = []

    for task in tasks:
        start = _earliest_memory_feasible_start(comm_available, task.memory, capacity, holders)
        if not math.isfinite(start):  # pragma: no cover - defensive, cannot happen here
            raise InfeasibleOrderError(f"task {task.name!r} can never acquire its memory")
        comm_start = start
        comm_end = comm_start + task.comm
        comp_start = max(comm_end, comp_available)
        entries.append(ScheduledTask(task=task, comm_start=comm_start, comp_start=comp_start))
        comm_available = comm_end
        comp_available = comp_start + task.comp
        holders.append((comp_available, task.memory))

    return Schedule(entries)


def reference_execute_two_orders(
    instance: Instance,
    comm_order: Sequence[Task] | Sequence[str],
    comp_order: Sequence[Task] | Sequence[str],
) -> Schedule | None:
    """Seed two-order executor: holder list rebuilt at every transfer."""
    comm_tasks = resolve_order(instance, comm_order)
    comp_tasks = resolve_order(instance, comp_order)
    capacity = instance.capacity
    for task in comm_tasks:
        if task.memory > capacity + TOLERANCE:
            raise InfeasibleOrderError(
                f"task {task.name!r} needs {task.memory:g} memory but capacity is {capacity:g}"
            )

    comm_start: dict[str, float] = {}
    comp_start: dict[str, float] = {}
    comp_end: dict[str, float] = {}
    comm_available = 0.0
    comp_available = 0.0
    comm_index = 0
    comp_index = 0
    n = len(comm_tasks)

    while comp_index < n:
        next_comp = comp_tasks[comp_index]
        if next_comp.name in comm_start:
            start = max(comm_start[next_comp.name] + next_comp.comm, comp_available)
            comp_start[next_comp.name] = start
            comp_end[next_comp.name] = start + next_comp.comp
            comp_available = start + next_comp.comp
            comp_index += 1
            continue
        if comm_index >= n:
            return None
        task = comm_tasks[comm_index]
        holders = [
            (comp_end.get(name, math.inf), instance[name].memory) for name in comm_start
        ]
        start = _earliest_memory_feasible_start(comm_available, task.memory, capacity, holders)
        if not math.isfinite(start):
            return None
        comm_start[task.name] = start
        comm_available = start + task.comm
        comm_index += 1

    entries = [
        ScheduledTask(task=task, comm_start=comm_start[task.name], comp_start=comp_start[task.name])
        for task in comm_tasks
    ]
    return Schedule(entries)


@dataclass
class ReferenceCorrectedOrderPolicy:
    """Seed ``CorrectedOrderPolicy``: consumes an internal ``_remaining`` list
    (single-use — exactly the statefulness bug the kernel policies fixed)."""

    order: Sequence[str]
    criterion: Callable[[Task], tuple[float, str]]
    name: str = "corrected"

    def __post_init__(self) -> None:
        self._remaining = list(self.order)

    def select(self, candidates: Sequence[Task], state: ExecutionState) -> Task:
        by_name = {task.name: task for task in candidates}
        while self._remaining and self._remaining[0] in state.scheduled:
            self._remaining.pop(0)
        if self._remaining and self._remaining[0] in by_name:
            chosen = by_name[self._remaining.pop(0)]
            return chosen
        filtered = minimum_idle_filter(candidates, state)
        chosen = min(filtered, key=self.criterion)
        if chosen.name in self._remaining:
            self._remaining.remove(chosen.name)
        return chosen


def reference_execute_with_policy(instance: Instance, policy) -> Schedule:
    """Seed policy executor: holder re-sum at every decision point."""
    capacity = instance.capacity
    for task in instance:
        if task.memory > capacity + TOLERANCE:
            raise InfeasibleOrderError(
                f"task {task.name!r} needs {task.memory:g} memory but capacity is {capacity:g}"
            )

    pending: dict[str, Task] = {t.name: t for t in instance.tasks}
    entries: list[ScheduledTask] = []
    comm_available = 0.0
    comp_available = 0.0
    holders: dict[str, tuple[float, float]] = {}
    time = 0.0

    slack = max(TOLERANCE, TOLERANCE * capacity) if math.isfinite(capacity) else TOLERANCE

    while pending:
        used = sum(amount for release, amount in holders.values() if release > time + TOLERANCE)
        available = capacity - used if math.isfinite(capacity) else math.inf
        candidates = [task for task in pending.values() if task.memory <= available + slack]

        if not candidates:
            future_releases = [
                release for release, _ in holders.values() if release > time + TOLERANCE
            ]
            if not future_releases:  # pragma: no cover - every task fits individually
                raise InfeasibleOrderError("deadlock: no task fits and no memory will be released")
            time = min(future_releases)
            continue

        state = ExecutionState(
            time=time,
            available_memory=available,
            comm_available=comm_available,
            comp_available=comp_available,
            scheduled=tuple(e.name for e in entries),
        )
        task = policy.select(candidates, state)

        comm_start = time
        comm_end = comm_start + task.comm
        comp_start = max(comm_end, comp_available)
        entries.append(ScheduledTask(task=task, comm_start=comm_start, comp_start=comp_start))
        del pending[task.name]
        comm_available = comm_end
        comp_available = comp_start + task.comp
        holders[task.name] = (comp_available, task.memory)
        time = max(time, comm_available)

    return Schedule(entries)
