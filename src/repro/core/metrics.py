"""Performance metrics used in the paper's evaluation.

The headline metric (Figures 7, 9–13) is the **ratio to optimal**

    r(H) = makespan(H) / OMIM

where OMIM is the optimal makespan without memory constraint.  The ratio is
always at least 1 for feasible schedules; values close to 1 indicate the
heuristic achieves (near-)maximal communication/computation overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bounds import omim as _omim
from .instance import Instance
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only (core must not import simulator)
    from ..simulator.events import EventTrace

__all__ = [
    "ratio_to_optimal",
    "overlap_fraction",
    "idle_fractions",
    "ScheduleMetrics",
    "OnlineMetrics",
    "evaluate",
    "evaluate_online",
]


def ratio_to_optimal(schedule: Schedule, instance: Instance, *, reference: float | None = None) -> float:
    """Makespan of ``schedule`` divided by OMIM of ``instance``.

    ``reference`` short-circuits the OMIM computation when the caller already
    knows it (the experiment harness computes it once per instance).
    """
    ref = _omim(instance) if reference is None else reference
    makespan = schedule.makespan
    if ref == 0:
        return 1.0 if makespan == 0 else math.inf
    return makespan / ref


def overlap_fraction(schedule: Schedule) -> float:
    """Overlapped time divided by the makespan (0 = sequential, →1 = perfect)."""
    makespan = schedule.makespan
    if makespan == 0:
        return 0.0
    return schedule.overlap_time() / makespan


def idle_fractions(schedule: Schedule) -> tuple[float, float]:
    """``(communication idle fraction, computation idle fraction)`` of the makespan."""
    makespan = schedule.makespan
    if makespan == 0:
        return (0.0, 0.0)
    sweep = schedule.interval_sweep()
    return (sweep.communication_idle / makespan, sweep.computation_idle / makespan)


@dataclass(frozen=True, slots=True)
class OnlineMetrics:
    """Arrival-aware metrics of one schedule (streaming workloads).

    * *response time* of a task — completion (end of computation) minus its
      release date; the time the task spent in the system;
    * *stretch* — response time divided by the task's own ``comm + comp``
      (its minimal possible response time on an empty machine), the classic
      slowdown measure for online scheduling;
    * *queue length* — number of tasks that have arrived but not yet
      completed, averaged over ``[first release, last completion]`` and
      tracked at its peak.

    All three degenerate gracefully on offline instances (every release 0):
    response time becomes the completion time and stretch the completion
    time over the task's total work.
    """

    mean_response_time: float
    max_response_time: float
    mean_stretch: float
    max_stretch: float
    avg_queue_length: float
    max_queue_length: int


def evaluate_online(schedule: Schedule) -> OnlineMetrics:
    """Compute :class:`OnlineMetrics` from a schedule of release-dated tasks.

    Release dates are read off the scheduled tasks themselves
    (:attr:`~repro.core.task.Task.release`), so the schedule is
    self-contained; offline schedules (all releases 0) are accepted.
    """
    if not len(schedule):
        return OnlineMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    responses: list[float] = []
    stretches: list[float] = []
    boundaries: list[tuple[float, int]] = []
    for entry in schedule:
        release = entry.task.release
        response = entry.comp_end - release
        responses.append(response)
        work = entry.task.comm + entry.task.comp
        stretches.append(response / work if work > 0 else 1.0)
        boundaries.append((release, +1))
        boundaries.append((entry.comp_end, -1))
    boundaries.sort()
    queue = 0
    peak = 0
    area = 0.0
    previous = boundaries[0][0]
    for time, delta in boundaries:
        area += queue * (time - previous)
        queue += delta
        peak = max(peak, queue)
        previous = time
    span = boundaries[-1][0] - boundaries[0][0]
    return OnlineMetrics(
        mean_response_time=sum(responses) / len(responses),
        max_response_time=max(responses),
        mean_stretch=sum(stretches) / len(stretches),
        max_stretch=max(stretches),
        avg_queue_length=area / span if span > 0 else float(peak),
        max_queue_length=peak,
    )


@dataclass(frozen=True, slots=True)
class ScheduleMetrics:
    """All per-schedule metrics reported by the experiment harness."""

    heuristic: str
    instance: str
    capacity: float
    makespan: float
    omim: float
    ratio_to_optimal: float
    peak_memory: float
    overlap_time: float
    communication_idle: float
    computation_idle: float
    task_count: int

    @property
    def overlap_fraction(self) -> float:
        if self.makespan == 0:
            return 0.0
        return self.overlap_time / self.makespan


def evaluate(
    schedule: Schedule,
    instance: Instance,
    *,
    heuristic: str = "",
    reference: float | None = None,
    trace: "EventTrace | None" = None,
) -> ScheduleMetrics:
    """Bundle every metric for one (heuristic, instance) run.

    The overlap, idle and peak-memory accounting comes from one O(n log n)
    interval sweep (:func:`~repro.core.schedule.sweep_intervals`) over the
    kernel's structured event ``trace`` when one is given, else over the
    schedule's placements; both give bit-identical metrics.
    """
    ref = _omim(instance) if reference is None else reference
    makespan = schedule.makespan
    sweep = (schedule if trace is None else trace).interval_sweep()
    return ScheduleMetrics(
        heuristic=heuristic,
        instance=instance.name,
        capacity=instance.capacity,
        makespan=makespan,
        omim=ref,
        ratio_to_optimal=(makespan / ref) if ref > 0 else (1.0 if makespan == 0 else math.inf),
        peak_memory=sweep.peak_memory,
        overlap_time=sweep.overlap_time,
        communication_idle=sweep.communication_idle,
        computation_idle=sweep.computation_idle,
        task_count=len(schedule),
    )
