"""Exhaustive-search optima for small Problem DT instances.

These searches are exponential and only intended for tests, examples and the
Proposition 1 reproduction (Table 2 / Figure 3), where the paper itself uses
exhaustive search to establish the best permutation schedule.

Two notions of optimum are provided:

* :func:`best_permutation_schedule` — best schedule over all task orders when
  both resources follow the *same* order (the convention of every heuristic in
  the paper) and events are scheduled as early as possible under the memory
  constraint.
* :func:`best_schedule_allowing_reordering` — best schedule when the
  computation order may differ from the communication order.  Used to exhibit
  the Proposition 1 gap.
"""

from __future__ import annotations

import itertools
import math

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..simulator.engine import DeadlockError, simulate
from ..simulator.policies import FixedOrderPolicy

__all__ = [
    "best_permutation_schedule",
    "best_schedule_allowing_reordering",
    "enumerate_permutation_makespans",
]

_MAX_TASKS = 8


def _guard(instance: Instance, limit: int = _MAX_TASKS) -> None:
    if len(instance) > limit:
        raise ValueError(
            f"brute force limited to {limit} tasks, instance has {len(instance)}"
        )


def enumerate_permutation_makespans(instance: Instance) -> dict[tuple[str, ...], float]:
    """Makespan of every same-order schedule, keyed by the task-name order."""
    _guard(instance)
    result: dict[tuple[str, ...], float] = {}
    for perm in itertools.permutations(instance.tasks):
        schedule = simulate(instance, FixedOrderPolicy(perm)).schedule
        result[tuple(t.name for t in perm)] = schedule.makespan
    return result


def best_permutation_schedule(instance: Instance) -> tuple[Schedule, float]:
    """Optimal same-order schedule (exhaustive over task orders)."""
    _guard(instance)
    best: Schedule | None = None
    best_makespan = math.inf
    for perm in itertools.permutations(instance.tasks):
        schedule = simulate(instance, FixedOrderPolicy(perm)).schedule
        if schedule.makespan < best_makespan - 1e-12:
            best_makespan = schedule.makespan
            best = schedule
    assert best is not None
    return best, best_makespan


def best_schedule_allowing_reordering(instance: Instance) -> tuple[Schedule, float]:
    """Best schedule over all pairs (communication order, computation order).

    Events are placed as early as possible given the two orders; this may not
    reach the absolute optimum of Problem DT (which could require inserted
    idle time), but it is enough to certify the Proposition 1 gap because the
    paper's improved schedule is itself an as-early-as-possible schedule for a
    pair of orders.

    A pair is simulated only when its memory-free makespan could beat the
    incumbent.  That makespan comes from the two-machine recurrence in the
    kernel's own forms (``start = ready if ready > free else free``,
    ``end = start + duration``); memory only delays events and these forms
    are monotone in floating point, so it never exceeds the simulated
    makespan, and a skipped pair could never have passed the incumbent test.
    The search returns the same first-found schedule as the full one.
    """
    _guard(instance, limit=7)
    best: Schedule | None = None
    best_makespan = math.inf
    tasks = list(instance.tasks)
    for comm_perm in itertools.permutations(tasks):
        policy = FixedOrderPolicy(comm_perm)
        link_free = 0.0
        transfer_end: dict[str, float] = {}
        for task in comm_perm:
            link_free = link_free + task.comm
            transfer_end[task.name] = link_free
        for comp_perm in itertools.permutations(tasks):
            cpu_free = 0.0
            for task in comp_perm:
                ready = transfer_end[task.name]
                cpu_free = (ready if ready > cpu_free else cpu_free) + task.comp
            bound = cpu_free if cpu_free > link_free else link_free
            if not bound < best_makespan - 1e-12:
                continue
            try:
                schedule = simulate(instance, policy, comp_order=comp_perm).schedule
            except DeadlockError:  # the pair of orders blocks under the capacity
                continue
            if schedule.makespan < best_makespan - 1e-12:
                best_makespan = schedule.makespan
                best = schedule
    assert best is not None
    return best, best_makespan
