"""Baseline static heuristics from previous work (Section 4.4).

* **GG** — the Gilmore–Gomory order for the 2-machine *no-wait* flowshop.
  The order is computed as if no extra memory were available (the no-wait
  assumption) and then executed under the actual memory capacity, exactly as
  in the paper; that mismatch explains why GG underperforms.
* **BP** — a First-Fit bin-packing pass groups tasks whose memory footprints
  fit together under the capacity; the execution order is bin 0's tasks, then
  bin 1's, and so on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.instance import Instance
from ..core.task import Task
from ..flowshop.gilmore_gomory import gilmore_gomory_order
from ..flowshop.nowait import held_karp_nowait_order
from .base import Category
from .static import StaticOrderHeuristic

__all__ = ["GilmoreGomory", "ExactNoWait", "BinPackingFirstFit", "first_fit_bins"]


class GilmoreGomory(StaticOrderHeuristic):
    """GG — Gilmore–Gomory no-wait sequence under the memory constraint."""

    name = "GG"
    category = Category.STATIC
    description = (
        "Order from the Gilmore-Gomory no-wait two-machine flowshop algorithm, "
        "executed under the memory capacity."
    )
    favorable_situation = (
        "No extra memory beyond a single task in flight (the no-wait assumption it optimises for)."
    )
    order_ignores_capacity = True

    def order(self, instance: Instance) -> Sequence[Task]:
        return gilmore_gomory_order(instance.tasks).order

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_pressure >= 0.95


class ExactNoWait(StaticOrderHeuristic):
    """GGX — *exact* no-wait sequence, executed under the memory capacity.

    Same modelling assumption as GG (no extra memory beyond the task in
    flight), but the no-wait sequencing problem is solved exactly with the
    Held–Karp dynamic program when the instance is small enough
    (``exact_limit`` tasks); beyond that the polynomial Gilmore–Gomory
    procedure takes over.  Useful as a tight baseline on the worked examples
    and as the "flowshop exact" member of the solver registry.
    """

    name = "GGX"
    category = Category.STATIC
    description = (
        "Exact no-wait two-machine flowshop order (Held-Karp up to exact_limit tasks, "
        "Gilmore-Gomory beyond), executed under the memory capacity."
    )
    favorable_situation = (
        "Small batches with no extra memory beyond a single task in flight."
    )
    order_ignores_capacity = True

    #: Largest instance solved exactly (Held-Karp is O(2^n n^2)).
    exact_limit: int = 16

    def order(self, instance: Instance) -> Sequence[Task]:
        if len(instance.tasks) <= self.exact_limit:
            return held_karp_nowait_order(instance.tasks)[0]
        return gilmore_gomory_order(instance.tasks).order

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_pressure >= 0.95 and features.task_count <= cls.exact_limit


def first_fit_bins(tasks: Sequence[Task], capacity: float) -> list[list[Task]]:
    """First-Fit bin packing of ``tasks`` by memory footprint.

    Tasks are considered in the given (submission) order; each is placed in the
    first bin whose residual capacity accommodates its memory, a new bin being
    opened when none does.  With an infinite capacity a single bin is returned.
    """
    if not math.isfinite(capacity):
        return [list(tasks)] if tasks else []
    bins: list[list[Task]] = []
    residual: list[float] = []
    for task in tasks:
        if task.memory > capacity + 1e-12:
            raise ValueError(
                f"task {task.name!r} needs {task.memory:g} memory but bins have capacity {capacity:g}"
            )
        for index, space in enumerate(residual):
            if task.memory <= space + 1e-12:
                bins[index].append(task)
                residual[index] = space - task.memory
                break
        else:
            bins.append([task])
            residual.append(capacity - task.memory)
    return bins


class BinPackingFirstFit(StaticOrderHeuristic):
    """BP — First-Fit bins by memory footprint, executed bin after bin."""

    name = "BP"
    category = Category.STATIC
    description = "First-Fit bin packing by memory footprint; bins are processed in creation order."
    favorable_situation = "Very tight memory capacities where grouping by footprint avoids blocking."

    def order(self, instance: Instance) -> Sequence[Task]:
        bins = first_fit_bins(instance.tasks, instance.capacity)
        return [task for bucket in bins for task in bucket]

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_pressure >= 0.9
