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

    The first fitting bin is found in O(log n) on a max-residual segment tree
    over n bin slots (First-Fit never opens more bins than it has tasks).  A
    slot not yet opened holds the full capacity, so the leftmost slot that
    passes the fit test is the first open bin that fits or, failing that, the
    next new one.  Floating-point addition is monotone, so a subtree holds a
    bin that passes ``memory <= space + 1e-12`` exactly when its maximum
    residual passes it: the descent picks the bin a linear scan would.
    """
    if not math.isfinite(capacity):
        return [list(tasks)] if tasks else []
    size = 1
    while size < len(tasks):
        size <<= 1
    # Heap layout: node v has children 2v and 2v+1, leaf i sits at size + i.
    tree = [capacity] * (2 * size)
    bins: list[list[Task]] = []
    for task in tasks:
        memory = task.memory
        if memory > capacity + 1e-12:
            raise ValueError(
                f"task {task.name!r} needs {memory:g} memory but bins have capacity {capacity:g}"
            )
        node = 1
        while node < size:
            node <<= 1
            if not memory <= tree[node] + 1e-12:
                node += 1
        index = node - size
        if index < len(bins):
            bins[index].append(task)
        else:
            bins.append([task])
        tree[node] -= memory
        node >>= 1
        while node:
            left, right = tree[2 * node], tree[2 * node + 1]
            best = left if left >= right else right
            if tree[node] == best:
                break
            tree[node] = best
            node >>= 1
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
