"""Static-ordering heuristics (Section 4.1) and the submission-order baseline.

A static heuristic sorts the tasks once, up front, using only their
communication and computation times, then both resources follow that order
with the memory-respecting as-early-as-possible executor.

The five orders of Section 4.1 are:

* **OOSIM** — the order of the optimal infinite-memory schedule (Johnson);
* **IOCMS** — non-decreasing communication time;
* **DOCPS** — non-increasing computation time;
* **IOCCS** — non-decreasing communication + computation time;
* **DOCCS** — non-increasing communication + computation time.

``OS`` (order of submission) simply keeps the arbitrary order in which tasks
were handed to the runtime; it is the reference "do nothing" strategy of the
evaluation section.
"""

from __future__ import annotations

from typing import Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.task import Task
from ..simulator.columnar import columnar_johnson_order, columnar_key_order
from ..simulator.engine import resolve_order
from ..simulator.online import OnlinePlanPolicy, WindowedPlanPolicy
from ..simulator.policies import FixedOrderPolicy
from .base import Category, Heuristic

__all__ = [
    "StaticOrderHeuristic",
    "OrderOfSubmission",
    "OptimalOrderInfiniteMemory",
    "IncreasingCommunication",
    "DecreasingComputation",
    "IncreasingCommPlusComp",
    "DecreasingCommPlusComp",
]


class StaticOrderHeuristic(Heuristic):
    """Base class: compute an order, then execute it under the memory constraint."""

    category = Category.STATIC
    #: Whether :meth:`order` ignores ``instance.capacity``.  Such an order
    #: is resolved once per task tuple (``Heuristic._order_of``), so a
    #: capacity sweep over one trace (every factor's instance shares the
    #: trace's task tuple) resolves it once.  The default assumes the order
    #: reads the capacity; a subclass that overrides :meth:`order` of a
    #: capacity-free class to read it must set this back to ``False``.
    order_ignores_capacity: bool = False
    #: Whether :meth:`order` sorts the tasks by a key of each task alone,
    #: ties broken by name (the key sorts and Johnson's rule): any subset's
    #: order is then the whole order restricted to it.
    key_sorted: bool = False

    def order(self, instance: Instance) -> Sequence[Task]:
        """Return the tasks of ``instance`` in the order to execute them."""
        raise NotImplementedError

    def kernel_policy(self, instance: Instance) -> FixedOrderPolicy:
        def resolved() -> tuple[Task, ...]:
            return tuple(resolve_order(instance, self.order(instance)))

        if self.order_ignores_capacity:
            order = self._order_of(instance.tasks, resolved)
        else:
            order = resolved()
        return FixedOrderPolicy(order, name=self.name)

    def online_policy(self, instance: Instance) -> OnlinePlanPolicy:
        """Streaming form: re-run :meth:`order` on the ready set per arrival.

        The planner sees the arrived, un-transferred tasks as a windowed
        sub-instance (same capacity), so capacity-aware orders — bin packing
        in particular — re-plan against the full capacity each epoch.  With
        every release at zero this reduces to the offline fixed order.  A
        :attr:`key_sorted` order is the whole instance's order restricted to
        the ready set, which is the ready set's own order.
        """
        if self.key_sorted:
            rank = {task.name: k for k, task in enumerate(self.kernel_policy(instance).tasks)}

            def planner(ready: Sequence[Task]) -> list[Task]:
                return sorted(ready, key=lambda task: rank[task.name])

        else:

            def planner(ready: Sequence[Task]) -> list[Task]:
                window = Instance(ready, capacity=instance.capacity, name=instance.name)
                return resolve_order(window, self.order(window))

        return OnlinePlanPolicy(planner=planner, name=self.name)

    def window_policy(
        self, instance: Instance, windows: tuple[tuple[Task, ...], ...]
    ) -> WindowedPlanPolicy:
        """Pipelined batches: :meth:`order` plans each window in isolation."""

        def planner(window_tasks: Sequence[Task]) -> list[Task]:
            window = Instance(window_tasks, capacity=instance.capacity, name=instance.name)
            return resolve_order(window, self.order(window))

        return WindowedPlanPolicy(planner=planner, windows=windows, name=self.name)

    def schedule(self, instance: Instance) -> Schedule:
        return self.simulate(instance).schedule


class OrderOfSubmission(StaticOrderHeuristic):
    """OS — keep the (arbitrary) submission order."""

    name = "OS"
    category = Category.SUBMISSION
    description = "Order of submission: tasks are processed in the order they were given."
    order_ignores_capacity = True

    def order(self, instance: Instance) -> Sequence[Task]:
        return instance.tasks


class _KeySortedHeuristic(StaticOrderHeuristic):
    """Static order obtained by sorting tasks on one packed column.

    The order is ``sorted(tasks, key=lambda t: (key(t), t.name))`` (``-key``
    when ``reverse``), computed by the columnar argsort, which is
    differential-tested to produce the identical permutation.
    """

    #: Column name of the key: ``"comm"``, ``"comp"`` or ``"total"``.
    columnar_key: str = ""
    reverse: bool = False
    order_ignores_capacity = True
    key_sorted = True

    def order(self, instance: Instance) -> Sequence[Task]:
        return columnar_key_order(instance, key=self.columnar_key, reverse=self.reverse)


class OptimalOrderInfiniteMemory(StaticOrderHeuristic):
    """OOSIM — Johnson's order executed under the memory constraint."""

    name = "OOSIM"
    description = "Order of the optimal infinite-memory schedule (Johnson's rule)."
    favorable_situation = "Memory capacity is not a restriction (optimal in that case)."
    order_ignores_capacity = True
    key_sorted = True

    def order(self, instance: Instance) -> Sequence[Task]:
        return columnar_johnson_order(instance)

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_relaxed


class IncreasingCommunication(_KeySortedHeuristic):
    """IOCMS — non-decreasing communication time."""

    name = "IOCMS"
    description = "Tasks sorted by non-decreasing communication time."
    favorable_situation = (
        "Memory capacity is not a restriction and tasks are compute intensive (optimal)."
    )
    columnar_key = "comm"

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_relaxed and features.mostly_compute_intensive


class DecreasingComputation(_KeySortedHeuristic):
    """DOCPS — non-increasing computation time."""

    name = "DOCPS"
    description = "Tasks sorted by non-increasing computation time."
    favorable_situation = (
        "Memory capacity is not a restriction and tasks are communication intensive (optimal)."
    )
    reverse = True
    columnar_key = "comp"

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_relaxed and features.mostly_communication_intensive


class IncreasingCommPlusComp(_KeySortedHeuristic):
    """IOCCS — non-decreasing communication plus computation time."""

    name = "IOCCS"
    description = "Tasks sorted by non-decreasing communication + computation time."
    favorable_situation = "Moderate memory capacity and most tasks are highly compute intensive."
    columnar_key = "total"

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_moderate and features.mostly_highly_compute_intensive


class DecreasingCommPlusComp(_KeySortedHeuristic):
    """DOCCS — non-increasing communication plus computation time."""

    name = "DOCCS"
    description = "Tasks sorted by non-increasing communication + computation time."
    favorable_situation = (
        "Moderate memory capacity and most tasks are highly communication intensive."
    )
    reverse = True
    columnar_key = "total"

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_moderate and features.mostly_highly_communication_intensive
