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

from typing import Callable, Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.task import Task
from ..flowshop.johnson import johnson_order
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
    #: is resolved once per task tuple: :meth:`kernel_policy` keeps the
    #: last one, so a capacity sweep over one trace (every factor's instance
    #: shares the trace's task tuple) resolves it once.  The default assumes
    #: the order reads the capacity; a subclass that overrides :meth:`order`
    #: of a capacity-free class to read it must set this back to ``False``.
    order_ignores_capacity: bool = False
    _order_memo: tuple[tuple[Task, ...], tuple[Task, ...]] | None = None

    def order(self, instance: Instance) -> Sequence[Task]:
        """Return the tasks of ``instance`` in the order to execute them."""
        raise NotImplementedError

    def kernel_policy(self, instance: Instance) -> FixedOrderPolicy:
        memo = self._order_memo
        if memo is not None and memo[0] is instance.tasks:
            order = memo[1]
        else:
            order = tuple(resolve_order(instance, self.order(instance)))
            if self.order_ignores_capacity:
                self._order_memo = (instance.tasks, order)
        return FixedOrderPolicy(order, name=self.name)

    def online_policy(self, instance: Instance) -> OnlinePlanPolicy:
        """Streaming form: re-run :meth:`order` on the ready set per arrival.

        The planner sees the arrived, un-transferred tasks as a windowed
        sub-instance (same capacity), so capacity-aware orders — bin packing
        in particular — re-plan against the full capacity each epoch.  With
        every release at zero this reduces to the offline fixed order.
        """

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
    """Static order obtained by sorting tasks with a key function."""

    #: Key function; ties are always broken by task name for determinism.
    key: Callable[[Task], float] = staticmethod(lambda task: 0.0)
    reverse: bool = False
    #: Column name of the key (``"comm"``/``"comp"``/``"total"``): lets
    #: large instances sort via the columnar argsort fast path, which is
    #: differential-tested to produce the identical permutation.
    columnar_key: str | None = None
    order_ignores_capacity = True

    def order(self, instance: Instance) -> Sequence[Task]:
        if self.columnar_key is not None:
            fast = columnar_key_order(instance, key=self.columnar_key, reverse=self.reverse)
            if fast is not None:
                return fast
        key = type(self).key
        if self.reverse:
            return sorted(instance.tasks, key=lambda t: (-key(t), t.name))
        return sorted(instance.tasks, key=lambda t: (key(t), t.name))


class OptimalOrderInfiniteMemory(StaticOrderHeuristic):
    """OOSIM — Johnson's order executed under the memory constraint."""

    name = "OOSIM"
    description = "Order of the optimal infinite-memory schedule (Johnson's rule)."
    favorable_situation = "Memory capacity is not a restriction (optimal in that case)."
    order_ignores_capacity = True

    def order(self, instance: Instance) -> Sequence[Task]:
        fast = columnar_johnson_order(instance)
        if fast is not None:
            return fast
        return johnson_order(instance.tasks)

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
    key = staticmethod(lambda task: task.comm)
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
    key = staticmethod(lambda task: task.comp)
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
    key = staticmethod(lambda task: task.total_time)
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
    key = staticmethod(lambda task: task.total_time)
    reverse = True
    columnar_key = "total"

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_moderate and features.mostly_highly_communication_intensive
