"""Static order with dynamic corrections (Section 4.3).

These heuristics precompute the OMIM order (Johnson's rule) and follow it as
long as the next task fits in memory.  When it does not fit — i.e. the link
would sit idle because of the memory constraint — a task is picked dynamically
among the fitting, minimum-idle candidates, the static order is updated, and
execution continues.  The dynamic tie-breaking criterion gives the three
variants OOLCMR, OOSCMR and OOMAMR.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..flowshop.johnson import johnson_order
from ..simulator.columnar import columnar_johnson_order
from ..simulator.online import OnlineCorrectedPolicy, WindowedCorrectedPolicy
from ..simulator.policies import (
    CorrectedOrderPolicy,
    largest_communication,
    maximum_acceleration,
    smallest_communication,
)
from .base import Category, Heuristic

__all__ = [
    "CorrectedHeuristic",
    "CorrectedLargestCommunication",
    "CorrectedSmallestCommunication",
    "CorrectedMaximumAcceleration",
]


class CorrectedHeuristic(Heuristic):
    """Base class: OMIM static order + dynamic correction criterion."""

    category = Category.CORRECTED
    criterion = staticmethod(smallest_communication)

    def kernel_policy(self, instance: Instance) -> CorrectedOrderPolicy:
        # Johnson's order ignores the capacity: kept per task tuple, as
        # capacity-free static orders are, so a capacity sweep sorts it once.
        order = self._order_of(
            instance.tasks,
            lambda: tuple(task.name for task in columnar_johnson_order(instance)),
        )
        return CorrectedOrderPolicy(order=order, criterion=type(self).criterion, name=self.name)

    def online_policy(self, instance: Instance) -> OnlineCorrectedPolicy:
        """Streaming form: Johnson's rule re-ranked over the ready set on
        every arrival, corrected among the fitting arrived tasks."""
        return OnlineCorrectedPolicy(
            planner=johnson_order, criterion=type(self).criterion, name=self.name
        )

    def window_policy(self, instance: Instance, windows) -> WindowedCorrectedPolicy:
        """Pipelined batches: Johnson's rule per window, windowed corrections."""
        return WindowedCorrectedPolicy(
            planner=johnson_order,
            criterion=type(self).criterion,
            windows=windows,
            name=self.name,
        )

    def schedule(self, instance: Instance) -> Schedule:
        return self.simulate(instance).schedule


class CorrectedLargestCommunication(CorrectedHeuristic):
    """OOLCMR — OMIM order, corrected with the largest-communication rule."""

    name = "OOLCMR"
    description = "Johnson order; on memory blockage pick the largest-communication fitting task."
    favorable_situation = (
        "Moderate memory capacity and a significant percentage of communication-intensive tasks."
    )
    criterion = staticmethod(largest_communication)

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_moderate and features.significant_communication_share


class CorrectedSmallestCommunication(CorrectedHeuristic):
    """OOSCMR — OMIM order, corrected with the smallest-communication rule."""

    name = "OOSCMR"
    description = "Johnson order; on memory blockage pick the smallest-communication fitting task."
    favorable_situation = (
        "Moderate memory capacity and a significant percentage of compute-intensive tasks."
    )
    criterion = staticmethod(smallest_communication)

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_moderate and features.significant_compute_share


class CorrectedMaximumAcceleration(CorrectedHeuristic):
    """OOMAMR — OMIM order, corrected with the maximum-acceleration rule."""

    name = "OOMAMR"
    description = (
        "Johnson order; on memory blockage pick the fitting task with the largest comp/comm ratio."
    )
    favorable_situation = (
        "Moderate memory capacity and a significant percentage of highly compute and "
        "communication intensive tasks."
    )
    criterion = staticmethod(maximum_acceleration)

    @classmethod
    def favors(cls, features) -> bool:
        return features.memory_moderate and features.highly_intense_mix
