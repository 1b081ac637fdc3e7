"""Problem DT instances: a set of independent tasks plus a memory capacity.

An :class:`Instance` bundles the tasks that a runtime system sees as ready on
one processing unit together with the capacity ``C`` of the local memory node.
It provides the aggregate quantities the paper uses everywhere:

* ``min_capacity`` (``mc`` in the paper) — the smallest capacity for which all
  tasks can be executed at all, i.e. the largest single-task footprint;
* ``total_comm`` / ``total_comp`` — the trivial lower bounds of Figure 8;
* scaling helpers to sweep capacities from ``mc`` to ``2 mc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .task import Task, max_memory, max_release, total_comm, total_comp

__all__ = ["Instance"]


@dataclass(frozen=True)
class Instance:
    """A Problem DT instance.

    Parameters
    ----------
    tasks:
        The independent tasks to schedule.  Order is the *submission order*
        used by the ``OS`` heuristic; it carries no other meaning.
    capacity:
        Memory capacity ``C`` of the target node.  ``math.inf`` models the
        unconstrained (2-machine flowshop) case.
    name:
        Optional identifier (trace file name, generator seed, ...).
    """

    tasks: tuple[Task, ...]
    capacity: float = math.inf
    name: str = ""

    def __init__(
        self,
        tasks: Iterable[Task],
        capacity: float = math.inf,
        name: str = "",
    ) -> None:
        tasks = tuple(tasks)
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate task names in instance: {dupes}")
        if capacity <= 0 and tasks:
            raise ValueError(f"memory capacity must be positive, got {capacity}")
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "capacity", float(capacity))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_has_releases", any(t.release > 0.0 for t in tasks))
        # Batch size -> chunk tuples; shared with the derived instances of
        # with_capacity, which keep the same task tuple (see batches()).
        object.__setattr__(self, "_chunks", {})

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, key: int | str) -> Task:
        if isinstance(key, str):
            for task in self.tasks:
                if task.name == key:
                    return task
            raise KeyError(key)
        return self.tasks[key]

    def __contains__(self, key: object) -> bool:
        if isinstance(key, Task):
            return key in self.tasks
        return any(t.name == key for t in self.tasks)

    @property
    def task_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tasks)

    def by_name(self) -> Mapping[str, Task]:
        """Dictionary view keyed by task name."""
        return {t.name: t for t in self.tasks}

    # ------------------------------------------------------------------ #
    # Aggregate quantities
    # ------------------------------------------------------------------ #
    @property
    def total_comm(self) -> float:
        """Sum of communication times — lower bound on the link busy time."""
        return total_comm(self.tasks)

    @property
    def total_comp(self) -> float:
        """Sum of computation times — lower bound on the processor busy time."""
        return total_comp(self.tasks)

    @property
    def sequential_makespan(self) -> float:
        """Makespan with zero overlap (upper bound, Figure 8's ``sum+sum``)."""
        return self.total_comm + self.total_comp

    @property
    def resource_lower_bound(self) -> float:
        """``max(sum comm, sum comp)`` — the area lower bound of Figure 8."""
        return max(self.total_comm, self.total_comp)

    @property
    def min_capacity(self) -> float:
        """``mc``: the smallest memory capacity able to hold every single task."""
        return max_memory(self.tasks)

    @property
    def has_memory_constraint(self) -> bool:
        return math.isfinite(self.capacity)

    @property
    def is_trivially_feasible(self) -> bool:
        """True when every task individually fits in the capacity."""
        return self.min_capacity <= self.capacity or not self.tasks

    @property
    def max_release(self) -> float:
        """Latest release (arrival) date of any task; 0 for offline instances."""
        return max_release(self.tasks)

    @property
    def has_releases(self) -> bool:
        """True when at least one task arrives after time zero.

        Release-dated instances are scheduled by the streaming runtime
        (:mod:`repro.simulator.online`): the kernel gates each task's
        transfer on its arrival and solvers re-rank the ready set.  Computed
        once, when the instance is built.
        """
        return self._has_releases

    def releases(self) -> Mapping[str, float]:
        """``{task name: release date}`` view of the arrival pattern."""
        return {t.name: t.release for t in self.tasks}

    def compute_intensive_fraction(self) -> float:
        """Fraction of tasks with ``comp >= comm`` (Table 6 discussions)."""
        if not self.tasks:
            return 0.0
        return sum(1 for t in self.tasks if t.is_compute_intensive) / len(self.tasks)

    # ------------------------------------------------------------------ #
    # Derivations
    # ------------------------------------------------------------------ #
    def with_capacity(self, capacity: float) -> "Instance":
        """Same tasks under a different memory capacity (and the same batch
        chunks)."""
        derived = Instance(self.tasks, capacity=capacity, name=self.name)
        object.__setattr__(derived, "_chunks", self._chunks)
        return derived

    def with_capacity_factor(self, factor: float) -> "Instance":
        """Capacity expressed as a multiple of ``mc`` (paper sweeps 1.0–2.0)."""
        if factor <= 0:
            raise ValueError(f"capacity factor must be positive, got {factor}")
        return self.with_capacity(self.min_capacity * factor)

    def without_memory_constraint(self) -> "Instance":
        return self.with_capacity(math.inf)

    def with_releases(
        self, releases: Mapping[str, float] | Sequence[float]
    ) -> "Instance":
        """Same tasks stamped with release (arrival) dates.

        ``releases`` is either a ``{task name: release}`` mapping (names
        missing from it keep their current release) or a sequence of dates
        aligned with the submission order.
        """
        if isinstance(releases, Mapping):
            stamped = [
                t.released_at(releases[t.name]) if t.name in releases else t
                for t in self.tasks
            ]
        else:
            if len(releases) != len(self.tasks):
                raise ValueError(
                    f"expected {len(self.tasks)} release dates, got {len(releases)}"
                )
            stamped = [t.released_at(r) for t, r in zip(self.tasks, releases)]
        return Instance(stamped, capacity=self.capacity, name=self.name)

    def without_releases(self) -> "Instance":
        """The offline relaxation: every task available at time zero."""
        if not self.has_releases:
            return self
        return Instance(
            [t.released_at(0.0) for t in self.tasks],
            capacity=self.capacity,
            name=self.name,
        )

    def subset(self, names: Sequence[str]) -> "Instance":
        """Instance restricted to the named tasks (keeps the given order)."""
        lookup = self.by_name()
        return Instance([lookup[n] for n in names], capacity=self.capacity, name=self.name)

    def sorted(self, key: Callable[[Task], float], reverse: bool = False) -> "Instance":
        """Instance whose submission order is re-sorted by ``key``."""
        return Instance(
            sorted(self.tasks, key=key, reverse=reverse),
            capacity=self.capacity,
            name=self.name,
        )

    def batches(self, batch_size: int) -> list["Instance"]:
        """Split into successive batches of ``batch_size`` tasks (Section 6.3).

        Unnamed instances get deterministic ``"batch-<k>"`` fallback names, so
        batch provenance survives into downstream
        :class:`~repro.api.results.ResultSet` rows.  The chunk tuples are
        sliced once per batch size and shared by every instance derived
        through :meth:`with_capacity`, so a capacity sweep's batches reuse
        the orders heuristics keep per task tuple.
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        chunks = self._chunks.get(batch_size)
        if chunks is None:
            chunks = self._chunks[batch_size] = tuple(
                self.tasks[start : start + batch_size]
                for start in range(0, len(self.tasks), batch_size)
            )
        out = []
        for index, chunk in enumerate(chunks):
            name = f"{self.name}[batch {index}]" if self.name else f"batch-{index}"
            out.append(Instance(chunk, capacity=self.capacity, name=name))
        return out

    def scaled(self, *, comm: float = 1.0, comp: float = 1.0, memory: float = 1.0) -> "Instance":
        """Scale every task; capacity is scaled by the memory factor."""
        capacity = self.capacity * memory if math.isfinite(self.capacity) else self.capacity
        return Instance(
            [t.scaled(comm=comm, comp=comp, memory=memory) for t in self.tasks],
            capacity=capacity,
            name=self.name,
        )
