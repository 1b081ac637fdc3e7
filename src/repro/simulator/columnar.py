"""Columnar array-native fast path for the event kernel.

The object kernel (:mod:`repro.simulator.engine`) walks Python ``Task``
objects through dict-backed pending sets, a heap-backed memory ledger and a
policy call per decision — flexible, but interpreter-scale work *per task*.
This module trades that flexibility for throughput on the execution modes
that dominate every sweep:

* :class:`ColumnarInstance` packs the task attributes (communication and
  computation times, memory footprints, release dates) into numpy arrays
  **once per instance** and caches the view on the instance object, so
  repeated runs — a capacity sweep, a portfolio race — pay the packing cost
  once;
* :func:`simulate_columnar` replays the kernel's decision loop over those
  arrays.  Fixed-order mode (including the Proposition 1 ``comp_order=``
  two-order variant) collapses to prefix recurrences over the packed
  columns with memory feasibility answered by an *array-backed release
  ledger*: release instants are appended to a flat, sorted-by-construction
  array and consumed by a forward cursor — no per-task heap churn.  Dynamic
  and corrected modes keep their sequential decision loop.  When memory is
  co-monotone with comm (every trace generator and chemistry trace), the
  memory fit and the minimum-idle filter are prefixes of the (comm, memory)
  order, so each decision is two bisections and a prefix-min query on a
  segment tree of criterion ranks — O(log n) per placement; other views
  evaluate both filters and the criterion over the whole ready set as
  vectorized argmin reductions;
* the result stays columnar: :class:`ColumnarSchedule` holds the start
  times as flat arrays and materialises :class:`ScheduledTask` rows only
  when something actually indexes into them (validation, the differential
  oracle), so a 10^6-task run never allocates 10^6 row objects unless a
  consumer asks for rows — the same struct-of-arrays contract as
  :class:`repro.api.results.ResultSet`.

Bit-identical results, not just equivalent ones
-----------------------------------------------
The differential oracle (``tests/simulator/test_columnar_crosscheck.py``)
requires the columnar engine to produce schedules *float-for-float equal*
to the object kernel and the frozen ``_reference`` executors.
Reassociating the time recurrences (``np.cumsum`` / ``maximum.accumulate``)
changes the rounding of intermediate sums, so the scan that advances the
clock performs **exactly the kernel's arithmetic in exactly the kernel's
order** on plain Python floats; numpy is used where it cannot change a
single bit — packing the columns, computing sort orders, and
whole-ready-set comparisons and reductions whose per-element operations
match the scalar expressions.  The comm index bisects with the very
expressions the scan evaluates, and IEEE rounding is monotone, so its
prefixes hold exactly the tasks the scan's masks select.

When the fast path declines
---------------------------
``simulate_columnar`` handles the machine models and policies the sweeps
use: any ``link_count``, one processing unit, optional capacity override,
and the :class:`~repro.simulator.policies.FixedOrderPolicy` /
:class:`~repro.simulator.policies.CriterionPolicy` /
:class:`~repro.simulator.policies.CorrectedOrderPolicy` triple with the
paper's three criteria.  Everything else — event recording, release-dated
(streaming) instances, multi-CPU machines, window/online policies, custom
criteria — falls back to the object kernel.  :func:`plan_engine` makes
every engine decision (``"auto"`` | ``"object"`` | ``"columnar"`` |
``"batched"``, with ``"auto"`` overridable by the ``REPRO_ENGINE``
environment variable) and reports why: ``"auto"`` takes the fast path for
every run it supports, whatever its size, and never the cross-instance
batched plane, which runs only when requested.
"""

from __future__ import annotations

import heapq
import math
import os
from array import array
from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduleColumns, ScheduledTask, SourcePlacement
from ..core.task import Task
from ..core.validation import TOLERANCE
from ..obs import spans as _obs
from ..obs.stats import KernelStats
from .policies import (
    CorrectedOrderPolicy,
    CriterionPolicy,
    FixedOrderPolicy,
    SelectionPolicy,
    largest_communication,
    maximum_acceleration,
    smallest_communication,
)
from .resources import DEFAULT_MACHINE, MachineModel

__all__ = [
    "ColumnarInstance",
    "ColumnarSchedule",
    "columnar_view",
    "simulate_columnar",
    "plan_engine",
    "columnar_key_order",
    "columnar_johnson_order",
    "ENGINE_CHOICES",
    "ENGINE_ENV_VAR",
]

#: Recognised values of the ``engine=`` option across the facade.
#: ``"batched"`` stacks homogeneous fixed-order sweep lanes into one numpy
#: step loop (:mod:`repro.simulator.batched`); a single run under it is a
#: one-lane plane.
ENGINE_CHOICES: tuple[str, ...] = ("auto", "object", "columnar", "batched")

#: Environment override for ``engine="auto"`` (CI forces ``object`` and
#: ``batched`` here to run the differential suite through those engines).
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Attribute under which the packed view is cached on the instance.
_VIEW_ATTR = "_columnar_view"


def _normalise_engine(engine: str | None, *, environ: bool = True) -> str:
    """Normalise an ``engine=`` option to one of :data:`ENGINE_CHOICES`.

    ``None`` means ``"auto"``; an ``"auto"`` request additionally honours
    the ``REPRO_ENGINE`` environment variable (unless ``environ=False``,
    for callers that store the request and resolve it later), so a whole
    test run or sweep can be forced onto one engine without touching call
    sites.  Unknown names raise, naming the variable when it is the source.
    """
    choice = "auto" if engine is None else str(engine).lower()
    override = ""
    if choice == "auto" and environ:
        override = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
        if override:
            choice = override
    if choice not in ENGINE_CHOICES:
        source = f"{override!r} (from {ENGINE_ENV_VAR})" if override else repr(engine)
        raise ValueError(
            f"unknown engine {source}; choose from {list(ENGINE_CHOICES)} "
            f"(the {ENGINE_ENV_VAR} environment variable overrides 'auto')"
        )
    return choice


# --------------------------------------------------------------------------- #
# The packed view
# --------------------------------------------------------------------------- #
class ColumnarInstance:
    """Struct-of-arrays view of one :class:`~repro.core.instance.Instance`.

    Built once and cached on the instance (instances are immutable, derived
    instances are new objects), so every engine run, heuristic order
    computation and repeated solve of a sweep shares the same packed
    columns.  ``*_list`` attributes are plain Python float lists — the
    scalar scans iterate those (C-array access, exact float semantics)
    while the numpy columns serve the vectorized reductions.  Everything a
    mode might not need (name ranks, criterion keys, lookup dicts) is
    derived lazily and cached.
    """

    __slots__ = (
        "tasks",
        "names",
        "comm",
        "comp",
        "memory",
        "release",
        "comm_list",
        "comp_list",
        "memory_list",
        "_total",
        "_name_rank",
        "_index",
        "_acceleration",
        "_comm_index",
        "_criterion_ranks",
    )

    def __init__(self, instance: Instance) -> None:
        tasks = instance.tasks
        self.tasks = tasks
        self.names = [t.name for t in tasks]
        self.comm = np.array([t.comm for t in tasks], dtype=np.float64)
        self.comp = np.array([t.comp for t in tasks], dtype=np.float64)
        self.memory = np.array([t.memory for t in tasks], dtype=np.float64)
        self.release = np.array([t.release for t in tasks], dtype=np.float64)
        self.comm_list = self.comm.tolist()
        self.comp_list = self.comp.tolist()
        self.memory_list = self.memory.tolist()
        self.reset_derived()

    def reset_derived(self) -> None:
        """Drop every lazily derived column (a freshly packed view's state)."""
        self._total: np.ndarray | None = None
        self._name_rank: np.ndarray | None = None
        self._index: dict[str, int] | None = None
        self._acceleration: np.ndarray | None = None
        self._comm_index: CommIndex | bool | None = None
        self._criterion_ranks: dict[object, CriterionRank | None] = {}

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def total(self) -> np.ndarray:
        """Per-task ``comm + comp`` (the IOCCS/DOCCS sort key)."""
        if self._total is None:
            self._total = self.comm + self.comp
        return self._total

    @property
    def name_rank(self) -> np.ndarray:
        """Rank of each task's name in lexicographic order.

        Sorting by rank is sorting by name, but compares machine integers
        instead of re-comparing strings at every decision point.
        """
        if self._name_rank is None:
            n = len(self.tasks)
            rank = np.empty(n, dtype=np.int64)
            rank[sorted(range(n), key=self.names.__getitem__)] = np.arange(n)
            self._name_rank = rank
        return self._name_rank

    @property
    def index(self) -> dict[str, int]:
        """Name -> position lookup (built lazily, cached)."""
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self.names)}
        return self._index

    @property
    def acceleration(self) -> np.ndarray:
        """Per-task ``comp/comm`` with the kernel's zero-communication rules
        (``inf`` when only the communication is zero, ``0.0`` when both are)."""
        if self._acceleration is None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                acc = self.comp / self.comm
            zero_comm = self.comm == 0.0
            acc[zero_comm & (self.comp > 0.0)] = math.inf
            acc[zero_comm & ~(self.comp > 0.0)] = 0.0
            self._acceleration = acc
        return self._acceleration

    @property
    def comm_index(self) -> CommIndex | None:
        """The (comm, memory) order, or ``None`` when the view is not
        co-monotone (memory decreases somewhere along that order).

        On a co-monotone view both selection filters of the dynamic and
        corrected policies are prefixes of this order, which is what lets
        :func:`_indexed_policy_scan` replace the ready-set reductions.
        """
        if self._comm_index is None:
            order = np.lexsort((self.memory, self.comm))
            comm_sorted = self.comm[order]
            memory_sorted = self.memory[order]
            # ``>=`` is False on NaN, so a NaN column is never co-monotone.
            co_monotone = bool(
                np.all(comm_sorted[1:] >= comm_sorted[:-1])
                and np.all(memory_sorted[1:] >= memory_sorted[:-1])
            )
            if co_monotone:
                slot = np.empty(len(order), dtype=np.int64)
                slot[order] = np.arange(len(order))
                self._comm_index = CommIndex(
                    order.tolist(), comm_sorted.tolist(), memory_sorted.tolist(), slot.tolist()
                )
            else:
                self._comm_index = False
        return self._comm_index or None

    def criterion_rank(self, criterion) -> CriterionRank | None:
        """The selection tree of ``criterion`` over :attr:`comm_index`.

        ``None`` when the view is not co-monotone, the criterion has no
        packed key, or a key is NaN (the ready-set scan then decides).
        Cached per criterion, so repeated runs on one instance build it once.
        """
        ranks = self._criterion_ranks
        if criterion in ranks:
            return ranks[criterion]
        index = self.comm_index
        keys = _criterion_keys(self, criterion)
        rank = None
        if index is not None and keys is not None and not np.isnan(keys).any():
            rank = CriterionRank.build(keys, self.name_rank, index.order)
        ranks[criterion] = rank
        return rank


class CommIndex(NamedTuple):
    """A co-monotone view's tasks in (comm, memory) order.

    ``order[s]`` is the task at sorted position ``s`` and ``slot`` is its
    inverse; ``comm`` and ``memory`` are the columns along ``order``, both
    non-decreasing, so they can be bisected.
    """

    order: list[int]
    comm: list[float]
    memory: list[float]
    slot: list[int]


class CriterionRank(NamedTuple):
    """A criterion's pick order over the sorted positions, as a segment tree.

    The rank of sorted position ``s`` is its task's position in
    ``lexsort((name_rank, keys))``, so the smallest rank is the smallest
    (criterion key, name) pair.  Leaf ``s`` sits at ``tree[size + s]`` and
    holds ``rank << shift | s``: a minimum names its own position.  Every
    inner node holds the minimum of its two children, and the padding
    leaves hold ``n << shift``, above every live leaf — the value a run
    writes into the leaf of each position it places.  Each run copies the
    tree into a list of its own.
    """

    tree: np.ndarray
    size: int
    shift: int

    @classmethod
    def build(cls, keys: np.ndarray, name_rank: np.ndarray, order: list[int]) -> CriterionRank:
        n = len(order)
        shift = n.bit_length()
        task_rank = np.empty(n, dtype=np.int64)
        task_rank[np.lexsort((name_rank, keys))] = np.arange(n)
        size = 1
        while size < n:
            size <<= 1
        level = np.full(size, n << shift, dtype=np.int64)
        level[:n] = (task_rank[order] << shift) | np.arange(n)
        levels = [level]
        while len(level) > 1:
            level = np.minimum(level[0::2], level[1::2])
            levels.append(level)
        # Heap layout: node v has children 2v and 2v+1, the root is node 1.
        tree = np.concatenate([np.zeros(1, dtype=np.int64), *reversed(levels)])
        return cls(tree, size, shift)


def columnar_view(instance: Instance, *, build: bool = True) -> ColumnarInstance | None:
    """The cached :class:`ColumnarInstance` of ``instance``.

    Packs the view on first use.  ``build=False`` only returns an
    already-cached view (``None`` when nothing has packed one yet).
    """
    view = getattr(instance, _VIEW_ATTR, None)
    if view is not None or not build:
        return view
    if _obs.is_enabled():
        pack_started = _obs.now()
        view = ColumnarInstance(instance)
        _obs.record_span("columnar.pack", pack_started, _obs.now(), tasks=len(view))
    else:
        view = ColumnarInstance(instance)
    try:  # Instance is frozen; the cache is not a dataclass field.
        object.__setattr__(instance, _VIEW_ATTR, view)
    except AttributeError:  # pragma: no cover - only if Instance gains __slots__
        pass
    return view


# --------------------------------------------------------------------------- #
# The columnar schedule
# --------------------------------------------------------------------------- #
class ColumnarSchedule(Schedule):
    """A :class:`~repro.core.schedule.Schedule` backed by flat start-time
    arrays, materialising its :class:`ScheduledTask` rows only on demand.

    Aggregates that reduce over whole columns (``makespan``, busy times,
    and the interval sweep behind overlap, idle times and the memory
    profile) run on the arrays, and a sweep's rows stack through
    :meth:`source_placement` into the block pass behind
    :func:`~repro.core.metrics.evaluate_schedules` and
    :func:`~repro.core.validation.check_schedules`.  Anything that needs
    row objects (``entries``, name lookup, a validation report, equality
    against an eagerly-built schedule) triggers a one-time materialisation that is transparent to
    callers — a ``ColumnarSchedule`` compares equal to the object kernel's
    :class:`Schedule` with the same placements.
    """

    __slots__ = ("_tasks", "_placed", "_comm_starts", "_comp_starts", "_columns", "_source")

    def __init__(
        self,
        tasks: Sequence[Task],
        placed: Sequence[int],
        comm_starts: Sequence[float],
        comp_starts: Sequence[float],
        columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        # Deliberately no super().__init__: _entries/_by_name stay unset and
        # are built by __getattr__ on first access.
        self._tasks = tasks
        self._placed = placed
        self._comm_starts = comm_starts
        self._comp_starts = comp_starts
        self._columns = columns
        self._source: SourcePlacement | None = None

    def __getattr__(self, name: str):
        # Only ever reached when a slot is unset: build the row view once.
        if name in ("_entries", "_by_name"):
            self._materialize()
            return getattr(self, name)
        raise AttributeError(name)

    def _materialize(self) -> None:
        """Build the ``ScheduledTask`` rows (placement order) and name map.

        Rows are created through ``__new__`` + ``object.__setattr__``: the
        engine guarantees the ``comp_start >= comm_end`` invariant by
        construction, and skipping the dataclass ``__init__`` keeps
        materialisation ~3x cheaper — it is already the price of admission
        for every row-oriented consumer.
        """
        tasks = self._tasks
        comm_starts = self._comm_starts
        comp_starts = self._comp_starts
        new = ScheduledTask.__new__
        set_attr = object.__setattr__
        entries = []
        append = entries.append
        for i in self._placed:
            entry = new(ScheduledTask)
            set_attr(entry, "task", tasks[i])
            set_attr(entry, "comm_start", comm_starts[i])
            set_attr(entry, "comp_start", comp_starts[i])
            append(entry)
        self._entries = tuple(entries)
        self._by_name = {entry.task.name: entry for entry in entries}

    def __len__(self) -> int:
        return len(self._placed)

    @property
    def makespan(self) -> float:
        """Column-wise makespan: no row objects needed."""
        if not len(self._placed):
            return 0.0
        comm = np.asarray(self._comm_starts)
        comp = np.asarray(self._comp_starts)
        view = self._view_columns()
        return float(np.maximum(comm + view[0], comp + view[1]).max())

    @property
    def communication_busy_time(self) -> float:
        return math.fsum(self._view_columns()[0].tolist())

    @property
    def computation_busy_time(self) -> float:
        return math.fsum(self._view_columns()[1].tolist())

    def columns(self) -> ScheduleColumns:
        """The placement columns, gathered from the packed arrays (no rows)."""
        index = np.asarray(self._placed, dtype=np.intp)
        comm, comp, memory = (column[index] for column in self._view_columns())
        comm_start = np.asarray(self._comm_starts, dtype=np.float64)[index]
        comp_start = np.asarray(self._comp_starts, dtype=np.float64)[index]
        return ScheduleColumns(
            comm_start=comm_start,
            comm=comm,
            comm_end=comm_start + comm,
            comp_start=comp_start,
            comp=comp,
            comp_end=comp_start + comp,
            memory=memory,
        )

    def source_placement(self) -> SourcePlacement:
        # As arrays, converted once: validation and metrics both stack it.
        if self._source is None:
            self._source = SourcePlacement(
                self._tasks,
                self._view_columns(),
                np.asarray(self._placed, dtype=np.intp),
                np.asarray(self._comm_starts, dtype=np.float64),
                np.asarray(self._comp_starts, dtype=np.float64),
            )
        return self._source

    def _view_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._columns is None:
            tasks = self._tasks
            self._columns = tuple(
                np.array([getattr(t, field) for t in tasks], dtype=np.float64)
                for field in ("comm", "comp", "memory")
            )
        return self._columns


def _columnar_schedule(
    view: ColumnarInstance,
    placed: Sequence[int],
    comm_starts: Sequence[float],
    comp_starts: Sequence[float],
) -> ColumnarSchedule:
    # The already-packed columns back the aggregate reductions for free.
    return ColumnarSchedule(
        view.tasks, placed, comm_starts, comp_starts, columns=(view.comm, view.comp, view.memory)
    )


# --------------------------------------------------------------------------- #
# Vectorized heuristic orders
# --------------------------------------------------------------------------- #
_ORDER_KEYS = ("comm", "comp", "total")


def columnar_key_order(instance: Instance, *, key: str, reverse: bool = False) -> list[Task]:
    """Tasks sorted by ``(key, name)`` — or ``(-key, name)`` — via argsort.

    Produces the *identical* permutation to
    ``sorted(tasks, key=lambda t: (key(t), t.name))``: the float keys are
    compared exactly, and ties fall through to the name rank, which is the
    lexicographic name order.  Packs the view when none is cached; the
    columnar kernel then runs on that same view.
    """
    if key not in _ORDER_KEYS:
        raise ValueError(f"unknown order key {key!r}; choose from {list(_ORDER_KEYS)}")
    view = columnar_view(instance)
    values = getattr(view, key)
    order = np.lexsort((view.name_rank, -values if reverse else values))
    tasks = view.tasks
    return [tasks[i] for i in order]


def columnar_johnson_order(instance: Instance) -> list[Task]:
    """Johnson's rule via masked argsorts, identical to ``johnson_order``.

    Compute-intensive tasks (``comp >= comm``) by ``(comm, name)``, then the
    rest by ``(-comp, name)`` — the same keys, compared exactly, with the
    same name tie-break.  Packs the view when none is cached.
    """
    view = columnar_view(instance)
    compute_intensive = np.flatnonzero(view.comp >= view.comm)
    communication_intensive = np.flatnonzero(view.comp < view.comm)
    rank = view.name_rank
    first = compute_intensive[
        np.lexsort((rank[compute_intensive], view.comm[compute_intensive]))
    ]
    second = communication_intensive[
        np.lexsort((rank[communication_intensive], -view.comp[communication_intensive]))
    ]
    tasks = view.tasks
    return [tasks[i] for i in first] + [tasks[i] for i in second]


# --------------------------------------------------------------------------- #
# Engine plan
# --------------------------------------------------------------------------- #
def _criterion_keys(view: ColumnarInstance, criterion) -> np.ndarray | None:
    """Packed sort keys replicating a criterion function, or ``None``."""
    if criterion is largest_communication:
        return -view.comm
    if criterion is smallest_communication:
        return view.comm
    if criterion is maximum_acceleration:
        return -view.acceleration
    return None


def _fixed_order_indices(
    view: ColumnarInstance, policy: FixedOrderPolicy
) -> Sequence[int] | None:
    """Map a fixed order's tasks to view positions; ``None`` when the policy
    carries tasks that are not exactly the instance's own.

    The mapping is cached on the (immutable) policy keyed by the view, so
    repeated runs of one policy — benchmarks, racing — resolve in O(1).
    """
    cached = getattr(policy, "_columnar_order", None)
    if cached is not None and cached[0] is view:
        return cached[1]
    order: Sequence[int] | None
    if policy.tasks == view.tasks:  # submission order: identity-fast compare
        order = range(len(view))
    else:
        if len(policy.tasks) != len(view):
            return None
        index = view.index
        tasks = view.tasks
        resolved: list[int] = []
        seen = bytearray(len(view))
        for task in policy.tasks:
            i = index.get(task.name)
            if i is None or seen[i] or not (tasks[i] is task or tasks[i] == task):
                return None
            seen[i] = 1
            resolved.append(i)
        order = resolved
    try:
        object.__setattr__(policy, "_columnar_order", (view, order))
    except AttributeError:  # pragma: no cover - only if the policy gains __slots__
        pass
    return order


def plan_engine(
    instance: Instance,
    policy: SelectionPolicy,
    *,
    engine: str | None = None,
    machine: MachineModel | None = None,
    comp_order: Sequence[Task] | Sequence[str] | None = None,
    record: bool = False,
) -> tuple[str, str]:
    """The engine that runs ``policy`` on ``instance``, and why.

    Every engine decision is made here: :func:`~repro.simulator.engine.
    simulate` dispatches on the returned name, :func:`simulate_columnar`
    and :meth:`~repro.simulator.batched.BatchedPlane.pack` refuse any run
    it does not plan onto their engine, and the sweep asks it whether a
    ``"batched"`` request lets a lane group ride the batched plane.
    Returns ``(engine, reason)`` with ``engine`` one of ``"object"``,
    ``"columnar"`` or ``"batched"``.

    The fast paths never guess: any feature they cannot replay bit-for-bit
    — event recording, release-dated instances, multi-CPU machines, a
    ``comp_order`` without a fixed order, policies or criteria outside the
    paper's triple — plans the object kernel.  Every other run plans the
    columnar kernel under ``"auto"``, whatever its size: the view packed
    here is the one the kernel (and the heuristics' orders) run on.  Only
    a ``"batched"`` request plans the batched plane, and only for
    single-link fixed-order runs.
    """
    choice = _normalise_engine(engine)
    if choice == "object":
        return "object", "object engine requested"
    if record:
        return "object", "event recording is only implemented by the object kernel"
    machine = DEFAULT_MACHINE if machine is None else machine
    if machine.cpu_count != 1:
        return "object", "multi-CPU machines are only implemented by the object kernel"
    kind = type(policy)
    if kind is not FixedOrderPolicy:
        if comp_order is not None:
            return "object", "comp_order is only supported with a FixedOrderPolicy"
        if kind is not CriterionPolicy and kind is not CorrectedOrderPolicy:
            return "object", f"policy {kind.__name__!r} is only implemented by the object kernel"
    view = columnar_view(instance)
    if bool((view.release > 0.0).any()):
        return "object", "release-dated instances run on the streaming (object) kernel"
    if kind is not FixedOrderPolicy and _criterion_keys(view, policy.criterion) is None:
        name = getattr(policy.criterion, "__name__", policy.criterion)
        return "object", f"criterion {name!r} has no packed key"
    if choice == "auto":
        return "columnar", "auto: the columnar kernel replays this run"
    if choice == "columnar":
        return "columnar", "columnar engine requested"
    if machine.link_count != 1:
        return "columnar", "multi-link machines run per-instance on the columnar/object kernels"
    if kind is not FixedOrderPolicy:
        return "columnar", "only fixed-order policies batch across lanes"
    return "batched", "batched engine requested"


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
def simulate_columnar(
    instance: Instance,
    policy: SelectionPolicy,
    *,
    machine: MachineModel | None = None,
    comp_order: Sequence[Task] | Sequence[str] | None = None,
    record: bool = False,
):
    """Columnar counterpart of :func:`repro.simulator.engine.simulate`.

    Produces a :class:`~repro.simulator.engine.SimulationResult` whose
    schedule is float-for-float identical to the object kernel's, or raises
    :class:`ValueError` when :func:`plan_engine` does not plan the run onto
    the columnar engine (dispatch through ``simulate`` to fall back instead).
    The errors of infeasible runs — ``InfeasibleOrderError`` for a task that
    can never fit, ``DeadlockError`` for a blocked two-order run — are the
    kernel's own classes with the kernel's exact messages.
    """
    from .engine import InfeasibleOrderError, SimulationResult, resolve_order

    ran, reason = plan_engine(
        instance,
        policy,
        engine="columnar",
        machine=machine,
        comp_order=comp_order,
        record=record,
    )
    if ran != "columnar":
        raise ValueError(f"columnar engine cannot run this configuration: {reason}")
    machine = DEFAULT_MACHINE if machine is None else machine
    view = columnar_view(instance)
    capacity = machine.effective_capacity(instance.capacity)

    # Upfront feasibility — same walk, same first offender, same message.
    if len(view) and math.isfinite(capacity):
        over = view.memory > capacity + TOLERANCE
        if bool(over.any()):
            i = int(np.argmax(over))
            raise InfeasibleOrderError(
                f"task {view.names[i]!r} needs {view.memory_list[i]:g} memory "
                f"but capacity is {capacity:g}"
            )

    traced = _obs.is_enabled()
    run_started = _obs.now() if traced else 0.0
    if type(policy) is FixedOrderPolicy:
        order = _fixed_order_indices(view, policy)
        if order is None:
            raise ValueError(
                "columnar engine cannot run this configuration: the fixed "
                "order does not cover the instance's own tasks"
            )
        comp_idx: list[int] | None = None
        if comp_order is not None:
            resolved = resolve_order(instance, comp_order)
            index = view.index
            comp_idx = [index[t.name] for t in resolved]
        scan_mode = "fixed"
        comm_start, comp_start, memory_wait = _fixed_order_scan(
            view, order, comp_idx, capacity, machine.link_count
        )
        placed: Sequence[int] = order
    else:
        corrected_order: list[int] | None = None
        if type(policy) is CorrectedOrderPolicy:
            index = view.index
            corrected_order = [index.get(name, -1) for name in policy.order]
        scan_mode = "corrected" if corrected_order is not None else "policy"
        ranked = view.criterion_rank(policy.criterion)
        if ranked is not None:
            scan_mode += "-indexed"
            placed, comm_start, comp_start, memory_wait = _indexed_policy_scan(
                view, ranked, corrected_order, capacity, machine.link_count
            )
        else:
            keys = _criterion_keys(view, policy.criterion)
            placed, comm_start, comp_start, memory_wait = _policy_scan(
                view, keys, corrected_order, capacity, machine.link_count
            )

    stats = KernelStats(
        engine="columnar",
        tasks=len(placed),
        events=6 * len(placed),
        memory_wait_s=memory_wait,
        ledger_ops=2 * len(placed),
        elapsed_s=(_obs.now() - run_started) if traced else 0.0,
    )
    if traced:
        _obs.record_span(
            "columnar.scan",
            run_started,
            run_started + stats.elapsed_s,
            mode=scan_mode,
            tasks=stats.tasks,
            memory_wait_s=stats.memory_wait_s,
        )
    return SimulationResult(
        schedule=_columnar_schedule(view, placed, comm_start, comp_start),
        trace=None,
        engine="columnar",
        stats=stats,
    )


def _fixed_order_scan(
    view: ColumnarInstance,
    order: Sequence[int],
    comp_idx: list[int] | None,
    capacity: float,
    link_count: int,
) -> tuple[Sequence[float], Sequence[float], float]:
    """Fixed-order recurrence: one forward pass over the packed columns.

    The transfer timeline is the kernel's ``start = max(ready, free)`` /
    ``end = start + comm`` recurrence; the computation timeline chains
    ``comp_start = max(transfer_end, cpu_free)`` in ``comp_idx`` order
    (placement order when ``None``).  Memory feasibility uses the
    array-backed ledger: computation finish times are appended to a flat
    release array (non-decreasing by construction — the single processing
    unit finishes computations in placement order) and consumed left to
    right by a cursor, replicating the heap ledger's destructive walk
    without any heap.  The dominant configuration — one link, computations
    in placement order — runs a specialised loop with no gating state.
    """
    n = len(view)
    comm = view.comm_list
    comp = view.comp_list
    mem = view.memory_list

    if link_count == 1 and comp_idx is None:
        if not math.isfinite(capacity):
            # Unconstrained memory: the pure two-resource chain.
            comm_o, comp_o, _, _ = _gathered_columns(view, order, memory=False)
            comm_seq = array("d")
            comp_seq = array("d")
            comm_append = comm_seq.append
            comp_append = comp_seq.append
            link_avail = 0.0
            cpu_avail = 0.0
            for c, p in zip(comm_o, comp_o):
                end = link_avail + c
                comm_append(link_avail)
                link_avail = end
                cs = end if end > cpu_avail else cpu_avail
                cpu_avail = cs + p
                comp_append(cs)
            return (*_scattered(order, n, comm_seq, comp_seq), 0.0)
        return _fixed_scan_single_link(view, order, capacity)

    comm_start = [0.0] * n
    comp_start = [0.0] * n
    memory_wait = 0.0

    # Generic loop: k links and/or an explicit computation order.
    from .engine import DeadlockError

    names = view.names
    finite = math.isfinite(capacity)
    slack = max(TOLERANCE, TOLERANCE * capacity) if finite else TOLERANCE
    used = 0.0
    rel_time: list[float] = []  # release instants, non-decreasing
    rel_amount: list[float] = []
    rel_cursor = 0

    single_link = link_count == 1
    link_avail = 0.0
    link_heap = [0.0] * link_count
    cpu_avail = 0.0
    time = 0.0

    comm_end: list[float | None] = [None] * n
    sequence = order if comp_idx is None else comp_idx
    comp_cursor = 0
    placed_count = 0

    for i in order:
        now = link_avail if single_link else link_heap[0]
        if now > time:
            time = now
        horizon = time + TOLERANCE
        while rel_cursor < len(rel_time) and rel_time[rel_cursor] <= horizon:
            used -= rel_amount[rel_cursor]
            rel_cursor += 1
        start_at = time
        if finite:
            limit = capacity + slack - mem[i]
            if used > limit:
                while True:
                    if rel_cursor == len(rel_time):
                        raise DeadlockError(
                            f"task {names[i]!r} can never acquire its memory"
                        )
                    release = rel_time[rel_cursor]
                    used -= rel_amount[rel_cursor]
                    rel_cursor += 1
                    if used <= limit:
                        start_at = release
                        break
                if start_at > time:
                    memory_wait += start_at - time
                    time = start_at
        c = comm[i]
        if single_link:
            start = start_at if start_at > link_avail else link_avail
            end = start + c
            link_avail = end
        else:
            start = max(start_at, link_heap[0])
            end = start + c
            heapq.heapreplace(link_heap, end)
        used += mem[i]
        comm_start[i] = start
        comm_end[i] = end
        placed_count += 1
        while comp_cursor < placed_count:
            j = sequence[comp_cursor]
            transfer_end = comm_end[j]
            if transfer_end is None:
                break
            cs = transfer_end if transfer_end > cpu_avail else cpu_avail
            ce = cs + comp[j]
            cpu_avail = ce
            comp_start[j] = cs
            rel_time.append(ce)
            rel_amount.append(mem[j])
            comp_cursor += 1
    return comm_start, comp_start, memory_wait


def _gathered_columns(view: ColumnarInstance, order: Sequence[int], *, memory: bool = True):
    """``(comm, comp, memory list, memory ndarray)`` permuted into scan order.

    Returns the view's own lists untouched when the order is the identity
    (``range``); otherwise one vectorized fancy-gather per column, so the
    scan loop iterates plain sequential lists with ``zip`` instead of
    paying three indexed loads per task.  Gathering moves values without
    arithmetic — exactness is untouched.  ``memory=False`` skips the
    memory column (the unconstrained chain never reads it).
    """
    if isinstance(order, range):
        return view.comm_list, view.comp_list, view.memory_list, view.memory
    order_np = np.asarray(order, dtype=np.intp)
    comm_o = view.comm[order_np].tolist()
    comp_o = view.comp[order_np].tolist()
    if not memory:
        return comm_o, comp_o, None, None
    mem_np = view.memory[order_np]
    return comm_o, comp_o, mem_np.tolist(), mem_np


def _scattered(order: Sequence[int], n: int, comm_seq, comp_seq):
    """Sequential per-decision outputs scattered back to task positions.

    The scans append one start time per *placement*; schedules are indexed
    by *task* position.  For the identity order the sequences already line
    up; otherwise a single vectorized scatter writes both columns.  The
    outputs stay ``array('d')``: every clock value is unboxed on write and
    freed immediately, so the float free-list stays hot instead of
    spraying millions of one-shot float objects over cold arenas
    (measurably 3-4x on a 10^6-task cold run) — and reads hand back plain
    Python floats, keeping downstream arithmetic exact.
    """
    if isinstance(order, range):
        return comm_seq, comp_seq
    order_np = np.asarray(order, dtype=np.intp)
    comm_start = array("d", bytes(8 * n))
    comp_start = array("d", bytes(8 * n))
    np.frombuffer(comm_start)[order_np] = np.frombuffer(comm_seq)
    np.frombuffer(comp_start)[order_np] = np.frombuffer(comp_seq)
    return comm_start, comp_start


def _fixed_scan_single_link(
    view: ColumnarInstance,
    order: Sequence[int],
    capacity: float,
) -> tuple["array[float]", "array[float]", float]:
    """Specialised fixed-order scan: one link, computations in placement
    order, finite capacity.  Every expression mirrors the object kernel's
    exact arithmetic; per-task fit limits are precomputed column-wide
    (``capacity + slack - memory`` is the ledger's own per-probe formula,
    evaluated element-wise), and the release ledger is a pair of raw
    double arrays consumed by a forward cursor."""
    from .engine import DeadlockError

    comm_o, comp_o, mem_o, mem_np = _gathered_columns(view, order)
    slack = max(TOLERANCE, TOLERANCE * capacity)
    limits_o = ((capacity + slack) - mem_np).tolist()

    # The release ledger: entry j releases ``mem_o[j]`` memory at the j-th
    # computation's end — the amounts column IS the gathered memory column,
    # so only the end times need storing.  ``next_release`` mirrors
    # ``rel_time[rel_cursor]`` (inf when drained) so the common no-release
    # iteration is a single scalar compare with no array read.
    inf = math.inf
    used = 0.0
    rel_time = array("d")
    rel_append = rel_time.append
    rel_cursor = 0
    rel_count = 0
    next_release = inf

    comm_seq = array("d")
    comp_seq = array("d")
    comm_append = comm_seq.append
    comp_append = comp_seq.append

    link_avail = 0.0
    cpu_avail = 0.0
    time = 0.0
    memory_wait = 0.0

    for c, p, m, limit in zip(comm_o, comp_o, mem_o, limits_o):
        if link_avail > time:
            time = link_avail
        horizon = time + TOLERANCE
        while next_release <= horizon:
            used -= mem_o[rel_cursor]
            rel_cursor += 1
            next_release = rel_time[rel_cursor] if rel_cursor < rel_count else inf
        start_at = time
        if used > limit:
            while True:
                if rel_cursor == rel_count:
                    raise DeadlockError(
                        f"task {view.names[order[rel_count]]!r} "
                        "can never acquire its memory"
                    )
                release = next_release
                used -= mem_o[rel_cursor]
                rel_cursor += 1
                next_release = rel_time[rel_cursor] if rel_cursor < rel_count else inf
                if used <= limit:
                    start_at = release
                    break
            if start_at > time:
                memory_wait += start_at - time
                time = start_at
        start = start_at if start_at > link_avail else link_avail
        end = start + c
        link_avail = end
        used += m
        comm_append(start)
        cs = end if end > cpu_avail else cpu_avail
        ce = cs + p
        cpu_avail = ce
        comp_append(cs)
        rel_append(ce)
        rel_count += 1
        if next_release == inf:
            next_release = ce

    return (*_scattered(order, len(view), comm_seq, comp_seq), memory_wait)


def _policy_scan(
    view: ColumnarInstance,
    keys: np.ndarray,
    corrected_order: list[int] | None,
    capacity: float,
    link_count: int,
) -> tuple[list[int], list[float], list[float], float]:
    """Dynamic / corrected decision loop with vectorized reductions.

    The general-instance fallback of :func:`_indexed_policy_scan`: it runs
    when memory is not co-monotone with comm, so the fit test is a prefix
    of no one order.  The per-candidate work — the memory fit test, the
    minimum-idle filter, the criterion key comparison — runs as
    whole-ready-set numpy reductions over compact arrays (scheduled tasks
    are swap-removed, so every reduction touches exactly the live
    candidates), O(n) per placement.  Per-element arithmetic matches the
    scalar policy expressions, so the selected task — and therefore the
    schedule — is identical to the object kernel's.
    """
    from .engine import DeadlockError

    n = len(view)
    comm = view.comm_list
    comp = view.comp_list
    mem = view.memory_list

    # Compact candidate columns; slot k-1 is swapped over a scheduled slot.
    idx_a = np.arange(n, dtype=np.int64)
    comm_a = view.comm.copy()
    mem_a = view.memory.copy()
    key_a = keys.copy()
    rank_a = view.name_rank.copy()
    pos = np.arange(n, dtype=np.int64)  # task index -> live slot
    k = n

    # Per-event scratch, allocated once: the selection step below runs for
    # every placement, and fresh temporaries per event dominated its cost.
    idle_s = np.empty(n)
    fits_s = np.empty(n, dtype=bool)
    elig_s = np.empty(n, dtype=bool)
    eq_s = np.empty(n, dtype=bool)

    finite = math.isfinite(capacity)
    slack = max(TOLERANCE, TOLERANCE * capacity) if finite else TOLERANCE
    used = 0.0
    rel_time: list[float] = []
    rel_amount: list[float] = []
    rel_cursor = 0

    single_link = link_count == 1
    link_avail = 0.0
    link_heap = [0.0] * link_count
    cpu_avail = 0.0
    time = 0.0

    corrected = corrected_order is not None
    done = [False] * n
    cursor = 0

    placed: list[int] = []
    comm_start = [0.0] * n
    comp_start = [0.0] * n
    memory_wait = 0.0

    while k > 0:
        now = link_avail if single_link else link_heap[0]
        if now > time:
            time = now
        horizon = time + TOLERANCE
        while rel_cursor < len(rel_time) and rel_time[rel_cursor] <= horizon:
            used -= rel_amount[rel_cursor]
            rel_cursor += 1

        if finite:
            headroom = capacity + slack - used
            fits = np.less_equal(mem_a[:k], headroom, out=fits_s[:k])
            if not fits.any():
                if rel_cursor == len(rel_time):
                    raise DeadlockError(
                        "deadlock: no task fits and no memory will be released"
                    )
                memory_wait += rel_time[rel_cursor] - time
                time = rel_time[rel_cursor]
                continue
        else:
            headroom = math.inf
            fits = None

        slot = -1
        if corrected:
            while cursor < len(corrected_order):
                head = corrected_order[cursor]
                if head < 0 or not done[head]:
                    break
                cursor += 1
            if cursor < len(corrected_order):
                head = corrected_order[cursor]
                if head >= 0 and mem[head] <= headroom:
                    slot = int(pos[head])
        if slot < 0:
            # minimum_idle_filter, then the criterion key, then the name —
            # the same expressions, evaluated array-wide.  (``min`` and the
            # comparisons are exact, so masked reductions into the reusable
            # scratch buffers select the identical task.)
            threshold = cpu_avail - time
            idle = np.subtract(comm_a[:k], threshold, out=idle_s[:k])
            if fits is None:
                best = float(idle.min())
            else:
                best = float(np.min(idle, initial=math.inf, where=fits))
            cutoff = max(best, 0.0) + TOLERANCE
            eligible = np.less_equal(idle, cutoff, out=elig_s[:k])
            if fits is not None:
                eligible &= fits
            live_keys = key_a[:k]
            lowest = np.min(live_keys, initial=math.inf, where=eligible)
            eq = np.equal(live_keys, lowest, out=eq_s[:k])
            eq &= eligible
            contenders = np.flatnonzero(eq)
            if len(contenders) == 1:
                slot = int(contenders[0])
            else:
                slot = int(contenders[np.argmin(rank_a[contenders])])
        i = int(idx_a[slot])
        if corrected:
            done[i] = True

        c = comm[i]
        if single_link:
            start = time if time > link_avail else link_avail
            end = start + c
            link_avail = end
        else:
            start = max(time, link_heap[0])
            end = start + c
            heapq.heapreplace(link_heap, end)
        used += mem[i]
        comm_start[i] = start
        placed.append(i)
        cs = end if end > cpu_avail else cpu_avail
        ce = cs + comp[i]
        cpu_avail = ce
        comp_start[i] = cs
        rel_time.append(ce)
        rel_amount.append(mem[i])

        last = k - 1
        if slot != last:
            moved = idx_a[last]
            idx_a[slot] = moved
            comm_a[slot] = comm_a[last]
            mem_a[slot] = mem_a[last]
            key_a[slot] = key_a[last]
            rank_a[slot] = rank_a[last]
            pos[moved] = slot
        k = last
    return placed, comm_start, comp_start, memory_wait


def _indexed_policy_scan(
    view: ColumnarInstance,
    ranked: CriterionRank,
    corrected_order: list[int] | None,
    capacity: float,
    link_count: int,
) -> tuple[list[int], list[float], list[float], float]:
    """Dynamic / corrected decision loop in O(log n) per placement.

    The exact counterpart of :func:`_policy_scan` on a co-monotone view
    (:attr:`ColumnarInstance.comm_index`).  Along the (comm, memory) order
    both filters are prefixes:

    * ``memory <= headroom`` holds on ``[0, q)``, found by bisecting the
      sorted memory column.  The first live position has the smallest comm
      and the smallest memory of the ready set, so nothing fits exactly
      when it lies at or past ``q``, and the minimum idle is its
      ``comm - threshold`` (IEEE subtraction is monotone in ``comm``);
    * ``comm - threshold <= cutoff`` holds on ``[0, p)``, bisected with
      that same expression as the key.

    The pick — the smallest (criterion key, name) among the live positions
    of ``[0, min(p, q))`` — is then one prefix-min query on a segment tree
    over :class:`CriterionRank` integers, and placing a task deletes its
    leaf.  The clock, the release ledger, the link heap and the errors are
    :func:`_policy_scan`'s own code.
    """
    from .engine import DeadlockError

    n = len(view)
    comm = view.comm_list
    comp = view.comp_list
    mem = view.memory_list
    by_comm, comm_sorted, mem_sorted, slot_of = view.comm_index
    size = ranked.size
    mask = (1 << ranked.shift) - 1
    tree = ranked.tree.tolist()
    gone = n << ranked.shift  # a placed position's leaf: above every live one
    first = 0  # the first live sorted position
    k = n

    finite = math.isfinite(capacity)
    slack = max(TOLERANCE, TOLERANCE * capacity) if finite else TOLERANCE
    used = 0.0
    rel_time: list[float] = []
    rel_amount: list[float] = []
    rel_cursor = 0

    single_link = link_count == 1
    link_avail = 0.0
    link_heap = [0.0] * link_count
    cpu_avail = 0.0
    time = 0.0

    corrected = corrected_order is not None
    done = [False] * n
    cursor = 0

    placed: list[int] = []
    comm_start = [0.0] * n
    comp_start = [0.0] * n
    memory_wait = 0.0

    while k > 0:
        now = link_avail if single_link else link_heap[0]
        if now > time:
            time = now
        horizon = time + TOLERANCE
        while rel_cursor < len(rel_time) and rel_time[rel_cursor] <= horizon:
            used -= rel_amount[rel_cursor]
            rel_cursor += 1

        if finite:
            headroom = capacity + slack - used
            fit_end = bisect_right(mem_sorted, headroom, first)
            if fit_end <= first:
                if rel_cursor == len(rel_time):
                    raise DeadlockError(
                        "deadlock: no task fits and no memory will be released"
                    )
                memory_wait += rel_time[rel_cursor] - time
                time = rel_time[rel_cursor]
                continue
        else:
            headroom = math.inf
            fit_end = n

        slot = -1
        if corrected:
            while cursor < len(corrected_order):
                head = corrected_order[cursor]
                if head < 0 or not done[head]:
                    break
                cursor += 1
            if cursor < len(corrected_order):
                head = corrected_order[cursor]
                if head >= 0 and mem[head] <= headroom:
                    slot = slot_of[head]
        if slot < 0:
            threshold = cpu_avail - time
            best = comm_sorted[first] - threshold
            cutoff = max(best, 0.0) + TOLERANCE
            # ``threshold.__rsub__(c)`` is ``c - threshold``: the idle key.
            idle_end = bisect_right(
                comm_sorted, cutoff, first, fit_end, key=threshold.__rsub__
            )
            lo = first + size
            hi = idle_end + size
            pick = gone
            while lo < hi:
                if lo & 1:
                    value = tree[lo]
                    if value < pick:
                        pick = value
                    lo += 1
                if hi & 1:
                    hi -= 1
                    value = tree[hi]
                    if value < pick:
                        pick = value
                lo >>= 1
                hi >>= 1
            slot = pick & mask
        i = by_comm[slot]
        if corrected:
            done[i] = True

        c = comm[i]
        if single_link:
            start = time if time > link_avail else link_avail
            end = start + c
            link_avail = end
        else:
            start = max(time, link_heap[0])
            end = start + c
            heapq.heapreplace(link_heap, end)
        used += mem[i]
        comm_start[i] = start
        placed.append(i)
        cs = end if end > cpu_avail else cpu_avail
        ce = cs + comp[i]
        cpu_avail = ce
        comp_start[i] = cs
        rel_time.append(ce)
        rel_amount.append(mem[i])

        # Delete the leaf; stop climbing once a node's minimum is unchanged.
        node = slot + size
        tree[node] = gone
        node >>= 1
        while node:
            left = tree[2 * node]
            right = tree[2 * node + 1]
            value = left if left < right else right
            if tree[node] == value:
                break
            tree[node] = value
            node >>= 1
        k -= 1
        if slot == first:
            first += 1
            while first < n and tree[first + size] == gone:
                first += 1
    return placed, comm_start, comp_start, memory_wait
