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
  and corrected modes keep their sequential decision loop but evaluate the
  minimum-idle filter and the selection criterion over the whole ready set
  as vectorized argmin reductions instead of per-task Python calls;
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
match the scalar expressions.

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
environment variable) and reports why: ``"auto"`` takes the fast path when
it is supported and the instance has at least
:data:`COLUMNAR_AUTO_THRESHOLD` tasks, and the cross-instance batched plane
once a sweep also has :data:`BATCH_AUTO_THRESHOLD` fixed-order lanes.
"""

from __future__ import annotations

import heapq
import math
import os
from array import array
from typing import Sequence

import numpy as np

from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduledTask
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
    "COLUMNAR_AUTO_THRESHOLD",
    "BATCH_AUTO_THRESHOLD",
]

#: Recognised values of the ``engine=`` option across the facade.
#: ``"batched"`` stacks homogeneous fixed-order sweep lanes into one numpy
#: step loop (:mod:`repro.simulator.batched`); a single run under it is a
#: one-lane plane.
ENGINE_CHOICES: tuple[str, ...] = ("auto", "object", "columnar", "batched")

#: Environment override for ``engine="auto"`` (CI forces ``columnar`` here
#: to run the whole differential suite through the fast path).
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: ``engine="auto"`` takes the columnar path at or above this task count.
#: Below it the object kernel's lower fixed overhead wins (the crossover
#: measured by ``benchmarks/bench_engine_scaling.py`` is well under this).
COLUMNAR_AUTO_THRESHOLD = 256

#: ``engine="auto"`` batches a homogeneous sweep group at or above this many
#: lanes (combined with the columnar task-count threshold); below it the
#: per-lane numpy dispatch overhead beats the saved Python iterations.
BATCH_AUTO_THRESHOLD = 16

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
        "instance",
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
    )

    def __init__(self, instance: Instance) -> None:
        tasks = instance.tasks
        self.instance = instance
        self.tasks = tasks
        self.names = [t.name for t in tasks]
        self.comm = np.array([t.comm for t in tasks], dtype=np.float64)
        self.comp = np.array([t.comp for t in tasks], dtype=np.float64)
        self.memory = np.array([t.memory for t in tasks], dtype=np.float64)
        self.release = np.array([t.release for t in tasks], dtype=np.float64)
        self.comm_list = self.comm.tolist()
        self.comp_list = self.comp.tolist()
        self.memory_list = self.memory.tolist()
        self._total: np.ndarray | None = None
        self._name_rank: np.ndarray | None = None
        self._index: dict[str, int] | None = None
        self._acceleration: np.ndarray | None = None

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


def columnar_view(instance: Instance, *, build: bool = True) -> ColumnarInstance | None:
    """The cached :class:`ColumnarInstance` of ``instance``.

    ``build=False`` only returns an already-cached view — the heuristics use
    it to vectorize order computation exactly when an engine run has already
    paid for the packing (or will).
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

    Aggregates that reduce over whole columns (``makespan``, busy times) run
    on the arrays; anything that needs row objects (``entries``, name
    lookup, validation, equality against an eagerly-built schedule)
    triggers a one-time materialisation that is transparent to callers —
    a ``ColumnarSchedule`` compares equal to the object kernel's
    :class:`Schedule` with the same placements.
    """

    __slots__ = ("_tasks", "_placed", "_comm_starts", "_comp_starts", "_columns")

    def __init__(
        self,
        tasks: Sequence[Task],
        placed: Sequence[int],
        comm_starts: Sequence[float],
        comp_starts: Sequence[float],
        columns: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        # Deliberately no super().__init__: _entries/_by_name stay unset and
        # are built by __getattr__ on first access.
        self._tasks = tasks
        self._placed = placed
        self._comm_starts = comm_starts
        self._comp_starts = comp_starts
        self._columns = columns

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
        return float(self._view_columns()[0].sum())

    @property
    def computation_busy_time(self) -> float:
        return float(self._view_columns()[1].sum())

    def _view_columns(self) -> tuple[np.ndarray, np.ndarray]:
        if self._columns is None:
            tasks = self._tasks
            self._columns = (
                np.array([t.comm for t in tasks], dtype=np.float64),
                np.array([t.comp for t in tasks], dtype=np.float64),
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
        view.tasks, placed, comm_starts, comp_starts, columns=(view.comm, view.comp)
    )


# --------------------------------------------------------------------------- #
# Vectorized heuristic orders
# --------------------------------------------------------------------------- #
_ORDER_KEYS = ("comm", "comp", "total")


def columnar_key_order(
    instance: Instance, *, key: str, reverse: bool = False
) -> list[Task] | None:
    """Tasks sorted by ``(key, name)`` — or ``(-key, name)`` — via argsort.

    Produces the *identical* permutation to
    ``sorted(tasks, key=lambda t: (key(t), t.name))``: the float keys are
    compared exactly, and ties fall through to the name rank, which is the
    lexicographic name order.  Returns ``None`` (caller keeps the ``sorted``
    path) when no view is cached and the instance is below the columnar
    threshold — packing columns to sort 20 tasks would be a net loss.
    """
    if key not in _ORDER_KEYS:
        raise ValueError(f"unknown order key {key!r}; choose from {list(_ORDER_KEYS)}")
    view = columnar_view(instance, build=len(instance) >= COLUMNAR_AUTO_THRESHOLD)
    if view is None:
        return None
    values = getattr(view, key)
    order = np.lexsort((view.name_rank, -values if reverse else values))
    tasks = view.tasks
    return [tasks[i] for i in order]


def columnar_johnson_order(instance: Instance) -> list[Task] | None:
    """Johnson's rule via masked argsorts, identical to ``johnson_order``.

    Compute-intensive tasks (``comp >= comm``) by ``(comm, name)``, then the
    rest by ``(-comp, name)`` — the same keys, compared exactly, with the
    same name tie-break.  Returns ``None`` below the columnar threshold when
    no view is cached.
    """
    view = columnar_view(instance, build=len(instance) >= COLUMNAR_AUTO_THRESHOLD)
    if view is None:
        return None
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
    lanes: int = 1,
) -> tuple[str, str]:
    """The engine that runs ``policy`` on ``instance``, and why.

    Every engine decision is made here: :func:`~repro.simulator.engine.
    simulate` dispatches on the returned name, :func:`simulate_columnar`
    and :meth:`~repro.simulator.batched.BatchedPlane.pack` refuse any run
    it does not plan onto their engine, and the sweep's lane grouping
    passes its ``lanes`` count to learn whether a group rides the batched
    plane.  Returns ``(engine, reason)`` with ``engine`` one of
    ``"object"``, ``"columnar"`` or ``"batched"``.

    The fast paths never guess: any feature they cannot replay bit-for-bit
    — event recording, release-dated instances, multi-CPU machines,
    policies or criteria outside the paper's triple — plans the object
    kernel, and only single-link fixed-order runs batch.  The request and
    the auto task-count threshold are checked before anything builds a
    columnar view, so small ``auto`` runs stay as cheap as the object
    kernel itself.
    """
    choice = _normalise_engine(engine)
    if choice == "object":
        return "object", "object engine requested"
    if choice == "auto" and len(instance) < COLUMNAR_AUTO_THRESHOLD:
        return "object", "auto: fewer tasks than COLUMNAR_AUTO_THRESHOLD"
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
    if choice == "columnar":
        return "columnar", "columnar engine requested"
    if choice == "auto" and lanes < BATCH_AUTO_THRESHOLD:
        return "columnar", "auto: fewer lanes than BATCH_AUTO_THRESHOLD"
    if machine.link_count != 1:
        return "columnar", "multi-link machines run per-instance on the columnar/object kernels"
    if kind is not FixedOrderPolicy:
        return "columnar", "only fixed-order policies batch across lanes"
    if choice == "batched":
        return "batched", "batched engine requested"
    return "batched", "auto: at least BATCH_AUTO_THRESHOLD lanes"


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
        keys = _criterion_keys(view, policy.criterion)
        corrected_order: list[int] | None = None
        if type(policy) is CorrectedOrderPolicy:
            index = view.index
            corrected_order = [index.get(name, -1) for name in policy.order]
        scan_mode = "corrected" if corrected_order is not None else "policy"
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

    One decision still places one transfer, but the per-candidate Python
    work — the memory fit test, the minimum-idle filter, the criterion key
    comparison — runs as whole-ready-set numpy reductions over compact
    arrays (scheduled tasks are swap-removed, so every reduction touches
    exactly the live candidates).  Per-element arithmetic matches the
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
