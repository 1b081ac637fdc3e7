"""Unified event-driven simulation kernel — the object engine under every run.

Architecture (kernel → policies → facade)::

    repro.api.solve() / Study          facade: engine options, sweeps
        └── heuristics                 compute an order / pick a criterion
              └── policies             FixedOrder / Criterion / CorrectedOrder
                    └── engine.simulate()   ← this module: the only event loop
                          ├── MemoryLedger  incremental O(log n) memory account
                          ├── ResourceModel link/processor timelines (pluggable)
                          └── EventTrace    structured journal for viz/metrics

The kernel advances a single clock over transfer decisions: at each decision
point the link is (about to be) free, the policy picks the next task, the
transfer is booked on the link resource, the task's memory is acquired, and
every computation enabled by the computation order is booked on the
processing unit.  The paper's three execution modes differ only in the
policy; the Proposition 1 two-order runs additionally fix the computation
order (``comp_order``).

The kernel reproduces the seed executors byte-for-byte on the default
machine model — pinned by ``tests/simulator/test_kernel_crosscheck.py``
against the frozen reference implementations in
:mod:`repro.simulator._reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduledTask
from ..core.task import Task
from ..core.validation import TOLERANCE
from ..obs import spans as _obs
from ..obs.stats import KernelStats
from .events import EventKind, EventTrace, SimEvent
from .ledger import MemoryLedger
from .policies import SelectionPolicy
from .resources import DEFAULT_MACHINE, MachineModel

__all__ = [
    "simulate",
    "SimulationResult",
    "InfeasibleOrderError",
    "DeadlockError",
    "resolve_order",
]


class InfeasibleOrderError(ValueError):
    """Raised when a task cannot be scheduled at all (footprint exceeds capacity)."""


class DeadlockError(InfeasibleOrderError):
    """The run cannot make progress: no task fits and no memory will be released."""


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one kernel run: the schedule plus its optional event trace.

    ``engine`` names the kernel that produced the result (``"object"``,
    ``"columnar"`` or ``"batched"``); schedule-only solvers that never touch a kernel leave
    it empty.  ``stats`` carries the per-run profiling counters
    (:class:`~repro.obs.stats.KernelStats`); its deterministic fields are
    always populated, its wall-clock fields only while tracing is enabled.
    """

    schedule: Schedule
    trace: EventTrace | None
    engine: str = ""
    stats: KernelStats | None = None


class _KernelState:
    """Mutable per-run decision state, duck-typing :class:`ExecutionState`.

    The engine allocates exactly one per run and updates it in place before
    each policy call; ``scheduled`` and ``ready`` are materialised lazily
    because only stateful (or online) policies read them.
    """

    __slots__ = (
        "time",
        "available_memory",
        "comm_available",
        "comp_available",
        "scratch",
        "arrivals_fired",
        "_placed",
        "_pending",
    )

    def __init__(self, scratch: dict, placed: dict, pending: dict) -> None:
        self.time = 0.0
        self.available_memory = math.inf
        self.comm_available = 0.0
        self.comp_available = 0.0
        self.scratch = scratch
        self.arrivals_fired = 0
        self._placed = placed  # name -> comm start, in placement order
        self._pending = pending  # name -> Task; arrived, transfer not yet placed

    @property
    def scheduled(self) -> tuple[str, ...]:
        return tuple(self._placed)

    @property
    def ready(self) -> tuple[Task, ...]:
        """Arrived, un-transferred tasks in arrival-then-submission order."""
        return tuple(self._pending.values())

    def induced_idle(self, task: Task) -> float:
        """Idle time forced on the computation resource if ``task`` is started now."""
        return max(0.0, self.time + task.comm - self.comp_available)


def resolve_order(
    instance: Instance, order: Sequence[Task] | Sequence[str] | None
) -> list[Task]:
    """Resolve task names to tasks and check the order covers the instance.

    The name lookup is built once and the coverage check is pure set
    arithmetic, so resolving a 10^6-task order costs one pass; the error
    names the exact duplicated, missing and unknown tasks instead of
    leaving the caller to diff two lists.
    """
    if order is None:
        return list(instance.tasks)
    lookup = instance.by_name()
    resolved: list[Task] = []
    for item in order:
        if isinstance(item, Task):
            resolved.append(item)
        else:
            resolved.append(lookup[item])
    names = {t.name for t in resolved}
    if len(resolved) == len(instance) and len(names) == len(resolved) and names == lookup.keys():
        return resolved
    seen: dict[str, int] = {}
    for task in resolved:
        seen[task.name] = seen.get(task.name, 0) + 1
    duplicates = sorted(name for name, count in seen.items() if count > 1)
    missing = sorted(lookup.keys() - seen.keys())
    unknown = sorted(seen.keys() - lookup.keys())
    details = "; ".join(
        f"{label}: {items}"
        for label, items in (
            ("duplicated", duplicates),
            ("missing", missing),
            ("unknown", unknown),
        )
        if items
    )
    raise ValueError(
        "order must contain every instance task exactly once"
        + (f" ({details})" if details else "")
    )


def simulate(
    instance: Instance,
    policy: SelectionPolicy,
    *,
    machine: MachineModel | None = None,
    comp_order: Sequence[Task] | Sequence[str] | None = None,
    record: bool = False,
    engine: str | None = None,
) -> SimulationResult:
    """Run the event-driven kernel on ``instance`` under ``policy``.

    Parameters
    ----------
    policy:
        Chooses the next transfer.  Policies with ``waits_for_memory`` set
        (fixed orders) are asked unconditionally and the kernel waits until
        the chosen task's memory fits; other policies are offered only the
        currently-fitting candidates, and the link idles until the next
        memory release when nothing fits.  A policy may return ``None`` to
        decline every candidate (window/online policies), in which case the
        kernel waits for the next memory release or arrival and asks again.
    machine:
        Resource model (link/processor multiplicity, capacity override).
        Defaults to the paper's machine, under which the kernel matches the
        seed executors byte-for-byte.
    comp_order:
        Explicit computation order (Proposition 1 / MILP post-processing).
        Defaults to the transfer placement order, as in all the paper's
        heuristics.
    record:
        Emit a structured :class:`~repro.simulator.events.EventTrace`.
    engine:
        ``"object"`` (this module's loop), ``"columnar"`` (the array-native
        fast path of :mod:`repro.simulator.columnar`), ``"batched"`` (a
        one-lane :class:`~repro.simulator.batched.BatchedPlane`), or
        ``"auto"``/``None`` (columnar for every supported run, object
        otherwise; the ``REPRO_ENGINE`` environment variable overrides
        auto).  :func:`~repro.simulator.columnar.plan_engine` decides, and
        falls back here when a fast path does not support the
        configuration.  All engines produce float-for-float identical
        schedules; the result's ``engine`` field records which one ran.

    Tasks with a positive :attr:`~repro.core.task.Task.release` date are
    time-gated: they join the ready set only once the clock reaches their
    release (a ``TASK_ARRIVAL`` trace event), the link idles until the next
    arrival when nothing is ready, and a waiting fixed-order policy is
    re-asked whenever an arrival fires before its chosen task's memory fits.
    Offline instances (every release 0) take exactly the historical code
    path and reproduce the seed executors byte-for-byte.

    Raises
    ------
    InfeasibleOrderError
        When a single task exceeds the memory capacity.
    DeadlockError
        When the run blocks under the memory capacity (only possible with an
        explicit ``comp_order``; subclass of :class:`InfeasibleOrderError`).
    """
    if engine != "object":
        # Lazy import: columnar imports this module for the result/error types.
        from .columnar import plan_engine, simulate_columnar

        ran, _ = plan_engine(
            instance, policy, engine=engine, machine=machine, comp_order=comp_order, record=record
        )
        if ran == "batched":
            from .batched import simulate_batched

            run = (instance, policy) if comp_order is None else (instance, policy, comp_order)
            return simulate_batched([run], machine=machine)[0]
        if ran == "columnar":
            return simulate_columnar(
                instance, policy, machine=machine, comp_order=comp_order, record=record
            )
    machine = DEFAULT_MACHINE if machine is None else machine
    capacity = machine.effective_capacity(instance.capacity)
    for task in instance:
        if task.memory > capacity + TOLERANCE:
            raise InfeasibleOrderError(
                f"task {task.name!r} needs {task.memory:g} memory but capacity is {capacity:g}"
            )

    link = machine.build_link()
    cpu = machine.build_cpu()
    ledger = MemoryLedger(capacity)
    pending: dict[str, Task] = {t.name: t for t in instance.tasks if t.release <= 0.0}
    #: Release-dated tasks in (release, submission) order; consumed front to back.
    future: list[Task] = sorted(
        (t for t in instance.tasks if t.release > 0.0), key=lambda t: t.release
    )
    arr_cursor = 0
    events: list[SimEvent] | None = [] if record else None

    comm_start: dict[str, float] = {}
    comm_end: dict[str, float] = {}
    comp_start: dict[str, float] = {}
    placed: list[Task] = []  # transfer placement order
    fixed_comp = comp_order is not None
    comp_sequence: list[Task] = resolve_order(instance, comp_order) if fixed_comp else placed
    comp_cursor = 0
    state = _KernelState({}, comm_start, pending)
    waits = getattr(policy, "waits_for_memory", False)
    traced = _obs.is_enabled()
    run_started = _obs.now() if traced else 0.0
    policy_select_s = 0.0
    if traced:
        _select = policy.select

        def select(candidates, decision_state):
            nonlocal policy_select_s
            started = _obs.now()
            choice = _select(candidates, decision_state)
            policy_select_s += _obs.now() - started
            return choice

    else:
        select = policy.select
    memory_wait = 0.0
    time = 0.0

    def fire_arrivals(now: float) -> None:
        """Move every task released by ``now`` into the ready set."""
        nonlocal arr_cursor
        while arr_cursor < len(future) and future[arr_cursor].release <= now + TOLERANCE:
            task = future[arr_cursor]
            pending[task.name] = task
            if events is not None:
                events.append(SimEvent(task.release, EventKind.TASK_ARRIVAL, task.name))
            arr_cursor += 1
        state.arrivals_fired = arr_cursor

    def next_arrival() -> float | None:
        return future[arr_cursor].release if arr_cursor < len(future) else None

    def advance_to_next_event() -> int:
        """Jump the clock to the next event: 0 none, 1 arrival, 2 release."""
        nonlocal time
        next_release = ledger.next_release()
        arrival = next_arrival()
        if next_release is None and arrival is None:
            return 0
        if next_release is None or (arrival is not None and arrival < next_release):
            time = arrival
            return 1
        time = next_release
        return 2

    def place_enabled_computations() -> None:
        """Book every computation whose turn has come and transfer is placed."""
        nonlocal comp_cursor
        while comp_cursor < len(comp_sequence):
            task = comp_sequence[comp_cursor]
            transfer_end = comm_end.get(task.name)
            if transfer_end is None:
                return
            start, finish = cpu.commit(transfer_end, task.comp)
            comp_start[task.name] = start
            ledger.set_release(task.memory, finish)
            if events is not None:
                events.append(SimEvent(start, EventKind.COMPUTE_START, task.name))
                events.append(SimEvent(finish, EventKind.COMPUTE_END, task.name))
                events.append(
                    SimEvent(finish, EventKind.MEMORY_RELEASE, task.name, -task.memory)
                )
            comp_cursor += 1

    while pending or arr_cursor < len(future):
        now = link.next_free()
        if now > time:
            time = now
        fire_arrivals(time)
        ledger.advance(time)

        if not pending:
            # Link idle, nothing arrived yet: jump to the next release date.
            time = future[arr_cursor].release
            continue

        if waits:
            state.time = time
            state.available_memory = ledger.available
            state.comm_available = now
            state.comp_available = cpu.next_free()
            task = select((), state)
            if task is None:
                if not advance_to_next_event():
                    raise DeadlockError(
                        "deadlock: policy declined to transfer and no memory "
                        "release or arrival is pending"
                    )
                continue
            horizon = next_arrival()
            if horizon is None:
                start_at = ledger.earliest_fit(time, task.memory)
                if not math.isfinite(start_at):
                    raise DeadlockError(f"task {task.name!r} can never acquire its memory")
            else:
                start_at = ledger.earliest_fit_before(time, task.memory, horizon)
                if start_at is None:
                    # An arrival fires before the memory fits: jump there and
                    # let the policy re-rank the grown ready set.
                    time = horizon
                    continue
            # Transfers keep the policy's order: the next decision may not
            # precede this start (with parallel links another link can be
            # free earlier, but the ledger's destructive release walk — and
            # the fixed order itself — require a monotone clock).
            if start_at > time:
                memory_wait += start_at - time
                time = start_at
        else:
            headroom = ledger.headroom()
            candidates = [t for t in pending.values() if t.memory <= headroom]
            if not candidates:
                stalled_at = time
                if not (kind := advance_to_next_event()):
                    raise DeadlockError(
                        "deadlock: no task fits and no memory will be released"
                    )
                if kind == 2:
                    memory_wait += time - stalled_at
                continue
            state.time = time
            state.available_memory = ledger.available
            state.comm_available = now
            state.comp_available = cpu.next_free()
            task = select(candidates, state)
            if task is None:
                if not advance_to_next_event():
                    raise DeadlockError(
                        "deadlock: policy declined every candidate and no "
                        "memory release or arrival is pending"
                    )
                continue
            start_at = time

        if task.name not in pending:  # pragma: no cover - defensive against bad policies
            raise ValueError(
                f"policy selected an unknown, unreleased or already-scheduled task {task.name!r}"
            )
        start, end = link.commit(start_at, task.comm)
        ledger.acquire(task.memory)  # release attached once the computation is placed
        comm_start[task.name] = start
        comm_end[task.name] = end
        del pending[task.name]
        placed.append(task)
        if events is not None:
            events.append(SimEvent(start, EventKind.MEMORY_ACQUIRE, task.name, task.memory))
            events.append(SimEvent(start, EventKind.TRANSFER_START, task.name))
            events.append(SimEvent(end, EventKind.TRANSFER_END, task.name))
        place_enabled_computations()

    place_enabled_computations()
    if comp_cursor < len(comp_sequence):  # pragma: no cover - every transfer is placed
        raise DeadlockError("computation order blocked behind an unplaced transfer")

    schedule = Schedule(
        ScheduledTask(task=t, comm_start=comm_start[t.name], comp_start=comp_start[t.name])
        for t in placed
    )
    stats = KernelStats(
        engine="object",
        tasks=len(placed),
        events=6 * len(placed) + arr_cursor,
        memory_wait_s=memory_wait,
        ledger_ops=2 * len(placed),
        policy_select_s=policy_select_s,
        elapsed_s=(_obs.now() - run_started) if traced else 0.0,
    )
    if traced:
        _obs.record_span(
            "kernel.simulate",
            run_started,
            run_started + stats.elapsed_s,
            engine="object",
            tasks=stats.tasks,
            events=stats.events,
            memory_wait_s=stats.memory_wait_s,
            policy_select_s=stats.policy_select_s,
        )
    return SimulationResult(
        schedule=schedule,
        trace=EventTrace(events) if events is not None else None,
        engine="object",
        stats=stats,
    )
