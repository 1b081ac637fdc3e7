"""Schedules for Problem DT.

A schedule assigns to each task a communication start time and a computation
start time.  The communication link processes one transfer at a time, the
processing unit one computation at a time, a task may only compute once its
transfer has completed, and a task holds its memory from the start of its
communication to the end of its computation.

:class:`Schedule` is a value object: it stores the decisions and derives the
makespan, idle times, memory profile and Gantt-chart information.  Validation
(feasibility with respect to a capacity) lives in
:mod:`repro.core.validation`.

Overlap, idle time and the memory profile all come from one O(n log n)
interval sweep (:func:`sweep_intervals`) over numpy columns of start and end
instants.  Every timeline reaches it the same way — a
:class:`Schedule` through :meth:`Schedule.columns`, an array-backed schedule
through its packed columns, the kernel's event trace through its recorded
intervals — and the sweep's sums do not depend on the order of their input,
so the same placements give bit-identical metrics whichever form they come
in.

Schedules drawn from one packed task tuple (a capacity sweep's rows) also
stack into a :class:`PlacementBlock`, whose ``(rows, n)`` matrices run the
same sweep along axis 1 for every row at once, each row with its own
arithmetic; :func:`placement_blocks` groups them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .task import Task

__all__ = [
    "ScheduledTask",
    "Schedule",
    "MemoryEvent",
    "ScheduleColumns",
    "IntervalSweep",
    "SourcePlacement",
    "PlacementBlock",
    "BLOCK_EVENTS",
    "placement_blocks",
    "busy_union",
    "memory_steps",
    "sweep_intervals",
]


@dataclass(frozen=True, slots=True)
class ScheduledTask:
    """Placement of one task on the two resources.

    ``comm_start``/``comm_end`` bound the data transfer on the communication
    link; ``comp_start``/``comp_end`` bound the execution on the processing
    unit.  Memory is held over ``[comm_start, comp_end)``.
    """

    task: Task
    comm_start: float
    comp_start: float

    def __post_init__(self) -> None:
        if self.comm_start < 0 or self.comp_start < 0:
            raise ValueError(f"negative start time for task {self.task.name!r}")
        if self.comp_start + 1e-9 < self.comm_start + self.task.comm:
            raise ValueError(
                f"task {self.task.name!r} starts computing at {self.comp_start} "
                f"before its transfer completes at {self.comm_start + self.task.comm}"
            )

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def comm_end(self) -> float:
        return self.comm_start + self.task.comm

    @property
    def comp_end(self) -> float:
        return self.comp_start + self.task.comp

    @property
    def memory_interval(self) -> tuple[float, float]:
        """Half-open interval during which the task occupies local memory."""
        return (self.comm_start, self.comp_end)

    @property
    def wait_time(self) -> float:
        """Time spent between the end of the transfer and the start of the computation."""
        return self.comp_start - self.comm_end


@dataclass(frozen=True, slots=True)
class MemoryEvent:
    """One step of the piecewise-constant memory-occupation profile."""

    time: float
    usage: float


_NO_TIMES = np.empty(0, dtype=np.float64)


def _instant_ends(times: np.ndarray) -> np.ndarray:
    """Mask of the last position of each run of equal values in sorted ``times``."""
    last = np.empty(len(times), dtype=bool)
    np.not_equal(times[1:], times[:-1], out=last[:-1])
    last[-1] = True
    return last


def _block_bounds(opens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last positions of the blocks that ``opens`` marks."""
    first = np.flatnonzero(opens)
    return first, np.append(first[1:] - 1, len(opens) - 1)


def busy_union(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of the half-open intervals ``[starts, ends)`` as disjoint blocks.

    Returns the blocks' start and end instants in time order.  Empty
    intervals are dropped and touching intervals merge, so a resource with
    parallel servers counts as busy wherever at least one server is.
    """
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if not len(starts):
        return _NO_TIMES, _NO_TIMES
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    opens = np.empty(len(starts), dtype=bool)
    opens[0] = True
    np.greater(starts[1:], reach[:-1], out=opens[1:])
    first, last = _block_bounds(opens)
    return starts[first], reach[last]


def _idle_time(block_starts: np.ndarray, block_ends: np.ndarray, makespan: float) -> float:
    """Length of ``[0, makespan]`` not covered by the busy blocks."""
    gaps = np.concatenate((block_starts, (makespan,))) - np.concatenate(((0.0,), block_ends))
    return math.fsum(gaps[gaps > 0].tolist())


def _overlap_time(
    comm: tuple[np.ndarray, np.ndarray], comp: tuple[np.ndarray, np.ndarray]
) -> float:
    """Length of the time during which both resources are busy.

    A sweep line counts busy resources after every breakpoint; each segment
    up to the next breakpoint with both busy adds its length.
    """
    bounds = (*comm, *comp)
    times = np.concatenate(bounds)
    if not len(times):
        return 0.0
    steps = np.repeat(np.array([1, -1, 1, -1]), [len(b) for b in bounds])
    order = np.argsort(times, kind="stable")
    times = times[order]
    last = _instant_ends(times)
    instants = times[last]
    busy = np.cumsum(steps[order])[last]
    segments = (instants[1:] - instants[:-1])[busy[:-1] == 2]
    return math.fsum(segments.tolist())


def memory_steps(times: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant memory occupation from acquire/release events.

    ``deltas[i]`` is added at ``times[i]`` (positive on acquire, negative on
    release).  Returns ``(instants, usage)``: the usage between
    ``instants[k]`` and ``instants[k+1]`` equals ``usage[k]``.

    Events are applied in ``(time, delta)`` order, so the running sums do
    not depend on the input order.  A usage in ``(-1e-9, 0)`` after an
    instant is float residue and clamps to zero.  Instants closer than a
    small tolerance to the first instant of their group merge into it (with
    the usage after the group's last instant), so floating-point noise from
    numerical solvers does not create spurious zero-length usage spikes.
    """
    if not len(times):
        return _NO_TIMES, _NO_TIMES
    order = np.lexsort((deltas, times))
    times, deltas = times[order], deltas[order]
    ends = np.flatnonzero(_instant_ends(times))
    instants = times[ends]
    usage = _clamped(deltas, ends, np.cumsum(deltas)[ends])
    # The kernel treats a release due within 1e-9 of an instant as
    # already free, so a transfer may start up to 1e-9 (plus float
    # representation error, bounded by 1e-12 * horizon) before the
    # releasing computation ends; breakpoints that close are one instant.
    tolerance = 1e-9 + 1e-12 * float(np.abs(instants).max())
    if not ((instants[1:] - instants[:-1]) <= tolerance).any():
        return instants, usage
    opens = []
    anchor = -math.inf
    for time in instants.tolist():
        opens.append(time - anchor > tolerance)
        if opens[-1]:
            anchor = time
    first, last_of_group = _block_bounds(np.array(opens))
    return instants[first], usage[last_of_group]


def _clamped(deltas: np.ndarray, ends: np.ndarray, usage: np.ndarray) -> np.ndarray:
    """Clamp each instant's usage in ``(-1e-9, 0)`` to zero and restart the
    running sum there.

    ``usage[k]`` is the running sum of ``deltas`` up to position ``ends[k]``;
    residue is rare (typically once, at the last instant), so each clamp
    re-sums only the tail after it.
    """
    k = -1
    while True:
        tail = usage[k + 1 :]
        hits = np.flatnonzero((tail > -1e-9) & (tail < 0))
        if not len(hits):
            return usage
        k += 1 + int(hits[0])
        usage[k] = 0.0
        usage[k + 1 :] = np.cumsum(deltas[ends[k] + 1 :])[ends[k + 1 :] - ends[k] - 1]


@dataclass(frozen=True, slots=True)
class IntervalSweep:
    """The aggregates :func:`sweep_intervals` derives from one timeline."""

    overlap_time: float
    communication_idle: float
    computation_idle: float
    peak_memory: float


def sweep_intervals(
    comm_start: np.ndarray,
    comm_end: np.ndarray,
    comp_start: np.ndarray,
    comp_end: np.ndarray,
    memory_times: np.ndarray,
    memory_deltas: np.ndarray,
) -> IntervalSweep:
    """Overlap, idle times and peak memory of one timeline, in O(n log n).

    Idle time is the part of ``[0, makespan]`` outside the union of a
    resource's busy intervals, so it stays non-negative on machines with
    several links or processing units.  The overlap and idle sums are
    exactly rounded (``math.fsum``) over segment sets, and the memory
    running sum follows a fixed event order, so no result depends on the
    order of the input.
    """
    makespan = max(
        (float(ends.max()) for ends in (comm_end, comp_end) if len(ends)), default=0.0
    )
    comm = busy_union(comm_start, comm_end)
    comp = busy_union(comp_start, comp_end)
    _, usage = memory_steps(memory_times, memory_deltas)
    return IntervalSweep(
        overlap_time=_overlap_time(comm, comp),
        communication_idle=_idle_time(*comm, makespan),
        computation_idle=_idle_time(*comp, makespan),
        peak_memory=float(usage.max()) if len(usage) else 0.0,
    )


#: Memory events (two per task and row) one :class:`PlacementBlock` stacks.
#: A block's temporaries take about 160 bytes per event, so a block stays
#: near 1.3 MiB whatever the trace: a 25-task capacity sweep (9 factors x 14
#: solvers, 6300 events) is one block, 529- and 1000-task sweeps run seven
#: and four rows at a time.
BLOCK_EVENTS = 8192


class SourcePlacement(NamedTuple):
    """A schedule's placements over the packed task tuple they came from."""

    #: The packed task tuple.
    tasks: tuple[Task, ...]
    #: ``(comm, comp, memory)`` of every task, in task order.
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: Task indices in placement order.
    placed: np.ndarray
    #: Transfer and computation start of every task, in task order.
    comm_starts: np.ndarray
    comp_starts: np.ndarray


def placement_blocks(
    schedules: Sequence["Schedule | None"],
) -> Iterator[tuple[list[int], "PlacementBlock"]]:
    """Stack the schedules drawn from a packed task tuple into blocks.

    Yields ``(rows, block)``: ``block`` stacks the schedules at positions
    ``rows``, all drawn from one task tuple, at most :data:`BLOCK_EVENTS`
    memory events at a time.  Free-standing schedules (and ``None``) are
    left out; so are empty tuples and placements of another length.
    """
    groups: dict[int, list[tuple[int, SourcePlacement]]] = {}
    for row, schedule in enumerate(schedules):
        source = None if schedule is None else schedule.source_placement()
        if source is None or not source.tasks or not all(
            len(column) == len(source.tasks)
            for column in (source.placed, source.comm_starts, source.comp_starts)
        ):
            continue
        groups.setdefault(id(source.tasks), []).append((row, source))
    for members in groups.values():
        size = max(1, BLOCK_EVENTS // (2 * len(members[0][1].tasks)))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            yield [row for row, _ in chunk], PlacementBlock([source for _, source in chunk])


class PlacementBlock:
    """Schedules of one task tuple stacked as ``(rows, n)`` matrices.

    Row ``r`` holds the ``r``-th schedule's columns in its placement order,
    exactly as :meth:`Schedule.columns` gives them, so each axis-1 operation
    runs the same sequence of float operations on each row as the 1-D sweep
    does on that schedule: the sorts put each row's events in the 1-D
    sweep's order, ``cumsum`` and ``maximum.accumulate`` are sequential
    along the axis, masked-out slots hold ``+inf`` with step 0, and each
    row's idle and overlap sums stay ``math.fsum`` over that row's own
    segments.
    """

    __slots__ = (
        "tasks",
        "task_columns",
        "complete",
        "comm_start",
        "comm",
        "comm_end",
        "comp_start",
        "comp",
        "comp_end",
        "memory",
    )

    def __init__(self, sources: Sequence[SourcePlacement]) -> None:
        self.tasks = sources[0].tasks
        self.task_columns = sources[0].columns
        placed = np.array([source.placed for source in sources], dtype=np.intp)
        every = np.arange(placed.shape[1])
        #: Rows whose placement lists every task exactly once; the others
        #: decide nothing and gather in task order.
        self.complete = (np.sort(placed, axis=1) == every).all(axis=1)
        placed[~self.complete] = every
        comm, comp, memory = self.task_columns
        self.comm_start, self.comp_start = _gather(
            placed,
            np.array([source.comm_starts for source in sources], dtype=np.float64),
            np.array([source.comp_starts for source in sources], dtype=np.float64),
        )
        self.comm, self.comp, self.memory = comm[placed], comp[placed], memory[placed]
        self.comm_end = self.comm_start + self.comm
        self.comp_end = self.comp_start + self.comp

    def __len__(self) -> int:
        return len(self.complete)

    def memory_profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every row's :func:`memory_steps`, before merging: ``(times, usage,
        ends, decided)``.

        ``times`` are the row's sorted event instants and ``usage`` the
        running sum after each event; ``ends`` marks the last event of each
        instant, where ``usage`` is the instant's step.  Residue at a row's
        last instant is clamped to zero as :func:`memory_steps` does.
        ``decided`` is false for a row whose steps this cannot give: an
        incomplete placement, a non-finite instant, residue before the last
        instant (the 1-D sweep re-sums after it), or instants within the
        merge tolerance.
        """
        # Releases first: a stable sort by time alone then orders each
        # instant's events by delta wherever its deltas are distinct, and
        # each half is nearly sorted already, which the stable sort merges
        # in linear time.  Rows with an instant where it does not (equal
        # deltas, or two releases or acquires out of order) take the
        # lexsort of the 1-D sweep.
        times = np.concatenate((self.comp_end, self.comm_start), axis=1)
        deltas = np.concatenate((-self.memory, self.memory), axis=1)
        times, deltas = _gather(np.argsort(times, axis=1, kind="stable"), times, deltas)
        ties = times[:, 1:] == times[:, :-1]
        resort = np.flatnonzero((ties & (deltas[:, 1:] <= deltas[:, :-1])).any(axis=1))
        if len(resort):
            times[resort], deltas[resort] = _lexsorted(
                np.concatenate((self.comm_start[resort], self.comp_end[resort]), axis=1),
                np.concatenate((self.memory[resort], -self.memory[resort]), axis=1),
            )
        usage = np.cumsum(deltas, axis=1)
        ends = np.empty(times.shape, dtype=bool)
        np.not_equal(times[:, 1:], times[:, :-1], out=ends[:, :-1])
        ends[:, -1] = True
        residue = ends & (usage > -1e-9) & (usage < 0)
        usage[residue[:, -1], -1] = 0.0
        with np.errstate(invalid="ignore"):
            gaps = times[:, 1:] - times[:, :-1]
            tolerance = 1e-9 + 1e-12 * np.abs(times).max(axis=1)
        close = ((gaps > 0) & (gaps <= tolerance[:, None])).any(axis=1)
        decided = (
            self.complete
            & np.isfinite(times).all(axis=1)
            & ~residue[:, :-1].any(axis=1)
            & ~close
        )
        return times, usage, ends, decided

    def makespans(self) -> np.ndarray:
        """Every row's makespan, as :attr:`Schedule.makespan` computes it."""
        return np.maximum(self.comm_end.max(axis=1), self.comp_end.max(axis=1))

    def interval_sweeps(self) -> list[IntervalSweep | None]:
        """Every row's :func:`sweep_intervals`, bit for bit; ``None`` for
        the rows :meth:`memory_profile` does not decide."""
        _, usage, ends, decided = self.memory_profile()
        peaks = np.where(ends, usage, -np.inf).max(axis=1)
        makespans = self.makespans()
        comm = _busy_blocks(self.comm_start, self.comm_end)
        comp = _busy_blocks(self.comp_start, self.comp_end)
        with np.errstate(invalid="ignore"):
            overlaps = _row_fsums(*_overlap_segments(comm, comp))
            comm_idle = _row_fsums(_idle_gaps(comm, makespans))
            comp_idle = _row_fsums(_idle_gaps(comp, makespans))
        return [
            IntervalSweep(overlap, idle_comm, idle_comp, peak) if ok else None
            for overlap, idle_comm, idle_comp, peak, ok in zip(
                overlaps, comm_idle, comp_idle, peaks.tolist(), decided.tolist()
            )
        ]


def _lexsorted(times: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's events in :func:`memory_steps`'s ``(time, delta)`` order."""
    return tuple(_gather(np.lexsort((deltas, times), axis=1), times, deltas))


def _gather(order: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    """``np.take_along_axis(column, order, 1)`` of equally shaped columns,
    through one flat index."""
    index = order + (np.arange(len(order)) * columns[0].shape[1])[:, None]
    return [np.take(column, index) for column in columns]


def _busy_blocks(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's :func:`busy_union`: its blocks' starts and ends in time
    order, padded with ``+inf`` to the widest row."""
    keep = ends > starts
    starts = np.where(keep, starts, np.inf)
    starts, ends = _gather(
        np.argsort(starts, axis=1, kind="stable"), starts, np.where(keep, ends, np.inf)
    )
    reach = np.maximum.accumulate(ends, axis=1)
    valid = starts < np.inf
    opens = valid.copy()
    opens[:, 1:] &= starts[:, 1:] > reach[:, :-1]
    closes = valid.copy()
    closes[:, :-1] &= opens[:, 1:] | ~valid[:, 1:]
    width = int(opens.sum(axis=1).max())
    return _leading(np.where(opens, starts, np.inf), opens, width), _leading(
        np.where(closes, reach, np.inf), closes, width
    )


def _leading(values: np.ndarray, mask: np.ndarray, width: int) -> np.ndarray:
    """Each row's ``values`` where ``mask``, in order, in its first columns."""
    (leading,) = _gather(np.argsort(~mask, axis=1, kind="stable")[:, :width], values)
    return leading


def _idle_gaps(blocks, makespans: np.ndarray) -> np.ndarray:
    """:func:`_idle_time`'s gaps per row: before each block, and after the
    last one up to the makespan (the padding gives ``-inf``)."""
    starts, ends = blocks
    rows = len(starts)
    upper = np.concatenate((starts, np.full((rows, 1), np.inf)), axis=1)
    upper = np.where(upper < np.inf, upper, makespans[:, None])
    return upper - np.concatenate((np.zeros((rows, 1)), ends), axis=1)


def _overlap_segments(comm, comp) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_overlap_time`'s segments per row: between consecutive
    breakpoints of both resources' blocks, where both are busy."""
    bounds = (*comm, *comp)
    times = np.concatenate(bounds, axis=1)
    steps = np.concatenate(
        [np.where(b < np.inf, step, 0) for b, step in zip(bounds, (1, -1, 1, -1))], axis=1
    )
    # Each of the four parts is sorted, so the stable sort merges runs.
    times, steps = _gather(np.argsort(times, axis=1, kind="stable"), times, steps)
    busy = np.cumsum(steps, axis=1)
    return times[:, 1:] - times[:, :-1], busy[:, :-1] == 2


def _row_fsums(values: np.ndarray, mask: np.ndarray | bool = True) -> list[float]:
    """Per row, ``math.fsum`` of the positive ``values`` where ``mask``."""
    mask = mask & (values > 0)
    flat = values[mask].tolist()
    sums = []
    start = 0
    for count in mask.sum(axis=1).tolist():
        sums.append(math.fsum(flat[start : start + count]))
        start += count
    return sums


@dataclass(frozen=True, slots=True)
class ScheduleColumns:
    """A schedule's placements as numpy columns, one row per entry."""

    comm_start: np.ndarray
    comm: np.ndarray
    comm_end: np.ndarray
    comp_start: np.ndarray
    comp: np.ndarray
    comp_end: np.ndarray
    memory: np.ndarray

    def memory_events(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, deltas)``: acquire at transfer start, release at computation end."""
        return (
            np.concatenate((self.comm_start, self.comp_end)),
            np.concatenate((self.memory, -self.memory)),
        )


class Schedule:
    """An ordered collection of :class:`ScheduledTask` placements."""

    __slots__ = ("_entries", "_by_name")

    def __init__(self, entries: Iterable[ScheduledTask]):
        entries = tuple(entries)
        by_name: dict[str, ScheduledTask] = {}
        for entry in entries:
            if entry.name in by_name:
                raise ValueError(f"task {entry.name!r} scheduled twice")
            by_name[entry.name] = entry
        self._entries = entries
        self._by_name = by_name

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries)

    def __getitem__(self, key: int | str) -> ScheduledTask:
        if isinstance(key, str):
            return self._by_name[key]
        return self._entries[key]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{e.name}@(comm={e.comm_start:g}, comp={e.comp_start:g})" for e in self._entries
        )
        return f"Schedule({parts})"

    @property
    def entries(self) -> tuple[ScheduledTask, ...]:
        return self._entries

    @property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(e.task for e in self._entries)

    def entry(self, name: str) -> ScheduledTask:
        return self._by_name[name]

    # ------------------------------------------------------------------ #
    # Orders
    # ------------------------------------------------------------------ #
    def communication_order(self) -> list[str]:
        """Task names sorted by communication start time (ties: comp start, name)."""
        return [
            e.name
            for e in sorted(self._entries, key=lambda e: (e.comm_start, e.comp_start, e.name))
        ]

    def computation_order(self) -> list[str]:
        """Task names sorted by computation start time (ties: comm start, name)."""
        return [
            e.name
            for e in sorted(self._entries, key=lambda e: (e.comp_start, e.comm_start, e.name))
        ]

    def is_permutation_schedule(self) -> bool:
        """True when communication and computation follow the same order.

        All heuristics of the paper (Section 4, except the MILP) produce
        permutation schedules; Proposition 1 shows optimal schedules need not be.
        """
        return self.communication_order() == self.computation_order()

    # ------------------------------------------------------------------ #
    # Aggregate metrics
    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        """Completion time of the last event on either resource."""
        if not self._entries:
            return 0.0
        return max(max(e.comp_end, e.comm_end) for e in self._entries)

    @property
    def communication_busy_time(self) -> float:
        # fsum: exact, so every engine's schedule of the same placements
        # reports the same busy time whatever order it sums in.
        return math.fsum(e.task.comm for e in self._entries)

    @property
    def computation_busy_time(self) -> float:
        return math.fsum(e.task.comp for e in self._entries)

    def columns(self) -> ScheduleColumns:
        """The placements as numpy columns (entry order)."""
        rows = np.array(
            [
                (e.comm_start, e.task.comm, e.comp_start, e.task.comp, e.task.memory)
                for e in self._entries
            ],
            dtype=np.float64,
        ).reshape(-1, 5)
        comm_start, comm, comp_start, comp, memory = rows.T
        return ScheduleColumns(
            comm_start=comm_start,
            comm=comm,
            comm_end=comm_start + comm,
            comp_start=comp_start,
            comp=comp,
            comp_end=comp_start + comp,
            memory=memory,
        )

    def source_placement(self) -> "SourcePlacement | None":
        """The placements over the packed task tuple they were drawn from;
        ``None`` for free-standing rows."""
        return None

    def interval_sweep(self) -> IntervalSweep:
        """Overlap, idle times and peak memory from one interval sweep."""
        c = self.columns()
        return sweep_intervals(
            c.comm_start, c.comm_end, c.comp_start, c.comp_end, *c.memory_events()
        )

    def communication_idle_time(self) -> float:
        """Time within ``[0, makespan]`` during which no transfer runs."""
        return self.interval_sweep().communication_idle

    def computation_idle_time(self) -> float:
        """Time within ``[0, makespan]`` during which no computation runs."""
        return self.interval_sweep().computation_idle

    def overlap_time(self) -> float:
        """Total time during which the link and the processor are both busy."""
        return self.interval_sweep().overlap_time

    # ------------------------------------------------------------------ #
    # Memory profile
    # ------------------------------------------------------------------ #
    def memory_profile(self) -> list[MemoryEvent]:
        """Piecewise-constant memory occupation sampled at every breakpoint.

        Returns a list of :class:`MemoryEvent` such that the usage between
        ``events[i].time`` and ``events[i+1].time`` equals ``events[i].usage``
        (see :func:`memory_steps` for the merging of nearby breakpoints).
        """
        instants, usage = memory_steps(*self.columns().memory_events())
        return [
            MemoryEvent(time=time, usage=held)
            for time, held in zip(instants.tolist(), usage.tolist())
        ]

    def peak_memory(self) -> float:
        """Largest simultaneous memory occupation over the whole schedule."""
        return self.interval_sweep().peak_memory

    def memory_usage_at(self, time: float) -> float:
        """Memory occupied at instant ``time`` (half-open interval convention)."""
        return float(
            sum(
                e.task.memory
                for e in self._entries
                if e.comm_start <= time < e.comp_end
            )
        )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def restricted_to(self, names: Sequence[str]) -> "Schedule":
        """Sub-schedule containing only the named tasks (times unchanged)."""
        names_set = set(names)
        return Schedule(e for e in self._entries if e.name in names_set)

    def shifted(self, offset: float) -> "Schedule":
        """Schedule translated in time by ``offset`` (used by batch execution)."""
        if offset < 0 and any(
            e.comm_start + offset < -1e-12 or e.comp_start + offset < -1e-12
            for e in self._entries
        ):
            raise ValueError("shift would move a task before time zero")
        return Schedule(
            ScheduledTask(
                task=e.task,
                comm_start=max(0.0, e.comm_start + offset),
                comp_start=max(0.0, e.comp_start + offset),
            )
            for e in self._entries
        )

    def concatenated(self, other: "Schedule") -> "Schedule":
        """Append ``other`` after this schedule, shifting it by this makespan."""
        shifted = other.shifted(self.makespan)
        return Schedule(list(self._entries) + list(shifted.entries))

    def as_dict(self) -> Mapping[str, tuple[float, float]]:
        """``{task name: (comm_start, comp_start)}`` mapping (for serialisation)."""
        return {e.name: (e.comm_start, e.comp_start) for e in self._entries}

    @classmethod
    def from_dict(
        cls, tasks: Iterable[Task], placements: Mapping[str, tuple[float, float]]
    ) -> "Schedule":
        """Inverse of :meth:`as_dict`."""
        entries = []
        for task in tasks:
            comm_start, comp_start = placements[task.name]
            entries.append(ScheduledTask(task=task, comm_start=comm_start, comp_start=comp_start))
        return cls(entries)

    @classmethod
    def empty(cls) -> "Schedule":
        return cls(())
