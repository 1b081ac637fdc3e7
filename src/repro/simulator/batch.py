"""Batched execution (Section 6.3 of the paper), on the unified kernel.

Real runtime systems rarely see the whole task stream at once: the scheduler
observes a limited window of independent tasks.  The paper models this by
splitting each trace into batches of 100 tasks, applying a heuristic to each
batch, and executing the batches in succession.  Both batched modes are thin
special cases of the streaming runtime:

* **barrier** (the paper's Section 6.3 semantics) — batch ``k``'s tasks all
  become available when batch ``k-1`` has completely drained both resources.
  After a drain the machine state is exactly "everything free", so the mode
  is realised as one kernel run per batch, shifted to the previous drain
  instant and merged — schedules *and* event traces, on any machine model;
* **pipelined** — no barrier: batch ``k+1``'s transfers start as soon as the
  link and the memory ledger allow, overlapping batch ``k``'s still-running
  computations.  One continuous kernel run under a windowed policy
  (:mod:`repro.simulator.online`).

Pipelined batching never loses to barrier batching for fixed-order
heuristics (the transfer order is identical and every event only moves
earlier); ``benchmarks/bench_online_modes.py`` quantifies the gap.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..core.schedule import Schedule
from .columnar import ColumnarSchedule, _normalise_engine, columnar_view
from .engine import SimulationResult
from .events import EventTrace
from .resources import MachineModel

__all__ = ["simulate_in_batches", "DEFAULT_BATCH_SIZE"]

#: Batch size used in the paper's Section 6.3 experiments.
DEFAULT_BATCH_SIZE = 100


class _ScheduleOnlySolver:
    """Adapter giving a schedule-only solver (``schedule`` but no
    ``simulate``) the solver ``simulate`` surface; kernel options are
    rejected, not ignored."""

    def __init__(self, solver) -> None:
        self._schedule = solver.schedule
        self.name = getattr(solver, "name", type(solver).__name__)

    def simulate(
        self,
        instance: Instance,
        *,
        machine: MachineModel | None = None,
        record: bool = False,
        engine: str | None = None,
    ) -> SimulationResult:
        if _normalise_engine(engine, environ=False) != "auto":
            self._reject("target a specific execution engine")
        if machine is not None:
            self._reject("target a custom machine model")
        if record:
            self._reject("record an event trace")
        return SimulationResult(schedule=self._schedule(instance), trace=None)

    def _reject(self, option: str) -> None:
        raise ValueError(
            f"solver {self.name!r} does not run on the simulation kernel and cannot {option}"
        )


def simulate_in_batches(
    instance: Instance,
    solver,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    pipelined: bool = False,
    machine: MachineModel | None = None,
    record: bool = False,
    engine: str | None = None,
) -> SimulationResult:
    """Run ``solver`` over successive batches of ``batch_size`` tasks.

    ``solver`` is any registered solver / heuristic (its ``simulate`` and
    ``window_policy`` surfaces are used) or a schedule-only solver (barrier
    mode only, without engine options).  ``machine`` and
    ``record`` compose with batching in both modes; solvers that do not run
    on the kernel reject them explicitly instead of silently ignoring them.
    ``engine`` selects the execution engine per window (barrier mode; the
    merged result reports ``"mixed"`` when windows ran on different
    engines) or for the continuous run (pipelined mode).

    ``pipelined=True`` drops the drain barrier: one continuous kernel run in
    which batch ``k+1``'s transfers start as soon as memory frees.
    """
    if batch_size <= 0:
        raise ValueError("batch size must be positive")
    if instance.has_releases:
        raise ValueError(
            "release-dated instances are scheduled by the streaming runtime; "
            "batching and arrivals cannot be combined"
        )
    if hasattr(solver, "simulate"):
        runner = solver
    elif hasattr(solver, "schedule"):  # schedule-only Solver protocol object
        runner = _ScheduleOnlySolver(solver)
    else:
        raise TypeError(f"expected a solver, got {type(solver).__name__}")

    if pipelined:
        return _simulate_pipelined(instance, runner, batch_size, machine, record, engine)
    return _simulate_barrier(instance, runner, batch_size, machine, record, engine)


def _simulate_barrier(
    instance: Instance,
    solver,
    batch_size: int,
    machine: MachineModel | None,
    record: bool,
    engine: str | None,
) -> SimulationResult:
    """One kernel run per batch, each shifted to the previous drain instant.

    When every batch's schedule is drawn from its batch's task tuple, the
    merged schedule is a :class:`ColumnarSchedule` over ``instance.tasks``
    (so a sweep's barrier rows join the block pass), else a plain
    :class:`Schedule`; the placements are the same either way.
    """
    runs: list[tuple[Schedule, float]] = []
    traces: list[EventTrace] = []
    engines: set[str] = set()
    stats = None
    offset = 0.0
    batches = instance.batches(batch_size)
    for batch in batches:
        result = solver.simulate(batch, machine=machine, record=record, engine=engine)
        runs.append((result.schedule, offset))
        batch_engine = getattr(result, "engine", "")
        if batch_engine:
            engines.add(batch_engine)
        batch_stats = getattr(result, "stats", None)
        if batch_stats is not None:
            stats = batch_stats if stats is None else stats.merge(batch_stats)
        if record:
            traces.append(result.trace.shifted(offset, batch.tasks))
        offset += result.schedule.makespan
    if not engines:
        merged_engine = ""
    elif len(engines) == 1:
        merged_engine = next(iter(engines))
    else:
        merged_engine = "mixed"
    return SimulationResult(
        schedule=_merged(instance, batches, runs),
        trace=EventTrace.merged(traces) if record else None,
        engine=merged_engine,
        stats=stats,
    )


def _merged(
    instance: Instance, batches: list[Instance], runs: list[tuple[Schedule, float]]
) -> Schedule:
    """The batches' schedules, each shifted by its offset, as one schedule."""
    sources = [schedule.source_placement() for schedule, _ in runs]
    if not all(
        source is not None and source.tasks is batch.tasks and len(source.placed) == len(batch)
        for source, batch in zip(sources, batches)
    ):
        return Schedule(
            entry for schedule, offset in runs for entry in schedule.shifted(offset).entries
        )
    placed: list[int] = []
    comm_starts: list[float] = []
    comp_starts: list[float] = []
    for source, (_, offset) in zip(sources, runs):
        base = len(comm_starts)
        placed += [base + i for i in source.placed.tolist()]
        # Schedule.shifted's arithmetic, so the placements stay the same.
        comm_starts += [max(0.0, start + offset) for start in source.comm_starts.tolist()]
        comp_starts += [max(0.0, start + offset) for start in source.comp_starts.tolist()]
    view = columnar_view(instance)
    return ColumnarSchedule(
        view.tasks, placed, comm_starts, comp_starts, columns=(view.comm, view.comp, view.memory)
    )


def _simulate_pipelined(
    instance: Instance,
    solver,
    batch_size: int,
    machine: MachineModel | None,
    record: bool,
    engine: str | None,
) -> SimulationResult:
    """One continuous kernel run under the solver's windowed policy."""
    from .engine import simulate  # local import: engine does not import batch

    windows = tuple(tuple(batch.tasks) for batch in instance.batches(batch_size))
    if not windows:
        return SimulationResult(
            schedule=Schedule.empty(), trace=EventTrace(()) if record else None
        )
    factory = getattr(solver, "window_policy", None)
    policy = factory(instance, windows) if factory is not None else None
    if policy is None:
        name = getattr(solver, "name", type(solver).__name__)
        raise ValueError(
            f"solver {name!r} does not support pipelined batched execution "
            "(kernel-backed heuristics only)"
        )
    return simulate(instance, policy, machine=machine, record=record, engine=engine)
