"""``repro.solve`` — one call from instance to schedule + metrics."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .. import obs
from ..core.instance import Instance
from ..core.metrics import OnlineMetrics, ScheduleMetrics, evaluate, evaluate_online
from ..core.schedule import Schedule
from ..core.validation import check_schedule
from ..flowshop.johnson import omim_makespan
from ..simulator.arrivals import ArrivalProcess, resolve_arrivals
from ..obs.stats import KernelStats
from ..simulator.batch import simulate_in_batches
from ..simulator.columnar import _normalise_engine
from ..simulator.events import EventTrace
from ..simulator.resources import MachineModel
from .registry import Solver, get_solver, resolve_solvers

__all__ = ["solve", "SolveResult"]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one :func:`solve` call: the schedule plus its metrics.

    ``trace`` carries the kernel's structured event trace when the call was
    made with ``record_events=True`` (transfer/compute start and end, memory
    acquire/release; idle intervals and overlap are derived views on it).
    ``online`` carries the arrival-aware metrics (response time, stretch,
    queue length) whenever the instance's tasks have release dates.
    ``selected_solver``/``cache_hit`` attribute portfolio runs: the member a
    race or selection actually executed, and whether a cached run was served
    from the store (both ``None`` for plain solvers).
    ``engine`` records which execution engine produced the schedule
    (``"object"`` or ``"columnar"``; ``"mixed"`` when batched windows
    disagree, ``None`` when the run bypassed the kernel entirely).
    ``stats`` carries the kernel's per-run profiling counters
    (:class:`~repro.obs.stats.KernelStats`; ``None`` off-kernel).
    """

    solver: str
    category: str
    instance: Instance
    schedule: Schedule
    metrics: ScheduleMetrics
    trace: EventTrace | None = None
    online: OnlineMetrics | None = None
    selected_solver: str | None = None
    cache_hit: bool | None = None
    engine: str | None = None
    stats: KernelStats | None = None

    @property
    def makespan(self) -> float:
        return self.metrics.makespan

    @property
    def ratio_to_optimal(self) -> float:
        return self.metrics.ratio_to_optimal

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.solver}: makespan {self.makespan:g} "
            f"(ratio to OMIM {self.ratio_to_optimal:.3f})"
        )


def solve(
    instance: Instance,
    method: str | Solver | type = "LCMR",
    *,
    arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None" = None,
    arrival_seed: int = 0,
    batch_size: int | None = None,
    pipelined: bool = False,
    validate: bool = True,
    reference: float | None = None,
    machine: MachineModel | None = None,
    record_events: bool = False,
    engine: str | None = None,
    trace: "str | os.PathLike | None" = None,
    **solver_params,
) -> SolveResult:
    """Schedule ``instance`` with one registered solver and evaluate it.

    Parameters
    ----------
    method:
        A registered solver name or alias (``"OOMAMR"``, ``"lp.4"``), a
        :class:`Solver` instance, or a solver class.  Extra keyword
        arguments are forwarded to the solver factory when ``method`` is a
        name (e.g. ``solve(instance, "lp.4", time_limit_per_window=2.0)``).
    arrivals:
        Streaming execution: release dates to stamp onto the instance — an
        :class:`~repro.simulator.arrivals.ArrivalProcess` (sampled with
        ``arrival_seed``), a ``{task name: date}`` mapping, or a sequence
        aligned with the submission order.  The solver then runs online,
        re-ranking the ready set as tasks arrive; instances whose tasks
        already carry release dates stream automatically.  Mutually
        exclusive with ``batch_size``.
    batch_size:
        Section 6.3 batched execution: apply the solver to successive
        windows of ``batch_size`` tasks instead of the whole instance.
        Runs on the kernel, so it composes with ``machine`` and
        ``record_events`` (solvers that cannot, reject them explicitly).
    pipelined:
        With ``batch_size``: drop the drain barrier between batches — the
        next batch's transfers start as soon as memory frees.
    validate:
        Check the schedule against the memory capacity (and the release
        dates) before returning.
    reference:
        Known OMIM makespan, to skip recomputing Johnson's rule.
    machine:
        :class:`~repro.simulator.resources.MachineModel` engine option:
        parallel transfer links, parallel processing units, or a memory
        capacity override.  Only kernel-backed solvers (all the paper
        heuristics and GGX, but not the MILP wrappers) support it.
    record_events:
        Attach the kernel's structured :class:`EventTrace` to the result
        (kernel-backed solvers only).
    engine:
        Execution engine: ``"auto"`` (default) picks the columnar
        array-native fast path whenever the configuration supports it,
        ``"columnar"`` requests it explicitly (still falling
        back to the object kernel when unsupported — e.g. event recording
        or multi-CPU machines), ``"batched"`` runs the cross-instance
        batch kernel (a single solve is a one-lane plane, float-identical
        to columnar; sweeps stack many lanes), ``"object"`` forces the
        event kernel.  Unknown names raise :class:`ValueError`.
        Kernel-backed solvers only; the chosen engine is recorded on
        :attr:`SolveResult.engine`.
    trace:
        Enable :mod:`repro.obs` tracing for this call and write the spans
        to ``trace`` as a Chrome trace-event file (open it in Perfetto or
        ``chrome://tracing``).  Tracing state is restored afterwards.
    """
    if trace is not None:
        with obs.trace_to(trace), obs.span("solve", method=str(method)):
            return solve(
                instance,
                method,
                arrivals=arrivals,
                arrival_seed=arrival_seed,
                batch_size=batch_size,
                pipelined=pipelined,
                validate=validate,
                reference=reference,
                machine=machine,
                record_events=record_events,
                engine=engine,
                **solver_params,
            )
    _normalise_engine(engine, environ=False)  # unknown names fail before any solver runs
    if isinstance(method, str):
        if method.lower().startswith("category:"):
            raise ValueError(
                "solve() runs a single solver; use Study().solvers"
                f"({method!r}) to run a whole category"
            )
        solver = get_solver(method, **solver_params)
    else:
        if solver_params:
            raise TypeError("solver parameters are only accepted when method is a name")
        (solver,) = resolve_solvers(method)

    if arrivals is not None:
        if batch_size is not None:
            raise ValueError(
                "arrivals and batch_size cannot be combined: streaming "
                "generalises batching — pick one execution mode"
            )
        instance = instance.with_releases(
            resolve_arrivals(arrivals, instance.tasks, seed=arrival_seed)
        )

    trace = None
    ran_engine: str | None = None
    stats: KernelStats | None = None
    if batch_size is not None:
        result = simulate_in_batches(
            instance,
            solver,
            batch_size=batch_size,
            pipelined=pipelined,
            machine=machine,
            record=record_events,
            engine=engine,
        )
        schedule, trace = result.schedule, result.trace
        ran_engine = getattr(result, "engine", None) or None
        stats = getattr(result, "stats", None)
    elif pipelined:
        raise ValueError("pipelined=True requires batch_size")
    elif (
        machine is not None
        or record_events
        or instance.has_releases
        or engine is not None
    ):
        if not hasattr(solver, "simulate"):
            raise ValueError(
                f"solver {solver.name!r} does not run on the simulation kernel"
            )
        result = solver.simulate(
            instance, machine=machine, record=record_events, engine=engine
        )
        schedule, trace = result.schedule, result.trace
        ran_engine = getattr(result, "engine", None) or None
        stats = getattr(result, "stats", None)
    else:
        schedule = solver.schedule(instance)
    if validate:
        check_schedule(schedule, instance, machine=machine)
    reference = omim_makespan(instance) if reference is None else reference
    metrics = evaluate(
        schedule, instance, heuristic=solver.name, reference=reference, trace=trace
    )
    online = evaluate_online(schedule) if instance.has_releases else None
    # Batched runs invoke the solver once per window; last_outcome would
    # describe only the final batch, so no attribution is reported there.
    outcome = getattr(solver, "last_outcome", None) if batch_size is None else None
    return SolveResult(
        solver=solver.name,
        category=str(solver.category),
        instance=instance,
        schedule=schedule,
        metrics=metrics,
        trace=trace,
        online=online,
        selected_solver=outcome.selected if outcome is not None else None,
        cache_hit=outcome.cache_hit if outcome is not None else None,
        engine=ran_engine,
        stats=stats,
    )
