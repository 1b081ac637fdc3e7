"""Fluent sweep builder: describe an experiment, then ``run()`` it.

A :class:`Study` is the declarative face of the sweep engine::

    results = (
        Study()
        .traces(hf_ensemble(processes=150, traces=6))
        .capacities(1.0, 2.0, steps=11)
        .solvers("category:dynamic", "OOMAMR")
        .parallel()
        .run()
    )
    results.aggregate("ratio_to_optimal", by=("capacity_factor", "heuristic"))

Traces and ensembles sweep ``factor * mc`` capacities; raw instances run at
their own capacity.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Mapping, Sequence

from .. import obs
from ..core.instance import Instance
from ..simulator.arrivals import ArrivalProcess
from ..simulator.resources import MachineModel
from ..traces.model import Trace, TraceEnsemble, TraceStream
from .backends import ExecutionBackend
from .checkpoint import SweepCheckpoint
from .engine import default_jobs, sweep_instances, sweep_traces
from .registry import named_spec
from .results import ResultSet, RunRecord, SpilledResultSet

__all__ = ["Study", "DEFAULT_CAPACITY_FACTORS"]

#: Capacity factors used by the paper: mc to 2 mc in steps of 0.125 mc.
DEFAULT_CAPACITY_FACTORS: tuple[float, ...] = tuple(1.0 + 0.125 * i for i in range(9))


class Study:
    """Mutable builder collecting sweep parameters; every setter returns ``self``."""

    def __init__(self) -> None:
        self._traces: list[Trace | TraceEnsemble] = []
        self._instances: list[Instance] = []
        self._factors: tuple[float, ...] = DEFAULT_CAPACITY_FACTORS
        self._solver_specs: tuple = ()
        self._validate: bool = True
        self._batch_size: int | None = None
        self._pipelined: bool = False
        self._task_limit: int | None = None
        self._n_jobs: int | None = None
        self._backend: "str | ExecutionBackend | None" = None
        self._chunk_size: int | None = None
        self._on_progress: Callable[[int, int], None] | None = None
        self._machine: MachineModel | None = None
        self._arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None" = None
        self._arrival_seed: int = 0
        self._engine: str | None = None
        self._spill: "bool | str | os.PathLike | SpilledResultSet | None" = None
        self._checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None
        self._shard: "str | tuple[int, int] | None" = None
        self._on_records: "Callable[[int, list[RunRecord]], None] | None" = None
        self._trace: "str | os.PathLike | bool | None" = None

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #
    def traces(self, *sources: "Trace | TraceEnsemble | TraceStream | Iterable") -> "Study":
        """Add traces, whole ensembles and/or lazy trace streams to sweep over.

        A :class:`~repro.traces.TraceStream` stays lazy: its traces are
        produced one chunk at a time while the sweep runs, never all at
        once.
        """
        for source in sources:
            if isinstance(source, (Trace, TraceEnsemble, TraceStream)):
                self._traces.append(source)
            else:
                for item in source:
                    if not isinstance(item, (Trace, TraceEnsemble, TraceStream)):
                        raise TypeError(
                            "traces() accepts Trace/TraceEnsemble/TraceStream, "
                            f"got {type(item).__name__}"
                        )
                    self._traces.append(item)
        return self

    def instances(self, *instances: Instance) -> "Study":
        """Add raw instances, evaluated at their own capacity (no factor sweep)."""
        for instance in instances:
            if not isinstance(instance, Instance):
                raise TypeError(f"instances() accepts Instance, got {type(instance).__name__}")
            self._instances.append(instance)
        return self

    # ------------------------------------------------------------------ #
    # Sweep shape
    # ------------------------------------------------------------------ #
    def capacities(self, *factors: float, steps: int | None = None) -> "Study":
        """Capacity factors (multiples of each trace's ``mc``).

        Either an explicit list — ``capacities(1.0, 1.5, 2.0)`` — or an
        inclusive linear range: ``capacities(1.0, 2.0, steps=11)``.
        """
        if steps is not None:
            if len(factors) != 2:
                raise ValueError("capacities(lo, hi, steps=n) takes exactly two bounds")
            if steps < 2:
                raise ValueError("steps must be at least 2")
            lo, hi = factors
            width = (hi - lo) / (steps - 1)
            self._factors = tuple(lo + i * width for i in range(steps))
        elif factors:
            self._factors = tuple(float(f) for f in factors)
        else:
            raise ValueError("capacities() needs at least one factor")
        return self

    def solvers(self, *specs) -> "Study":
        """Solver specs: names, aliases, ``"category:<name>"``, instances, classes.

        Defaults to the paper's full Figure 9/11 line-up when never called.
        """
        self._solver_specs = self._solver_specs + tuple(specs)
        return self

    def portfolio(self, mode: str = "race", **params) -> "Study":
        """Add a portfolio solver to the line-up.

        ``mode`` is ``"race"`` (run K members concurrently, keep the
        virtual best — ``members=``, ``prune=``), ``"select"`` (featurize
        each instance and run the Table 6 match — ``selector=``) or
        ``"cached"`` (memoise an inner solver in the persistent result
        cache — ``inner=``, ``directory=``); ``params`` are forwarded to
        the solver factory.  A *fresh* solver is built per trace job, so
        parallel sweeps never share racing or attribution state.  Composes
        with :meth:`machine` and :meth:`arrivals` like any other solver,
        and fills the ``selected_solver``/``cache_hit`` result columns.
        """
        known = ("race", "select", "cached")
        if mode.lower() not in known:
            raise ValueError(f"unknown portfolio mode {mode!r}; choose from {list(known)}")
        # A named spec, not a closure: it builds the same fresh-per-job
        # solver, but also survives the trip to a process-backend worker.
        self._solver_specs = self._solver_specs + (
            named_spec(f"portfolio.{mode.lower()}", **params),
        )
        return self

    def batched(self, batch_size: int, *, pipelined: bool = False) -> "Study":
        """Use Section 6.3 batched execution with windows of ``batch_size`` tasks.

        ``pipelined=True`` drops the drain barrier between batches: the next
        batch's transfers start as soon as the link and the memory allow.
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self._batch_size = batch_size
        self._pipelined = bool(pipelined)
        return self

    def arrivals(
        self,
        spec: "ArrivalProcess | Mapping[str, float] | Sequence[float]",
        *,
        seed: int = 0,
    ) -> "Study":
        """Run every solver on the streaming runtime under an arrival pattern.

        ``spec`` is an :class:`~repro.simulator.arrivals.ArrivalProcess`
        (e.g. ``PoissonArrivals(load=1.5)``), a ``{task name: date}``
        mapping, or a sequence of dates aligned with the submission order.
        Each trace samples its own arrival pattern (derived from ``seed``
        and the trace label) and reuses it across every capacity factor;
        the online measurement columns (``mean_response_time``,
        ``mean_stretch``, ``avg_queue_length``) are filled in.  Mutually
        exclusive with :meth:`batched`.
        """
        self._arrivals = spec
        self._arrival_seed = int(seed)
        return self

    def task_limit(self, limit: int) -> "Study":
        """Truncate every trace to its first ``limit`` tasks."""
        if limit <= 0:
            raise ValueError("task limit must be positive")
        self._task_limit = limit
        return self

    def machine(self, model: MachineModel) -> "Study":
        """Run every solver on a custom machine model (kernel engine option).

        ``MachineModel(link_count=2)`` sweeps a two-link machine, for
        example.  Only kernel-backed solvers support this; leave the model's
        ``capacity`` unset in capacity sweeps (it would override every swept
        capacity).
        """
        if not isinstance(model, MachineModel):
            raise TypeError(f"machine() accepts MachineModel, got {type(model).__name__}")
        self._machine = model
        return self

    def validate(self, flag: bool = True) -> "Study":
        """Toggle per-schedule feasibility checking (on by default)."""
        self._validate = bool(flag)
        return self

    def engine(self, engine: str) -> "Study":
        """Select the execution engine for every kernel run of the sweep.

        ``"auto"`` runs every row the columnar fast path supports on it,
        whatever the instance size, and the rest on the object kernel;
        ``"columnar"`` requests the per-instance fast path explicitly
        (still falling back to the object kernel when unsupported);
        ``"batched"`` requests the cross-instance plane (lanes that cannot
        batch fall back per instance); ``"object"``
        forces the event kernel.  The engine each run actually used is
        recorded in the ``engine`` result column.  Never calling this is
        the same as ``"auto"``.
        """
        from ..simulator.columnar import _normalise_engine

        # REPRO_ENGINE is resolved when the sweep runs, not stored here.
        self._engine = _normalise_engine(engine, environ=False)
        return self

    def parallel(
        self,
        n_jobs: int | None = None,
        *,
        backend: "str | ExecutionBackend | None" = None,
        chunk_size: int | None = None,
    ) -> "Study":
        """Fan trace jobs out over ``n_jobs`` workers of an execution backend.

        Without ``backend`` (or ``REPRO_BACKEND``), the sweep runs on
        processes whenever its solver specs travel by registered name and
        its machine model and arrivals pickle, and serially otherwise;
        :func:`~repro.api.backends.plan_backend` decides and the reason is
        counted in ``sweep_backend_total``.  ``backend`` is ``"processes"``,
        ``"serial"``, or any :class:`~repro.api.backends.ExecutionBackend`
        instance.  ``n_jobs`` defaults to the CPU count (capped by
        ``REPRO_NUM_JOBS`` and the job count); jobs are sharded into chunks
        of ``chunk_size`` (auto-sized when omitted) to amortize
        inter-process traffic.  Payloads of at least
        :data:`~repro.api.backends.SHM_MIN_TASKS` tasks reach process
        workers through the zero-copy shared-memory job plane.

        Results are byte-identical to the sequential path, including their
        order, whatever the backend, worker count or chunking.
        ``parallel(1)`` switches back to sequential execution.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size!r}")
        self._n_jobs = default_jobs() if n_jobs is None else int(n_jobs)
        self._backend = backend
        self._chunk_size = chunk_size
        return self

    def on_progress(self, callback: Callable[[int, int], None] | None) -> "Study":
        """Report sweep progress: ``callback(completed_jobs, total_jobs)``.

        Called from the submitting thread each time a chunk of
        whole-trace/instance jobs finishes, on every backend (so
        ``completed_jobs`` advances by the chunk size; see ``chunk_size``
        in :meth:`parallel`).  Traces and raw instances are swept as two
        consecutive passes, each reporting its own totals.  Pass ``None``
        to remove a previously set callback.

        Callbacks are guarded: an exception raised inside one is reported
        as a single ``RuntimeWarning`` and the sweep keeps going.  Raising
        :class:`repro.api.StopSweep` is the exception — it deliberately
        aborts the sweep (the serving layer uses it to cancel
        past-deadline sweeps).
        """
        if callback is not None and not callable(callback):
            raise TypeError(f"on_progress() accepts a callable or None, got {callback!r}")
        self._on_progress = callback
        return self

    def spill(self, target: "bool | str | os.PathLike | SpilledResultSet" = True) -> "Study":
        """Stream results into an append-only JSONL spill instead of RAM.

        ``spill()`` uses a temporary file (deleted with the result object),
        ``spill(path)`` a named one you can reload with
        :meth:`ResultSet.from_jsonl`, ``spill(False)`` forces in-memory
        accumulation even above the auto threshold.  Without this call,
        sweeps spill automatically once their estimated output exceeds
        ``REPRO_SPILL_THRESHOLD`` rows (default 100 000).
        """
        self._spill = target
        return self

    def checkpoint(self, directory: "SweepCheckpoint | str | os.PathLike") -> "Study":
        """Record every merged chunk in ``directory``; resume skips them.

        Re-running the same study with the same checkpoint directory loads
        completed chunks from disk instead of executing them — a killed
        sweep loses at most its in-flight window.  Chunks are content-keyed
        from the job plane, so changing the sweep re-runs exactly the
        invalidated chunks.
        """
        self._checkpoint = directory
        return self

    def shard(self, spec: "str | tuple[int, int]") -> "Study":
        """Run one deterministic slice ``"i/N"`` of the job plane.

        ``N`` hosts each running their shard cover every job exactly once;
        combine their outputs with ``repro merge`` (or
        :func:`repro.api.merge_shards_to_result`) into a result
        byte-identical to the unsharded run.
        """
        self._shard = spec
        return self

    def on_records(self, callback: "Callable[[int, list[RunRecord]], None] | None") -> "Study":
        """Observe each job's records as chunks merge, in global job order.

        ``callback(job_index, records)`` fires while the sweep runs — this
        is how the CLI streams CSV rows to stdout and writes shard files.
        Pass ``None`` to remove a previously set callback.
        """
        if callback is not None and not callable(callback):
            raise TypeError(f"on_records() accepts a callable or None, got {callback!r}")
        self._on_records = callback
        return self

    def trace(self, target: "str | os.PathLike | bool" = True) -> "Study":
        """Trace the sweep with :mod:`repro.obs` while it runs.

        ``trace(path)`` writes the spans — including kernel, chunk-lifecycle
        and cache spans shipped back from process-backend workers — to
        ``path`` as a Chrome trace-event file (open it in Perfetto or
        ``chrome://tracing``).  ``trace()`` enables tracing without writing
        a file (read the spans via :func:`repro.obs.export_since`);
        ``trace(False)`` removes a previously set target.  Tracing state is
        restored after :meth:`run`.
        """
        self._trace = target
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> ResultSet:
        """Execute the sweep and return the columnar results.

        Streaming studies (``spill``/auto-spill) return a
        :class:`~repro.api.SpilledResultSet` — same API, rows on disk.
        """
        if self._trace is not None and self._trace is not False:
            target, self._trace = self._trace, None
            try:
                path = None if target is True else target
                with obs.trace_to(path), obs.span("study.run"):
                    return self.run()
            finally:
                self._trace = target
        if not self._traces and not self._instances:
            raise ValueError("Study has nothing to run: add .traces(...) or .instances(...)")
        if (
            self._traces
            and self._instances
            and (
                self._checkpoint is not None
                or self._shard is not None
                or self._on_records is not None
            )
        ):
            raise ValueError(
                "checkpoint/shard/on_records address jobs by their index in a "
                "single job plane; a study mixing traces and raw instances runs "
                "two planes — split it into two studies"
            )
        common = dict(
            solver_specs=self._solver_specs,
            validate=self._validate,
            batch_size=self._batch_size,
            pipelined=self._pipelined,
            n_jobs=self._n_jobs,
            backend=self._backend,
            chunk_size=self._chunk_size,
            on_progress=self._on_progress,
            machine=self._machine,
            arrivals=self._arrivals,
            arrival_seed=self._arrival_seed,
            engine=self._engine,
            checkpoint=self._checkpoint,
            shard=self._shard,
            on_records=self._on_records,
        )
        first: ResultSet | None = None
        if self._traces:
            first = sweep_traces(
                self._traces,
                capacity_factors=self._factors,
                task_limit=self._task_limit,
                spill=self._spill,
                **common,
            )
        if not self._instances:
            return first  # type: ignore[return-value]  (one of the two is set)
        # A spilled trace pass keeps spilling: the instance pass appends to
        # the same file, so the combined result stays bounded in memory.
        instance_spill = first if isinstance(first, SpilledResultSet) else self._spill
        second = sweep_instances(self._instances, spill=instance_spill, **common)
        if first is None or second is first:
            return second
        results = ResultSet()
        results.extend(first)
        results.extend(second)
        return results
