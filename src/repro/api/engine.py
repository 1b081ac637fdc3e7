"""Sweep engine: run registered solvers over instances, traces and ensembles.

This is the machinery underneath :func:`repro.solve` and
:class:`repro.api.Study`.  The unit of work is one :class:`SweepJob` — one
trace (the OMIM reference is computed exactly once and shared by every
capacity factor) or one raw instance — described entirely by plain data, so
jobs run unchanged on any :mod:`~repro.api.backends` executor: in the
calling thread, on a process pool, or on the serving daemon's shared pool.
Backends preserve submission order and jobs are deterministic, so every
backend produces a byte-identical :class:`~repro.api.results.ResultSet`.
"""

from __future__ import annotations

import math
import os
import tempfile
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .. import obs
from ..core.instance import Instance
from ..core.metrics import evaluate, evaluate_online
from ..core.validation import check_schedule
from ..flowshop.johnson import omim_makespan
from ..simulator.arrivals import ArrivalProcess, resolve_arrivals
from ..simulator.batch import simulate_in_batches
from ..simulator.batched import simulate_batched_outcomes
from ..simulator.columnar import _normalise_engine, plan_engine
from ..simulator.policies import FixedOrderPolicy
from ..simulator.resources import MachineModel
from ..traces.model import Trace, TraceEnsemble, TraceStream
from .backends import (
    _CHUNKS_PER_WORKER,
    ExecutionBackend,
    _effective_workers,
    auto_chunk_size,
    guard_progress,
    plan_backend,
)
from .checkpoint import SweepCheckpoint, chunk_key
from .registry import Solver, resolve_solvers, solver_names, spec_to_wire, wire_to_spec
from .results import ResultSet, RunRecord, SpilledResultSet
from .sharding import parse_shard
from .shm import ShmHandle, ShmPlane, attach_payload

__all__ = [
    "run_solvers_on_instance",
    "sweep_traces",
    "sweep_instances",
    "default_jobs",
    "SweepJob",
    "SPILL_THRESHOLD_ENV_VAR",
    "DEFAULT_SPILL_THRESHOLD",
]

#: Application label used when an instance carries no name at all.
ADHOC_APPLICATION = "adhoc"

#: Environment variable capping the default worker count (CI, containers,
#: nested parallelism inside process-backend workers).
NUM_JOBS_ENV_VAR = "REPRO_NUM_JOBS"

#: Environment variable overriding the row count above which sweeps spill
#: their results to disk automatically (``spill=None``).
SPILL_THRESHOLD_ENV_VAR = "REPRO_SPILL_THRESHOLD"

#: Default auto-spill threshold: sweeps whose estimated output exceeds this
#: many rows stream their results into a temporary JSONL spill instead of
#: accumulating everything in RAM.
DEFAULT_SPILL_THRESHOLD = 100_000

#: Chunk size used when the job plane is unsized (a raw generator) and the
#: caller did not pass ``chunk_size``.
_UNSIZED_CHUNK_SIZE = 8
#: Largest auto-selected chunk: in-flight memory is
#: O(workers * chunks-per-worker * chunk size), so the auto size must not
#: scale with the plane.  Explicit ``chunk_size=`` still wins.
_STREAM_MAX_CHUNK = 8


def default_jobs(job_count: int | None = None) -> int:
    """Worker count used by ``parallel()``/pool backends when none is given.

    ``REPRO_NUM_JOBS`` overrides the CPU count (so CI boxes and the workers
    of a process-backend sweep — which export it — don't oversubscribe), and
    the result is additionally capped at ``job_count`` when the caller knows
    how many jobs there are: more workers than jobs only cost start-up time.
    """
    override = os.environ.get(NUM_JOBS_ENV_VAR, "").strip()
    if override:
        try:
            jobs = int(override)
        except ValueError:
            raise ValueError(
                f"{NUM_JOBS_ENV_VAR} must be an integer, got {override!r}"
            ) from None
        jobs = max(jobs, 1)
    else:
        jobs = max(os.cpu_count() or 1, 1)
    if job_count is not None:
        jobs = min(jobs, max(int(job_count), 1))
    return jobs


def _arrival_seed(seed: int, label: str) -> list[int]:
    """Deterministic per-trace arrival RNG seed, stable across processes.

    Every capacity factor of one trace reuses the same arrival pattern; two
    traces of one sweep get independent patterns.
    """
    return [seed, zlib.crc32(label.encode("utf-8"))]


def run_solvers_on_instance(
    instance: Instance,
    solvers: Sequence[Solver],
    *,
    reference: float | None = None,
    validate: bool = True,
    application: str = "",
    capacity_factor: float = float("nan"),
    batch_size: int | None = None,
    pipelined: bool = False,
    machine: MachineModel | None = None,
    engine: str | None = None,
    precomputed: "Mapping[int, object] | None" = None,
) -> list[RunRecord]:
    """Run every solver on one instance and return the measurements.

    ``batch_size`` switches to the Section 6.3 batched execution mode, where
    a solver is applied to successive windows of the submission order
    (``pipelined=True`` drops the drain barrier between windows); instances
    whose tasks carry release dates run on the streaming runtime and fill
    the online measurement columns.  ``machine`` selects a custom machine
    model (kernel-backed solvers only).  ``engine`` is the kernel engine
    request (``None`` means ``"auto"``, which
    :func:`~repro.simulator.columnar.plan_engine` resolves per run); no
    events are recorded, since each row's metrics come from one interval
    sweep over its schedule, and a feasible array-engine schedule is
    validated and measured on its columns without building row objects.

    ``precomputed`` maps solver indices to simulation outcomes computed
    ahead of this call (the sweep's cross-instance batch plane); captured
    kernel errors re-raise at the solver's own slot, so the failure order
    matches the per-instance path exactly.
    """
    reference = omim_makespan(instance) if reference is None else reference
    application = application or instance.name.split("/")[0] or ADHOC_APPLICATION
    online = instance.has_releases
    _normalise_engine(engine)  # unknown names fail before any solver runs
    traced = obs.is_enabled()
    records = []
    for index, solver in enumerate(solvers):
        result = precomputed.get(index) if precomputed is not None else None
        if isinstance(result, BaseException):
            raise result
        if result is None and batch_size is not None:
            with obs.span("solver.run", solver=solver.name) if traced else obs.NOOP_SPAN:
                result = simulate_in_batches(
                    instance,
                    solver,
                    batch_size=batch_size,
                    pipelined=pipelined,
                    machine=machine,
                    engine=engine,
                )
        elif result is None and hasattr(solver, "simulate"):
            with obs.span("solver.run", solver=solver.name) if traced else obs.NOOP_SPAN:
                result = solver.simulate(instance, machine=machine, engine=engine)
        elif result is None and machine is not None:
            raise ValueError(f"solver {solver.name!r} does not run on the simulation kernel")
        schedule = solver.schedule(instance) if result is None else result.schedule
        ran_engine = getattr(result, "engine", "")
        stats = getattr(result, "stats", None)
        if validate:
            check_schedule(schedule, instance, machine=machine)
        metrics = evaluate(schedule, instance, heuristic=solver.name, reference=reference)
        online_metrics = evaluate_online(schedule) if online else None
        # Batched execution runs the solver once per window, so last_outcome
        # only describes the final batch — leave the attribution columns
        # empty rather than recording a misleading partial answer.
        outcome = getattr(solver, "last_outcome", None) if batch_size is None else None
        records.append(
            RunRecord(
                application=application,
                trace=instance.name,
                heuristic=solver.name,
                category=str(solver.category),
                capacity_factor=capacity_factor,
                capacity=instance.capacity,
                makespan=metrics.makespan,
                omim=metrics.omim,
                ratio_to_optimal=metrics.ratio_to_optimal,
                task_count=len(instance),
                mean_response_time=(
                    online_metrics.mean_response_time if online_metrics else math.nan
                ),
                mean_stretch=online_metrics.mean_stretch if online_metrics else math.nan,
                avg_queue_length=(
                    online_metrics.avg_queue_length if online_metrics else math.nan
                ),
                selected_solver=outcome.selected if outcome is not None else "",
                cache_hit=(
                    math.nan
                    if outcome is None or outcome.cache_hit is None
                    else float(outcome.cache_hit)
                ),
                engine=ran_engine or "",
                kernel_events=stats.events if stats is not None else 0,
                memory_wait_s=stats.memory_wait_s if stats is not None else math.nan,
            )
        )
    return records


def _lane_policy(solver, instance: Instance):
    """The :class:`FixedOrderPolicy` this solver would run, when lane-able.

    A solver joins a batch lane only when its run is *exactly* a fixed-order
    kernel simulation: a stock :class:`~repro.heuristics.base.Heuristic`
    (no ``simulate`` override that could add behaviour), kernel-backed, and
    its policy is literally ``FixedOrderPolicy`` — dynamic/corrected
    policies re-rank at runtime and stay per-instance.  Returns ``None``
    otherwise; the solver then runs on the regular dispatch.
    """
    from ..heuristics.base import Heuristic

    if not isinstance(solver, Heuristic):
        return None
    if type(solver).simulate is not Heuristic.simulate:
        return None
    if not solver.runs_on_kernel:
        return None
    policy = solver.kernel_policy(instance)
    if type(policy) is not FixedOrderPolicy:
        return None
    return policy


def _batched_precomputed(
    instances: Sequence[Instance],
    solvers: Sequence[Solver],
    *,
    machine: MachineModel | None,
    engine: str | None,
    batch_size: int | None,
) -> "list[dict[int, object]] | None":
    """Cross-instance batch plane for a sweep's runnable lane group.

    Collects every (instance, solver) combination that is a plain
    fixed-order kernel run into one :class:`~repro.simulator.batched.
    BatchedPlane` and simulates all lanes per step; returns one
    ``{solver index: outcome}`` dict per instance (``None`` when batching
    does not engage).  ``instances`` share their tasks (one trace at
    several capacities, or a single instance), so :func:`~repro.simulator.
    columnar.plan_engine` decides for the whole group: once for a plain
    fixed-order probe at the grid's width, before any solver computes its
    order, and once more at the number of lanes actually collected.  The
    plane engages exactly where the per-instance dispatch would have
    picked a fast engine lane by lane, so the records are bit-identical
    to the per-instance sweep.
    """
    if batch_size is not None or not instances or not solvers:
        return None
    probe = instances[0]
    width = len(instances) * len(solvers)
    ran, _ = plan_engine(
        probe, FixedOrderPolicy(probe.tasks), engine=engine, machine=machine, lanes=width
    )
    if ran != "batched":
        return None
    lanes: list[tuple[int, int]] = []
    runs = []
    for fi, instance in enumerate(instances):
        for si, solver in enumerate(solvers):
            policy = _lane_policy(solver, instance)
            if policy is not None:
                lanes.append((fi, si))
                runs.append((instance, policy))
    if not runs or plan_engine(
        *runs[0], engine=engine, machine=machine, lanes=len(runs)
    )[0] != "batched":
        return None
    started = obs.now() if obs.is_enabled() else 0.0
    outcomes = simulate_batched_outcomes(runs, machine=machine)
    obs.REGISTRY.inc("sweep_batch_lanes_total", len(lanes))
    if obs.is_enabled():
        obs.record_span(
            "sweep.batch", started, obs.now(), lanes=len(lanes), tasks=len(probe)
        )
    per_instance: list[dict[int, object]] = [{} for _ in instances]
    for (fi, si), outcome in zip(lanes, outcomes):
        per_instance[fi][si] = outcome
    return per_instance


def _limit_trace(trace: Trace, task_limit: int | None) -> Trace:
    if task_limit is None or task_limit >= len(trace):
        return trace
    return Trace(
        application=trace.application,
        process=trace.process,
        tasks=trace.tasks[:task_limit],
        metadata={**trace.metadata, "task_limit": str(task_limit)},
    )


def _sweep_one_trace(
    trace: Trace,
    *,
    capacity_factors: Sequence[float],
    solver_specs: Sequence,
    validate: bool,
    batch_size: int | None,
    pipelined: bool,
    task_limit: int | None,
    machine: MachineModel | None,
    arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None",
    arrival_seed: int,
    engine: str | None = None,
) -> list[RunRecord]:
    """Capacity sweep of one trace; the OMIM reference is computed once.

    With ``arrivals``, the release dates are sampled once per trace (seeded
    by the trace label) and reused by every capacity factor, so the factors
    compare scheduling decisions, not arrival luck.
    """
    trace = _limit_trace(trace, task_limit)
    # Fresh solver instances per trace job: named/class specs re-instantiate,
    # so concurrent jobs never share solver state.
    solvers = resolve_solvers(*solver_specs) if solver_specs else resolve_solvers()
    base = trace.to_instance()
    releases = None
    if arrivals is not None:
        releases = resolve_arrivals(
            arrivals, base.tasks, seed=_arrival_seed(arrival_seed, trace.label)
        )
    reference = omim_makespan(base)
    mc = trace.min_capacity_bytes
    # Every factor shares one task tuple, converted once: capacity-free
    # static orders are then resolved once per trace, not once per factor.
    tasks = base.tasks if releases is None else base.with_releases(releases).tasks
    instances = [
        Instance(tasks, capacity=mc * factor, name=base.name) for factor in capacity_factors
    ]
    # One batch plane across the whole factor × solver grid: every plain
    # fixed-order lane advances in lockstep, the rest run per-instance.
    precomputed = _batched_precomputed(
        instances, solvers, machine=machine, engine=engine, batch_size=batch_size
    )
    records: list[RunRecord] = []
    for fi, (factor, instance) in enumerate(zip(capacity_factors, instances)):
        records.extend(
            run_solvers_on_instance(
                instance,
                solvers,
                reference=reference,
                validate=validate,
                application=trace.application,
                capacity_factor=factor,
                batch_size=batch_size,
                pipelined=pipelined,
                machine=machine,
                engine=engine,
                precomputed=None if precomputed is None else precomputed[fi],
            )
        )
    return records


def _sweep_one_instance(
    instance: Instance,
    *,
    solver_specs: Sequence,
    validate: bool,
    batch_size: int | None,
    pipelined: bool,
    machine: MachineModel | None,
    arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None",
    arrival_seed: int,
    engine: str | None = None,
) -> list[RunRecord]:
    """Run the solvers on one raw instance at its own capacity."""
    solvers = resolve_solvers(*solver_specs) if solver_specs else resolve_solvers()
    if arrivals is not None:
        instance = instance.with_releases(
            resolve_arrivals(
                arrivals, instance.tasks, seed=_arrival_seed(arrival_seed, instance.name)
            )
        )
    precomputed = _batched_precomputed(
        [instance], solvers, machine=machine, engine=engine, batch_size=batch_size
    )
    return run_solvers_on_instance(
        instance,
        solvers,
        validate=validate,
        batch_size=batch_size,
        pipelined=pipelined,
        machine=machine,
        engine=engine,
        precomputed=None if precomputed is None else precomputed[0],
    )


@dataclass(frozen=True)
class SweepJob:
    """One self-contained unit of sweep work, executable on any backend.

    The payload is a whole :class:`Trace` (swept over ``capacity_factors``,
    sharing one OMIM reference and one arrival pattern) or a raw
    :class:`Instance` (``capacity_factors is None`` — run at its own
    capacity).  Solver specs are carried *as specs*, never as live solvers:
    each run re-resolves them through the registry, so concurrent jobs never
    share solver state and :meth:`to_wire` can rewrite them into plain-data
    form for a trip across a process boundary.
    """

    payload: "Trace | Instance | ShmHandle"
    solver_specs: tuple = ()
    capacity_factors: tuple[float, ...] | None = None
    validate: bool = True
    batch_size: int | None = None
    pipelined: bool = False
    task_limit: int | None = None
    machine: MachineModel | None = None
    arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None" = None
    arrival_seed: int = 0
    engine: str | None = None

    @property
    def label(self) -> str:
        if isinstance(self.payload, ShmHandle):
            return self.payload.label
        return self.payload.label if isinstance(self.payload, Trace) else self.payload.name

    def to_wire(self, *, plane: "ShmPlane | None" = None) -> "SweepJob":
        """A copy whose solver specs are plain-data wire dicts.

        Raises a :class:`TypeError` naming the offending spec when one
        cannot be expressed by registered name + parameters (live solver
        instances, opaque closures) — the process backend calls this before
        any worker starts, so the error surfaces early and clearly.

        With a ``plane`` (the process backend's shared-memory job plane,
        passed for payloads of at least ``SHM_MIN_TASKS`` tasks), the
        payload itself is replaced by a tiny
        :class:`~repro.api.shm.ShmHandle`: the columns travel through a
        shared segment published once per distinct payload, and the wire
        job carries only the pointer.
        """
        specs = tuple(spec_to_wire(s) for s in self.solver_specs)
        if plane is not None and isinstance(self.payload, (Trace, Instance)):
            return replace(self, solver_specs=specs, payload=plane.publish(self.payload))
        return replace(self, solver_specs=specs)

    def run(self) -> list[RunRecord]:
        """Execute the job in the current process and return its records."""
        if obs.is_enabled():
            with obs.span("sweep.job", label=self.label):
                return self._run()
        return self._run()

    def _run(self) -> list[RunRecord]:
        specs = tuple(
            wire_to_spec(spec) if isinstance(spec, dict) else spec for spec in self.solver_specs
        )
        payload = self.payload
        if isinstance(payload, ShmHandle):
            payload, detach = attach_payload(payload)
            try:
                return self._run_payload(payload, specs)
            finally:
                # Drop the payload reference before detaching, so the
                # segment's buffer has no exported views left to trip on.
                del payload
                detach()
        return self._run_payload(payload, specs)

    def _run_payload(self, payload: "Trace | Instance", specs: tuple) -> list[RunRecord]:
        if isinstance(payload, Trace):
            return _sweep_one_trace(
                payload,
                capacity_factors=self.capacity_factors or (),
                solver_specs=specs,
                validate=self.validate,
                batch_size=self.batch_size,
                pipelined=self.pipelined,
                task_limit=self.task_limit,
                machine=self.machine,
                arrivals=self.arrivals,
                arrival_seed=self.arrival_seed,
                engine=self.engine,
            )
        return _sweep_one_instance(
            payload,
            solver_specs=specs,
            validate=self.validate,
            batch_size=self.batch_size,
            pipelined=self.pipelined,
            machine=self.machine,
            arrivals=self.arrivals,
            arrival_seed=self.arrival_seed,
            engine=self.engine,
        )


def _iter_traces(sources: Iterable) -> "tuple[Iterator[Trace], int | None]":
    """Lazily flatten trace sources, keeping the total count when it is known.

    ``sources`` may mix :class:`Trace`, :class:`TraceEnsemble` and
    :class:`TraceStream` items; when ``sources`` itself is a list/tuple the
    total is computed up front (every item is sized) and item types are
    validated eagerly, exactly like the historical list-materialising path.
    A generator source stays unsized — the sweep then streams with spilling
    engaged and reports progress against the jobs seen so far.
    """

    def check(source):
        if not isinstance(source, (Trace, TraceEnsemble, TraceStream)):
            raise TypeError(
                "expected Trace, TraceEnsemble or TraceStream, "
                f"got {type(source).__name__}"
            )
        return source

    def flatten(items) -> Iterator[Trace]:
        for source in items:
            if isinstance(check(source), Trace):
                yield source
            else:
                yield from source

    if isinstance(sources, (list, tuple)):
        total = sum(1 if isinstance(check(s), Trace) else len(s) for s in sources)
        return flatten(sources), total
    return flatten(sources), None


def _spill_threshold() -> int:
    raw = os.environ.get(SPILL_THRESHOLD_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_SPILL_THRESHOLD
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{SPILL_THRESHOLD_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def _estimate_rows(job_total: int | None, rows_per_job: int) -> int | None:
    """Upper-ish bound on the sweep's output rows, for the auto-spill gate."""
    if job_total is None:
        return None
    return job_total * max(rows_per_job, 1)


def _rows_per_trace_job(capacity_factors: Sequence[float], solver_specs: Sequence) -> int:
    specs = len(solver_specs) if solver_specs else len(solver_names())
    return max(len(capacity_factors), 1) * max(specs, 1)


def _resolve_spill_target(spill, estimated_rows: int | None) -> ResultSet:
    """Pick the sweep's result container: in-memory, or a JSONL spill.

    ``spill=None`` auto-engages above the row threshold (or when the job
    plane is unsized); ``False`` forces in-memory, ``True`` a temporary
    spill file, a path an explicit spill, and an already-open
    :class:`SpilledResultSet` is appended to as-is.
    """
    if spill is False:
        return ResultSet()
    if spill is None:
        if estimated_rows is not None and estimated_rows <= _spill_threshold():
            return ResultSet()
        spill = True
    if spill is True:
        fd, path = tempfile.mkstemp(prefix="repro-sweep-", suffix=".jsonl")
        os.close(fd)
        return SpilledResultSet(path, temporary=True)
    if isinstance(spill, SpilledResultSet):
        return spill
    if isinstance(spill, (str, os.PathLike)):
        return ResultSet.open_spill(spill)
    raise TypeError(
        f"spill must be None, a bool, a path or a SpilledResultSet, "
        f"got {type(spill).__name__}"
    )


def _resolve_shard(shard) -> "tuple[int, int] | None":
    if shard is None:
        return None
    if isinstance(shard, str):
        return parse_shard(shard)
    index, count = shard
    return parse_shard(f"{int(index)}/{int(count)}")


def _run_sweep(
    job_iter: Iterator[SweepJob],
    job_total: int | None,
    *,
    backend,
    n_jobs: int | None,
    solver_specs: Sequence,
    machine: MachineModel | None,
    arrivals,
    chunk_size: int | None,
    on_progress,
    spill,
    rows_per_job: int,
    checkpoint,
    shard,
    on_records,
) -> ResultSet:
    """The sweep orchestrator: chunk lazily, stream, merge in order.

    Every sweep takes this one path.  Jobs are cut into chunks as they are
    pulled, the backend's ``stream_chunks`` keeps at most a bounded window
    of them in flight, and each chunk's records are merged into a
    :class:`ResultSet` or :class:`SpilledResultSet` (and checkpointed /
    forwarded to ``on_records``) strictly in submission order.  The output
    is byte-identical whatever the backend, chunking, sharding, spill or
    resume history.  :func:`~repro.api.backends.plan_backend` picks the
    backend, and its reason is counted in ``sweep_backend_total``.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size!r}")
    shard_spec = _resolve_shard(shard)
    progress = guard_progress(on_progress)
    if shard_spec is None or job_total is None:
        local_total = job_total
    else:
        index, count = shard_spec
        local_total = (job_total - index + count - 1) // count
    executor, reason = plan_backend(
        backend,
        n_jobs=n_jobs,
        job_total=local_total,
        solver_specs=solver_specs,
        machine=machine,
        arrivals=arrivals,
    )
    obs.REGISTRY.inc("sweep_backend_total", backend=executor.name, reason=reason)
    if executor.name == "serial":
        workers = 1
    else:
        workers = _effective_workers(getattr(executor, "n_jobs", None), local_total)
    if chunk_size is not None:
        computed = chunk_size
    elif local_total is not None:
        # The auto size grows with the plane (total / workers / 4); cap it so
        # in-flight memory stays bounded no matter how large the sweep is.
        computed = min(auto_chunk_size(local_total, workers), _STREAM_MAX_CHUNK)
    else:
        computed = _UNSIZED_CHUNK_SIZE
    result = _resolve_spill_target(spill, _estimate_rows(job_total, rows_per_job))

    done = 0

    def report(count: int) -> None:
        nonlocal done
        done += count
        if progress is not None:
            progress(done, local_total if local_total is not None else done)

    def chunked(size: int) -> Iterator[tuple[int, list[tuple[int, SweepJob]]]]:
        batch: list[tuple[int, SweepJob]] = []
        index = 0
        for gidx, job in enumerate(job_iter):
            if shard_spec is not None and gidx % shard_spec[1] != shard_spec[0]:
                continue
            batch.append((gidx, job))
            if len(batch) == size:
                yield index, batch
                batch = []
                index += 1
        if batch:
            yield index, batch

    #: chunk index -> (global job indices, checkpoint key) — records loaded
    #: lazily at emission time, so a fully cached resume stays bounded too.
    cached: dict[int, tuple[list[int], str]] = {}
    #: chunk index -> (global job indices, checkpoint key or None)
    live: dict[int, tuple[list[int], "str | None"]] = {}

    def runnable(size: int) -> Iterator[tuple[int, list[SweepJob]]]:
        for index, batch in chunked(size):
            gidxs = [gidx for gidx, _ in batch]
            jobs_only = [job for _, job in batch]
            key = None
            if checkpoint is not None:
                key = chunk_key(jobs_only)
                if checkpoint.match(index, key):
                    cached[index] = (gidxs, key)
                    report(len(batch))
                    continue
            live[index] = (gidxs, key)
            yield index, jobs_only

    def emit(gidxs: Sequence[int], per_job: Sequence[Sequence[RunRecord]]) -> None:
        merge_started = obs.now() if obs.is_enabled() else 0.0
        for gidx, records in zip(gidxs, per_job):
            for record in records:
                result.append(record)
            if on_records is not None:
                on_records(gidx, records)
        if isinstance(result, SpilledResultSet):
            result.flush()
        obs.REGISTRY.inc("sweep_chunks_merged_total")
        obs.REGISTRY.inc("sweep_jobs_merged_total", len(gidxs))
        if obs.is_enabled():
            obs.record_span(
                "sweep.chunk.merge", merge_started, obs.now(), jobs=len(gidxs)
            )

    next_emit = 0

    def drain_cached() -> None:
        nonlocal next_emit
        while next_emit in cached:
            gidxs, key = cached.pop(next_emit)
            emit(gidxs, checkpoint.load(next_emit, key))
            next_emit += 1

    own_checkpoint = isinstance(checkpoint, (str, os.PathLike))
    if own_checkpoint:
        checkpoint = SweepCheckpoint(checkpoint)
    try:
        size = (
            checkpoint.resolve_chunk_size(chunk_size, computed)
            if checkpoint is not None
            else computed
        )
        # With a known total the window never exceeds the chunk count, so a
        # pool backend starts no more workers than there are chunks to run.
        max_pending = (
            None
            if local_total is None
            else min(math.ceil(local_total / size), workers * _CHUNKS_PER_WORKER)
        )
        for tag, per_job in executor.stream_chunks(
            runnable(size), on_chunk=lambda _tag, count: report(count), max_pending=max_pending
        ):
            drain_cached()
            # Backends yield strictly in submission order, and every chunk
            # before this one was either yielded (live) or registered as
            # cached when the backend pulled past it — so after the drain,
            # ``tag`` is exactly the next chunk to merge.
            gidxs, key = live.pop(tag)
            emit(gidxs, per_job)
            if checkpoint is not None:
                checkpoint.record(tag, key, per_job)
            next_emit += 1
        drain_cached()
    finally:
        if own_checkpoint:
            checkpoint.close()
    if isinstance(result, SpilledResultSet):
        result.flush()
    return result


def sweep_traces(
    sources: Iterable[Trace | TraceEnsemble],
    *,
    capacity_factors: Sequence[float],
    solver_specs: Sequence = (),
    validate: bool = True,
    batch_size: int | None = None,
    pipelined: bool = False,
    task_limit: int | None = None,
    n_jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    chunk_size: int | None = None,
    on_progress: Callable[[int, int], None] | None = None,
    machine: MachineModel | None = None,
    arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None" = None,
    arrival_seed: int = 0,
    engine: str | None = None,
    spill: "bool | str | os.PathLike | SpilledResultSet | None" = None,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
    shard: "str | tuple[int, int] | None" = None,
    on_records: "Callable[[int, list[RunRecord]], None] | None" = None,
) -> ResultSet:
    """Capacity sweep of every solver over every trace of ``sources``.

    ``n_jobs`` > 1 distributes whole-trace :class:`SweepJob` s over an
    execution backend — processes by default whenever the solver specs,
    ``machine`` and ``arrivals`` can cross a process boundary, serial
    otherwise (:func:`~repro.api.backends.plan_backend`); ``backend`` or the
    ``REPRO_BACKEND`` environment variable pick one explicitly.
    Jobs are sharded into chunks of ``chunk_size`` (auto-sized from the job
    and worker counts when omitted) to amortize inter-process traffic, and
    results are merged in submission order, so the output is byte-identical
    to a serial run whatever the backend, worker count or chunking.
    ``on_progress(completed, total)`` is called from the submitting thread
    as jobs complete.

    Large sweeps stream: ``sources`` may include lazy
    :class:`~repro.traces.TraceStream` items (or itself be a generator), at
    most a bounded window of jobs is materialised at a time, and results
    **spill** to an append-only JSONL file — automatically above
    ``REPRO_SPILL_THRESHOLD`` estimated rows (default 100 000), forced or
    disabled via ``spill``.  ``checkpoint`` (a directory or open
    :class:`~repro.api.SweepCheckpoint`) records every merged chunk durably
    so a killed sweep resumes without re-running completed work; ``shard``
    (``"i/N"``) runs one deterministic slice of the job plane, and
    ``on_records(job_index, records)`` observes each job's rows as chunks
    merge, in global job order.  Whatever the combination, the merged
    output stays byte-identical to the plain in-memory sweep.
    """
    trace_iter, job_total = _iter_traces(sources)
    if machine is not None and machine.capacity is not None:
        raise ValueError(
            "machine.capacity would override every swept capacity; "
            "leave it unset in capacity sweeps (sweep capacity_factors instead)"
        )
    if arrivals is not None and batch_size is not None:
        raise ValueError(
            "arrivals and batched execution cannot be combined: streaming "
            "generalises batching — pick one execution mode"
        )
    if pipelined and batch_size is None:
        raise ValueError("pipelined=True requires a batch_size")
    for factor in capacity_factors:
        if not (factor > 0 or math.isnan(factor)):
            raise ValueError(f"capacity factors must be positive, got {factor!r}")

    jobs = (
        SweepJob(
            payload=trace,
            solver_specs=tuple(solver_specs),
            capacity_factors=tuple(capacity_factors),
            validate=validate,
            batch_size=batch_size,
            pipelined=pipelined,
            task_limit=task_limit,
            machine=machine,
            arrivals=arrivals,
            arrival_seed=arrival_seed,
            engine=engine,
        )
        for trace in trace_iter
    )
    return _run_sweep(
        jobs,
        job_total,
        backend=backend,
        n_jobs=n_jobs,
        solver_specs=solver_specs,
        machine=machine,
        arrivals=arrivals,
        chunk_size=chunk_size,
        on_progress=on_progress,
        spill=spill,
        rows_per_job=_rows_per_trace_job(capacity_factors, solver_specs),
        checkpoint=checkpoint,
        shard=shard,
        on_records=on_records,
    )


def sweep_instances(
    instances: Iterable[Instance],
    *,
    solver_specs: Sequence = (),
    validate: bool = True,
    batch_size: int | None = None,
    pipelined: bool = False,
    n_jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    chunk_size: int | None = None,
    on_progress: Callable[[int, int], None] | None = None,
    machine: MachineModel | None = None,
    arrivals: "ArrivalProcess | Mapping[str, float] | Sequence[float] | None" = None,
    arrival_seed: int = 0,
    engine: str | None = None,
    spill: "bool | str | os.PathLike | SpilledResultSet | None" = None,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
    shard: "str | tuple[int, int] | None" = None,
    on_records: "Callable[[int, list[RunRecord]], None] | None" = None,
) -> ResultSet:
    """Run the solvers on raw instances at their own capacity (no factor sweep).

    Parallelism, backend selection, chunking, progress reporting and the
    streaming options (``spill``/``checkpoint``/``shard``/``on_records``,
    lazy ``instances`` generators) behave exactly as in
    :func:`sweep_traces`.
    """
    if isinstance(instances, (list, tuple)):
        job_total = len(instances)
        instance_iter: Iterator[Instance] = iter(instances)
    else:
        job_total = None
        instance_iter = iter(instances)
    if arrivals is not None and batch_size is not None:
        raise ValueError(
            "arrivals and batched execution cannot be combined: streaming "
            "generalises batching — pick one execution mode"
        )
    if pipelined and batch_size is None:
        raise ValueError("pipelined=True requires a batch_size")

    jobs = (
        SweepJob(
            payload=instance,
            solver_specs=tuple(solver_specs),
            capacity_factors=None,
            validate=validate,
            batch_size=batch_size,
            pipelined=pipelined,
            machine=machine,
            arrivals=arrivals,
            arrival_seed=arrival_seed,
            engine=engine,
        )
        for instance in instance_iter
    )
    specs = len(solver_specs) if solver_specs else len(solver_names())
    return _run_sweep(
        jobs,
        job_total,
        backend=backend,
        n_jobs=n_jobs,
        solver_specs=solver_specs,
        machine=machine,
        arrivals=arrivals,
        chunk_size=chunk_size,
        on_progress=on_progress,
        spill=spill,
        rows_per_job=max(specs, 1),
        checkpoint=checkpoint,
        shard=shard,
        on_records=on_records,
    )
