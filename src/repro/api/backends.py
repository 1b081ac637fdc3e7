"""Pluggable execution backends for the sweep engine.

The sweep engine (:mod:`repro.api.engine`) describes its work as a stream of
self-contained, picklable :class:`~repro.api.engine.SweepJob` objects, cut
into chunks; a *backend* decides where those chunks run:

* :class:`SerialBackend` — in the calling thread, one chunk at a time;
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` fan-out for true
  multi-core sweeps.  Jobs are converted to their wire form first
  (:meth:`SweepJob.to_wire`), so workers rebuild solvers from their own
  registry and never unpickle live solver state.  Payloads of at least
  :data:`SHM_MIN_TASKS` tasks travel through the shared-memory job plane
  (:mod:`repro.api.shm`); smaller ones are pickled by value.

A backend implements one method, :meth:`ExecutionBackend.stream_chunks`: it
pulls ``(tag, jobs)`` chunks from an iterator (possibly lazily *generated* —
the sweep engine feeds it generator-backed trace jobs), keeps at most a
bounded window of chunks in flight, and yields each chunk's per-job record
lists **in submission order** as soon as its predecessors have been yielded.
Jobs are deterministic, so the merged
:class:`~repro.api.results.ResultSet` is byte-identical across backends,
worker counts and chunk sizes — differential-tested in
``tests/api/test_backends.py`` and ``tests/api/test_lattice.py``.  Peak
memory is proportional to the in-flight window, not the sweep size.

Selection goes through :func:`plan_backend`, which returns the backend and
the reason for it: an explicit backend (name or instance) wins, then the
``REPRO_BACKEND`` environment variable; otherwise a sweep asking for more
than one worker runs on processes whenever its jobs can cross a process
boundary, and serially (naming what kept it there) when they cannot.
"""

from __future__ import annotations

import math
import os
import pickle
import traceback
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from .. import obs
from .results import RunRecord
from .registry import spec_to_wire
from .shm import ShmHandle, ShmPlane

__all__ = [
    "BACKEND_ENV_VAR",
    "SHM_MIN_TASKS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "StopSweep",
    "SweepJobError",
    "auto_chunk_size",
    "guard_progress",
    "plan_backend",
]

#: Environment variable overriding the backend choice for every sweep.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Chunks per worker targeted by :func:`auto_chunk_size`: enough slack for
#: load-balancing across uneven traces, few enough to amortize the per-chunk
#: IPC (pickle + queue round-trip) over several jobs.
_CHUNKS_PER_WORKER = 4

ProgressCallback = Callable[[int, int], None]


class SweepJobError(RuntimeError):
    """One sweep job failed inside a worker.

    Carries the job label and the worker-side traceback as a single string,
    so it pickles losslessly across the process boundary instead of
    degrading into a bare ``BrokenProcessPool``.
    """


class StopSweep(Exception):
    """Deliberate sweep abort, raised from a progress callback.

    Progress callbacks are otherwise *guarded* — an exception inside one is
    caught and warned about instead of killing the sweep (see
    :func:`guard_progress`).  Raising ``StopSweep`` is the sanctioned escape
    hatch: it passes through the guard, every backend cancels its
    not-yet-started work, and the sweep raises ``StopSweep`` to the caller.
    The serving layer (:mod:`repro.serve`) uses this for deadline-exceeded
    sweep cancellation.
    """


def guard_progress(callback: ProgressCallback | None) -> ProgressCallback | None:
    """Wrap a user progress callback so its bugs cannot kill the sweep.

    The first exception raised by ``callback`` is converted into a
    ``RuntimeWarning`` naming the callback; later failures are silently
    dropped (one sweep should warn once, not once per job).
    :class:`StopSweep` is exempt — it is the deliberate cancellation signal
    and always propagates.
    """
    if callback is None:
        return None
    warned = False

    def report(completed: int, total: int) -> None:
        nonlocal warned
        try:
            callback(completed, total)
        except StopSweep:
            raise
        except Exception as error:
            if not warned:
                warned = True
                warnings.warn(
                    f"sweep progress callback {callback!r} raised "
                    f"{type(error).__name__}: {error}; the sweep continues and "
                    "further failures of this callback are suppressed "
                    "(raise repro.api.StopSweep to abort a sweep on purpose)",
                    RuntimeWarning,
                    stacklevel=2,
                )

    return report


#: Chunk-completion callback for ``stream_chunks``: ``(tag, job_count)``,
#: fired when a chunk *finishes* (possibly out of submission order).
ChunkCallback = Callable[[object, int], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where sweep jobs run.  Implementations must preserve submission order."""

    name: str

    def stream_chunks(
        self,
        chunks: Iterable,
        *,
        on_chunk: ChunkCallback | None = None,
        max_pending: int | None = None,
    ) -> Iterator:
        """Run ``(tag, jobs)`` chunks; yield ``(tag, per_job_records)`` in order.

        ``chunks`` is pulled lazily, with at most ``max_pending`` chunks
        submitted but not yet yielded; ``on_chunk(tag, job_count)`` fires as
        each chunk finishes.  Raising from ``on_chunk`` (typically
        :class:`StopSweep`) must cancel the not-yet-started chunks.
        """
        ...


def auto_chunk_size(job_count: int, workers: int) -> int:
    """Default shard size: aim for ``_CHUNKS_PER_WORKER`` chunks per worker."""
    if job_count <= 0:
        return 1
    return max(1, math.ceil(job_count / (max(workers, 1) * _CHUNKS_PER_WORKER)))


def _run_chunk_wrapped(jobs: Sequence) -> list[list[RunRecord]]:
    """Process-worker entry point: failures become picklable SweepJobErrors.

    Arbitrary exceptions may not survive the trip back through the result
    queue (unpicklable state degrades into an opaque pool teardown), so the
    worker re-raises them as a :class:`SweepJobError` naming the job and
    carrying the worker-side traceback as text.
    """
    results: list[list[RunRecord]] = []
    for job in jobs:
        try:
            results.append(job.run())
        except SweepJobError:
            raise
        except Exception as error:
            raise SweepJobError(
                f"sweep job {job.label!r} failed: {type(error).__name__}: {error}\n"
                f"{traceback.format_exc()}"
            ) from None
    return results


class _ObsEnvelope:
    """Chunk results plus the worker's observability payload, on one wire.

    When a sweep is traced, process-backend workers wrap each chunk's record
    lists together with the spans and metric deltas recorded while running it
    (:func:`repro.obs.worker_payload`); the parent unwraps the envelope and
    merges the payload into its own tracer/registry (:func:`_absorb_obs`), so
    the exported trace carries pid/tid-tagged spans from every worker.
    """

    __slots__ = ("records", "payload")

    def __init__(self, records: list, payload: dict) -> None:
        self.records = records
        self.payload = payload


def _run_chunk_traced(jobs: Sequence) -> "_ObsEnvelope":
    """Traced process-worker entry point: results + obs payload.

    Enables tracing in the worker (spawn-started workers do not inherit the
    parent's flag) and snapshots the span/metrics position first, so
    fork-started workers — which inherit the parent's buffered spans and
    counter totals — ship only what this chunk actually recorded.
    """
    obs.enable()
    baseline = obs.worker_baseline()
    started = obs.now()
    records = _run_chunk_wrapped(jobs)
    obs.record_span("sweep.chunk.run", started, obs.now(), jobs=len(jobs))
    return _ObsEnvelope(records, obs.worker_payload(baseline))


def _process_runner() -> Callable[[Sequence], object]:
    """Worker entry point for the process backend under the current tracing state."""
    return _run_chunk_traced if obs.is_enabled() else _run_chunk_wrapped


def _absorb_obs(result):
    """Unwrap a worker result, merging any shipped obs payload locally."""
    if isinstance(result, _ObsEnvelope):
        obs.absorb_payload(result.payload)
        return result.records
    return result


def _effective_workers(n_jobs: int | None, job_count: int | None) -> int:
    from .engine import default_jobs  # lazy: engine imports us

    if n_jobs is None or n_jobs in (0, -1):
        return default_jobs(job_count)
    if job_count is None:  # lazy job planes: no count to cap against
        return max(1, int(n_jobs))
    return max(1, min(int(n_jobs), max(job_count, 1)))


def _pool_shape(n_jobs: int | None, max_pending: int | None) -> tuple[int, int]:
    """Worker count and in-flight window of one streamed sweep.

    Without ``max_pending`` the window is ``_CHUNKS_PER_WORKER`` chunks per
    worker.  A pool never starts more workers than chunks it may hold in
    flight: the sweep engine caps the window at the sweep's chunk count
    whenever it knows it, so a small sweep does not spawn idle workers.
    """
    workers = _effective_workers(n_jobs, None)
    if max_pending is None:
        return workers, workers * _CHUNKS_PER_WORKER
    max_pending = max(int(max_pending), 1)
    return min(workers, max_pending), max_pending


def _stream_pool(
    pool: Executor,
    chunks: Iterable,
    runner: Callable[[Sequence], list[list[RunRecord]]],
    on_chunk: ChunkCallback | None,
    max_pending: int,
) -> Iterator:
    """Pipeline chunks through ``pool`` with a bounded in-flight window.

    At most ``max_pending`` chunks are submitted-but-not-yet-yielded at any
    moment (running futures plus the reorder buffer holding out-of-order
    completions), so a lazily generated job plane is materialised only
    ``max_pending`` chunks at a time.  Results are yielded strictly in
    submission order; the first failure cancels every not-yet-started chunk.
    """
    traced = obs.is_enabled()
    chunk_iter = iter(chunks)
    futures: dict = {}  # future -> (sequence number, tag, job count, submit time)
    buffer: dict = {}  # sequence number -> (tag, records)
    submitted = 0
    next_emit = 0
    exhausted = False
    try:
        while True:
            while not exhausted and len(futures) + len(buffer) < max_pending:
                try:
                    tag, chunk = next(chunk_iter)
                except StopIteration:
                    exhausted = True
                    break
                started = obs.now() if traced else 0.0
                futures[pool.submit(runner, chunk)] = (submitted, tag, len(chunk), started)
                submitted += 1
            if next_emit in buffer:
                yield buffer.pop(next_emit)
                next_emit += 1
                continue
            if futures:
                finished, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in finished:
                    sequence, tag, count, started = futures.pop(future)
                    buffer[sequence] = (tag, _absorb_obs(future.result()))
                    if traced:
                        obs.record_span(
                            "sweep.chunk", started, obs.now(), chunk=sequence, jobs=count
                        )
                    if on_chunk is not None:
                        on_chunk(tag, count)
                continue
            if exhausted:
                # No futures left, nothing emittable buffered: all done
                # (buffered sequences are contiguous once futures drain).
                return
    except BaseException:
        # Covers job failures, StopSweep raised from on_chunk, and the
        # consumer closing the generator early (GeneratorExit): drop every
        # not-yet-started chunk so nothing keeps burning workers.
        for future in futures:
            future.cancel()
        raise


class SerialBackend:
    """Run jobs one after another in the calling thread (the reference)."""

    name = "serial"

    def stream_chunks(self, chunks, *, on_chunk=None, max_pending=None):
        """Yield ``(tag, records)`` per chunk, pulling chunks lazily.

        A failing job raises its *original* exception — same type, same
        object; only the process boundary needs :class:`SweepJobError`.
        """
        for tag, chunk in chunks:
            with obs.span("sweep.chunk", jobs=len(chunk)):
                records = [job.run() for job in chunk]
            if on_chunk is not None:
                on_chunk(tag, len(chunk))
            yield tag, records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


def _process_worker_init() -> None:
    """Per-worker warm-up: load the registry, tame nested parallelism.

    ``REPRO_NUM_JOBS`` is defaulted (not forced) to 1 so a thread-racing
    ``PortfolioSolver`` inside a process-backend sweep does not multiply the
    already-saturated worker count; exporting the variable in the parent
    still wins, because children inherit the environment.
    """
    from .engine import NUM_JOBS_ENV_VAR  # lazy: engine imports us
    from .registry import warm_registry

    os.environ.setdefault(NUM_JOBS_ENV_VAR, "1")
    # Fork-started workers inherit the parent's exit-time trace export
    # registration; cancel it so worker exits never clobber the trace file.
    obs.disable_autoexport()
    warm_registry()


def _wire_probe():
    """Trial-pickle gate probing one wire job per *distinct payload type*.

    Sweep jobs share their solver specs and sweep-wide options, so pickle
    failures are a property of the payload family: probing the first
    ``Trace`` job does nothing for an unpicklable ``Instance`` subclass
    later in the plane, which used to detonate mid-pool as an opaque
    error.  One probe per payload type keeps the early clear ``TypeError``
    without serializing every payload twice.
    """
    probed: set[type] = set()

    def probe(wire_job, job) -> None:
        kind = type(getattr(wire_job, "payload", wire_job))
        if kind in probed:
            return
        probed.add(kind)
        try:
            pickle.dumps(wire_job)
        except Exception as error:
            raise TypeError(
                f"sweep job {job.label!r} cannot be pickled for the process "
                f"backend ({error}); use picklable solver parameters and "
                "payloads, or backend='serial'"
            ) from error

    return probe


#: Smallest payload, in tasks, that the process backend publishes to the
#: shared-memory job plane; smaller payloads travel pickled by value.  On a
#: 2-core host (2 workers, 8 alternating pairs per size), shm lost 5 of 8 at
#: 100 tasks (median +2%) and won all 8 at 250 (-9%) and at 529 (-18%).
SHM_MIN_TASKS = 250


class ProcessBackend:
    """Fan chunks of jobs over a process pool — true multi-core sweeps.

    Jobs are sent in wire form (solver specs by registered name + params);
    each worker warms its own registry once and rebuilds fresh solvers per
    job, so no solver instance, closure or lock ever crosses the boundary.
    The parent publishes each payload of at least :data:`SHM_MIN_TASKS`
    tasks to a shared-memory segment and ships a handle in its place.
    """

    name = "processes"

    def __init__(self, n_jobs: int | None = None) -> None:
        self.n_jobs = n_jobs

    def stream_chunks(self, chunks, *, on_chunk=None, max_pending=None):
        """Bounded-window streaming over a process pool (ordered yields).

        Each chunk is converted to wire form as it is pulled, and one job
        per distinct payload type gets a trial pickle before it is submitted,
        so an unpicklable payload anywhere in the stream fails with a clear
        TypeError instead of an opaque pool teardown.  Each chunk's shm
        segments are released as soon as the chunk's results are back,
        keeping ``/dev/shm`` usage proportional to the in-flight window.
        """
        workers, max_pending = _pool_shape(self.n_jobs, max_pending)
        plane = ShmPlane()
        pending_handles: dict = {}

        def wired(source):
            probe = _wire_probe()
            traced = obs.is_enabled()
            for tag, chunk in source:
                wire_chunk = [
                    job.to_wire(plane=plane if len(job.payload) >= SHM_MIN_TASKS else None)
                    for job in chunk
                ]
                pending_handles[tag] = [
                    job.payload for job in wire_chunk if isinstance(job.payload, ShmHandle)
                ]
                for wire_job, job in zip(wire_chunk, chunk):
                    probe(wire_job, job)
                if traced:
                    obs.REGISTRY.inc(
                        "sweep_ipc_bytes_shipped_total", len(pickle.dumps(wire_chunk))
                    )
                yield tag, wire_chunk

        def chunk_done(tag, count):
            for handle in pending_handles.pop(tag, ()):
                plane.release(handle)
            if on_chunk is not None:
                on_chunk(tag, count)

        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_process_worker_init
            ) as pool:
                yield from _stream_pool(
                    pool, wired(chunks), _process_runner(), chunk_done, max_pending
                )
        except BrokenProcessPool as error:
            raise RuntimeError(
                "the process-backend worker pool died unexpectedly (a worker was "
                "killed — out-of-memory, a segfault in an extension, or an "
                "interpreter crash); re-run with backend='serial' to reproduce "
                "the failure in-process"
            ) from error
        finally:
            plane.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(n_jobs={self.n_jobs!r})"


#: Accepted spellings per backend name.
_BACKEND_ALIASES: dict[str, type] = {
    "serial": SerialBackend,
    "sequential": SerialBackend,
    "processes": ProcessBackend,
    "process": ProcessBackend,
    "multiprocessing": ProcessBackend,
}


def _named_backend(name: str, n_jobs: int | None) -> ExecutionBackend:
    try:
        cls = _BACKEND_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"choose from {sorted(_BACKEND_ALIASES)}"
        ) from None
    return SerialBackend() if cls is SerialBackend else cls(n_jobs)


def _process_blocker(solver_specs: Sequence, machine, arrivals) -> str | None:
    """Why a sweep's jobs cannot cross a process boundary (``None``: they can)."""
    for spec in solver_specs:
        try:
            spec_to_wire(spec)
        except TypeError as error:
            return str(error).split(";")[0]
    for what, value in (("machine", machine), ("arrivals", arrivals)):
        try:
            pickle.dumps(value)
        except Exception as error:
            return f"{what} {value!r} cannot be pickled ({type(error).__name__})"
    return None


def plan_backend(
    backend: "str | ExecutionBackend | None" = None,
    *,
    n_jobs: int | None = None,
    job_total: int | None = None,
    solver_specs: Sequence = (),
    machine=None,
    arrivals=None,
) -> "tuple[ExecutionBackend, str]":
    """The backend that runs a sweep, and why: ``(backend, reason)``.

    An explicit ``backend`` (name or instance) wins, then the
    ``REPRO_BACKEND`` environment variable.  Otherwise a sweep asking for
    more than one worker runs on :class:`ProcessBackend` when it has more
    than one job (``job_total``, after sharding; ``None`` when unknown),
    every solver spec has a wire form
    (:func:`~repro.api.registry.spec_to_wire`) and ``machine`` and
    ``arrivals`` pickle, and on :class:`SerialBackend` with a reason naming
    the blocker when not.  Payloads are trial-pickled later, by the process
    backend, which raises a clear ``TypeError``.
    """
    if isinstance(backend, str):
        return _named_backend(backend, n_jobs), "requested"
    if backend is not None:
        if not isinstance(backend, ExecutionBackend):
            raise TypeError(
                "backend must be a name or an ExecutionBackend, "
                f"got {type(backend).__name__}"
            )
        return backend, "requested"
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if env:
        return _named_backend(env, n_jobs), BACKEND_ENV_VAR
    if n_jobs is None or _effective_workers(n_jobs, None) <= 1:
        return SerialBackend(), "one worker"
    if job_total is not None and job_total <= 1:
        # A pool's start-up costs more than the one job it would run.
        return SerialBackend(), "one job"
    blocker = _process_blocker(solver_specs, machine, arrivals)
    if blocker is not None:
        return SerialBackend(), blocker
    return ProcessBackend(n_jobs), "jobs cross a process boundary"
