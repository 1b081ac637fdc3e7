"""Zero-copy shared-memory job plane for process-backend sweeps.

Process-backend sweeps historically pickled every :class:`~repro.traces.Trace`
/ :class:`~repro.core.instance.Instance` payload *by value* into each chunk
crossing the worker boundary — megabytes per chunk for NWChem-scale traces,
serialized once per job on the submitting side and deserialized object by
object in every worker.  The shm plane replaces that with a handle:

* the parent packs each distinct payload's columns (volumes, communication
  and computation times, release dates) plus a small pickled tail (names,
  kinds, metadata) **once** into a ``multiprocessing.shared_memory`` segment
  (:class:`ShmPlane.publish`);
* :meth:`SweepJob.to_wire` ships a tiny :class:`ShmHandle` — segment name,
  shape, tail length — instead of the payload, cutting the per-chunk pickle
  by 10x and more (``benchmarks/bench_batch_sweep.py`` records the ratio);
* workers attach the segment (an ``mmap``, no copy), rebuild the payload and
  pre-seed its :class:`~repro.simulator.columnar.ColumnarInstance` view with
  arrays aliasing the shared buffer, so the columnar/batched engines read
  the parent's packed columns directly.

Ownership is strictly parent-side: the creating :class:`ShmPlane` unlinks
every segment on :meth:`close` (the process backend calls it in a
``finally``), a ``weakref.finalize`` covers planes dropped without closing,
and a module ``atexit`` hook sweeps anything left if the interpreter exits
mid-sweep — no leaked ``/dev/shm`` entries, test-proven in
``tests/api/test_shm.py``.  Workers never unlink; attached segments are
closed when the job finishes.

The process backend publishes every payload of at least
:data:`~repro.api.backends.SHM_MIN_TASKS` tasks and pickles the rest.
:meth:`ShmPlane.publish` checks the free space of ``/dev/shm`` first (a
write into a full tmpfs raises ``SIGBUS``, which Python cannot catch) and
returns the payload itself, to travel pickled, when room is short.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from .. import obs
from ..core.instance import Instance
from ..core.task import Task
from ..simulator.columnar import _VIEW_ATTR, ColumnarInstance
from ..traces.model import Trace, TraceTask

__all__ = ["ShmHandle", "ShmPlane", "attach_payload"]

#: Mount point of POSIX shared memory, whose free space gates each publish.
SHM_DIR = "/dev/shm"

_FLOAT_BYTES = 8


def _shm_free_bytes() -> float:
    """Free bytes under :data:`SHM_DIR`; unbounded where it cannot be read."""
    try:
        stats = os.statvfs(SHM_DIR)
    except (AttributeError, OSError):  # no statvfs (Windows) or no mount (macOS)
        return math.inf
    return stats.f_bavail * stats.f_frsize


@dataclass(frozen=True)
class ShmHandle:
    """Wire-sized pointer to one published payload.

    Pickles in a couple hundred bytes whatever the payload size: the columns
    live in the named segment, the handle only carries what a worker needs
    to map and slice it.  ``kind`` is ``"trace"`` or ``"instance"``.
    """

    name: str
    kind: str
    tasks: int
    cols: int
    tail: int
    label: str


# --------------------------------------------------------------------------- #
# Parent side: publish + guaranteed unlink
# --------------------------------------------------------------------------- #
#: Every segment created by this process and not yet unlinked, swept by the
#: atexit hook so a crash mid-sweep cannot leak ``/dev/shm`` entries.
_OWNED: dict[str, shared_memory.SharedMemory] = {}
_ATEXIT_REGISTERED = False


def _sweep_owned(names: set) -> None:
    """Unlink the given segment names (finalizer / atexit callback)."""
    for name in list(names):
        names.discard(name)
        segment = _OWNED.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


def _atexit_sweep() -> None:  # pragma: no cover - exercised via subprocess tests
    _sweep_owned(set(_OWNED))


class ShmPlane:
    """Parent-side registry of published payload segments.

    Deduplicates by payload object (one segment per distinct payload even
    when several jobs share it) and refcounts :meth:`publish` /
    :meth:`release` pairs, so the streaming path can unlink each chunk's
    segments as soon as the chunk's results are back while keeping shared
    payloads alive for their later jobs.
    """

    def __init__(self) -> None:
        global _ATEXIT_REGISTERED
        #: id(payload) -> (payload ref, handle) — the payload reference pins
        #: the id, so a dead payload can never alias a live map entry.
        self._published: dict[int, tuple[object, ShmHandle]] = {}
        self._refs: dict[str, int] = {}
        self._names: set[str] = set()
        if not _ATEXIT_REGISTERED:
            _ATEXIT_REGISTERED = True
            atexit.register(_atexit_sweep)
        self._finalizer = weakref.finalize(self, _sweep_owned, self._names)

    def publish(self, payload: "Trace | Instance") -> "ShmHandle | Trace | Instance":
        """Register ``payload`` (once) and return its wire form.

        The wire form is a :class:`ShmHandle`, or ``payload`` itself (to be
        pickled by value) when ``/dev/shm`` has too little room left for
        the segment.
        """
        key = id(payload)
        entry = self._published.get(key)
        if entry is not None:
            handle = entry[1]
            self._refs[handle.name] += 1
            return handle
        if isinstance(payload, Trace):
            columns, tail, kind, label = _pack_trace(payload)
        elif isinstance(payload, Instance):
            columns, tail, kind, label = _pack_instance(payload)
        else:
            raise TypeError(
                f"shm plane can only publish Trace or Instance payloads, "
                f"got {type(payload).__name__}"
            )
        n = columns.shape[1]
        data_bytes = columns.size * _FLOAT_BYTES
        size = max(data_bytes + len(tail), 1)
        if size > _shm_free_bytes():
            obs.REGISTRY.inc("sweep_shm_fallback_total")
            return payload
        segment = shared_memory.SharedMemory(create=True, size=size)
        if columns.size:
            np.frombuffer(segment.buf, dtype=np.float64, count=columns.size)[
                :
            ] = columns.ravel()
        if tail:
            segment.buf[data_bytes : data_bytes + len(tail)] = tail
        handle = ShmHandle(
            name=segment.name,
            kind=kind,
            tasks=n,
            cols=columns.shape[0],
            tail=len(tail),
            label=label,
        )
        _OWNED[segment.name] = segment
        self._names.add(segment.name)
        self._published[key] = (payload, handle)
        self._refs[segment.name] = 1
        obs.REGISTRY.inc("sweep_shm_bytes_total", data_bytes + len(tail))
        obs.REGISTRY.inc("sweep_shm_segments_total")
        return handle

    def release(self, handle: ShmHandle) -> None:
        """Drop one publish reference; unlink the segment at zero."""
        count = self._refs.get(handle.name)
        if count is None:
            return
        if count > 1:
            self._refs[handle.name] = count - 1
            return
        del self._refs[handle.name]
        self._published = {
            key: entry
            for key, entry in self._published.items()
            if entry[1].name != handle.name
        }
        self._names.discard(handle.name)
        _sweep_owned({handle.name})

    def close(self) -> None:
        """Unlink every segment this plane still owns."""
        self._published.clear()
        self._refs.clear()
        _sweep_owned(self._names)
        self._names.clear()

    def __enter__(self) -> "ShmPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _pack_trace(trace: Trace):
    tasks = trace.tasks
    n = len(tasks)
    columns = np.empty((4, n), dtype=np.float64)
    columns[0] = [t.volume_bytes for t in tasks]
    columns[1] = [t.comm_seconds for t in tasks]
    columns[2] = [t.comp_seconds for t in tasks]
    columns[3] = [t.release_seconds for t in tasks]
    names = [t.name for t in tasks]
    kinds = [t.kind for t in tasks]
    if not any(kinds):
        kinds = None
    tail = pickle.dumps(
        (trace.application, trace.process, dict(trace.metadata), names, kinds),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return columns, tail, "trace", trace.label


def _pack_instance(instance: Instance):
    tasks = instance.tasks
    n = len(tasks)
    columns = np.empty((4, n), dtype=np.float64)
    columns[0] = [t.memory for t in tasks]
    columns[1] = [t.comm for t in tasks]
    columns[2] = [t.comp for t in tasks]
    columns[3] = [t.release for t in tasks]
    names = [t.name for t in tasks]
    tags = [t.tag for t in tasks]
    if not any(tags):
        tags = None
    tail = pickle.dumps(
        (instance.name, instance.capacity, names, tags),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return columns, tail, "instance", instance.name


# --------------------------------------------------------------------------- #
# Worker side: attach + rebuild
# --------------------------------------------------------------------------- #
#: Attached segments whose close raised ``BufferError`` (a view outlived the
#: job, e.g. in an exception traceback); closed at interpreter exit instead.
_LINGERING: list[shared_memory.SharedMemory] = []


def _close_lingering() -> None:  # pragma: no cover - interpreter teardown
    for segment in _LINGERING:
        try:
            segment.close()
        except BufferError:
            pass


atexit.register(_close_lingering)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without adopting ownership.

    Python < 3.13 registers *every* attach with the resource tracker
    (bpo-39959).  That is harmless here: every attacher in this codebase —
    sweep workers and same-process round-trips — shares the *publisher's*
    tracker (multiprocessing children inherit the tracker connection under
    both fork and spawn starts), so the duplicate register is a set no-op.
    Unregistering instead would strip the owner's crash-guard registration
    — the tracker is exactly what sweeps ``/dev/shm`` clean when the owner
    dies without running its ``atexit`` hooks.  3.13+ has ``track=False``
    for attaches made outside the owner's process tree.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def attach_payload(handle: ShmHandle):
    """Map ``handle``'s segment and rebuild its payload, zero-copy.

    Returns ``(payload, detach)``: the payload's columnar view aliases the
    shared buffer, so ``detach()`` must only run once the job is done with
    it (the :class:`~repro.api.engine.SweepJob` runner calls it in a
    ``finally`` after dropping its payload reference).
    """
    segment = _attach_segment(handle.name)
    count = handle.cols * handle.tasks
    data = np.frombuffer(segment.buf, dtype=np.float64, count=count).reshape(
        handle.cols, handle.tasks
    )
    data.flags.writeable = False
    start = count * _FLOAT_BYTES
    tail = pickle.loads(bytes(segment.buf[start : start + handle.tail]))
    if handle.kind == "trace":
        payload = _build_trace(data, tail)
    elif handle.kind == "instance":
        payload = _build_instance(data, tail)
    else:
        raise ValueError(f"unknown shm payload kind {handle.kind!r}")

    def detach() -> None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - traceback kept a view alive
            _LINGERING.append(segment)

    return payload, detach


def _seed_view(instance: Instance, memory, comm, comp, release, names, lists) -> None:
    """Pre-seed ``instance``'s columnar view with shared-buffer columns."""
    view = ColumnarInstance.__new__(ColumnarInstance)
    view.tasks = instance.tasks
    view.names = names
    view.comm = comm
    view.comp = comp
    view.memory = memory
    view.release = release
    view.comm_list, view.comp_list, view.memory_list = lists
    view.reset_derived()
    object.__setattr__(instance, _VIEW_ATTR, view)


def _build_tasks(names, tags, memory, comm, comp, release) -> list[Task]:
    """Fast-build validated-at-publish :class:`Task` rows from columns."""
    new = Task.__new__
    set_attr = object.__setattr__
    out = []
    append = out.append
    if tags is None:
        tags = [""] * len(names)
    for name, tag, m, cm, cp, r in zip(
        names, tags, memory.tolist(), comm.tolist(), comp.tolist(), release.tolist()
    ):
        task = new(Task)
        set_attr(task, "name", name)
        set_attr(task, "comm", cm)
        set_attr(task, "comp", cp)
        set_attr(task, "memory", m)
        set_attr(task, "release", r)
        set_attr(task, "tag", tag)
        append(task)
    return out


class _ShmTrace(Trace):
    """A :class:`Trace` whose columns alias a shared-memory segment.

    Behaves as the original trace everywhere (label, iteration, slicing of
    ``tasks``), but :meth:`to_instance` pre-seeds each built instance's
    columnar view with the shared arrays, so the fast-path engines skip the
    per-instance pack entirely.
    """

    def __init__(self, application, process, metadata, names, kinds, data) -> None:
        # Deliberately no dataclass __init__/__post_init__: the payload was
        # validated (unique names, non-negative fields) when published.
        self.application = application
        self.process = process
        self.metadata = metadata
        self._names = names
        self._kinds = kinds
        self._data = data
        self._lists: "tuple | None" = None
        self._task_objs: "list[Task] | None" = None
        self._trace_tasks: "list[TraceTask] | None" = None

    # ``tasks`` is a dataclass field on Trace; make it lazy here so jobs that
    # only touch columns never build the row objects.
    @property
    def tasks(self) -> list[TraceTask]:  # type: ignore[override]
        if self._trace_tasks is None:
            new = TraceTask.__new__
            set_attr = object.__setattr__
            rows = []
            append = rows.append
            kinds = self._kinds or [""] * len(self._names)
            volume, comm, comp, release = (c.tolist() for c in self._data)
            for name, kind, v, cm, cp, r in zip(
                self._names, kinds, volume, comm, comp, release
            ):
                row = new(TraceTask)
                set_attr(row, "name", name)
                set_attr(row, "volume_bytes", v)
                set_attr(row, "comm_seconds", cm)
                set_attr(row, "comp_seconds", cp)
                set_attr(row, "release_seconds", r)
                set_attr(row, "kind", kind)
                append(row)
            self._trace_tasks = rows
        return self._trace_tasks

    @tasks.setter
    def tasks(self, value) -> None:  # pragma: no cover - dataclass compat
        self._trace_tasks = value

    def __len__(self) -> int:
        return len(self._names)

    @property
    def min_capacity_bytes(self) -> float:
        if not len(self._names):
            return 0.0
        return float(self._data[0].max())

    def to_instance(self, capacity_bytes: float = math.inf) -> Instance:
        volume, comm, comp, release = self._data
        if self._task_objs is None:
            self._task_objs = _build_tasks(
                self._names, self._kinds, volume, comm, comp, release
            )
        if self._lists is None:
            self._lists = (comm.tolist(), comp.tolist(), volume.tolist())
        instance = Instance(
            self._task_objs, capacity=capacity_bytes, name=self.label
        )
        _seed_view(instance, volume, comm, comp, release, self._names, self._lists)
        return instance


def _build_trace(data: np.ndarray, tail) -> _ShmTrace:
    application, process, metadata, names, kinds = tail
    return _ShmTrace(application, process, metadata, names, kinds, data)


def _build_instance(data: np.ndarray, tail) -> Instance:
    name, capacity, names, tags = tail
    memory, comm, comp, release = data
    instance = Instance(
        _build_tasks(names, tags, memory, comm, comp, release),
        capacity=capacity,
        name=name,
    )
    _seed_view(
        instance,
        memory,
        comm,
        comp,
        release,
        names,
        (comm.tolist(), comp.tolist(), memory.tolist()),
    )
    return instance
