"""The shared-memory job plane: zero-copy payloads, guaranteed unlink.

Round-trips :class:`~repro.traces.Trace` and
:class:`~repro.core.instance.Instance` payloads through
``ShmPlane.publish`` → ``attach_payload`` asserting full equality and a
pre-seeded columnar view, checks the wire handle really is tiny, and —
the part that matters operationally — proves ``/dev/shm`` ends every
scenario clean: normal sweeps, failing jobs, streaming chunk release, a
full ``/dev/shm`` (the payload ships pickled instead), a SIGKILLed
worker, and a process killed by SIGTERM mid-publish (where the resource
tracker is the last line of defence).  Process sweeps publish only
payloads of at least ``SHM_MIN_TASKS`` tasks; the tests patch that
constant in the parent to force either wire form.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.api import (
    ProcessBackend,
    Study,
    SweepJob,
    SweepJobError,
    register_solver,
    unregister_solver,
)
from repro.api import backends as backends_module
from repro.api import shm as shm_module
from repro.api.shm import ShmHandle, ShmPlane, attach_payload
from repro.core import Instance, Task
from repro.simulator import largest_communication
from repro.simulator.columnar import columnar_view
from repro.traces.generator import synthetic_trace
from repro.traces.model import Trace

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="POSIX shared memory is not mounted at /dev/shm"
)


def shm_entries() -> set[str]:
    return {entry.name for entry in SHM_DIR.iterdir()}


@pytest.fixture()
def clean_shm():
    """Snapshot ``/dev/shm`` and assert the test leaves no new entries."""
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture()
def force_shm(monkeypatch):
    """Publish every process-sweep payload, whatever its size."""
    monkeypatch.setattr(backends_module, "SHM_MIN_TASKS", 1)


def segments_published() -> float:
    return obs.REGISTRY.counter_total("sweep_shm_segments_total")


# --------------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------------- #
def test_trace_round_trips_and_handle_is_tiny(clean_shm):
    trace = synthetic_trace("balanced", tasks=500, seed=4)
    with ShmPlane() as plane:
        handle = plane.publish(trace)
        assert (SHM_DIR / handle.name).exists()
        # The whole point: the wire carries a pointer, not the payload.
        assert len(pickle.dumps(handle)) < 512
        assert len(pickle.dumps(handle)) * 10 < len(pickle.dumps(trace))

        rebuilt, detach = attach_payload(handle)
        assert rebuilt.label == trace.label
        assert len(rebuilt) == len(trace)
        assert rebuilt.min_capacity_bytes == trace.min_capacity_bytes
        assert rebuilt.tasks == trace.tasks

        capacity = trace.min_capacity_bytes * 1.5
        instance = rebuilt.to_instance(capacity)
        reference = trace.to_instance(capacity)
        assert instance == reference

        # The columnar view is pre-seeded with arrays aliasing the shared
        # segment — the engines skip the per-instance pack entirely.
        view = columnar_view(instance)
        assert not view.memory.flags.writeable
        np.testing.assert_array_equal(view.memory, columnar_view(reference).memory)
        np.testing.assert_array_equal(view.comm, columnar_view(reference).comm)

        del view, instance, rebuilt, reference
        detach()


def test_instance_round_trips(clean_shm):
    tasks = [
        Task(f"t{i}", comm=float(i + 1), comp=float(2 * i + 1), memory=float(i + 2))
        for i in range(32)
    ]
    original = Instance(tasks, capacity=64.0, name="shm/instance")
    with ShmPlane() as plane:
        handle = plane.publish(original)
        assert handle.kind == "instance"
        rebuilt, detach = attach_payload(handle)
        assert rebuilt == original
        assert rebuilt.capacity == original.capacity
        np.testing.assert_array_equal(
            columnar_view(rebuilt).memory, columnar_view(original).memory
        )
        del rebuilt
        detach()


def test_attached_instance_is_freed_without_the_cyclic_gc(clean_shm):
    tasks = [Task(f"t{i}", comm=float(i + 1), comp=1.0) for i in range(16)]
    original = Instance(tasks, capacity=64.0, name="shm/freed")
    with ShmPlane() as plane:
        rebuilt, detach = attach_payload(plane.publish(original))
        assert columnar_view(rebuilt) is not None  # the pre-seeded view
        ref = weakref.ref(rebuilt)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del rebuilt
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        detach()


def test_shared_views_rebuild_the_selection_index(clean_shm):
    tasks = [
        Task(f"t{i}", comm=float(i % 5 + 1), comp=float(2 * i + 1)) for i in range(32)
    ]
    original = Instance(tasks, capacity=16.0, name="shm/co-monotone")
    with ShmPlane() as plane:
        rebuilt, detach = attach_payload(plane.publish(original))
        view, packed = columnar_view(rebuilt), columnar_view(original)
        assert view.comm_index is not None
        assert view.comm_index == packed.comm_index
        np.testing.assert_array_equal(
            view.criterion_rank(largest_communication).tree,
            packed.criterion_rank(largest_communication).tree,
        )
        del rebuilt, view
        detach()


def test_publish_dedupes_and_refcounts(clean_shm):
    trace = synthetic_trace("balanced", tasks=30, seed=1)
    plane = ShmPlane()
    try:
        first = plane.publish(trace)
        second = plane.publish(trace)
        assert first == second  # one segment per distinct payload
        assert (SHM_DIR / first.name).exists()
        plane.release(first)
        assert (SHM_DIR / first.name).exists()  # one reference still out
        plane.release(second)
        assert not (SHM_DIR / first.name).exists()
    finally:
        plane.close()


# --------------------------------------------------------------------------- #
# Sweep integration
# --------------------------------------------------------------------------- #
def sweep_study() -> Study:
    trace = synthetic_trace("balanced", tasks=40, seed=9)
    return Study().traces(trace).capacities(1.0, 1.5).solvers("OS", "LCMR")


def test_shm_sweep_is_byte_identical_to_serial(clean_shm, monkeypatch):
    reference = sweep_study().run().to_json()
    for min_tasks, published in ((1, True), (10**9, False)):
        monkeypatch.setattr(backends_module, "SHM_MIN_TASKS", min_tasks)
        before = segments_published()
        assert sweep_study().parallel(2, backend="processes").run().to_json() == reference
        assert (segments_published() > before) == published


@pytest.mark.parametrize("offset,published", [(-1, False), (0, True)])
def test_default_threshold_decides_the_wire_form(clean_shm, offset, published):
    tasks = backends_module.SHM_MIN_TASKS + offset
    trace = synthetic_trace("balanced", tasks=tasks, seed=3)
    study = Study().traces(trace).capacities(1.5).solvers("OS")
    reference = study.run().to_json()
    before = segments_published()
    assert study.parallel(2, backend="processes").run().to_json() == reference
    assert (segments_published() > before) == published


def test_forced_shm_sweep_with_indexed_selection_is_byte_identical(clean_shm, force_shm):
    """A process sweep publishing its payload, through the indexed
    selection loop, is byte-identical to the serial sweep."""
    trace = synthetic_trace("mixed-intensity", tasks=60, seed=4)
    study = (
        Study()
        .traces(trace)
        .capacities(1.0, 1.25)
        .solvers("LCMR", "OOMAMR")
        .engine("columnar")
    )
    serial = study.run()
    assert set(serial.column("engine")) == {"columnar"}
    before = segments_published()
    parallel = study.parallel(2, backend="processes").run()
    assert parallel.to_json() == serial.to_json()
    assert segments_published() > before


def test_failing_jobs_do_not_leak_segments(clean_shm, force_shm):
    # capacity factor 0.5 makes every lane infeasible: the jobs fail inside
    # the workers, the backend re-raises, and the plane must still unlink.
    trace = synthetic_trace("balanced", tasks=30, seed=2)
    study = (
        Study()
        .traces(trace)
        .capacities(0.5)
        .solvers("OS")
        .parallel(2, backend="processes")
    )
    with pytest.raises(SweepJobError):
        study.run()


def test_streaming_chunks_release_segments_and_match_run(clean_shm, force_shm):
    traces = [synthetic_trace("balanced", tasks=25, seed=s) for s in (1, 2, 3, 4)]
    jobs = [
        SweepJob(payload=trace, solver_specs=("OS",), capacity_factors=(1.0, 1.5))
        for trace in traces
    ]
    reference = [job.run() for job in jobs]
    streamed = ProcessBackend(2).stream_chunks(
        iter((index, [job]) for index, job in enumerate(jobs))
    )
    by_tag = dict(streamed)
    flat = [records for index in range(len(jobs)) for records in by_tag[index]]
    # repr-compare: RunRecord carries NaN fields (nan != nan), so dataclass
    # equality would reject even byte-identical records.
    assert [list(map(repr, records)) for records in flat] == [
        list(map(repr, records)) for records in reference
    ]


# --------------------------------------------------------------------------- #
# A full /dev/shm: ship the pickled payload instead (a write into a full
# tmpfs through mmap raises SIGBUS, which Python cannot catch)
# --------------------------------------------------------------------------- #
class _FullStatvfs:
    f_bavail = 0
    f_frsize = 4096


def test_full_dev_shm_ships_pickled_payloads(clean_shm, force_shm, monkeypatch):
    reference = sweep_study().run().to_json()
    monkeypatch.setattr(shm_module.os, "statvfs", lambda path: _FullStatvfs())
    segments = segments_published()
    fallbacks = obs.REGISTRY.counter_total("sweep_shm_fallback_total")
    assert sweep_study().parallel(2, backend="processes").run().to_json() == reference
    assert segments_published() == segments
    assert obs.REGISTRY.counter_total("sweep_shm_fallback_total") == fallbacks + 1


def test_publish_falls_back_to_the_payload_when_short_of_room(clean_shm, monkeypatch):
    trace = synthetic_trace("balanced", tasks=30, seed=1)
    with ShmPlane() as plane:
        assert isinstance(plane.publish(trace), ShmHandle)
        monkeypatch.setattr(shm_module.os, "statvfs", lambda path: _FullStatvfs())
        other = synthetic_trace("balanced", tasks=30, seed=2)
        assert plane.publish(other) is other


# --------------------------------------------------------------------------- #
# A SIGKILLed worker: a named error, no hang, no leaked segment
# --------------------------------------------------------------------------- #
_PARENT_PID = os.getpid()


class _KillWorkerSolver:
    """Kills the process running it, unless that is the test process."""

    name = "test.kill-worker"
    category = "static"

    def schedule(self, instance):
        if os.getpid() != _PARENT_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("the kill-worker solver ran in the parent")


def _alarm(signum, frame):
    raise TimeoutError("the sweep hung after its worker was killed")


def test_killed_worker_raises_a_named_error_without_hanging(clean_shm, force_shm):
    register_solver("test.kill-worker", category="static", replace=True)(_KillWorkerSolver)
    traces = [synthetic_trace("balanced", tasks=30, seed=s) for s in range(4)]
    study = (
        Study()
        .traces(*traces)
        .capacities(1.25)
        .solvers("OS", "test.kill-worker")
        .parallel(2, backend="processes", chunk_size=1)
    )
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(120)
    try:
        with pytest.raises(RuntimeError, match="worker pool died unexpectedly"):
            study.run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        unregister_solver("test.kill-worker")


# --------------------------------------------------------------------------- #
# Early pickle probe (one per distinct payload type)
# --------------------------------------------------------------------------- #
class _UnpicklableTrace(Trace):
    """A distinct payload type whose metadata cannot be pickled."""


def test_probe_catches_unpicklable_payload_types_beyond_the_first_job():
    good = synthetic_trace("balanced", tasks=10, seed=1)
    evil = _UnpicklableTrace(
        application="evil",
        process=1,
        tasks=list(good.tasks),
        metadata={"closure": lambda: None},  # type: ignore[dict-item]
    )
    jobs = [
        SweepJob(payload=good, solver_specs=("OS",), capacity_factors=(1.0,)),
        SweepJob(payload=evil, solver_specs=("OS",), capacity_factors=(1.0,)),
    ]
    chunks = ProcessBackend(2).stream_chunks(iter([(0, jobs)]))
    with pytest.raises(TypeError, match="evil/p001.*cannot be pickled"):
        list(chunks)


# --------------------------------------------------------------------------- #
# Crash safety: the resource tracker sweeps a SIGTERM'd owner
# --------------------------------------------------------------------------- #
_SIGTERM_SCRIPT = """
import os, signal, sys
from repro.api.shm import ShmPlane
from repro.traces.generator import synthetic_trace

plane = ShmPlane()
handle = plane.publish(synthetic_trace("balanced", tasks=50, seed=3))
print(handle.name, flush=True)
os.kill(os.getpid(), signal.SIGTERM)  # no atexit, no finally — hard death
"""


def test_sigterm_mid_sweep_leaves_no_segments():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, "-c", _SIGTERM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == -signal.SIGTERM, process.stderr
    name = process.stdout.strip()
    assert name
    # The owner died without running any cleanup; its resource tracker is
    # the backstop and unlinks the registered segment as it shuts down.
    deadline = time.monotonic() + 30.0
    while (SHM_DIR / name).exists():
        assert time.monotonic() < deadline, f"segment {name} still in /dev/shm"
        time.sleep(0.1)
