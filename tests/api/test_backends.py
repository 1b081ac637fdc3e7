"""Execution backends: job plane, wire specs, sharding, equivalence.

The central guarantee under test: the same ``Study`` produces a
byte-identical ``ResultSet`` (after a JSON round-trip) on every backend,
worker count and chunk size — serial is the reference, processes and the
serving daemon's thread pool must match it exactly, including portfolio
modes, arrivals and batched runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.api import (
    NamedSpec,
    ProcessBackend,
    SerialBackend,
    Study,
    SweepJob,
    SweepJobError,
    named_spec,
    plan_backend,
    register_solver,
    resolve_solvers,
    spec_to_wire,
    sweep_instances,
    sweep_traces,
    unregister_solver,
    wire_to_spec,
)
from repro.api.backends import auto_chunk_size
from repro.api.engine import default_jobs
from repro.heuristics.dynamic import LargestCommunicationFirst
from repro.serve import ServePool
from repro.simulator.arrivals import PoissonArrivals
from repro.traces.generator import synthetic_ensemble


@pytest.fixture(scope="module")
def ensemble():
    return synthetic_ensemble("mixed-intensity", processes=3, tasks_per_process=25, seed=11)


@pytest.fixture(scope="module")
def pool():
    """The serving daemon's shared thread pool: the one thread backend left."""
    pool = ServePool(2)
    yield pool
    pool.shutdown()


def backend_for(name, pool):
    """A backend by test id: ``serve-pool`` is the daemon's shared pool."""
    return pool.backend() if name == "serve-pool" else name


def small_study(ensemble) -> Study:
    return Study().traces(ensemble).capacities(1.0, 1.75).solvers("LCMR", "OS", "MAMR")


# --------------------------------------------------------------------- #
# default_jobs
# --------------------------------------------------------------------- #
class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "3")
        assert default_jobs() == 3

    def test_env_override_is_floored_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "0")
        assert default_jobs() == 1

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "lots")
        with pytest.raises(ValueError, match="REPRO_NUM_JOBS"):
            default_jobs()

    def test_capped_at_job_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "64")
        assert default_jobs(5) == 5
        assert default_jobs(0) == 1

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_JOBS", raising=False)
        import os

        assert default_jobs() == max(os.cpu_count() or 1, 1)


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #
class TestPlanBackend:
    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    def test_default_is_serial_without_parallelism(self):
        for n_jobs in (None, 1):
            backend, reason = plan_backend(None, n_jobs=n_jobs)
            assert isinstance(backend, SerialBackend)
            assert reason == "one worker"

    def test_default_is_processes_with_parallelism(self):
        backend, reason = plan_backend(None, n_jobs=4, solver_specs=("LCMR", "OS"))
        assert isinstance(backend, ProcessBackend)
        assert backend.n_jobs == 4
        assert reason == "jobs cross a process boundary"

    @pytest.mark.parametrize("job_total", [0, 1])
    def test_at_most_one_job_plans_serial(self, job_total):
        backend, reason = plan_backend(None, n_jobs=4, job_total=job_total)
        assert isinstance(backend, SerialBackend)
        assert reason == "one job"

    def test_two_jobs_or_an_unknown_count_plan_processes(self):
        for job_total in (2, None):
            backend, _ = plan_backend(None, n_jobs=4, job_total=job_total)
            assert isinstance(backend, ProcessBackend)

    def test_explicit_backend_beats_one_job(self, monkeypatch):
        assert plan_backend("processes", n_jobs=2, job_total=1)[1] == "requested"
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert plan_backend(None, n_jobs=2, job_total=1)[1] == "REPRO_BACKEND"

    def test_unpicklable_solver_plans_serial_and_names_it(self):
        backend, reason = plan_backend(
            None, n_jobs=4, solver_specs=("OS", LargestCommunicationFirst())
        )
        assert isinstance(backend, SerialBackend)
        assert reason.startswith("solver instance LargestCommunicationFirst(")
        assert reason.endswith("cannot cross a process boundary")

    def test_unpicklable_machine_or_arrivals_plan_serial(self):
        backend, reason = plan_backend(None, n_jobs=4, arrivals=[lambda: 0.0])
        assert isinstance(backend, SerialBackend)
        assert reason.startswith("arrivals") and "cannot be pickled" in reason

    def test_names_and_aliases(self):
        assert isinstance(plan_backend("serial")[0], SerialBackend)
        assert isinstance(plan_backend("Sequential")[0], SerialBackend)
        assert isinstance(plan_backend("processes", n_jobs=2)[0], ProcessBackend)
        assert isinstance(plan_backend("multiprocessing")[0], ProcessBackend)
        assert plan_backend("processes", n_jobs=2)[1] == "requested"

    @pytest.mark.parametrize("name", ["threads", "thread", "threading", "gpu"])
    def test_unknown_name(self, name):
        with pytest.raises(ValueError, match="unknown execution backend"):
            plan_backend(name, n_jobs=2)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        backend, reason = plan_backend(None, n_jobs=4)
        assert isinstance(backend, ProcessBackend)
        assert reason == "REPRO_BACKEND"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert isinstance(plan_backend("serial")[0], SerialBackend)

    def test_instance_passthrough(self, pool):
        backend = pool.backend()
        assert plan_backend(backend, n_jobs=8) == (backend, "requested")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            plan_backend(42)


class TestDefaultSweepBackend:
    """What a default ``Study().parallel(n)`` sweep runs on, and the count."""

    @staticmethod
    def counted(backend, reason):
        return obs.REGISTRY.value("sweep_backend_total", backend=backend, reason=reason)

    def test_default_parallel_runs_on_processes(self, ensemble, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = small_study(ensemble).run().to_json()
        before = self.counted("processes", "jobs cross a process boundary")
        assert small_study(ensemble).parallel(2).run().to_json() == reference
        assert self.counted("processes", "jobs cross a process boundary") == before + 1

    def test_one_job_sweep_runs_serially(self, ensemble, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        one_trace = small_study(ensemble[0])
        reference = one_trace.run().to_json()
        before = self.counted("serial", "one job")
        assert one_trace.parallel(2).run().to_json() == reference
        # Sharding counts too: shard 2/3 of three traces holds one job.
        shard_reference = small_study(ensemble).shard("2/3").run().to_json()
        assert small_study(ensemble).shard("2/3").parallel(2).run().to_json() == shard_reference
        assert self.counted("serial", "one job") == before + 2

    def test_unpicklable_solver_runs_serially_and_counts_why(self, ensemble, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

        def build():
            return Study().traces(ensemble).capacities(1.25).solvers(LargestCommunicationFirst())

        reference = build().run().to_json()
        reason = "solver instance LargestCommunicationFirst(name='LCMR', category='dynamic') cannot cross a process boundary"
        before = self.counted("serial", reason)
        assert build().parallel(2).run().to_json() == reference
        assert self.counted("serial", reason) == before + 1


class TestAutoChunkSize:
    def test_covers_all_jobs(self):
        for jobs in (1, 3, 7, 100):
            for workers in (1, 2, 8):
                size = auto_chunk_size(jobs, workers)
                assert size >= 1
                assert size * workers * 4 >= jobs

    def test_empty(self):
        assert auto_chunk_size(0, 4) == 1


# --------------------------------------------------------------------- #
# Wire specs
# --------------------------------------------------------------------- #
class TestSpecWire:
    def test_name_and_category_round_trip(self):
        for spec in ("LCMR", "category:dynamic"):
            assert wire_to_spec(spec_to_wire(spec)) == spec

    def test_named_spec_round_trip(self):
        spec = named_spec("portfolio.race", members=("LCMR", "OOSIM"), prune=False)
        decoded = wire_to_spec(spec_to_wire(spec))
        assert decoded == spec
        solver = decoded()
        assert solver.name == "portfolio.race"

    def test_named_spec_is_picklable_and_resolvable(self):
        spec = pickle.loads(pickle.dumps(named_spec("portfolio.cached", inner="OS")))
        assert isinstance(spec, NamedSpec)
        (solver,) = resolve_solvers(spec)
        assert solver.name == "portfolio.cached"

    def test_registered_class_encodes_by_name(self):
        wire = spec_to_wire(LargestCommunicationFirst)
        assert wire == {"kind": "name", "name": "LCMR"}

    def test_solver_instance_is_rejected(self):
        with pytest.raises(TypeError, match="process boundary"):
            spec_to_wire(LargestCommunicationFirst())

    def test_opaque_factory_is_rejected(self):
        with pytest.raises(TypeError, match="named_spec"):
            spec_to_wire(lambda: LargestCommunicationFirst())

    def test_unregistered_class_is_rejected(self):
        class Unregistered(LargestCommunicationFirst):
            name = "NOT-REGISTERED"

        with pytest.raises(TypeError, match="not registered"):
            spec_to_wire(Unregistered)

    def test_bad_wire_rejected(self):
        with pytest.raises(ValueError):
            wire_to_spec({"kind": "martian", "name": "x"})
        with pytest.raises(ValueError):
            wire_to_spec("not a wire")


# --------------------------------------------------------------------- #
# Backend equivalence (the tentpole guarantee)
# --------------------------------------------------------------------- #
def run_on(study_builder, backend, n_jobs=2, chunk_size=None):
    return (
        study_builder()
        .parallel(n_jobs, backend=backend, chunk_size=chunk_size)
        .run()
        .to_json()
    )


class TestBackendEquivalence:
    def test_heuristic_sweep(self, ensemble, pool):
        reference = small_study(ensemble).run().to_json()
        assert run_on(lambda: small_study(ensemble), pool.backend()) == reference
        assert run_on(lambda: small_study(ensemble), "processes") == reference

    def test_chunking_does_not_change_results(self, ensemble, pool):
        reference = small_study(ensemble).run().to_json()
        for chunk_size in (1, 2, 5):
            assert (
                run_on(lambda: small_study(ensemble), pool.backend(), chunk_size=chunk_size)
                == reference
            )

    def test_portfolio_modes(self, ensemble, pool, tmp_path):
        def build(tag):
            return (
                Study()
                .traces(ensemble)
                .capacities(1.25)
                .portfolio("race", members=("LCMR", "OOSIM", "MAMR"), prune=False)
                .portfolio("select")
                .portfolio("cached", inner="OS", directory=str(tmp_path / tag))
            )

        reference = build("serial").run().to_json()
        assert run_on(lambda: build("serve-pool"), pool.backend()) == reference
        assert run_on(lambda: build("processes"), "processes") == reference

    def test_arrival_sweep(self, ensemble, pool):
        def build():
            return (
                Study()
                .traces(ensemble)
                .capacities(1.0, 1.5)
                .solvers("LCMR", "OS")
                .arrivals(PoissonArrivals(load=1.5), seed=3)
            )

        reference = build().run().to_json()
        assert run_on(build, pool.backend()) == reference
        assert run_on(build, "processes") == reference

    def test_batched_runs(self, ensemble, pool):
        def build():
            return (
                Study()
                .traces(ensemble)
                .capacities(1.25)
                .solvers("LCMR", "OS")
                .batched(10, pipelined=True)
            )

        reference = build().run().to_json()
        assert run_on(build, pool.backend()) == reference
        assert run_on(build, "processes") == reference

    def test_instance_jobs(self, ensemble, pool):
        instances = [trace.to_instance(trace.min_capacity_bytes * 1.5) for trace in ensemble]
        reference = sweep_instances(instances, solver_specs=("LCMR", "OS")).to_json()
        for backend in (pool.backend(), "processes"):
            assert (
                sweep_instances(
                    instances, solver_specs=("LCMR", "OS"), n_jobs=2, backend=backend
                ).to_json()
                == reference
            )

    def test_env_backend_override_is_used(self, ensemble, monkeypatch):
        reference = small_study(ensemble).run().to_json()
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert small_study(ensemble).parallel(2).run().to_json() == reference


# --------------------------------------------------------------------- #
# Worker provisioning
# --------------------------------------------------------------------- #
def _recording(monkeypatch, executor_name: str) -> list[int]:
    """Record the ``max_workers`` of every pool the backends start."""
    from repro.api import backends as backends_module

    real = getattr(backends_module, executor_name)
    started: list[int] = []

    class Recording(real):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(backends_module, executor_name, Recording)
    return started


class TestWorkerProvisioning:
    """A pool never starts more workers than the sweep has chunks."""

    @pytest.mark.parametrize("spill", [False, True])
    def test_one_job_process_sweep_starts_one_worker(self, ensemble, monkeypatch, spill):
        monkeypatch.setenv("REPRO_NUM_JOBS", "4")
        started = _recording(monkeypatch, "ProcessPoolExecutor")
        trace = list(ensemble)[0]
        study = Study().traces(trace).capacities(1.25).solvers("OS").spill(spill)
        reference = study.run().to_json()
        assert study.parallel(backend=ProcessBackend(None)).run().to_json() == reference
        assert started == [1]

    @pytest.mark.parametrize("spill", [False, True])
    def test_process_pool_is_capped_at_the_chunk_count(self, ensemble, monkeypatch, spill):
        started = _recording(monkeypatch, "ProcessPoolExecutor")
        traces = list(ensemble)[:2]
        study = Study().traces(*traces).capacities(1.25).solvers("OS").spill(spill)
        reference = study.run().to_json()
        assert study.parallel(8, backend="processes", chunk_size=1).run().to_json() == reference
        assert started == [2]
        started.clear()
        assert study.parallel(8, backend="processes", chunk_size=2).run().to_json() == reference
        assert started == [1]


# --------------------------------------------------------------------- #
# Progress reporting
# --------------------------------------------------------------------- #
class TestProgress:
    @pytest.mark.parametrize("backend", ["serial", "serve-pool", "processes"])
    def test_progress_reaches_total(self, ensemble, pool, backend):
        seen = []
        (
            small_study(ensemble)
            .parallel(2, backend=backend_for(backend, pool), chunk_size=1)
            .on_progress(lambda done, total: seen.append((done, total)))
            .run()
        )
        assert seen[-1] == (len(list(ensemble)), len(list(ensemble)))
        completed = [done for done, _ in seen]
        assert completed == sorted(completed)
        assert len(set(completed)) == len(completed)

    def test_on_progress_rejects_non_callable(self):
        with pytest.raises(TypeError):
            Study().on_progress("loud")

    def test_on_progress_none_clears(self, ensemble):
        study = small_study(ensemble).on_progress(lambda d, t: None).on_progress(None)
        assert study.run()


# --------------------------------------------------------------------- #
# Failure surfacing
# --------------------------------------------------------------------- #
class _CrashingSolver:
    name = "test.crash"
    category = "static"

    def schedule(self, instance):
        raise RuntimeError("intentional crash for backend tests")


class TestWorkerFailures:
    @pytest.fixture(autouse=True)
    def _crashing_solver(self):
        register_solver("test.crash", category="static", replace=True)(_CrashingSolver)
        yield
        unregister_solver("test.crash")

    @pytest.mark.parametrize("backend", ["processes"])
    def test_crash_in_worker_names_the_job(self, ensemble, backend):
        study = Study().traces(ensemble).capacities(1.25).solvers("test.crash")
        with pytest.raises(SweepJobError) as excinfo:
            study.parallel(2, backend=backend).run()
        message = str(excinfo.value)
        assert "sweep job" in message and "failed" in message
        assert "synthetic-mixed-intensity" in message

    @pytest.mark.parametrize("backend", ["serial", "serve-pool"])
    def test_in_process_backends_propagate_the_original_exception(
        self, ensemble, pool, backend
    ):
        # In-process execution must keep raising the solver's own exception
        # (type and object); only the process boundary needs the picklable
        # wrapper.
        study = Study().traces(ensemble).capacities(1.25).solvers("test.crash")
        with pytest.raises(RuntimeError, match="intentional crash") as excinfo:
            study.parallel(2, backend=backend_for(backend, pool), chunk_size=1).run()
        assert not isinstance(excinfo.value, SweepJobError)

    def test_bad_chunk_size_is_rejected_early(self, ensemble, pool):
        with pytest.raises(ValueError, match="chunk_size"):
            Study().parallel(2, chunk_size=0)
        for backend in (pool.backend(), ProcessBackend(2)):
            with pytest.raises(ValueError, match="chunk_size"):
                sweep_traces(
                    [ensemble], capacity_factors=(1.0,), backend=backend, chunk_size=-1
                )

    def test_unpicklable_job_rejected_before_workers_start(self, ensemble):
        study = (
            Study()
            .traces(ensemble)
            .capacities(1.25)
            .solvers(LargestCommunicationFirst())  # live instance: no wire form
        )
        with pytest.raises(TypeError, match="process boundary"):
            study.parallel(2, backend="processes").run()


# --------------------------------------------------------------------- #
# Job plane
# --------------------------------------------------------------------- #
class TestSweepJob:
    def test_jobs_pickle_in_wire_form(self, ensemble):
        job = SweepJob(
            payload=list(ensemble)[0],
            solver_specs=("LCMR", named_spec("portfolio.race", members=("OS", "OOSIM"), prune=False)),
            capacity_factors=(1.0, 1.5),
        )
        restored = pickle.loads(pickle.dumps(job.to_wire()))
        assert restored.run() == job.run()

    def test_wire_form_rejects_live_solvers(self, ensemble):
        job = SweepJob(
            payload=list(ensemble)[0],
            solver_specs=(LargestCommunicationFirst(),),
            capacity_factors=(1.0,),
        )
        with pytest.raises(TypeError, match="process boundary"):
            job.to_wire()

    def test_label(self, ensemble):
        trace = list(ensemble)[0]
        assert SweepJob(payload=trace).label == trace.label
        instance = trace.to_instance(trace.min_capacity_bytes * 2)
        assert SweepJob(payload=instance).label == instance.name


# --------------------------------------------------------------------- #
# SweepJobError across the process boundary
# --------------------------------------------------------------------- #
class TestSweepJobErrorPickling:
    def test_round_trip_preserves_type_and_message(self):
        error = SweepJobError(
            "sweep job 'trace-3 @ 1.25x' failed in a processes worker\n"
            "worker traceback:\nRuntimeError: boom"
        )
        restored = pickle.loads(pickle.dumps(error))
        assert type(restored) is SweepJobError
        assert restored.args == error.args
        assert "worker traceback" in str(restored)

    def test_error_raised_across_a_real_process_boundary_pickles_again(self, ensemble):
        # The exception object that surfaces in the parent after a worker
        # crash must itself survive another pickle hop (e.g. a process-pool
        # test harness re-raising it), not just the first crossing.
        register_solver("test.crash2", category="static", replace=True)(_CrashingSolver)
        try:
            study = Study().traces(ensemble).capacities(1.25).solvers("test.crash2")
            with pytest.raises(SweepJobError) as excinfo:
                study.parallel(2, backend="processes").run()
        finally:
            unregister_solver("test.crash2")
        rehopped = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(rehopped, SweepJobError)
        assert str(rehopped) == str(excinfo.value)
        assert "intentional crash" in str(rehopped)


class TestPlanBackendPrecedence:
    """The documented chain in one place: explicit arg > env > n_jobs default."""

    def test_full_precedence_chain(self, monkeypatch, pool):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        # 1. n_jobs alone picks the parallel default (processes) or serial.
        assert isinstance(plan_backend(None, n_jobs=4)[0], ProcessBackend)
        assert isinstance(plan_backend(None, n_jobs=1)[0], SerialBackend)
        # 2. The env var overrides the n_jobs default...
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert isinstance(plan_backend(None, n_jobs=4)[0], ProcessBackend)
        assert isinstance(plan_backend(None, n_jobs=1)[0], ProcessBackend)
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert isinstance(plan_backend(None, n_jobs=4)[0], SerialBackend)
        # 3. ...and an explicit argument overrides the env var.
        assert isinstance(plan_backend("processes", n_jobs=4)[0], ProcessBackend)
        # Live backend instances pass through untouched, beating everything.
        explicit = pool.backend()
        assert plan_backend(explicit, n_jobs=8)[0] is explicit
