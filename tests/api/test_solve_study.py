"""Tests for the solve() facade and the fluent Study builder."""

import math

import pytest

from repro.api import (
    ResultSet,
    Study,
    get_solver,
    paper_lineup,
    register_solver,
    run_solvers_on_instance,
    solve,
    solver_names,
    unregister_solver,
)
from repro.core import Instance, Task, omim
from repro.heuristics import StaticOrderHeuristic
from repro.simulator import FixedOrderPolicy, simulate
from repro.traces import synthetic_trace


@pytest.fixture(scope="module")
def table3_like_instance():
    tasks = [
        Task.from_times("A", comm=3, comp=2),
        Task.from_times("B", comm=1, comp=3),
        Task.from_times("C", comm=4, comp=4),
        Task.from_times("D", comm=2, comp=1),
    ]
    return Instance(tasks, capacity=6, name="quickstart")


@pytest.fixture(scope="module")
def traces():
    return [
        synthetic_trace("mixed-intensity", tasks=30, seed=3),
        synthetic_trace("mixed-intensity", tasks=30, seed=4),
        synthetic_trace("communication-heavy", tasks=30, seed=5),
    ]


class TestSolve:
    def test_dispatches_by_name(self, table3_like_instance):
        result = solve(table3_like_instance, method="LCMR")
        assert result.solver == "LCMR"
        assert result.category == "dynamic"
        assert result.makespan == pytest.approx(14.0)
        assert result.ratio_to_optimal >= 1.0

    def test_dispatches_every_registered_solver(self, table3_like_instance):
        # The acceptance bar: one protocol, >= 16 solvers behind solve().
        from repro.api import solver_names

        names = solver_names()
        assert len(names) >= 16
        reference = omim(table3_like_instance)
        for name in names:
            result = solve(table3_like_instance, method=name, reference=reference)
            assert result.ratio_to_optimal >= 1.0 - 1e-9, name

    def test_accepts_instances_and_classes(self, table3_like_instance):
        from repro.heuristics import OrderOfSubmission

        assert solve(table3_like_instance, OrderOfSubmission).solver == "OS"
        assert solve(table3_like_instance, OrderOfSubmission()).solver == "OS"

    def test_batch_mode(self, table3_like_instance):
        batched = solve(table3_like_instance, "OS", batch_size=2)
        plain = solve(table3_like_instance, "OS")
        # Batching only adds barriers, so OS cannot improve.
        assert batched.makespan >= plain.makespan - 1e-9

    def test_category_spec_is_rejected(self, table3_like_instance):
        with pytest.raises(ValueError, match="single solver"):
            solve(table3_like_instance, "category:dynamic")

    def test_params_only_with_names(self, table3_like_instance):
        from repro.heuristics import OrderOfSubmission

        with pytest.raises(TypeError, match="only accepted"):
            solve(table3_like_instance, OrderOfSubmission(), window=3)


class TestUnknownEngineNames:
    """Every entry point taking ``engine=`` rejects a name it does not know,
    whether or not the solver behind it runs on the kernel."""

    @pytest.mark.parametrize("name", solver_names())
    def test_every_solver_rejects_an_unknown_engine(
        self, name, table3_like_instance, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # portfolio.cached
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            solve(table3_like_instance, name, engine="bogus")
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            get_solver(name).simulate(table3_like_instance, engine="bogus")

    def test_an_unknown_environment_override_is_named(self, table3_like_instance, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        policy = FixedOrderPolicy(table3_like_instance.tasks)
        with pytest.raises(ValueError, match="unknown engine 'bogus' \\(from REPRO_ENGINE\\)"):
            simulate(table3_like_instance, policy)


class TestStudy:
    def test_fluent_sweep(self, traces):
        results = (
            Study()
            .traces(traces[0])
            .capacities(1.0, 2.0)
            .solvers("category:dynamic", "OOMAMR")
            .run()
        )
        assert isinstance(results, ResultSet)
        assert set(results.column("heuristic")) == {"LCMR", "SCMR", "MAMR", "OOMAMR"}
        assert set(results.column("capacity_factor")) == {1.0, 2.0}
        assert len(results) == 4 * 2

    def test_capacities_steps(self, traces):
        study = Study().traces(traces[0]).capacities(1.0, 2.0, steps=5).solvers("OS")
        results = study.run()
        assert sorted(set(results.column("capacity_factor"))) == [
            1.0,
            1.25,
            1.5,
            1.75,
            2.0,
        ]

    def test_capacities_validation(self):
        with pytest.raises(ValueError, match="two bounds"):
            Study().capacities(1.0, 1.5, 2.0, steps=4)
        with pytest.raises(ValueError, match="at least one factor"):
            Study().capacities()

    def test_task_limit(self, traces):
        results = Study().traces(traces[0]).capacities(1.5).solvers("OS").task_limit(7).run()
        assert set(results.column("task_count")) == {7}

    def test_batched_execution(self, traces):
        batched = (
            Study().traces(traces[0]).capacities(1.5).solvers("OS").batched(10).run()
        )
        plain = Study().traces(traces[0]).capacities(1.5).solvers("OS").run()
        assert batched[0].makespan >= plain[0].makespan - 1e-9

    def test_run_without_inputs(self):
        with pytest.raises(ValueError, match="nothing to run"):
            Study().run()

    def test_instances_path_defaults_application_to_adhoc(self):
        instance = Instance(
            [Task.from_times("A", comm=2, comp=1), Task.from_times("B", comm=1, comp=2)],
            capacity=4,
        )
        results = Study().instances(instance).solvers("OS").run()
        assert results.column("application") == ("adhoc",)

    def test_parallel_identical_to_sequential(self, traces):
        shape = (
            lambda: Study()
            .traces(traces)
            .capacities(1.0, 1.5, 2.0)
            .solvers("category:dynamic", "OS", "OOSIM")
        )
        sequential = shape().run()
        parallel = shape().parallel(4).run()
        assert parallel == sequential
        assert parallel.to_columns() == sequential.to_columns()

    def test_custom_solver_shows_up_in_study_run(self, traces):
        @register_solver(aliases=("LONGEST-TOTAL-TIME",))
        class DecreasingTotalTime(StaticOrderHeuristic):
            name = "DTT"
            description = "Tasks by decreasing comm+comp (custom plugin)."

            def order(self, instance):
                return sorted(
                    instance.tasks, key=lambda t: t.comm + t.comp, reverse=True
                )

        try:
            results = (
                Study().traces(traces[0]).capacities(1.5).solvers("OS", "DTT").run()
            )
            assert set(results.column("heuristic")) == {"OS", "DTT"}
            dtt_rows = results.filter(heuristic="DTT")
            assert all(r.ratio_to_optimal >= 1.0 - 1e-9 for r in dtt_rows)
        finally:
            unregister_solver("DTT")

    def test_ensemble_input(self):
        from repro.traces.model import TraceEnsemble

        ensemble = TraceEnsemble(
            application="synthetic-mixed-intensity",
            traces=[
                synthetic_trace("mixed-intensity", tasks=20, process=p, seed=1)
                for p in (0, 1)
            ],
        )
        results = Study().traces(ensemble).capacities(1.5).solvers("OS").run()
        assert len(results) == 2
        assert set(results.column("application")) == {"synthetic-mixed-intensity"}


class TestSolveArrivals:
    def test_arrivals_stamp_and_stream(self, table3_like_instance):
        from repro.simulator import PoissonArrivals

        result = solve(
            table3_like_instance, "LCMR", arrivals=PoissonArrivals(load=1.0), arrival_seed=3
        )
        assert result.instance.has_releases
        assert result.online is not None
        assert result.online.mean_response_time > 0
        # Releases only delay work: never better than the offline run.
        offline = solve(table3_like_instance, "LCMR")
        assert result.makespan >= offline.makespan - 1e-9
        assert result.online is not None and offline.online is None

    def test_arrivals_sequence_and_mapping(self, table3_like_instance):
        by_seq = solve(table3_like_instance, "OS", arrivals=[0.0, 0.0, 5.0, 0.0])
        assert by_seq.schedule["C"].comm_start >= 5.0
        by_map = solve(table3_like_instance, "OS", arrivals={"C": 5.0})
        assert by_map.schedule == by_seq.schedule

    def test_release_dated_instance_streams_automatically(self, table3_like_instance):
        stamped = table3_like_instance.with_releases({"A": 4.0})
        result = solve(stamped, "OOMAMR")
        assert result.schedule["A"].comm_start >= 4.0
        assert result.online is not None

    def test_arrivals_exclude_batching(self, table3_like_instance):
        with pytest.raises(ValueError, match="streaming generalises batching"):
            solve(table3_like_instance, "OS", arrivals=[0, 0, 0, 0], batch_size=2)

    def test_pipelined_requires_batch_size(self, table3_like_instance):
        with pytest.raises(ValueError, match="batch_size"):
            solve(table3_like_instance, "OS", pipelined=True)

    def test_batch_mode_composes_with_machine_and_events(self, table3_like_instance):
        from repro.simulator import MachineModel

        result = solve(
            table3_like_instance,
            "LCMR",
            batch_size=2,
            machine=MachineModel(link_count=2),
            record_events=True,
        )
        assert result.trace is not None
        assert result.trace.makespan == pytest.approx(result.makespan)

    def test_pipelined_batches_never_beat_offline_nor_lose_to_barrier_for_os(
        self, table3_like_instance
    ):
        offline = solve(table3_like_instance, "OS")
        barrier = solve(table3_like_instance, "OS", batch_size=2)
        piped = solve(table3_like_instance, "OS", batch_size=2, pipelined=True)
        assert offline.makespan - 1e-9 <= piped.makespan <= barrier.makespan + 1e-9


class TestStudyArrivals:
    def test_arrivals_fill_online_columns(self, traces):
        from repro.simulator import PoissonArrivals

        results = (
            Study()
            .traces(traces[0])
            .capacities(1.5)
            .solvers("LCMR", "OOMAMR")
            .arrivals(PoissonArrivals(load=2.0), seed=4)
            .run()
        )
        assert len(results) == 2
        assert all(r.mean_response_time > 0 for r in results)
        assert all(r.avg_queue_length > 0 for r in results)

    def test_offline_rows_carry_nan_online_columns(self, traces):
        import math

        results = Study().traces(traces[0]).capacities(1.5).solvers("OS").run()
        assert all(math.isnan(r.mean_response_time) for r in results)

    def test_arrival_pattern_is_shared_across_capacity_factors(self, traces):
        from repro.simulator import PoissonArrivals

        results = (
            Study()
            .traces(traces[0])
            .capacities(1.0, 2.0)
            .solvers("OS")
            .arrivals(PoissonArrivals(load=1.0), seed=1)
            .run()
        )
        # Same releases at both factors: only the capacity differs, so the
        # response times are comparable (and the capacity=2mc run is never
        # slower than capacity=mc).
        tight, loose = results[0], results[1]
        assert tight.capacity_factor == 1.0 and loose.capacity_factor == 2.0
        assert loose.makespan <= tight.makespan + 1e-9

    def test_pipelined_study_runs(self, traces):
        barrier = (
            Study().traces(traces[0]).capacities(1.5).solvers("OS").batched(10).run()
        )
        piped = (
            Study()
            .traces(traces[0])
            .capacities(1.5)
            .solvers("OS")
            .batched(10, pipelined=True)
            .run()
        )
        assert piped[0].makespan <= barrier[0].makespan + 1e-9

    def test_arrivals_and_batching_are_exclusive(self, traces):
        from repro.simulator import PoissonArrivals

        study = (
            Study()
            .traces(traces[0])
            .capacities(1.5)
            .solvers("OS")
            .batched(10)
            .arrivals(PoissonArrivals())
        )
        with pytest.raises(ValueError, match="streaming generalises batching"):
            study.run()


class TestPipelinedValidation:
    def test_sweeps_reject_pipelined_without_batch_size(self, traces):
        from repro.api.engine import sweep_instances, sweep_traces
        from repro.core import Instance, Task

        with pytest.raises(ValueError, match="requires a batch_size"):
            sweep_traces(
                [traces[0]], capacity_factors=(1.5,), solver_specs=("OS",), pipelined=True
            )
        instance = Instance([Task.from_times("A", 1, 1)], capacity=4)
        with pytest.raises(ValueError, match="requires a batch_size"):
            sweep_instances([instance], solver_specs=("OS",), pipelined=True)


class TestApplicationLabel:
    """The ``application`` label of rows swept from raw instances."""

    def test_unnamed_instance_defaults_to_adhoc(self):
        instance = Instance(
            [Task.from_times("A", comm=2, comp=1), Task.from_times("B", comm=1, comp=2)],
            capacity=4,
        )
        (record,) = Study().instances(instance).solvers("OS").run()
        assert record.application == "adhoc"
        assert record.trace == ""
        assert math.isnan(record.capacity_factor)

    def test_named_instance_keeps_application_prefix(self):
        trace = synthetic_trace("mixed-intensity", tasks=25, seed=9)
        instance = trace.to_instance_with_factor(1.5)
        (record,) = Study().instances(instance).solvers("OS").run()
        assert record.application == trace.application

    def test_explicit_application_wins(self):
        instance = Instance([Task.from_times("A", comm=2, comp=1)], capacity=4, name="x/y")
        (record,) = run_solvers_on_instance(
            instance, paper_lineup(["OS"]), application="explicit"
        )
        assert record.application == "explicit"
