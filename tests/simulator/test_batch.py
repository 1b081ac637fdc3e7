"""Tests for batched execution (Section 6.3): barrier and pipelined modes."""

import numpy as np
import pytest

from repro.api import resolve_solvers
from repro.core import Instance, Schedule, Task, tasks_from_pairs, validate_schedule
from repro.heuristics.base import PAPER_FIGURE_ORDER
from repro.simulator import (
    EventKind,
    FixedOrderPolicy,
    MachineModel,
    simulate,
    simulate_in_batches,
)

#: 14 paper heuristics + GGX, as in the online differential sweep.
SOLVER_NAMES = (*PAPER_FIGURE_ORDER, "GGX")

#: Heuristics executing a fixed transfer order, for which the pipelined mode
#: provably dominates the barrier mode (same order, every event only earlier).
FIXED_ORDER_NAMES = ("OS", "GG", "BP", "OOSIM", "IOCMS", "DOCPS", "IOCCS", "DOCCS", "GGX")


@pytest.fixture
def instance():
    return Instance(tasks_from_pairs([(2, 3), (1, 1), (4, 2), (3, 3), (2, 2)]), capacity=6)


@pytest.fixture
def os_solver():
    (solver,) = resolve_solvers("OS")
    return solver


def submission_order(sub_instance):
    """The submission-order (OS) schedule of one instance, straight from the kernel."""
    return simulate(sub_instance, FixedOrderPolicy(sub_instance.tasks)).schedule


def random_instance(rng: np.random.Generator, index: int, n: int = 24) -> Instance:
    tasks = [
        Task(
            f"t{i:02d}",
            float(rng.uniform(0.1, 8.0)),
            float(rng.uniform(0.1, 8.0)),
            memory=float(rng.uniform(0.1, 8.0)),
        )
        for i in range(n)
    ]
    capacity = max(t.memory for t in tasks) * float(rng.uniform(1.0, 2.0))
    return Instance(tasks, capacity=capacity, name=f"batchrand/{index}")


class TestBatchedExecution:
    def test_single_batch_equals_direct_execution(self, instance, os_solver):
        batched = simulate_in_batches(instance, os_solver, batch_size=100).schedule
        assert batched == submission_order(instance)

    def test_batches_are_chained_sequentially(self, instance, os_solver):
        batched = simulate_in_batches(instance, os_solver, batch_size=2).schedule
        per_batch = [submission_order(batch) for batch in instance.batches(2)]
        expected = sum(schedule.makespan for schedule in per_batch)
        assert batched.makespan == pytest.approx(expected)
        assert validate_schedule(batched, instance).is_feasible

    def test_batching_never_improves_makespan(self, instance, os_solver):
        direct = submission_order(instance).makespan
        batched = simulate_in_batches(instance, os_solver, batch_size=2).schedule.makespan
        assert batched + 1e-9 >= direct

    def test_all_tasks_scheduled_once(self, instance, os_solver):
        batched = simulate_in_batches(instance, os_solver, batch_size=2).schedule
        assert sorted(e.name for e in batched) == sorted(instance.task_names)

    def test_invalid_batch_size(self, instance, os_solver):
        with pytest.raises(ValueError):
            simulate_in_batches(instance, os_solver, batch_size=0)

    def test_empty_instance(self, os_solver):
        empty = Instance([])
        assert simulate_in_batches(empty, os_solver).schedule.makespan == 0.0


class TestKernelComposition:
    """Batching runs on the kernel: machine models and traces compose."""

    def test_machine_model_composes_with_batches(self, instance):
        (solver,) = resolve_solvers("LCMR")
        two_links = MachineModel(link_count=2)
        result = simulate_in_batches(instance, solver, batch_size=2, machine=two_links)
        report = validate_schedule(result.schedule, instance, machine=two_links)
        assert report.is_feasible
        plain = simulate_in_batches(instance, solver, batch_size=2)
        assert result.schedule.makespan <= plain.schedule.makespan + 1e-9

    def test_event_trace_composes_with_batches(self, instance):
        (solver,) = resolve_solvers("OOMAMR")
        result = simulate_in_batches(instance, solver, batch_size=2, record=True)
        assert result.trace is not None
        assert result.trace.makespan == pytest.approx(result.schedule.makespan)
        transfers = [e for e in result.trace if e.kind is EventKind.TRANSFER_START]
        assert len(transfers) == len(instance)

    def test_barrier_trace_gives_the_schedule_metrics(self):
        # Each batch's trace is shifted like its schedule (ends re-derived
        # from the shifted starts), so the trace-based and the schedule-based
        # metrics of a barrier run agree exactly.
        from repro.api import solve
        from repro.core.metrics import evaluate
        from repro.traces import synthetic_trace

        regimes = (
            "balanced",
            "compute-heavy",
            "communication-heavy",
            "homogeneous",
            "heterogeneous",
            "mixed-intensity",
        )
        for seed in range(12):
            trace = synthetic_trace(regimes[seed % len(regimes)], tasks=60, seed=seed)
            instance = trace.to_instance_with_factor(1.25)
            for name in PAPER_FIGURE_ORDER:
                result = solve(instance, name, batch_size=7, record_events=True)
                assert evaluate(result.schedule, instance, trace=result.trace) == evaluate(
                    result.schedule, instance
                ), (seed, name)

    def test_callable_scheduler_rejects_engine_options(self, instance):
        # A bare Instance -> Schedule callable is not a solver at all.
        with pytest.raises(TypeError, match="expected a solver"):
            simulate_in_batches(instance, submission_order, batch_size=2)

    def test_milp_rejects_engine_options_but_batches_plainly(self, instance):
        (solver,) = resolve_solvers("lp.4")
        result = simulate_in_batches(instance, solver, batch_size=3)
        assert validate_schedule(result.schedule, instance).is_feasible
        with pytest.raises(ValueError, match="machine"):
            simulate_in_batches(
                instance, solver, batch_size=3, machine=MachineModel(link_count=2)
            )
        with pytest.raises(ValueError, match="pipelined"):
            simulate_in_batches(instance, solver, batch_size=3, pipelined=True)

    def test_release_dated_instances_are_rejected(self):
        released = Instance([Task("a", 1, 1, release=2.0)], capacity=10)
        (solver,) = resolve_solvers("OS")
        with pytest.raises(ValueError, match="streaming"):
            simulate_in_batches(released, solver, batch_size=1)


class TestPipelinedBatches:
    def test_single_batch_is_byte_identical_to_offline(self):
        rng = np.random.default_rng(5)
        instance = random_instance(rng, 0)
        for name in SOLVER_NAMES:
            (solver,) = resolve_solvers(name)
            offline = solver.schedule(instance)
            piped = simulate_in_batches(
                instance, solver, batch_size=len(instance), pipelined=True
            ).schedule
            assert piped == offline, name

    def test_pipelined_feasible_and_beats_barrier_for_fixed_orders(self):
        """Pipelined makespan <= barrier makespan; both feasible under the ledger.

        The dominance is guaranteed for fixed-transfer-order heuristics (the
        transfer order is identical in both modes and removing the barrier
        only moves events earlier); dynamic/corrected selection may reorder
        and occasionally lose, so those only pin feasibility here — the
        aggregate win is recorded by ``bench_online_modes``.
        """
        rng = np.random.default_rng(17)
        for index in range(12):
            instance = random_instance(rng, index)
            for name in SOLVER_NAMES:
                (solver,) = resolve_solvers(name)
                barrier = simulate_in_batches(instance, solver, batch_size=6)
                piped = simulate_in_batches(instance, solver, batch_size=6, pipelined=True)
                assert validate_schedule(barrier.schedule, instance).is_feasible, name
                assert validate_schedule(piped.schedule, instance).is_feasible, name
                if name in FIXED_ORDER_NAMES:
                    assert (
                        piped.schedule.makespan <= barrier.schedule.makespan + 1e-9
                    ), (instance.name, name)

    def test_pipelined_transfers_do_not_wait_for_the_drain(self):
        # Batch 0 ends with a long computation; the pipelined mode must start
        # batch 1's transfer while that computation is still running.
        instance = Instance(
            [Task("a", 1, 10, memory=1), Task("b", 1, 1, memory=1)], capacity=10
        )
        (solver,) = resolve_solvers("OS")
        barrier = simulate_in_batches(instance, solver, batch_size=1).schedule
        piped = simulate_in_batches(instance, solver, batch_size=1, pipelined=True).schedule
        assert barrier["b"].comm_start == pytest.approx(11.0)  # waits for the drain
        assert piped["b"].comm_start == pytest.approx(1.0)  # only waits for the link
        assert piped.makespan < barrier.makespan

    def test_pipelined_respects_batch_order_under_memory_pressure(self):
        # Batch 0's second task does not fit next to the first; the window
        # semantics must wait for it instead of jumping to batch 1.
        instance = Instance(
            [
                Task("a", 1, 5, memory=6),
                Task("b", 1, 1, memory=6),
                Task("c", 1, 1, memory=1),
            ],
            capacity=8,
        )
        (solver,) = resolve_solvers("OS")
        piped = simulate_in_batches(instance, solver, batch_size=2, pipelined=True).schedule
        assert validate_schedule(piped, instance).is_feasible
        assert piped["b"].comm_start < piped["c"].comm_start

    def test_empty_instance_pipelined(self):
        (solver,) = resolve_solvers("OS")
        result = simulate_in_batches(Instance([]), solver, pipelined=True, record=True)
        assert result.schedule.makespan == 0.0
        assert len(result.trace) == 0

    def test_barrier_equals_legacy_concatenation(self, instance, os_solver):
        entries, offset = [], 0.0
        for batch in instance.batches(2):
            schedule = os_solver.schedule(batch)
            entries.extend(schedule.shifted(offset).entries)
            offset += schedule.makespan
        kernel = simulate_in_batches(instance, os_solver, batch_size=2).schedule
        assert kernel == Schedule(entries)


    @pytest.mark.parametrize("machine", [None, MachineModel(cpu_count=2)], ids=["paper", "2-cpu"])
    def test_barrier_rows_are_byte_identical_to_the_concatenation(self, machine):
        from repro.simulator import ColumnarSchedule
        from repro.traces import synthetic_trace

        instance = synthetic_trace("heterogeneous", tasks=230, seed=3).to_instance_with_factor(1.25)
        for solver in resolve_solvers(*SOLVER_NAMES):
            entries, offset = [], 0.0
            for batch in instance.batches(100):
                schedule = solver.simulate(batch, machine=machine).schedule
                entries.extend(schedule.shifted(offset).entries)
                offset += schedule.makespan
            merged = simulate_in_batches(instance, solver, batch_size=100, machine=machine)
            schedule = merged.schedule
            # Columnar batches merge into a row of the instance's own tuple;
            # object-kernel batches (two CPUs) into a plain schedule.
            assert isinstance(schedule, ColumnarSchedule) is (machine is None), solver.name
            if machine is None:
                assert schedule.source_placement().tasks is instance.tasks
            assert [repr(e) for e in schedule] == [repr(e) for e in entries], solver.name
            assert repr(schedule.makespan) == repr(Schedule(entries).makespan), solver.name


class TestBatchNaming:
    def test_named_instance_batches_keep_provenance(self, instance):
        named = Instance(instance.tasks, capacity=instance.capacity, name="trace/p000")
        names = [b.name for b in named.batches(2)]
        assert names == ["trace/p000[batch 0]", "trace/p000[batch 1]", "trace/p000[batch 2]"]

    def test_unnamed_instance_batches_get_deterministic_fallbacks(self, instance):
        names = [b.name for b in instance.batches(2)]
        assert names == ["batch-0", "batch-1", "batch-2"]


class TestScheduleOnlySolvers:
    def test_schedule_only_solver_protocol_objects_batch(self, instance):
        # Any object satisfying the Solver protocol (name/category/schedule,
        # no simulate) must keep working through the batched path.
        class ScheduleOnly:
            name = "SO"
            category = "static"

            def schedule(self, sub_instance):
                return submission_order(sub_instance)

        result = simulate_in_batches(instance, ScheduleOnly(), batch_size=2)
        assert validate_schedule(result.schedule, instance).is_feasible
        (os_solver,) = resolve_solvers("OS")
        expected = simulate_in_batches(instance, os_solver, batch_size=2).schedule
        assert result.schedule == expected
        for option in (
            dict(machine=MachineModel(link_count=2)),
            dict(record=True),
            dict(engine="columnar"),
        ):
            with pytest.raises(ValueError, match="'SO' does not run on the simulation kernel"):
                simulate_in_batches(instance, ScheduleOnly(), batch_size=2, **option)
