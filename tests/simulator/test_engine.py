"""Tests for the unified kernel: policies, machine models, event traces."""

import pytest

from repro import solve
from repro.api import paper_lineup
from repro.core import Instance, Task, evaluate, validate_schedule
from repro.simulator import (
    CorrectedOrderPolicy,
    CriterionPolicy,
    EventKind,
    EventTrace,
    FixedOrderPolicy,
    MachineModel,
    ParallelResource,
    UnitResource,
    largest_communication,
    simulate,
    smallest_communication,
)
from repro.traces.generator import synthetic_trace


def _tasks(*specs):
    return [Task(name, comm, comp, memory) for name, comm, comp, memory in specs]


@pytest.fixture
def small_instance() -> Instance:
    return Instance(
        _tasks(("A", 4.0, 2.0, 4.0), ("B", 1.0, 6.0, 1.0), ("C", 3.0, 3.0, 3.0)),
        capacity=5.0,
    )


class TestPolicyReuse:
    """One policy object must be reusable across runs (the seed
    ``CorrectedOrderPolicy`` consumed internal state and silently produced
    wrong schedules on the second run)."""

    def test_corrected_policy_reusable_across_runs(self, table5_instance):
        policy = CorrectedOrderPolicy(
            order=("B", "C", "D", "E", "A"), criterion=largest_communication
        )
        first = simulate(table5_instance, policy).schedule
        second = simulate(table5_instance, policy).schedule
        fresh = simulate(
            table5_instance,
            CorrectedOrderPolicy(order=("B", "C", "D", "E", "A"), criterion=largest_communication),
        ).schedule
        assert first == fresh
        assert second == fresh

    def test_corrected_policy_reusable_across_instances(self, table5_instance, table4_instance):
        policy = CorrectedOrderPolicy(order=("B", "A", "C", "D"), criterion=smallest_communication)
        simulate(table4_instance, policy)  # consume a first run
        rerun = simulate(table4_instance, policy).schedule
        fresh = simulate(
            table4_instance,
            CorrectedOrderPolicy(order=("B", "A", "C", "D"), criterion=smallest_communication),
        ).schedule
        assert rerun == fresh

    def test_fixed_order_policy_reusable(self, table3_instance):
        policy = FixedOrderPolicy(tuple(table3_instance.tasks))
        first = simulate(table3_instance, policy).schedule
        second = simulate(table3_instance, policy).schedule
        fresh = simulate(table3_instance, FixedOrderPolicy(table3_instance.tasks)).schedule
        assert first == second == fresh


class TestEventTrace:
    def test_trace_matches_schedule(self, table3_instance):
        result = simulate(
            table3_instance, FixedOrderPolicy(tuple(table3_instance.tasks)), record=True
        )
        trace = result.trace
        assert trace is not None
        assert trace.makespan == result.schedule.makespan
        assert trace.peak_memory() == result.schedule.peak_memory()
        assert trace.overlap_time() == result.schedule.overlap_time()
        assert trace.idle_time("communication") == result.schedule.communication_idle_time()
        assert trace.idle_time("computation") == result.schedule.computation_idle_time()
        transfers = {name: (s, e) for s, e, name in trace.transfer_intervals()}
        for entry in result.schedule:
            assert transfers[entry.name] == (entry.comm_start, entry.comm_end)

    def test_trace_event_counts(self, small_instance):
        trace = simulate(
            small_instance, CriterionPolicy(smallest_communication), record=True
        ).trace
        by_kind = {}
        for event in trace:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert by_kind[EventKind.TRANSFER_START] == 3
        assert by_kind[EventKind.TRANSFER_END] == 3
        assert by_kind[EventKind.COMPUTE_START] == 3
        assert by_kind[EventKind.COMPUTE_END] == 3
        assert by_kind[EventKind.MEMORY_ACQUIRE] == 3
        assert by_kind[EventKind.MEMORY_RELEASE] == 3

    def test_memory_events_balance(self, small_instance):
        trace = simulate(
            small_instance, CriterionPolicy(smallest_communication), record=True
        ).trace
        assert sum(e.amount for e in trace) == pytest.approx(0.0)
        profile = trace.memory_profile()
        assert profile[-1].usage == pytest.approx(0.0)
        assert max(e.usage for e in profile) <= small_instance.capacity + 1e-9

    def test_no_trace_by_default(self, small_instance):
        result = simulate(small_instance, CriterionPolicy(smallest_communication))
        assert result.trace is None

    def test_idle_intervals_cover_gaps(self, small_instance):
        trace = simulate(
            small_instance, CriterionPolicy(smallest_communication), record=True
        ).trace
        idle = trace.idle_time("computation")
        busy = sum(e - s for s, e in trace.busy_intervals("computation"))
        assert idle + busy == pytest.approx(trace.makespan)


@pytest.mark.parametrize(
    "machine",
    [None, MachineModel(link_count=2), MachineModel(cpu_count=2)],
    ids=["paper", "two-links", "two-cpus"],
)
@pytest.mark.parametrize("regime", ["balanced", "heterogeneous", "mixed-intensity"])
def test_metrics_from_trace_equal_metrics_from_schedule(machine, regime):
    """evaluate() gives the same answer, field for field, with or without the trace."""
    for seed in (0, 1):
        trace = synthetic_trace(regime, tasks=60, seed=seed)
        for factor in (1.0, 1.25):
            instance = trace.to_instance_with_factor(factor)
            for solver in paper_lineup():
                result = solver.simulate(instance, machine=machine, record=True)
                from_trace = evaluate(result.schedule, instance, trace=result.trace)
                assert from_trace == evaluate(result.schedule, instance), solver.name


class TestMachineModels:
    def test_default_machine_is_paper_machine(self):
        assert MachineModel().is_paper_machine
        assert not MachineModel(link_count=2).is_paper_machine

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            MachineModel(link_count=0)
        with pytest.raises(ValueError):
            MachineModel(cpu_count=-1)
        with pytest.raises(ValueError):
            MachineModel(capacity=0.0)

    def test_parallel_links_overlap_transfers(self):
        # Two equal tasks, no memory pressure: with two links both transfers
        # start at t=0 and the computations serialise on the single unit.
        instance = Instance(_tasks(("A", 4.0, 1.0, 1.0), ("B", 4.0, 1.0, 1.0)), capacity=10.0)
        policy = FixedOrderPolicy(tuple(instance.tasks))
        serial = simulate(instance, policy).schedule
        overlapped = simulate(instance, policy, machine=MachineModel(link_count=2)).schedule
        assert serial.makespan == pytest.approx(9.0)
        assert overlapped.makespan == pytest.approx(6.0)
        assert overlapped["A"].comm_start == overlapped["B"].comm_start == 0.0
        report = validate_schedule(overlapped, instance, machine=MachineModel(link_count=2))
        assert report.is_feasible

    def test_parallel_links_respect_memory(self):
        # Capacity admits only one task at a time, so the second link is
        # useless: behaviour matches the single-link machine.
        instance = Instance(_tasks(("A", 4.0, 1.0, 3.0), ("B", 4.0, 1.0, 3.0)), capacity=4.0)
        policy = FixedOrderPolicy(tuple(instance.tasks))
        single = simulate(instance, policy).schedule
        double = simulate(instance, policy, machine=MachineModel(link_count=2)).schedule
        assert double == single

    def test_parallel_links_fixed_order_respects_memory_on_second_link(self):
        # Regression: a fixed-order wait for memory jumps the ledger clock
        # forward; the next transfer (on the other, earlier-free link) must
        # not be placed before that jump, or released memory double-counts.
        instance = Instance(
            _tasks(("A", 1.0, 5.0, 6.0), ("B", 5.0, 1.0, 5.0), ("C", 1.0, 1.0, 5.0)),
            capacity=10.0,
        )
        policy = FixedOrderPolicy(tuple(instance.tasks))
        machine = MachineModel(link_count=2)
        schedule = simulate(instance, policy, machine=machine).schedule
        report = validate_schedule(schedule, instance, machine=machine)
        assert report.is_feasible, report.summary()
        # B must wait for A's computation to release memory at t=6, and C in
        # turn cannot start before B (transfers keep the given order).
        assert schedule["B"].comm_start == pytest.approx(6.0)
        assert schedule["C"].comm_start >= 6.0

    def test_idle_time_counts_parallel_transfers_once(self):
        # Transfers run pairwise on [0, 2) and [2, 4); computations on
        # [2, 3) and [4, 5).  The link idles only over [4, 5], although the
        # transfers add up to more than the makespan.
        instance = Instance(_tasks(*((name, 2.0, 0.5, 1.0) for name in "ABCD")), capacity=10.0)
        for record_events in (False, True):
            metrics = solve(
                instance, "OS", machine=MachineModel(link_count=2), record_events=record_events
            ).metrics
            assert metrics.makespan == 5.0
            assert metrics.communication_idle == 1.0
            assert metrics.computation_idle == 3.0
            assert metrics.overlap_time == 1.0

    def test_idle_time_counts_parallel_computations_once(self):
        # Computations [1, 4), [2, 5), [4, 7), [5, 8) on two units: the
        # units idle together only over [0, 1).
        instance = Instance(_tasks(*((name, 1.0, 3.0, 1.0) for name in "ABCD")), capacity=10.0)
        for record_events in (False, True):
            metrics = solve(
                instance, "OS", machine=MachineModel(cpu_count=2), record_events=record_events
            ).metrics
            assert metrics.makespan == 8.0
            assert metrics.computation_idle == 1.0
            assert metrics.communication_idle == 4.0

    def test_parallel_cpus(self):
        instance = Instance(_tasks(("A", 1.0, 6.0, 1.0), ("B", 1.0, 6.0, 1.0)), capacity=10.0)
        policy = FixedOrderPolicy(tuple(instance.tasks))
        serial = simulate(instance, policy).schedule
        parallel = simulate(instance, policy, machine=MachineModel(cpu_count=2)).schedule
        assert serial.makespan == pytest.approx(13.0)
        assert parallel.makespan == pytest.approx(8.0)

    def test_capacity_override(self):
        instance = Instance(_tasks(("A", 2.0, 2.0, 4.0), ("B", 2.0, 2.0, 4.0)), capacity=8.0)
        policy = FixedOrderPolicy(tuple(instance.tasks))
        loose = simulate(instance, policy).schedule
        tight = simulate(instance, policy, machine=MachineModel(capacity=4.0)).schedule
        assert tight.makespan > loose.makespan
        report = validate_schedule(tight, instance, machine=MachineModel(capacity=4.0))
        assert report.is_feasible

    def test_concurrency_validation_catches_excess(self):
        instance = Instance(_tasks(("A", 4.0, 1.0, 1.0), ("B", 4.0, 1.0, 1.0), ("C", 4.0, 1.0, 1.0)))
        policy = FixedOrderPolicy(tuple(instance.tasks))
        three = simulate(instance, policy, machine=MachineModel(link_count=3)).schedule
        report = validate_schedule(three, instance, machine=MachineModel(link_count=2))
        assert "communication-overlap" in report.kinds()

    def test_resource_models(self):
        unit = UnitResource()
        assert unit.commit(1.0, 2.0) == (1.0, 3.0)
        assert unit.commit(0.0, 1.0) == (3.0, 4.0)  # cannot start in the past
        pair = ParallelResource(2)
        assert pair.commit(0.0, 5.0) == (0.0, 5.0)
        assert pair.commit(0.0, 1.0) == (0.0, 1.0)  # second server free
        assert pair.commit(0.0, 1.0) == (1.0, 2.0)  # earliest-free server


class TestFacadeIntegration:
    def test_solve_records_events(self, table4_instance):
        from repro import solve

        result = solve(table4_instance, "LCMR", record_events=True)
        assert isinstance(result.trace, EventTrace)
        assert result.trace.makespan == result.schedule.makespan

    def test_solve_with_machine_model(self, table4_instance):
        from repro import solve

        baseline = solve(table4_instance, "LCMR")
        wide = solve(table4_instance, "LCMR", machine=MachineModel(link_count=2))
        # Greedy policies do not dominate across machines in general (adding
        # a link can worsen a schedule, as in Graham's anomalies); on this
        # pinned instance the second link happens to help.
        assert wide.makespan <= baseline.makespan + 1e-9

    def test_solve_rejects_machine_for_non_kernel_solver(self, table4_instance):
        from repro import solve

        with pytest.raises(ValueError, match="kernel"):
            solve(table4_instance, "lp.4", machine=MachineModel(link_count=2))

    def test_solve_rejects_events_for_non_kernel_solver(self, table4_instance):
        from repro import solve

        with pytest.raises(ValueError, match="kernel"):
            solve(table4_instance, "lp.4", record_events=True)

    def test_kernel_support_is_detectable(self):
        from repro.api import resolve_solvers

        by_name = {solver.name: solver for solver in resolve_solvers("LCMR", "lp.4")}
        assert by_name["LCMR"].runs_on_kernel
        assert not by_name["lp.4"].runs_on_kernel

    def test_study_machine_option(self, table4_instance):
        from repro.api import Study

        results = (
            Study()
            .instances(table4_instance)
            .solvers("LCMR", "OOSIM")
            .machine(MachineModel(link_count=2))
            .run()
        )
        assert len(results) == 2

    def test_study_machine_rejects_non_model(self):
        from repro.api import Study

        with pytest.raises(TypeError):
            Study().machine(2)

    def test_gantt_renders_from_trace(self, table4_instance):
        from repro import solve
        from repro.viz import render_gantt
        from repro.viz.gantt import render_event_log

        result = solve(table4_instance, "LCMR", record_events=True)
        from_trace = render_gantt(result.trace)
        from_schedule = render_gantt(result.schedule)
        assert from_trace == from_schedule
        log = render_event_log(result.trace, limit=5)
        assert "transfer_start" in log
        assert "more event(s)" in log

    def test_heuristic_simulate_matches_schedule(self, table4_instance):
        from repro.api import resolve_solvers

        for solver in resolve_solvers("OOSIM", "LCMR", "OOMAMR"):
            sim = solver.simulate(table4_instance, record=True)
            assert sim.schedule == solver.schedule(table4_instance)
            assert sim.trace is not None
