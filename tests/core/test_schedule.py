"""Unit tests for schedules and their derived metrics."""

import math

import pytest

from repro.core import Schedule, ScheduledTask, Task


def entry(name, comm, comp, comm_start, comp_start, memory=None):
    task = Task(name=name, comm=comm, comp=comp, memory=comm if memory is None else memory)
    return ScheduledTask(task=task, comm_start=comm_start, comp_start=comp_start)


@pytest.fixture
def pipeline_schedule():
    """Two tasks perfectly pipelined: B's transfer overlaps A's computation."""
    return Schedule(
        [
            entry("A", comm=2, comp=4, comm_start=0, comp_start=2),
            entry("B", comm=3, comp=1, comm_start=2, comp_start=6),
        ]
    )


class TestScheduledTask:
    def test_derived_times(self):
        e = entry("A", comm=2, comp=4, comm_start=1, comp_start=3)
        assert e.comm_end == 3
        assert e.comp_end == 7
        assert e.memory_interval == (1, 7)
        assert e.wait_time == 0

    def test_computation_cannot_precede_transfer(self):
        with pytest.raises(ValueError):
            entry("A", comm=5, comp=1, comm_start=0, comp_start=3)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            entry("A", comm=1, comp=1, comm_start=-1, comp_start=2)


class TestScheduleBasics:
    def test_duplicate_tasks_rejected(self):
        e = entry("A", 1, 1, 0, 1)
        with pytest.raises(ValueError):
            Schedule([e, e])

    def test_lookup(self, pipeline_schedule):
        assert pipeline_schedule["A"].comm_start == 0
        assert pipeline_schedule[1].name == "B"
        assert "B" in pipeline_schedule
        assert len(pipeline_schedule) == 2

    def test_equality_and_hash(self, pipeline_schedule):
        clone = Schedule(list(pipeline_schedule.entries))
        assert clone == pipeline_schedule
        assert hash(clone) == hash(pipeline_schedule)

    def test_empty_schedule(self):
        empty = Schedule.empty()
        assert empty.makespan == 0
        assert empty.memory_profile() == []
        assert empty.overlap_time() == 0


class TestOrders:
    def test_orders_and_permutation_property(self, pipeline_schedule):
        assert pipeline_schedule.communication_order() == ["A", "B"]
        assert pipeline_schedule.computation_order() == ["A", "B"]
        assert pipeline_schedule.is_permutation_schedule()

    def test_non_permutation_schedule_detected(self):
        schedule = Schedule(
            [
                entry("A", comm=1, comp=5, comm_start=0, comp_start=5),
                entry("B", comm=2, comp=1, comm_start=1, comp_start=3),
            ]
        )
        assert schedule.communication_order() == ["A", "B"]
        assert schedule.computation_order() == ["B", "A"]
        assert not schedule.is_permutation_schedule()


class TestMetrics:
    def test_makespan_and_busy_times(self, pipeline_schedule):
        assert pipeline_schedule.makespan == 7
        assert pipeline_schedule.communication_busy_time == 5
        assert pipeline_schedule.computation_busy_time == 5
        assert pipeline_schedule.communication_idle_time() == 2
        assert pipeline_schedule.computation_idle_time() == 2

    def test_overlap_time(self, pipeline_schedule):
        # B's transfer [2, 5) overlaps A's computation [2, 6).
        assert pipeline_schedule.overlap_time() == pytest.approx(3.0)

    def test_overlap_counts_segment_whose_midpoint_rounds_to_its_end(self):
        # The only segment with both resources busy is [a, b), one ulp
        # wide: its float midpoint rounds to b, outside the transfer.
        a = math.nextafter(1.0, 2.0)
        b = math.nextafter(a, 2.0)
        schedule = Schedule(
            [
                entry("T", comm=b, comp=0.0, comm_start=0.0, comp_start=b),
                entry("C", comm=0.0, comp=1.0, comm_start=a, comp_start=a),
            ]
        )
        assert schedule.overlap_time() == b - a == 2.220446049250313e-16

    def test_idle_time_is_never_negative_with_parallel_servers(self):
        # Three transfers run at once on [0, 2): the link is busy 2 of the
        # makespan's 5 time units, although the transfers add up to 6.
        schedule = Schedule(
            [
                entry(name, comm=2, comp=1, comm_start=0, comp_start=start)
                for name, start in (("A", 2), ("B", 3), ("C", 4))
            ]
        )
        assert schedule.makespan == 5
        assert schedule.communication_idle_time() == 3
        assert schedule.computation_idle_time() == 2
        assert schedule.overlap_time() == 0

    def test_memory_profile_and_peak(self, pipeline_schedule):
        profile = pipeline_schedule.memory_profile()
        times = [event.time for event in profile]
        assert times == sorted(times)
        assert pipeline_schedule.peak_memory() == pytest.approx(5.0)  # A (2) + B (3) in [2, 6)
        assert pipeline_schedule.memory_usage_at(3.0) == pytest.approx(5.0)
        assert pipeline_schedule.memory_usage_at(6.5) == pytest.approx(3.0)

    def test_memory_profile_merges_nearby_breakpoints(self):
        schedule = Schedule(
            [
                entry("A", comm=1, comp=4 + 4e-15, comm_start=0, comp_start=1),
                entry("B", comm=4, comp=1, comm_start=1, comp_start=5),
            ]
        )
        peak = schedule.peak_memory()
        assert peak == pytest.approx(5.0)


class TestTransforms:
    def test_shift_and_concatenate(self, pipeline_schedule):
        shifted = pipeline_schedule.shifted(10)
        assert shifted["A"].comm_start == 10
        assert shifted.makespan == 17
        combined = pipeline_schedule.concatenated(
            Schedule([entry("C", comm=1, comp=1, comm_start=0, comp_start=1)])
        )
        assert combined.makespan == pytest.approx(7 + 2)
        assert combined["C"].comm_start == pytest.approx(7)

    def test_negative_shift_guard(self, pipeline_schedule):
        with pytest.raises(ValueError):
            pipeline_schedule.shifted(-1)

    def test_restricted_to(self, pipeline_schedule):
        sub = pipeline_schedule.restricted_to(["B"])
        assert len(sub) == 1 and "B" in sub

    def test_dict_round_trip(self, pipeline_schedule):
        mapping = pipeline_schedule.as_dict()
        rebuilt = Schedule.from_dict([e.task for e in pipeline_schedule], mapping)
        assert rebuilt == pipeline_schedule
