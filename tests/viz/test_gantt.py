"""Tests for the ASCII Gantt renderer."""

import pytest

from repro.api import get_solver
from repro.core import Schedule
from repro.core.paper_instances import static_example_instance
from repro.viz import GanttOptions, render_gantt


class TestRenderGantt:
    def test_empty_schedule(self):
        assert render_gantt(Schedule.empty()) == "(empty schedule)"

    def test_renders_lanes_and_ticks(self):
        schedule = get_solver("DOCPS").schedule(static_example_instance())
        text = render_gantt(schedule)
        assert "communication" in text
        assert "computation" in text
        assert "memory" in text
        assert "time ticks" in text
        assert "14" in text  # the makespan of the DOCPS schedule

    def test_memory_lane_optional(self):
        schedule = get_solver("DOCPS").schedule(static_example_instance())
        text = render_gantt(schedule, options=GanttOptions(show_memory=False))
        assert "peak memory" not in text

    def test_width_is_respected(self):
        schedule = get_solver("OOSIM").schedule(static_example_instance())
        options = GanttOptions(width=60)
        text = render_gantt(schedule, options=options)
        assert max(len(line) for line in text.splitlines()) <= 60 + 20  # ticks line may be longer

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            GanttOptions(width=5)
        with pytest.raises(ValueError):
            GanttOptions(label_width=1)
