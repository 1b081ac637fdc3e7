"""Core problem model: tasks, instances, schedules, bounds and metrics."""

from .bounds import BoundSet, area_lower_bound, bounds, omim, sequential_upper_bound
from .instance import Instance
from .metrics import (
    OnlineMetrics,
    ScheduleMetrics,
    evaluate,
    evaluate_online,
    evaluate_schedules,
    idle_fractions,
    overlap_fraction,
    ratio_to_optimal,
)
from .paper_instances import (
    PAPER_INSTANCES,
    corrected_example_instance,
    dynamic_example_instance,
    proposition1_instance,
    static_example_instance,
)
from .schedule import MemoryEvent, Schedule, ScheduledTask
from .task import (
    Task,
    TaskKind,
    max_memory,
    max_release,
    tasks_from_pairs,
    total_comm,
    total_comp,
)
from .validation import (
    TOLERANCE,
    InfeasibleScheduleError,
    ValidationReport,
    Violation,
    check_schedule,
    check_schedules,
    validate_schedule,
)

__all__ = [
    "Task",
    "TaskKind",
    "Instance",
    "Schedule",
    "ScheduledTask",
    "MemoryEvent",
    "BoundSet",
    "OnlineMetrics",
    "ScheduleMetrics",
    "ValidationReport",
    "Violation",
    "InfeasibleScheduleError",
    "TOLERANCE",
    "PAPER_INSTANCES",
    "area_lower_bound",
    "bounds",
    "check_schedule",
    "check_schedules",
    "corrected_example_instance",
    "dynamic_example_instance",
    "evaluate",
    "evaluate_online",
    "evaluate_schedules",
    "idle_fractions",
    "max_memory",
    "max_release",
    "omim",
    "overlap_fraction",
    "proposition1_instance",
    "ratio_to_optimal",
    "sequential_upper_bound",
    "static_example_instance",
    "tasks_from_pairs",
    "total_comm",
    "total_comp",
    "validate_schedule",
]
