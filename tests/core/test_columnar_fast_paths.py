"""The column-level fast paths against their row-level oracles.

An array engine's :class:`~repro.simulator.columnar.ColumnarSchedule` is
measured by the interval sweep over its packed columns and checked by
:func:`~repro.core.validation.check_schedule`'s column-level certificate,
neither of which builds row objects.  Both must give exactly what the
row-level paths give on the materialised schedule: ``evaluate()`` bit for
bit, and ``check_schedule`` the same verdict and the same report.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Study
from repro.api import paper_lineup
from repro.core import (
    InfeasibleScheduleError,
    Instance,
    Schedule,
    Task,
    check_schedule,
    evaluate,
    validate_schedule,
)
from repro.simulator import ColumnarSchedule, MachineModel
from repro.simulator.columnar import ENGINE_ENV_VAR
from repro.traces.generator import synthetic_trace


@contextmanager
def count_materialisations():
    """Count the calls of ``ColumnarSchedule._materialize`` inside the block."""
    calls = []
    original = ColumnarSchedule._materialize

    def spy(self):
        calls.append(self)
        original(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnarSchedule, "_materialize", spy)
        yield calls


# --------------------------------------------------------------------------- #
# Instance families where float details bite
# --------------------------------------------------------------------------- #
FAMILIES = ("byte-scale", "tight", "zero-length", "key-ties", "unbounded")

seconds = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@st.composite
def family_instances(draw):
    """A small instance from one of the families, with the family's capacity."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=1, max_value=20))
    if family == "byte-scale":
        # Chemistry traces carry physical bytes: the capacity tolerance
        # is relative there, and float residue is far above 1e-9.
        memory = st.floats(min_value=1e5, max_value=1e9, allow_nan=False)
        specs = draw(st.lists(st.tuples(seconds, seconds, memory), min_size=n, max_size=n))
    elif family == "key-ties":
        # Few distinct tasks: every sort key and selection criterion ties.
        pool = draw(st.lists(st.tuples(seconds, seconds, seconds), min_size=1, max_size=2))
        specs = [draw(st.sampled_from(pool)) for _ in range(n)]
    elif family == "zero-length":
        maybe_zero = st.one_of(st.just(0.0), seconds)
        specs = draw(st.lists(st.tuples(maybe_zero, maybe_zero, seconds), min_size=n, max_size=n))
    else:
        specs = draw(st.lists(st.tuples(seconds, seconds, seconds), min_size=n, max_size=n))
    tasks = [
        Task(f"t{i:02d}", comm, comp, memory=memory)
        for i, (comm, comp, memory) in enumerate(specs)
    ]
    peak_task = max(task.memory for task in tasks)
    if family == "unbounded":
        capacity = math.inf
    elif family == "tight":
        capacity = peak_task
    else:
        capacity = peak_task * draw(st.sampled_from((1.0, 1.25, 2.0)))
    return Instance(tasks, capacity=capacity, name=family)


@settings(max_examples=40, deadline=None)
@given(instance=family_instances())
def test_columnar_metrics_and_verdict_equal_the_row_oracles(instance):
    for solver in paper_lineup():
        result = solver.simulate(instance, engine="columnar")
        schedule = result.schedule
        assert isinstance(schedule, ColumnarSchedule), solver.name
        with count_materialisations() as materialised:
            metrics = evaluate(schedule, instance, heuristic=solver.name)
            check_schedule(schedule, instance)
        assert not materialised, f"{solver.name}: the fast paths built row objects"
        rows = Schedule(schedule.entries)
        assert metrics == evaluate(rows, instance, heuristic=solver.name), solver.name
        assert validate_schedule(rows, instance).is_feasible, solver.name


# --------------------------------------------------------------------------- #
# Hand-broken columnar schedules: the certificate defers, the report matches
# --------------------------------------------------------------------------- #
def _instance(*specs, capacity=10.0):
    return Instance([Task(*spec) for spec in specs], capacity=capacity)


#: name -> (instance, placed, comm starts, comp starts, machine); the
#: starts are indexed by task, as the engines scatter them.
BROKEN = {
    "overlapping-transfers": (
        _instance(("A", 2.0, 1.0, 1.0), ("B", 2.0, 1.0, 1.0), ("C", 1.0, 1.0, 1.0)),
        [0, 1, 2],
        [0.0, 1.0, 4.0],
        [2.0, 3.0, 5.0],
        None,
    ),
    "precedence": (
        _instance(("A", 2.0, 1.0, 1.0), ("B", 1.0, 1.0, 1.0)),
        [0, 1],
        [0.0, 2.0],
        [1.0, 3.0],
        None,
    ),
    "release": (
        _instance(("A", 1.0, 1.0, 1.0), ("B", 1.0, 1.0, 1.0, 5.0)),
        [0, 1],
        [0.0, 1.0],
        [1.0, 2.0],
        None,
    ),
    "memory-over-capacity": (
        _instance(("A", 2.0, 1.0, 2.0), ("B", 2.0, 1.0, 2.0), capacity=3.0),
        [0, 1],
        [0.0, 2.0],
        [2.0, 4.0],
        None,
    ),
    "missing-task": (
        _instance(("A", 1.0, 1.0, 1.0), ("B", 1.0, 1.0, 1.0), ("C", 1.0, 1.0, 1.0)),
        [0, 1],
        [0.0, 1.0, 0.0],
        [1.0, 2.0, 0.0],
        None,
    ),
    "nan-characteristics": (
        _instance(("A", 1.0, math.nan, 1.0), ("B", 1.0, 1.0, 1.0)),
        [0, 1],
        [0.0, 1.0],
        [1.0, 2.0],
        None,
    ),
    "three-transfers-on-two-links": (
        _instance(("A", 2.0, 1.0, 1.0), ("B", 2.0, 1.0, 1.0), ("C", 2.0, 1.0, 1.0)),
        [0, 1, 2],
        [0.0, 0.0, 0.0],
        [2.0, 3.0, 4.0],
        MachineModel(link_count=2),
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_columnar_schedule_gets_the_validator_report(case):
    instance, placed, comm_starts, comp_starts, machine = BROKEN[case]
    schedule = ColumnarSchedule(instance.tasks, placed, comm_starts, comp_starts)
    with pytest.raises(InfeasibleScheduleError) as raised:
        check_schedule(schedule, instance, machine=machine)
    expected = validate_schedule(Schedule(schedule.entries), instance, machine=machine)
    assert not expected.is_feasible
    assert raised.value.report.violations == expected.violations
    assert str(raised.value) == expected.summary()


def test_feasible_columnar_schedule_is_certified_without_rows():
    instance = _instance(("A", 2.0, 1.0, 2.0), ("B", 2.0, 1.0, 2.0), capacity=4.0)
    schedule = ColumnarSchedule(instance.tasks, [1, 0], [2.0, 0.0], [4.0, 2.0])
    with count_materialisations() as materialised:
        assert check_schedule(schedule, instance) is schedule
    assert not materialised


def test_rows_of_another_task_tuple_go_to_the_validator():
    instance = _instance(("A", 1.0, 1.0, 1.0))
    copy = _instance(("A", 1.0, 1.0, 1.0))
    schedule = ColumnarSchedule(copy.tasks, [0], [0.0], [1.0])
    with count_materialisations() as materialised:
        check_schedule(schedule, instance)
    assert len(materialised) == 1


# --------------------------------------------------------------------------- #
# A default large sweep never materialises a row
# --------------------------------------------------------------------------- #
def test_feasible_auto_sweep_rows_never_materialise(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    trace = synthetic_trace("heterogeneous", tasks=300, seed=0)
    study = Study().traces(trace).capacities(1.0, 1.25)
    with count_materialisations() as materialised:
        results = study.run()
    assert len(results) == 2 * len(paper_lineup())
    assert set(results.column("engine")) == {"columnar", "batched"}
    assert not materialised
