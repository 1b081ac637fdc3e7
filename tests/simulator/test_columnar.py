"""The columnar engine's plumbing: views, lazy schedules, orders, dispatch.

The bit-for-bit schedule equivalence itself is property-tested in
:mod:`test_columnar_crosscheck`; this module covers the machinery around
the scans — the packed :class:`ColumnarInstance` view and its caching, the
lazily materialised :class:`ColumnarSchedule`, the vectorized heuristic
orders, the engine plan (request normalisation, the ``REPRO_ENGINE``
override, thresholds and the support matrix), facade dispatch (``solve``/``Study``/CLI/``SweepJob``) and
the ``engine`` result column.
"""

from __future__ import annotations

import math
import pickle
import warnings

import numpy as np
import pytest

from repro.api import ResultSet, Study, SweepJob, solve
from repro.core import Instance, Task
from repro.flowshop.johnson import johnson_order
from repro.heuristics.corrected import CorrectedMaximumAcceleration
from repro.heuristics.static import (
    DecreasingCommPlusComp,
    DecreasingComputation,
    IncreasingCommPlusComp,
    IncreasingCommunication,
    OptimalOrderInfiniteMemory,
)
from repro.simulator import (
    COLUMNAR_AUTO_THRESHOLD,
    ColumnarSchedule,
    CorrectedOrderPolicy,
    CriterionPolicy,
    FixedOrderPolicy,
    MachineModel,
    columnar_johnson_order,
    columnar_key_order,
    columnar_view,
    largest_communication,
    maximum_acceleration,
    plan_engine,
    simulate,
    simulate_columnar,
)
from repro.simulator.columnar import ENGINE_ENV_VAR
from repro.traces.generator import synthetic_trace


@pytest.fixture(autouse=True)
def _no_ambient_engine_override(monkeypatch):
    """Neutralise any ambient ``REPRO_ENGINE`` (e.g. the CI oracle step runs
    the whole suite with it forced) so the auto-dispatch assertions here stay
    deterministic; tests exercising the override set it back explicitly."""
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)


def make_instance(n: int, *, capacity: float = math.inf, seed: int = 0) -> Instance:
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        comm = float(rng.uniform(0.5, 10.0))
        comp = float(rng.uniform(0.0, 10.0))
        tasks.append(Task(f"t{i:05d}", comm, comp, memory=float(rng.uniform(0.1, 5.0))))
    return Instance(tasks, capacity=capacity, name=f"col/{n}")


# --------------------------------------------------------------------------- #
# The packed view
# --------------------------------------------------------------------------- #
class TestColumnarView:
    def test_columns_match_task_attributes(self):
        instance = make_instance(40)
        view = columnar_view(instance)
        assert view.comm.tolist() == [t.comm for t in instance.tasks]
        assert view.comp.tolist() == [t.comp for t in instance.tasks]
        assert view.memory.tolist() == [t.memory for t in instance.tasks]
        assert list(view.names) == [t.name for t in instance.tasks]
        assert view.total.tolist() == [t.comm + t.comp for t in instance.tasks]
        assert len(view) == 40

    def test_view_is_cached_on_the_instance(self):
        instance = make_instance(10)
        assert columnar_view(instance, build=False) is None
        view = columnar_view(instance)
        assert columnar_view(instance) is view
        assert columnar_view(instance, build=False) is view

    def test_derived_instances_get_fresh_views(self):
        instance = make_instance(10, capacity=5.0)
        view = columnar_view(instance)
        resized = instance.with_capacity(7.5)
        assert columnar_view(resized, build=False) is None
        assert columnar_view(resized) is not view

    def test_name_rank_is_lexicographic(self):
        tasks = [Task("b", 1, 1), Task("a", 2, 2), Task("c", 3, 3)]
        view = columnar_view(Instance(tasks, capacity=math.inf))
        assert view.name_rank.tolist() == [1, 0, 2]

    def test_index_maps_names_to_positions(self):
        instance = make_instance(8)
        view = columnar_view(instance)
        assert view.index["t00003"] == 3

    def test_acceleration_of_a_subnormal_transfer_is_inf_without_a_warning(self):
        tasks = [Task("a", 5e-324, 2.0), Task("b", 1.0, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acceleration = columnar_view(Instance(tasks, capacity=10.0)).acceleration
        assert acceleration.tolist() == [tasks[0].acceleration, 1.0] == [math.inf, 1.0]


# --------------------------------------------------------------------------- #
# The lazy schedule
# --------------------------------------------------------------------------- #
class TestColumnarSchedule:
    def pair(self, n: int = 30, capacity: float = math.inf):
        instance = make_instance(n, capacity=capacity)
        policy = FixedOrderPolicy(instance.tasks)
        eager = simulate(instance, policy, engine="object").schedule
        lazy = simulate_columnar(instance, policy).schedule
        return eager, lazy

    def test_is_a_schedule_subclass(self):
        _, lazy = self.pair()
        assert isinstance(lazy, ColumnarSchedule)
        assert type(lazy).__mro__[1].__name__ == "Schedule"

    def test_aggregates_match_without_materialising(self):
        eager, lazy = self.pair()
        assert lazy.makespan == eager.makespan
        assert lazy.communication_busy_time == eager.communication_busy_time
        assert lazy.computation_busy_time == eager.computation_busy_time
        assert len(lazy) == len(eager)

    def test_busy_times_are_bit_equal_to_the_row_schedule(self):
        # Both schedules sum busy time with math.fsum, so the same
        # placements report the same busy time on every engine.
        from repro.core import Schedule
        from repro.heuristics.base import PAPER_FIGURE_ORDER
        from repro.traces import synthetic_trace

        for seed in range(3):
            trace = synthetic_trace("heterogeneous", tasks=300, seed=seed)
            instance = trace.to_instance_with_factor(1.25)
            for name in PAPER_FIGURE_ORDER:
                columnar = solve(instance, name, engine="columnar").schedule
                assert isinstance(columnar, ColumnarSchedule), name
                rows = Schedule(columnar.entries)
                assert columnar.communication_busy_time == rows.communication_busy_time
                assert columnar.computation_busy_time == rows.computation_busy_time

    def test_compares_equal_to_the_eager_schedule(self):
        eager, lazy = self.pair()
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)

    def test_row_access_materialises_transparently(self):
        eager, lazy = self.pair()
        assert lazy["t00003"] == eager["t00003"]
        assert lazy.entries == eager.entries
        assert [e.task.name for e in lazy] == [e.task.name for e in eager]

    def test_unknown_attribute_still_raises(self):
        _, lazy = self.pair(5)
        with pytest.raises(AttributeError):
            lazy.no_such_attribute


# --------------------------------------------------------------------------- #
# Vectorized heuristic orders (satellite: argsort fast path)
# --------------------------------------------------------------------------- #
class TestVectorizedOrders:
    #: Instances with heavy key ties so the name tie-break is really exercised.
    def tied_instance(self, n: int = 50, seed: int = 7) -> Instance:
        rng = np.random.default_rng(seed)
        pool = [round(float(rng.uniform(0, 4)), 1) for _ in range(5)]
        tasks = [
            Task(
                f"t{int(rng.integers(10**6)):06d}_{i}",
                comm=pool[int(rng.integers(5))],
                comp=pool[int(rng.integers(5))],
            )
            for i in range(n)
        ]
        return Instance(tasks, capacity=math.inf)

    @pytest.mark.parametrize("key,attr", [("comm", "comm"), ("comp", "comp"), ("total", "total_time")])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_key_order_matches_sorted(self, key, attr, reverse):
        instance = self.tied_instance()
        columnar_view(instance)  # force the fast path below the threshold
        fast = columnar_key_order(instance, key=key, reverse=reverse)
        sign = -1.0 if reverse else 1.0
        slow = sorted(instance.tasks, key=lambda t: (sign * getattr(t, attr), t.name))
        assert [t.name for t in fast] == [t.name for t in slow]

    def test_johnson_order_matches_reference(self):
        instance = self.tied_instance(seed=11)
        columnar_view(instance)
        fast = columnar_johnson_order(instance)
        assert [t.name for t in fast] == [t.name for t in johnson_order(instance.tasks)]

    def test_small_instances_without_a_view_keep_the_sorted_path(self):
        instance = self.tied_instance(n=10)
        assert columnar_key_order(instance, key="comm") is None
        assert columnar_johnson_order(instance) is None
        # the heuristic still answers, through sorted()
        order = IncreasingCommunication().order(instance)
        assert [t.name for t in order] == [
            t.name for t in sorted(instance.tasks, key=lambda t: (t.comm, t.name))
        ]

    def test_large_instances_build_the_view_on_demand(self):
        instance = make_instance(COLUMNAR_AUTO_THRESHOLD)
        assert columnar_key_order(instance, key="total", reverse=True) is not None
        assert columnar_view(instance, build=False) is not None

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown order key"):
            columnar_key_order(make_instance(5), key="memory")

    @pytest.mark.parametrize(
        "heuristic",
        [
            IncreasingCommunication(),
            DecreasingComputation(),
            IncreasingCommPlusComp(),
            DecreasingCommPlusComp(),
        ],
    )
    def test_static_heuristics_agree_with_and_without_the_fast_path(self, heuristic):
        with_view = self.tied_instance(seed=23)
        without_view = Instance(with_view.tasks, capacity=with_view.capacity)
        columnar_view(with_view)
        assert [t.name for t in heuristic.order(with_view)] == [
            t.name for t in heuristic.order(without_view)
        ]

    def test_oosim_and_corrected_agree_with_and_without_the_fast_path(self):
        with_view = self.tied_instance(seed=31)
        without_view = Instance(with_view.tasks, capacity=with_view.capacity)
        columnar_view(with_view)
        assert [t.name for t in OptimalOrderInfiniteMemory().order(with_view)] == [
            t.name for t in OptimalOrderInfiniteMemory().order(without_view)
        ]
        corrected = CorrectedMaximumAcceleration()
        assert corrected.kernel_policy(with_view).order == corrected.kernel_policy(without_view).order


# --------------------------------------------------------------------------- #
# The engine plan
# --------------------------------------------------------------------------- #
class _ForeignPolicy(FixedOrderPolicy):
    """A fixed order the fast paths do not recognise (only exact types batch)."""


def _policy(kind: str, instance: Instance):
    if kind == "fixed":
        return FixedOrderPolicy(instance.tasks)
    if kind == "criterion":
        return CriterionPolicy(largest_communication)
    if kind == "corrected":
        return CorrectedOrderPolicy(order=instance.task_names, criterion=maximum_acceleration)
    if kind == "foreign":
        return _ForeignPolicy(instance.tasks)
    assert kind == "odd-criterion"
    return CriterionPolicy(criterion=lambda task: (task.comm, task.name), name="odd")


_MACHINES = {
    "paper": None,
    "2-link": MachineModel(link_count=2),
    "2-cpu": MachineModel(cpu_count=2),
}

_BELOW_TASKS = "fewer tasks than COLUMNAR_AUTO_THRESHOLD"
_BELOW_LANES = "fewer lanes than BATCH_AUTO_THRESHOLD"

#: request, REPRO_ENGINE, n, lanes, record, machine, policy -> engine, reason.
_PLAN_TABLE = [
    # auto: the task-count threshold, then the lane threshold
    (None, "", 255, 16, False, "paper", "fixed", "object", _BELOW_TASKS),
    ("auto", "", 255, 16, True, "paper", "fixed", "object", _BELOW_TASKS),
    ("auto", "", 256, 15, False, "paper", "fixed", "columnar", _BELOW_LANES),
    (None, "", 256, 15, False, "paper", "criterion", "columnar", _BELOW_LANES),
    ("auto", "", 256, 16, False, "paper", "fixed", "batched", "at least BATCH_AUTO_THRESHOLD"),
    ("AUTO", "", 256, 16, False, "paper", "corrected", "columnar", "only fixed-order"),
    (None, "", 256, 16, False, "2-link", "fixed", "columnar", "multi-link"),
    ("auto", "", 256, 16, False, "2-cpu", "fixed", "object", "multi-CPU"),
    ("auto", "", 256, 16, True, "paper", "fixed", "object", "recording"),
    ("auto", "", 256, 15, False, "paper", "foreign", "object", "'_ForeignPolicy'"),
    ("auto", "", 256, 15, False, "paper", "odd-criterion", "object", "no packed key"),
    # explicit requests ignore the thresholds
    ("object", "", 256, 16, False, "paper", "fixed", "object", "object engine requested"),
    ("columnar", "", 255, 15, False, "paper", "fixed", "columnar", "columnar engine requested"),
    ("columnar", "", 256, 16, False, "paper", "fixed", "columnar", "columnar engine requested"),
    ("columnar", "", 255, 15, False, "2-link", "criterion", "columnar", "columnar engine requested"),
    ("columnar", "", 255, 15, True, "paper", "fixed", "object", "recording"),
    ("columnar", "", 255, 15, False, "2-cpu", "criterion", "object", "multi-CPU"),
    ("columnar", "", 255, 15, False, "paper", "foreign", "object", "only implemented by the object kernel"),
    ("columnar", "", 255, 15, False, "paper", "odd-criterion", "object", "no packed key"),
    ("batched", "", 255, 1, False, "paper", "fixed", "batched", "batched engine requested"),
    ("batched", "", 256, 16, False, "2-link", "fixed", "columnar", "multi-link"),
    ("batched", "", 255, 15, False, "paper", "corrected", "columnar", "only fixed-order"),
    ("batched", "", 255, 15, True, "paper", "fixed", "object", "recording"),
    ("batched", "", 256, 16, False, "2-cpu", "fixed", "object", "multi-CPU"),
    # REPRO_ENGINE overrides auto only
    (None, "columnar", 255, 15, False, "paper", "fixed", "columnar", "columnar engine requested"),
    ("auto", "columnar", 256, 16, False, "paper", "fixed", "columnar", "columnar engine requested"),
    ("auto", "columnar", 256, 16, True, "paper", "fixed", "object", "recording"),
    ("auto", "batched", 255, 15, False, "paper", "fixed", "batched", "batched engine requested"),
    (None, "batched", 255, 15, False, "paper", "criterion", "columnar", "only fixed-order"),
    (None, "batched", 255, 15, False, "2-cpu", "fixed", "object", "multi-CPU"),
    (None, "object", 256, 16, False, "paper", "fixed", "object", "object engine requested"),
    ("object", "columnar", 256, 16, False, "paper", "fixed", "object", "object engine requested"),
    ("columnar", "batched", 256, 16, False, "paper", "fixed", "columnar", "columnar engine requested"),
]


@pytest.mark.parametrize(
    "request_, env, n, lanes, record, machine, kind, engine, reason", _PLAN_TABLE
)
def test_plan_engine_decision_table(
    monkeypatch, request_, env, n, lanes, record, machine, kind, engine, reason
):
    if env:
        monkeypatch.setenv(ENGINE_ENV_VAR, env)
    instance = make_instance(n, capacity=8.0)
    planned, why = plan_engine(
        instance,
        _policy(kind, instance),
        engine=request_,
        machine=_MACHINES[machine],
        record=record,
        lanes=lanes,
    )
    assert planned == engine, why
    assert reason in why
    if reason in (_BELOW_TASKS, "object engine requested"):
        # Decided on the request and task count alone: no columnar view is
        # packed, which keeps small auto rows as cheap as the object kernel.
        assert columnar_view(instance, build=False) is None


class TestResolveEngine:
    """The request normalisation inside :func:`plan_engine`."""

    def setup_method(self):
        self.instance = make_instance(12, capacity=8.0)
        self.policy = FixedOrderPolicy(self.instance.tasks)

    def plan(self, engine):
        return plan_engine(self.instance, self.policy, engine=engine)[0]

    def test_none_means_auto(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert self.plan(None) == self.plan("AUTO") == "object"  # below the threshold
        assert self.plan("object") == "object"
        assert self.plan("columnar") == "columnar"

    def test_environment_overrides_auto_only(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "columnar")
        assert self.plan(None) == "columnar"
        assert self.plan("auto") == "columnar"
        assert self.plan("object") == "object"  # explicit choice wins

    def test_unknown_engine_raises(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            self.plan("bogus")


class TestSupportMatrix:
    """What a forced ``engine="columnar"`` request runs, and why."""

    def setup_method(self):
        self.instance = make_instance(12, capacity=8.0)
        self.policy = FixedOrderPolicy(self.instance.tasks)

    def plan(self, instance=None, policy=None, **options):
        return plan_engine(
            self.instance if instance is None else instance,
            self.policy if policy is None else policy,
            engine="columnar",
            **options,
        )

    def test_plain_fixed_order_is_supported(self):
        assert self.plan() == ("columnar", "columnar engine requested")

    def test_recording_declines(self):
        assert "recording" in self.plan(record=True)[1]

    def test_multi_cpu_declines(self):
        assert "multi-CPU" in self.plan(machine=MachineModel(cpu_count=2))[1]

    def test_multi_link_is_supported(self):
        assert self.plan(machine=MachineModel(link_count=3))[0] == "columnar"

    def test_release_dates_decline(self):
        dated = Instance(
            [Task("a", 1, 1, release=5.0), Task("b", 1, 1)], capacity=math.inf
        )
        assert "release" in self.plan(dated, FixedOrderPolicy(dated.tasks))[1]

    def test_foreign_policy_declines(self):
        reason = self.plan(policy=_ForeignPolicy(self.instance.tasks))[1]
        assert "only implemented by the object kernel" in reason

    def test_unknown_criterion_declines(self):
        assert "no packed key" in self.plan(policy=_policy("odd-criterion", self.instance))[1]

    def test_comp_order_needs_a_fixed_order_policy(self):
        names = list(self.instance.task_names)
        reason = self.plan(policy=_policy("criterion", self.instance), comp_order=names)[1]
        assert "comp_order" in reason

    def test_simulate_columnar_refuses_unsupported_configs(self):
        with pytest.raises(ValueError, match="cannot run this configuration"):
            simulate_columnar(self.instance, self.policy, record=True)


# --------------------------------------------------------------------------- #
# Dispatch through the kernel facade
# --------------------------------------------------------------------------- #
class TestEngineDispatch:
    def test_auto_picks_columnar_for_large_instances(self):
        big = make_instance(COLUMNAR_AUTO_THRESHOLD)
        assert simulate(big, FixedOrderPolicy(big.tasks)).engine == "columnar"

    def test_auto_keeps_the_object_kernel_for_small_instances(self):
        small = make_instance(10)
        assert simulate(small, FixedOrderPolicy(small.tasks)).engine == "object"
        assert columnar_view(small, build=False) is None  # nothing was packed

    def test_forced_columnar_runs_below_the_threshold(self):
        small = make_instance(10)
        result = simulate(small, FixedOrderPolicy(small.tasks), engine="columnar")
        assert result.engine == "columnar"

    def test_forced_object_runs_above_the_threshold(self):
        big = make_instance(COLUMNAR_AUTO_THRESHOLD)
        assert simulate(big, FixedOrderPolicy(big.tasks), engine="object").engine == "object"

    def test_columnar_falls_back_gracefully_when_unsupported(self):
        big = make_instance(COLUMNAR_AUTO_THRESHOLD)
        result = simulate(big, FixedOrderPolicy(big.tasks), engine="columnar", record=True)
        assert result.engine == "object"
        assert result.trace is not None

    def test_unknown_engine_raises(self):
        small = make_instance(4)
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(small, FixedOrderPolicy(small.tasks), engine="bogus")

    def test_env_override_forces_the_fast_path(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "columnar")
        small = make_instance(10)
        assert simulate(small, FixedOrderPolicy(small.tasks)).engine == "columnar"


# --------------------------------------------------------------------------- #
# Facade: solve(), Study, sweep wire format, CLI
# --------------------------------------------------------------------------- #
class TestFacadePlumbing:
    def test_solve_records_the_engine_and_matches_the_object_kernel(self):
        instance = make_instance(40, capacity=9.0)
        col = solve(instance, "OS", engine="columnar")
        obj = solve(instance, "OS", engine="object")
        default = solve(instance, "OS")
        assert col.engine == "columnar"
        assert obj.engine == "object"
        assert default.engine is None  # analytic path: no kernel run requested
        assert col.schedule == obj.schedule == default.schedule
        assert col.makespan == obj.makespan

    def test_solve_auto_uses_the_threshold(self):
        big = make_instance(COLUMNAR_AUTO_THRESHOLD, capacity=9.0)
        assert solve(big, "OS", engine="auto").engine == "columnar"

    def test_study_engine_validates_choices(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Study().engine("bogus")

    def test_study_engine_column_and_makespans_match_the_default_run(self):
        trace = synthetic_trace("balanced", tasks=30, seed=3)
        base = Study().traces(trace).capacities(1.5).solvers("OS", "LCMR", "OOMAMR")
        default = base.run()
        forced = (
            Study()
            .traces(trace)
            .capacities(1.5)
            .solvers("OS", "LCMR", "OOMAMR")
            .engine("columnar")
            .run()
        )
        assert set(default.column("engine")) == {"object"}
        assert set(forced.column("engine")) == {"columnar"}
        assert forced.column("makespan") == default.column("makespan")
        assert forced.column("ratio_to_optimal") == default.column("ratio_to_optimal")

    def test_sweep_job_wire_format_round_trips_the_engine(self):
        trace = synthetic_trace("balanced", tasks=20, seed=5)
        job = SweepJob(payload=trace, capacity_factors=(1.5,), engine="columnar")
        clone = pickle.loads(pickle.dumps(job))
        assert clone.engine == "columnar"
        records = clone.run()
        assert records and all(r.engine == "columnar" for r in records)

    def test_engine_column_survives_serialisation(self, tmp_path):
        trace = synthetic_trace("balanced", tasks=20, seed=5)
        results = Study().traces(trace).capacities(1.5).solvers("OS").engine("columnar").run()
        path = tmp_path / "results.json"
        results.to_json(path)
        assert ResultSet.from_json(path).column("engine") == results.column("engine")

    def test_cli_engine_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        args = [
            "sweep",
            "--workload", "balanced",
            "--traces", "1",
            "--tasks", "20",
            "--solvers", "OS", "LCMR",
            "--capacities", "1.0", "2.0",
            "--steps", "2",
            "--quiet",
        ]
        default_path = tmp_path / "default.json"
        forced_path = tmp_path / "forced.json"
        assert main([*args, "--output", str(default_path)]) == 0
        assert main([*args, "--engine", "columnar", "--output", str(forced_path)]) == 0
        default = ResultSet.from_json(default_path)
        forced = ResultSet.from_json(forced_path)
        assert set(forced.column("engine")) == {"columnar"}
        assert forced.column("makespan") == default.column("makespan")
