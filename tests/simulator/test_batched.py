"""Differential tests: the batched plane is bit-identical to columnar.

Property-based cross-check packing randomly generated lanes — ragged task
counts (empty lanes, single tasks, lanes 40x wider than their neighbours),
zero-length transfers/computations, capacity pressure from infinite down to
infeasible, single- and two-order modes — into one :class:`BatchedPlane`
and asserting every lane reproduces :func:`simulate_columnar` *exactly*:
float-equal schedules, equal kernel stats, and the same exception class
with the same message for infeasible and deadlocked lanes.  Because the
columnar engine is itself differentially pinned to the object kernel
(``test_columnar_crosscheck``), equality here closes the chain
batched == columnar == object.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Instance, Task
from repro.simulator import (
    DeadlockError,
    FixedOrderPolicy,
    InfeasibleOrderError,
    MachineModel,
    plan_engine,
    simulate,
    simulate_batched,
    simulate_batched_outcomes,
    simulate_columnar,
)

#: Random plane packs per differential sweep; with up to 24 lanes each this
#: drives well past 500 lane-level engine-vs-engine comparisons.
TRIALS = 60


def random_run(rng: np.random.Generator, index: int):
    """One random lane: ragged size, mixed capacity pressure, maybe two-order."""
    n = int(rng.choice([0, 1, 2, 3, 5, 8, 13, 21, 34, 40]))
    tasks = []
    for i in range(n):
        comm = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 5.0))
        comp = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 5.0))
        if rng.random() < 0.5:
            memory = max(comm, 0.01)  # memory == comm convention
        else:
            memory = float(rng.uniform(0.05, 4.0))
        tasks.append(Task(f"t{index}_{i}", comm, comp, memory=memory))
    draw = rng.random()
    if not tasks or draw < 0.15:
        capacity = math.inf
    else:
        mc = max(task.memory for task in tasks)
        if draw < 0.45:
            capacity = mc * float(rng.uniform(1.0, 1.3))  # near-capacity
        elif draw < 0.85:
            capacity = mc * float(rng.uniform(1.3, 3.0))
        else:
            capacity = mc * float(rng.uniform(0.5, 0.95))  # infeasible lane
    instance = Instance(tasks, capacity=capacity, name=f"lane/{index}")
    order = list(instance.tasks)
    if rng.random() < 0.6:
        rng.shuffle(order)
    policy = FixedOrderPolicy(tuple(order))
    comp_order = None
    if order and rng.random() < 0.3:
        shuffled = list(instance.tasks)
        rng.shuffle(shuffled)
        comp_order = tuple(shuffled)  # two-order mode: deadlocks possible
    return (instance, policy, comp_order)


def outcome(run, *args, **kwargs):
    try:
        result = run(*args, **kwargs)
    except InfeasibleOrderError as error:
        return ("err", type(error).__name__, str(error))
    return ("ok", result.schedule, result.stats.memory_wait_s)


def lane_outcome(value):
    if isinstance(value, InfeasibleOrderError):
        return ("err", type(value).__name__, str(value))
    return ("ok", value.schedule, value.stats.memory_wait_s)


def test_batched_matches_columnar_on_random_ragged_planes():
    rng = np.random.default_rng(20260808)
    lanes_compared = 0
    error_lanes = 0
    deadlock_lanes = 0
    two_order_lanes = 0
    mismatches = []
    for trial in range(TRIALS):
        runs = [
            random_run(rng, trial * 1000 + i)
            for i in range(int(rng.integers(1, 25)))
        ]
        outcomes = simulate_batched_outcomes(runs)
        assert len(outcomes) == len(runs)
        for lane, (instance, policy, comp_order) in enumerate(runs):
            lanes_compared += 1
            if comp_order is not None:
                two_order_lanes += 1
            ref = outcome(
                simulate_columnar, instance, policy, comp_order=comp_order
            )
            got = lane_outcome(outcomes[lane])
            if got != ref:
                mismatches.append((instance.name, got[:2], ref[:2]))
            elif got[0] == "err":
                error_lanes += 1
                if got[1] == "DeadlockError":
                    deadlock_lanes += 1
    assert not mismatches, f"batched diverged from columnar on: {mismatches[:10]}"
    # The sweep must genuinely exercise the matrix, not skip it.
    assert lanes_compared > 500
    assert error_lanes > 20  # infeasible lanes beside healthy ones
    assert deadlock_lanes > 0  # two-order deadlocks neutralised per lane
    assert two_order_lanes > 100


def test_error_lanes_do_not_perturb_their_neighbours():
    """One infeasible and one deadlocked lane beside a healthy twin."""
    healthy = Instance(
        [Task("a", 2.0, 1.0, memory=2.0), Task("b", 1.0, 3.0, memory=1.0)],
        capacity=3.0,
        name="healthy",
    )
    infeasible = Instance(
        [Task("big", 1.0, 1.0, memory=9.0)], capacity=2.0, name="infeasible"
    )
    # Two-order deadlock: 'y' must compute first but 'x' holds the memory.
    dl_tasks = (Task("x", 1.0, 1.0, memory=2.0), Task("y", 1.0, 1.0, memory=2.0))
    deadlocked = Instance(dl_tasks, capacity=2.0, name="deadlocked")
    runs = [
        (healthy, FixedOrderPolicy(healthy.tasks), None),
        (infeasible, FixedOrderPolicy(infeasible.tasks), None),
        (deadlocked, FixedOrderPolicy(dl_tasks), (dl_tasks[1], dl_tasks[0])),
        (healthy, FixedOrderPolicy(healthy.tasks), None),
    ]
    outcomes = simulate_batched_outcomes(runs)
    solo = simulate_columnar(healthy, FixedOrderPolicy(healthy.tasks))
    assert isinstance(outcomes[1], InfeasibleOrderError)
    assert isinstance(outcomes[2], DeadlockError)
    for lane in (0, 3):
        assert outcomes[lane].schedule == solo.schedule
        assert outcomes[lane].stats.memory_wait_s == solo.stats.memory_wait_s


def test_infeasible_and_deadlock_messages_match_columnar():
    instance = Instance(
        [Task("a", 1.0, 1.0, memory=1.0), Task("b", 2.0, 2.0, memory=5.0)],
        capacity=2.0,
    )
    policy = FixedOrderPolicy(instance.tasks)
    with pytest.raises(InfeasibleOrderError) as columnar_err:
        simulate_columnar(instance, policy)
    with pytest.raises(InfeasibleOrderError) as batched_err:
        simulate_batched([(instance, policy)])
    assert str(batched_err.value) == str(columnar_err.value)
    assert "'b'" in str(batched_err.value)


def test_single_run_engine_batched_is_a_one_lane_plane():
    rng = np.random.default_rng(11)
    tasks = [
        Task(f"t{i}", float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
        for i in range(50)
    ]
    instance = Instance(tasks, capacity=max(t.memory for t in tasks) * 1.2)
    policy = FixedOrderPolicy(instance.tasks)
    assert plan_engine(instance, policy, engine="batched")[0] == "batched"
    batched = simulate(instance, policy, engine="batched")
    columnar = simulate(instance, policy, engine="columnar")
    assert batched.engine == "batched"
    assert batched.schedule == columnar.schedule
    assert batched.stats.memory_wait_s == columnar.stats.memory_wait_s


def test_unsupported_configurations_fall_back_per_lane():
    instance = Instance([Task("a", 1.0, 1.0)], capacity=math.inf)
    policy = FixedOrderPolicy(instance.tasks)
    # Multi-link machines run per-instance; engine="batched" must still work.
    machine = MachineModel(link_count=2)
    ran, reason = plan_engine(instance, policy, engine="batched", machine=machine)
    assert ran == "columnar" and "multi-link" in reason
    result = simulate(instance, policy, engine="batched", machine=machine)
    reference = simulate(instance, policy, engine="object", machine=machine)
    assert result.schedule == reference.schedule


def test_forced_batched_sweep_matches_object_end_to_end(monkeypatch):
    """The CI oracle in miniature: REPRO_ENGINE=batched vs the default.

    Static-order solvers ride the plane, dynamic ones fall back per
    instance — and every numeric column stays byte-identical either way.
    """
    from repro.api import Study
    from repro.traces.generator import synthetic_trace

    trace = synthetic_trace("balanced", tasks=40, seed=9)
    spec = dict(
        capacities=(1.0, 1.5), solvers=("OS", "OOSIM", "IOCMS", "LCMR", "OOMAMR")
    )

    def sweep():
        return (
            Study()
            .traces(trace)
            .capacities(*spec["capacities"])
            .solvers(*spec["solvers"])
            .run()
        )

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    baseline = sweep()
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    forced = sweep()
    engines = set(forced.column("engine"))
    assert "batched" in engines  # static-order lanes rode the plane
    assert forced.column("makespan") == baseline.column("makespan")
    assert forced.column("ratio_to_optimal") == baseline.column("ratio_to_optimal")
    assert forced.column("memory_wait_s") == baseline.column("memory_wait_s")


def test_auto_engine_never_engages_the_plane(monkeypatch):
    from repro import obs
    from repro.api import Study
    from repro.traces.generator import synthetic_trace

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    trace = synthetic_trace("balanced", tasks=300, seed=3)
    solvers = ("OS", "OOSIM", "IOCMS", "DOCPS")
    factors = (1.0, 1.25, 1.5, 2.0)

    def sweep():
        return Study().traces(trace).capacities(*factors).solvers(*solvers).run()

    before = obs.REGISTRY.value("sweep_batch_lanes_total")
    results = sweep()  # 16 fixed-order lanes: a wide group still runs columnar
    assert obs.REGISTRY.value("sweep_batch_lanes_total") == before
    assert set(results.column("engine")) == {"columnar"}
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    forced = sweep()
    assert obs.REGISTRY.value("sweep_batch_lanes_total") - before == 16
    assert set(forced.column("engine")) == {"batched"}
    assert forced.column("makespan") == results.column("makespan")
    assert forced.column("memory_wait_s") == results.column("memory_wait_s")


def test_batched_sweep_records_spans_and_lane_counter(monkeypatch):
    from repro import obs
    from repro.api import Study
    from repro.traces.generator import synthetic_trace

    monkeypatch.setenv("REPRO_ENGINE", "batched")
    trace = synthetic_trace("balanced", tasks=30, seed=5)
    obs.enable()
    try:
        marker = obs.mark()
        before = obs.REGISTRY.value("sweep_batch_lanes_total")
        Study().traces(trace).capacities(1.0, 1.5).solvers("OS", "OOSIM").run()
        spans = [record["name"] for record in obs.export_since(marker)]
        after = obs.REGISTRY.value("sweep_batch_lanes_total")
    finally:
        obs.disable()
        obs.clear()
    assert "sweep.batch" in spans
    assert after - before == 4  # 2 capacities x 2 static-order solvers
