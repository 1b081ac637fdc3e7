"""Differential tests: the columnar engine is bit-identical to the kernel.

Property-based cross-check on randomly generated instances sweeping task
count (up to 400 tasks), capacity pressure
(near-capacity, relaxed, infinite), zero-length transfers/computations and
multi-link machines: every supported configuration must produce *exactly*
the same schedule through :func:`simulate_columnar` as through the object
kernel — float-equal start times, same entry order — and, where the frozen
seed executors of :mod:`repro.simulator._reference` apply, the same
schedule as those too.  Infeasible and deadlocking runs must raise the
same exception class with the same message.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core import Instance, Task
from repro.flowshop.johnson import johnson_order
from repro.simulator import (
    CorrectedOrderPolicy,
    CriterionPolicy,
    FixedOrderPolicy,
    InfeasibleOrderError,
    MachineModel,
    largest_communication,
    maximum_acceleration,
    plan_engine,
    simulate,
    simulate_columnar,
    smallest_communication,
)
from repro.simulator._reference import (
    ReferenceCorrectedOrderPolicy,
    reference_execute_fixed_order,
    reference_execute_two_orders,
    reference_execute_with_policy,
)

#: Random instances per sweep; with ~9 policies and 3 machines each this
#: drives a few thousand engine-vs-engine schedule comparisons.
INSTANCE_COUNT = 80


def random_instance(rng: np.random.Generator, index: int, n_lo=2, n_hi=24) -> Instance:
    """Random instance with capacity drawn across the pressure spectrum."""
    n = int(rng.integers(n_lo, n_hi))
    tasks = []
    for i in range(n):
        comm = float(rng.uniform(0.0, 10.0))
        comp = float(rng.uniform(0.0, 10.0))
        if rng.random() < 0.1:
            comm = 0.0  # zero-length transfers
        if rng.random() < 0.1:
            comp = 0.0  # transfer-only tasks
        if rng.random() < 0.5:
            task = Task(f"t{i:02d}", comm, comp)  # memory == comm convention
        else:
            task = Task(f"t{i:02d}", comm, comp, memory=float(rng.uniform(0.1, 10.0)))
        tasks.append(task)
    mc = max(task.memory for task in tasks)
    draw = rng.random()
    if draw < 0.15 or mc == 0.0:
        capacity = math.inf
    elif draw < 0.45:
        capacity = mc * float(rng.uniform(1.0, 1.3))  # near-capacity pressure
    elif draw < 0.85:
        capacity = mc * float(rng.uniform(1.3, 3.0))
    else:
        # Infeasible: at least one task can never fit, so the engines must
        # agree on the error class, the offending task and the message.
        capacity = mc * float(rng.uniform(0.5, 0.95))
    return Instance(tasks, capacity=capacity, name=f"rand/{index}")


def policies_for(instance: Instance, rng: np.random.Generator):
    """The paper's policy triple plus adversarial fixed/corrected orders."""
    tasks = instance.tasks
    names = list(instance.task_names)
    return [
        FixedOrderPolicy(tasks),
        FixedOrderPolicy(tuple(tasks[i] for i in rng.permutation(len(tasks)))),
        FixedOrderPolicy(tuple(johnson_order(tasks))),
        CriterionPolicy(criterion=largest_communication, name="LCMR"),
        CriterionPolicy(criterion=smallest_communication, name="SCMR"),
        CriterionPolicy(criterion=maximum_acceleration, name="MAMR"),
        CorrectedOrderPolicy(
            order=[t.name for t in johnson_order(tasks)],
            criterion=largest_communication,
            name="OOLCMR",
        ),
        CorrectedOrderPolicy(
            order=list(rng.permutation(names)),
            criterion=maximum_acceleration,
            name="OOMAMR",
        ),
        # Unknown names in the corrected order: permanent dynamic fallback.
        CorrectedOrderPolicy(
            order=["zz-missing", *names[:2]],
            criterion=smallest_communication,
            name="OOX",
        ),
    ]


def outcome(run, *args, **kwargs):
    """Normalise a run to a comparable (kind, payload) pair.

    ``DeadlockError`` subclasses ``InfeasibleOrderError``; keeping the class
    name in the payload asserts the engines agree on *which* error, and the
    message equality pins the exact offending task.
    """
    try:
        return ("ok", run(*args, **kwargs))
    except InfeasibleOrderError as error:
        return ("err", type(error).__name__, str(error))


def object_schedule(instance, policy, machine=None, comp_order=None):
    return simulate(
        instance, policy, machine=machine, comp_order=comp_order, engine="object"
    ).schedule


def columnar_schedule(instance, policy, machine=None, comp_order=None):
    return simulate_columnar(
        instance, policy, machine=machine, comp_order=comp_order
    ).schedule


def columnar_runs(instance, policy, **options):
    """Whether the engine plan puts a forced columnar request on columnar."""
    return plan_engine(instance, policy, engine="columnar", **options)[0] == "columnar"


def seed_schedule(instance, policy):
    """Schedule via the frozen seed executor matching ``policy``'s mode."""
    if type(policy) is FixedOrderPolicy:
        return reference_execute_fixed_order(instance, policy.tasks)
    if type(policy) is CorrectedOrderPolicy:
        reference = ReferenceCorrectedOrderPolicy(
            order=list(policy.order), criterion=policy.criterion, name=policy.name
        )
        return reference_execute_with_policy(instance, reference)
    return reference_execute_with_policy(instance, policy)


def test_columnar_matches_object_kernel_on_random_instances():
    rng = np.random.default_rng(20260808)
    machines = [None, MachineModel(link_count=2), MachineModel(link_count=3)]
    configs = 0
    errors = 0
    mismatches = []
    for index in range(INSTANCE_COUNT):
        instance = random_instance(rng, index)
        for machine in machines:
            for policy in policies_for(instance, rng):
                if not columnar_runs(instance, policy, machine=machine):
                    continue
                configs += 1
                obj = outcome(object_schedule, instance, policy, machine=machine)
                col = outcome(columnar_schedule, instance, policy, machine=machine)
                if obj != col:
                    mismatches.append((instance.name, getattr(policy, "name", "fixed")))
                elif obj[0] == "err":
                    errors += 1
    assert not mismatches, f"columnar diverged from the kernel on: {mismatches[:10]}"
    assert configs > 1000  # the support matrix must not silently skip everything
    assert errors > 0  # tight capacities must exercise the error paths too


def test_columnar_matches_the_frozen_seed_executors():
    rng = np.random.default_rng(7)
    compared = 0
    for index in range(40):
        instance = random_instance(rng, index)
        tasks = instance.tasks
        policies = [
            FixedOrderPolicy(tuple(tasks[i] for i in rng.permutation(len(tasks)))),
            CriterionPolicy(criterion=largest_communication, name="dyn"),
            CriterionPolicy(criterion=smallest_communication, name="dyn"),
            CriterionPolicy(criterion=maximum_acceleration, name="dyn"),
            CorrectedOrderPolicy(
                order=tuple(t.name for t in johnson_order(tasks)),
                criterion=maximum_acceleration,
                name="corr",
            ),
        ]
        for policy in policies:
            if not columnar_runs(instance, policy):
                continue
            seed = outcome(seed_schedule, instance, policy)
            col = outcome(columnar_schedule, instance, policy)
            if seed[0] == "ok":
                compared += 1
                assert col == seed, f"columnar diverged from the seed on {instance.name}"
    assert compared > 100


def test_two_order_variant_matches_kernel_and_seed():
    rng = np.random.default_rng(42)
    checked_deadlocks = 0
    compared = 0
    for index in range(60):
        instance = random_instance(rng, index)
        names = list(instance.task_names)
        tasks = instance.tasks
        comm_order = list(rng.permutation(names))
        comp_order = list(rng.permutation(names))
        policy = FixedOrderPolicy(tuple(tasks[names.index(nm)] for nm in comm_order))
        if not columnar_runs(instance, policy, comp_order=comp_order):
            continue
        obj = outcome(object_schedule, instance, policy, comp_order=comp_order)
        col = outcome(columnar_schedule, instance, policy, comp_order=comp_order)
        assert obj == col, f"two-order engines diverged on {instance.name}"
        compared += 1
        if obj[0] == "err" and obj[1] == "DeadlockError":
            checked_deadlocks += 1
        # The frozen seed executor raises for an over-capacity task and
        # reports a blocked (deadlocked) run as None.
        try:
            seed = reference_execute_two_orders(instance, comm_order, comp_order)
        except InfeasibleOrderError:
            # Kernel and reference agree the run is infeasible but name the
            # first offender in different walk orders (instance vs comm
            # order) — a pre-existing kernel/seed difference; the exact
            # obj == col assertion above already pins the kernel behaviour.
            assert col[0] == "err"
        else:
            if seed is None:
                assert col[0] == "err"
            else:
                assert col == ("ok", seed)
    # Random order pairs under tight capacities deadlock often enough that
    # this loop exercises both outcomes.
    assert checked_deadlocks > 0 and compared > checked_deadlocks


def test_large_auto_runs_match_the_object_kernel():
    rng = np.random.default_rng(3)
    instance = random_instance(rng, 0, n_lo=400, n_hi=401)
    mc = max(task.memory for task in instance.tasks)
    instance = instance.with_capacity(mc * 1.2)  # feasible, near-capacity
    for policy in (
        FixedOrderPolicy(instance.tasks),
        CriterionPolicy(criterion=maximum_acceleration, name="MAMR"),
    ):
        if not columnar_runs(instance, policy):
            continue
        auto = simulate(instance, policy)
        obj = simulate(instance, policy, engine="object")
        forced = os.environ.get("REPRO_ENGINE", "auto") or "auto"
        if forced in ("auto", "columnar"):
            assert auto.engine == "columnar"
        else:
            # A forced engine (the CI oracle steps) takes the dispatch where
            # it can; policies it cannot batch still fall back to columnar.
            assert auto.engine in (forced, "columnar")
        assert auto.schedule == obj.schedule


def test_infeasible_task_message_parity():
    instance = Instance(
        [Task("a", 1.0, 1.0, memory=1.0), Task("b", 2.0, 2.0, memory=5.0)],
        capacity=2.0,
    )
    policy = FixedOrderPolicy(instance.tasks)
    with pytest.raises(InfeasibleOrderError) as from_object:
        simulate(instance, policy, engine="object")
    with pytest.raises(InfeasibleOrderError) as from_columnar:
        simulate_columnar(instance, policy)
    assert str(from_columnar.value) == str(from_object.value)
    assert "'b'" in str(from_columnar.value)


def test_forced_columnar_sweep_matches_object_end_to_end(monkeypatch):
    """The CI oracle in miniature: REPRO_ENGINE=columnar vs the default."""
    from repro.api import Study
    from repro.traces.generator import synthetic_trace

    trace = synthetic_trace("balanced", tasks=40, seed=9)
    spec = dict(capacities=(1.0, 1.5), solvers=("OS", "OOSIM", "LCMR", "OOMAMR"))

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
    monkeypatch.setenv("REPRO_ENGINE", "columnar")
    forced = sweep()
    assert set(forced.column("engine")) == {"columnar"}
    assert forced.column("makespan") == baseline.column("makespan")
    assert forced.column("ratio_to_optimal") == baseline.column("ratio_to_optimal")


# --------------------------------------------------------------------------- #
# The indexed selection loop on co-monotone views
# --------------------------------------------------------------------------- #
#: Co-monotone instance families: memory never decreases along the
#: (comm, memory) order, so dynamic and corrected runs take the index.
CO_MONOTONE_FAMILIES = ("few-comm", "comm-ties", "name-ties", "zero-comm")


def co_monotone_instance(rng: np.random.Generator, index: int, family: str) -> Instance:
    """A co-monotone instance of ``family`` under a drawn capacity.

    * ``few-comm``: one to three distinct comm values (the HF traces have
      six over 529 tasks), byte-scale memory proportional to comm;
    * ``comm-ties``: comm ties whose memories differ, each tie group's
      memories below the next group's;
    * ``name-ties``: equal comm and acceleration across tasks, with names
      out of submission order, so the name rank decides;
    * ``zero-comm``: many zero transfers, so MAMR sees ``-inf`` keys (zero
      comm, positive comp) and ``0.0`` keys, and LCMR sees ``-0.0``.
    """
    n = int(rng.integers(1, 40))
    if family == "few-comm":
        levels = rng.uniform(0.5, 10.0, size=int(rng.integers(1, 4)))
        comm = rng.choice(levels, n)
        memory = comm * 2.5e7
    elif family == "comm-ties":
        levels = np.sort(rng.uniform(0.5, 10.0, size=3))
        group = rng.integers(0, 3, n)
        comm = levels[group]
        memory = 10.0 * group + rng.uniform(1.0, 9.0, n)
    elif family == "name-ties":
        comm = rng.choice(np.array([2.0, 4.0]), n)
        memory = comm
    else:
        comm = rng.uniform(0.0, 10.0, n)
        comm[rng.random(n) < 0.4] = 0.0
        memory = comm.copy()
    comp = comm * 1.5 if family == "name-ties" else rng.uniform(0.0, 10.0, n)
    if family == "zero-comm":
        comp[rng.random(n) < 0.3] = 0.0
    names = [f"n{j:02d}" for j in rng.permutation(n)]
    tasks = [
        Task(names[i], float(comm[i]), float(comp[i]), memory=float(memory[i]))
        for i in range(n)
    ]
    mc = max(task.memory for task in tasks)
    draw = rng.random()
    if draw < 0.2 or mc == 0.0:
        capacity = math.inf
    elif draw < 0.5:
        capacity = mc  # exactly max_memory: the tightest feasible capacity
    else:
        capacity = mc * float(rng.uniform(1.0, 2.5))
    return Instance(tasks, capacity=capacity, name=f"{family}/{index}")


def selection_policies(instance: Instance, rng: np.random.Generator):
    """The six dynamic and corrected policies, plus corrected orders that
    are shuffled or hold names missing from the instance."""
    johnson = [t.name for t in johnson_order(instance.tasks)]
    names = list(instance.task_names)
    criteria = {
        "LCMR": largest_communication,
        "SCMR": smallest_communication,
        "MAMR": maximum_acceleration,
    }
    policies = [CriterionPolicy(criterion=c, name=name) for name, c in criteria.items()]
    policies += [
        CorrectedOrderPolicy(order=johnson, criterion=c, name=f"OO{name}")
        for name, c in criteria.items()
    ]
    policies += [
        CorrectedOrderPolicy(
            order=list(rng.permutation(names)), criterion=maximum_acceleration, name="OOshuf"
        ),
        CorrectedOrderPolicy(
            order=[names[-1], "zz-missing", *names[:2]],
            criterion=largest_communication,
            name="OOmissing",
        ),
    ]
    return policies


def both_scans(instance: Instance, policy, machine=None, capacity=None):
    """``(ready-set scan, indexed scan)`` outcomes of one run, called directly.

    ``capacity`` overrides the machine's effective capacity, which lets a
    test go past the upfront feasibility check to the scans' own errors.
    """
    from repro.simulator import columnar

    machine = machine or MachineModel()
    view = columnar.columnar_view(instance)
    if capacity is None:
        capacity = machine.effective_capacity(instance.capacity)
    corrected = None
    if type(policy) is CorrectedOrderPolicy:
        corrected = [view.index.get(name, -1) for name in policy.order]
    keys = columnar._criterion_keys(view, policy.criterion)
    ranked = view.criterion_rank(policy.criterion)
    assert ranked is not None, f"{instance.name} should be co-monotone"
    scans = (
        (columnar._policy_scan, keys),
        (columnar._indexed_policy_scan, ranked),
    )

    def run(scan, selection_keys):
        placed, comm_start, comp_start, wait = scan(
            view, selection_keys, corrected, capacity, machine.link_count
        )
        return list(placed), list(comm_start), list(comp_start), wait

    return tuple(outcome(run, scan, selection_keys) for scan, selection_keys in scans)


@pytest.fixture
def scan_calls(monkeypatch):
    """Count which selection loop each columnar run takes."""
    from repro.simulator import columnar

    calls = {"scan": 0, "indexed": 0}
    for name, label in (("_policy_scan", "scan"), ("_indexed_policy_scan", "indexed")):
        original = getattr(columnar, name)

        def counted(*args, original=original, label=label):
            calls[label] += 1
            return original(*args)

        monkeypatch.setattr(columnar, name, counted)
    return calls


@pytest.mark.parametrize("family", CO_MONOTONE_FAMILIES)
def test_indexed_selection_matches_scan_and_object_kernel(family, scan_calls):
    rng = np.random.default_rng(CO_MONOTONE_FAMILIES.index(family))
    machines = [None, MachineModel(link_count=2)]
    compared = waited = 0
    for index in range(30):
        instance = co_monotone_instance(rng, index, family)
        for machine in machines:
            for policy in selection_policies(instance, rng):
                assert columnar_runs(instance, policy, machine=machine)
                scan, indexed = both_scans(instance, policy, machine)
                assert indexed == scan, (instance.name, policy.name, machine)
                waited += scan[0] == "ok" and scan[1][3] > 0.0
                before = dict(scan_calls)
                obj = outcome(object_schedule, instance, policy, machine=machine)
                col = outcome(columnar_schedule, instance, policy, machine=machine)
                assert col == obj, (instance.name, policy.name, machine)
                # Only the indexed loop ran for the columnar engine.
                assert scan_calls == {**before, "indexed": before["indexed"] + 1}
                compared += 1
    assert compared == 30 * 2 * 8
    assert waited > 0  # the memory_wait totals were compared, not all zero


def test_idle_exactly_at_the_cutoff_is_eligible(scan_calls):
    """The minimum-idle filter keeps ``idle <= cutoff``: a task whose idle
    lands exactly on ``best + TOLERANCE`` is a candidate, so LCMR starts
    with ``b``, not ``a``."""
    from repro.core.validation import TOLERANCE

    instance = Instance(
        [Task("a", 1.0, 5.0), Task("b", 1.0 + TOLERANCE, 5.0), Task("c", 3.0, 1.0)]
    )
    policy = CriterionPolicy(criterion=largest_communication, name="LCMR")
    col = columnar_schedule(instance, policy)
    assert scan_calls["indexed"] == 1
    assert col == object_schedule(instance, policy)
    assert col.communication_order()[0] == "b"


def test_memory_exactly_at_the_headroom_fits(scan_calls):
    """The fit test keeps ``memory <= headroom``: below a capacity of one
    the slack is ``TOLERANCE`` and ``b`` needs exactly ``capacity + slack``."""
    from repro.core.validation import TOLERANCE

    capacity = 0.5
    instance = Instance(
        [Task("a", 0.2, 1.0, memory=0.2), Task("b", 0.3, 1.0, memory=capacity + TOLERANCE)],
        capacity=capacity,
    )
    for criterion in (largest_communication, smallest_communication):
        policy = CriterionPolicy(criterion=criterion)
        col = outcome(columnar_schedule, instance, policy)
        assert col[0] == "ok"
        assert col == outcome(object_schedule, instance, policy)
    assert scan_calls["indexed"] == 2


def test_indexed_deadlock_error_matches_the_scan():
    """Below the largest footprint the scans' own deadlock error fires
    (``simulate`` rejects such a run before any scan starts)."""
    instance = Instance(
        [Task("a", 1.0, 1.0, memory=1.0), Task("b", 2.0, 2.0, memory=5.0)],
        capacity=8.0,
    )
    for policy in selection_policies(instance, np.random.default_rng(0)):
        scan, indexed = both_scans(instance, policy, capacity=3.0)
        message = "deadlock: no task fits and no memory will be released"
        assert scan == ("err", "DeadlockError", message)
        assert indexed == scan


def test_non_co_monotone_views_take_the_ready_set_scan(scan_calls):
    from repro.simulator.columnar import columnar_view

    tasks = [
        Task("a", 1.0, 3.0, memory=9.0),  # the smallest comm, the largest memory
        Task("b", 2.0, 1.0, memory=2.0),
        Task("c", 3.0, 2.0, memory=4.0),
    ]
    instance = Instance(tasks, capacity=12.0)
    view = columnar_view(instance)
    assert view.comm_index is None
    assert view.criterion_rank(largest_communication) is None
    for policy in selection_policies(instance, np.random.default_rng(1)):
        col = outcome(columnar_schedule, instance, policy)
        assert col == outcome(object_schedule, instance, policy)
    assert scan_calls == {"scan": 8, "indexed": 0}
