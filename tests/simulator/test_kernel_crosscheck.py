"""Differential tests: the kernel reproduces the seed executors byte-for-byte.

Property-based cross-check on ~200 randomly generated instances (varying
task counts, workload mixes and capacity factors): every registered paper
heuristic plus GGX must produce *exactly* the same schedule through the
unified kernel as through the frozen seed implementations kept in
:mod:`repro.simulator._reference` — float-equal start times, same entry
order.  Two-order runs (``comp_order``) are cross-checked on random order
pairs, including deadlocking ones.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Instance, Task
from repro.flowshop.johnson import johnson_order
from repro.heuristics.baselines import ExactNoWait
from repro.heuristics.corrected import CorrectedHeuristic
from repro.heuristics.dynamic import DynamicHeuristic
from repro.heuristics.static import StaticOrderHeuristic
from repro.simulator import (
    CriterionPolicy,
    DeadlockError,
    FixedOrderPolicy,
    resolve_order,
    simulate,
)
from repro.simulator._reference import (
    ReferenceCorrectedOrderPolicy,
    reference_execute_fixed_order,
    reference_execute_two_orders,
    reference_execute_with_policy,
)
from repro.api import resolve_solvers

#: Canonical names of the 14 paper heuristics (Figures 9/11 line-up) + GGX.
SOLVER_NAMES = (
    "OS",
    "GG",
    "BP",
    "OOSIM",
    "IOCMS",
    "DOCPS",
    "IOCCS",
    "DOCCS",
    "LCMR",
    "SCMR",
    "MAMR",
    "OOLCMR",
    "OOSCMR",
    "OOMAMR",
    "GGX",
)

#: Number of random instances; together with the 15 solvers this drives
#: ~3000 kernel-vs-seed schedule comparisons.
INSTANCE_COUNT = 200


def random_instance(rng: np.random.Generator, index: int) -> Instance:
    """A small random instance with a randomly tight capacity."""
    n = int(rng.integers(3, 16))
    tasks = []
    for i in range(n):
        comm = float(rng.uniform(0.0, 10.0))
        comp = float(rng.uniform(0.0, 10.0))
        if rng.random() < 0.1:
            comm = 0.0  # exercise zero-length transfers
        if rng.random() < 0.5:
            task = Task(f"t{i:02d}", comm, comp)  # memory == comm convention
        else:
            task = Task(f"t{i:02d}", comm, comp, memory=float(rng.uniform(0.1, 10.0)))
        tasks.append(task)
    mc = max(task.memory for task in tasks)
    if rng.random() < 0.1 or mc == 0.0:
        capacity = math.inf
    else:
        capacity = mc * float(rng.uniform(1.0, 2.0))
    return Instance(tasks, capacity=capacity, name=f"rand/{index}")


def seed_schedule(solver, instance: Instance):
    """Schedule via the frozen seed code path for one registered solver."""
    if isinstance(solver, DynamicHeuristic):
        policy = CriterionPolicy(criterion=type(solver).criterion, name=solver.name)
        return reference_execute_with_policy(instance, policy)
    if isinstance(solver, CorrectedHeuristic):
        order = [task.name for task in johnson_order(instance.tasks)]
        policy = ReferenceCorrectedOrderPolicy(
            order=order, criterion=type(solver).criterion, name=solver.name
        )
        return reference_execute_with_policy(instance, policy)
    assert isinstance(solver, StaticOrderHeuristic)
    return reference_execute_fixed_order(instance, solver.order(instance))


@pytest.fixture(scope="module")
def solvers():
    resolved = list(resolve_solvers(*SOLVER_NAMES))
    for solver in resolved:
        if isinstance(solver, ExactNoWait):
            solver.exact_limit = 10  # Held-Karp is O(2^n n^2); keep the sweep fast
    return resolved


def test_kernel_matches_seed_executors_on_random_instances(solvers):
    rng = np.random.default_rng(20260729)
    mismatches = []
    for index in range(INSTANCE_COUNT):
        instance = random_instance(rng, index)
        for solver in solvers:
            expected = seed_schedule(solver, instance)
            actual = solver.schedule(instance)
            if actual != expected:  # Schedule equality is exact (float-equal)
                mismatches.append((instance.name, solver.name))
    assert not mismatches, f"kernel diverged from seed executors on: {mismatches[:10]}"


def test_two_order_kernel_matches_seed_on_random_order_pairs():
    rng = np.random.default_rng(42)
    checked_deadlocks = 0
    for index in range(60):
        instance = random_instance(rng, index)
        names = list(instance.task_names)
        comm_order = list(rng.permutation(names))
        comp_order = list(rng.permutation(names))
        expected = reference_execute_two_orders(instance, comm_order, comp_order)
        policy = FixedOrderPolicy(tuple(resolve_order(instance, comm_order)))
        try:
            actual = simulate(instance, policy, comp_order=comp_order).schedule
        except DeadlockError:  # the seed executor reports a blocked run as None
            actual = None
        if expected is None:
            checked_deadlocks += 1
            assert actual is None, f"kernel missed a deadlock on {instance.name}"
        else:
            assert actual == expected, f"two-order schedules diverged on {instance.name}"
    # Random permutations under tight capacities deadlock often enough that
    # this loop exercises both outcomes.
    assert checked_deadlocks > 0
