"""The pruned two-order search returns exactly what the full search returned.

``best_schedule_allowing_reordering`` skips every (communication order,
computation order) pair whose memory-free makespan cannot beat the
incumbent.  The oracle below is a frozen copy of the search before pruning:
it simulates all pairs.  Both must agree on the makespan and on the
first-found schedule, float for float, including on tie-heavy instances
where many pairs reach the optimum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core import Instance, Task, proposition1_instance
from repro.flowshop import best_schedule_allowing_reordering, bruteforce
from repro.simulator.engine import DeadlockError, simulate
from repro.simulator.policies import FixedOrderPolicy


def unpruned_search(instance: Instance):
    """Frozen copy of the exhaustive search that simulates every pair."""
    best = None
    best_makespan = math.inf
    tasks = list(instance.tasks)
    for comm_perm in itertools.permutations(tasks):
        policy = FixedOrderPolicy(comm_perm)
        for comp_perm in itertools.permutations(tasks):
            try:
                schedule = simulate(instance, policy, comp_order=comp_perm).schedule
            except DeadlockError:
                continue
            if schedule.makespan < best_makespan - 1e-12:
                best_makespan = schedule.makespan
                best = schedule
    assert best is not None
    return best, best_makespan


def placements(schedule):
    return [(e.task.name, e.comm_start, e.comp_start) for e in schedule]


def assert_same_result(pruned, full):
    (pruned_schedule, pruned_makespan), (full_schedule, full_makespan) = pruned, full
    assert pruned_makespan == full_makespan
    assert placements(pruned_schedule) == placements(full_schedule)


def random_instance(seed: int, tasks: int) -> Instance:
    """Tie-heavy or fractional durations, at a tight or loose capacity."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        comm = rng.integers(1, 4, size=tasks).astype(float)
        comp = rng.integers(0, 4, size=tasks).astype(float)
    else:
        comm = rng.uniform(0.1, 3.0, size=tasks)
        comp = rng.uniform(0.0, 3.0, size=tasks)
    memory = comm if seed % 3 else rng.uniform(0.5, 3.0, size=tasks)
    instance = Instance(
        [Task(f"T{i}", float(comm[i]), float(comp[i]), float(memory[i])) for i in range(tasks)]
    )
    factor = (1.0, 1.25, 2.0)[seed % 3]
    return instance.with_capacity(instance.min_capacity * factor)


def test_proposition1_instance_matches_the_full_search(proposition1_free_optimum):
    assert_same_result(proposition1_free_optimum, unpruned_search(proposition1_instance()))


@pytest.mark.parametrize("seed", range(6))  # each durations x (memory, capacity) mix
def test_random_five_task_instances_match_the_full_search(seed):
    instance = random_instance(seed, tasks=5)
    assert_same_result(best_schedule_allowing_reordering(instance), unpruned_search(instance))


def test_a_random_six_task_instance_matches_the_full_search():
    instance = random_instance(5, tasks=6)  # integer durations: many tied pairs
    assert_same_result(best_schedule_allowing_reordering(instance), unpruned_search(instance))


def test_pruning_simulates_a_handful_of_pairs(monkeypatch):
    calls = []

    def counting_simulate(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(bruteforce, "simulate", counting_simulate)
    _, makespan = best_schedule_allowing_reordering(proposition1_instance())
    assert makespan == 22.0
    assert len(calls) < 100  # of 720 * 720 pairs
