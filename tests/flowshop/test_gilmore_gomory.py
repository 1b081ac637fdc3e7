"""Tests for the Gilmore-Gomory no-wait sequencing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chemistry.workload import hf_ensemble
from repro.core import Task, tasks_from_pairs
from repro.flowshop import gilmore_gomory_order, held_karp_nowait_order, nowait_makespan


class TestStructure:
    def test_empty_and_singleton(self):
        assert gilmore_gomory_order([]).order == ()
        single = gilmore_gomory_order([Task.from_times("A", 2, 3)])
        assert [t.name for t in single.order] == ["A"]
        assert single.makespan == 5

    def test_order_contains_every_task_once(self):
        tasks = tasks_from_pairs([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3)])
        result = gilmore_gomory_order(tasks)
        assert sorted(t.name for t in result.order) == sorted(t.name for t in tasks)

    def test_reported_makespan_matches_order(self):
        tasks = tasks_from_pairs([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3)])
        result = gilmore_gomory_order(tasks)
        assert result.makespan == pytest.approx(nowait_makespan(result.order))

    def test_lower_bound_not_exceeding_makespan(self):
        tasks = tasks_from_pairs([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3), (2, 2)])
        result = gilmore_gomory_order(tasks)
        total_comp = sum(t.comp for t in tasks)
        assert result.assignment_cost + result.patching_cost + total_comp >= total_comp
        assert result.makespan + 1e-9 >= result.assignment_cost + total_comp


class TestOptimality:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(3, 2), (1, 4), (5, 5), (2, 1)],
            [(1, 1), (2, 2), (3, 3), (4, 4)],
            [(4, 1), (1, 4), (3, 3), (2, 5), (5, 2)],
            [(10, 1), (1, 10), (5, 5), (2, 2), (8, 3), (3, 8)],
        ],
    )
    def test_matches_exact_solver_on_fixed_instances(self, pairs):
        tasks = tasks_from_pairs(pairs)
        result = gilmore_gomory_order(tasks)
        _, optimal = held_karp_nowait_order(tasks)
        assert result.makespan == pytest.approx(optimal, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=2,
            max_size=7,
        )
    )
    def test_matches_exact_solver_on_random_instances(self, pairs):
        tasks = tasks_from_pairs(pairs)
        result = gilmore_gomory_order(tasks)
        _, optimal = held_karp_nowait_order(tasks)
        assert result.makespan == pytest.approx(optimal, abs=1e-9)

    def test_larger_random_instance_close_to_lower_bound(self):
        rng = np.random.default_rng(3)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0, 10, size=(40, 2))]
        tasks = tasks_from_pairs(pairs)
        result = gilmore_gomory_order(tasks)
        total_comp = sum(t.comp for t in tasks)
        theoretical = result.assignment_cost + result.patching_cost + total_comp
        # The reconstruction heuristic should realise (or come very close to)
        # the theoretical patched-assignment cost.
        assert result.makespan <= theoretical * 1.05 + 1e-9


# --------------------------------------------------------------------------- #
# Differential oracle: the phase-3 reconstruction before distinct-vector keying
# (every candidate application order patched, cycle-checked and evaluated in
# full), frozen here.  The production function must return the same result
# field for field.
# --------------------------------------------------------------------------- #
def _oracle_transition(end_state, start_state):
    return max(start_state - end_state, 0.0)


def _oracle_cycles(successor):
    seen = [False] * len(successor)
    cycles = []
    for start in range(len(successor)):
        if seen[start]:
            continue
        cycle = []
        node = start
        while not seen[node]:
            seen[node] = True
            cycle.append(node)
            node = successor[node]
        cycles.append(cycle)
    return cycles


def _oracle_gilmore_gomory(tasks):
    """Frozen reference; returns ``(result fields, interchanges selected)``."""
    tasks = list(tasks)
    if not tasks:
        return ((), 0.0, 0.0, 0.0), 0
    if len(tasks) == 1:
        return ((tasks[0],), nowait_makespan([tasks[0]]), tasks[0].comm, 0.0), 0
    jobs = [Task(name="__gg_dummy__", comm=0.0, comp=0.0)] + tasks
    n = len(jobs)
    positions = sorted(range(n), key=lambda i: (jobs[i].comp, jobs[i].name))
    by_start = sorted(range(n), key=lambda i: (jobs[i].comm, jobs[i].name))
    successor = [0] * n
    for rank in range(n):
        successor[positions[rank]] = by_start[rank]
    assignment_cost = sum(
        _oracle_transition(jobs[i].comp, jobs[successor[i]].comm) for i in range(n)
    )
    cycles = _oracle_cycles(successor)
    cycle_of = [0] * n
    for cycle_id, cycle in enumerate(cycles):
        for node in cycle:
            cycle_of[node] = cycle_id
    patching_cost = 0.0
    selected = []
    if len(cycles) > 1:
        def marginal(k):
            i, j = positions[k], positions[k + 1]
            before = _oracle_transition(jobs[i].comp, jobs[successor[i]].comm) + _oracle_transition(
                jobs[j].comp, jobs[successor[j]].comm
            )
            after = _oracle_transition(jobs[i].comp, jobs[successor[j]].comm) + _oracle_transition(
                jobs[j].comp, jobs[successor[i]].comm
            )
            return after - before

        parent = list(range(len(cycles)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for k in sorted(range(n - 1), key=lambda k: (marginal(k), k)):
            ri, rj = find(cycle_of[positions[k]]), find(cycle_of[positions[k + 1]])
            if ri != rj:
                parent[rj] = ri
                selected.append(k)
                patching_cost += marginal(k)
            if len(selected) == len(cycles) - 1:
                break
    selected.sort()
    if selected:
        increasing = list(range(len(selected)))
        group_up = [
            idx
            for idx, k in enumerate(selected)
            if jobs[successor[positions[k]]].comm >= jobs[positions[k]].comp
        ]
        group_down = [idx for idx in increasing if idx not in group_up]
        classical = sorted(group_up, key=lambda idx: -selected[idx]) + sorted(
            group_down, key=lambda idx: selected[idx]
        )
        orders_to_try = [classical, classical[::-1], increasing, increasing[::-1]]
        if len(selected) <= 7:
            orders_to_try.extend(list(p) for p in itertools.permutations(increasing))
    else:
        orders_to_try = [[]]
    best_order, best_makespan = None, float("inf")
    for application in orders_to_try:
        patched = list(successor)
        for idx in application:
            a, b = positions[selected[idx]], positions[selected[idx] + 1]
            patched[a], patched[b] = patched[b], patched[a]
        if len(_oracle_cycles(patched)) != 1:
            continue
        tour = []
        node = patched[0]
        while node != 0:
            tour.append(node)
            node = patched[node]
        order = tuple(jobs[i] for i in tour)
        makespan = nowait_makespan(order)
        if makespan < best_makespan - 1e-12:
            best_makespan, best_order = makespan, order
    return (best_order, best_makespan, assignment_cost, patching_cost), len(selected)


def _assert_matches_oracle(tasks):
    expected, selected = _oracle_gilmore_gomory(tasks)
    result = gilmore_gomory_order(tasks)
    got = (result.order, result.makespan, result.assignment_cost, result.patching_cost)
    assert [t.name for t in got[0]] == [t.name for t in expected[0]]
    assert got == expected
    return selected


@pytest.fixture(scope="module")
def hf_tail_traces():
    """HF traces 6 and 10 of the paper-size ensemble: both select 7
    interchanges whose 5040 application orders realise one vector."""
    ensemble = hf_ensemble(processes=150, seed=2019)
    return [ensemble[6], ensemble[10]]


class TestDifferentialAgainstFrozenOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        pairs = rng.uniform(0.0, 10.0, size=(n, 2))
        _assert_matches_oracle(tasks_from_pairs([(float(a), float(b)) for a, b in pairs]))

    @pytest.mark.parametrize("seed", range(40))
    def test_quantised_times_with_ties(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 40))
        pairs = rng.integers(0, 4, size=(n, 2))
        _assert_matches_oracle(tasks_from_pairs([(float(a), float(b)) for a, b in pairs]))

    @pytest.mark.parametrize("seed", range(12))
    def test_seven_interchange_family(self, seed):
        # comm == comp on every task: each job is its own assignment sub-tour,
        # so 8 jobs (7 tasks + the dummy) need exactly 7 interchanges and the
        # 5040-permutation path runs.
        rng = np.random.default_rng(2000 + seed)
        values = rng.permutation(np.arange(1.0, 8.0)) * float(rng.uniform(0.5, 3.0))
        tasks = tasks_from_pairs([(float(v), float(v)) for v in values])
        assert _assert_matches_oracle(tasks) == 7

    @pytest.mark.parametrize("index", [0, 1])
    def test_hf_tail_traces(self, hf_tail_traces, index):
        tasks = hf_tail_traces[index].to_instance().tasks
        assert _assert_matches_oracle(tasks) == 7
