"""Gilmore–Gomory sequencing for the no-wait two-machine flowshop.

The paper (Section 4.4) borrows the classical Gilmore–Gomory procedure for
"sequencing a one state-variable machine" to build a static task order: each
task is a job whose start state is its communication time and whose end state
is its computation time; the cost of scheduling task ``k`` right after task
``j`` is the non-overlapped communication time ``max(comm_k - comp_j, 0)``.
Minimising the total cost over a single tour is exactly the no-wait 2-machine
flowshop makespan problem, which Gilmore and Gomory solve in polynomial time.

The implementation follows the classical three phases:

1. **Assignment** — sort the ``comp`` values (machine-2 / end states) and the
   ``comm`` values (machine-1 / start states) and match them rank by rank.
   This minimises the total transition cost over *all* successor assignments,
   but generally yields several sub-tours.
2. **Patching** — merge sub-tours with adjacent interchanges (in end-state
   order).  Interchanges are selected Kruskal-style by increasing marginal
   cost until a single tour remains.
3. **Reconstruction** — apply the selected interchanges to the successor map.
   Several application orders are tried (the classical rule splits interchanges
   into two groups applied in opposite index orders, and every permutation is
   tried when at most 7 interchanges are selected); the realised tour with the
   smallest no-wait makespan is returned.  Application orders mostly realise
   the same successor vector, and an interchange only touches the successors
   of its two positions, so each order is keyed in O(k) on the patched values
   at those ≤ 2k positions.  Each distinct vector is cycle-checked and its
   tour evaluated once, in the original iteration order; equal vectors give
   equal tours, so the first-found best order is unchanged.

A dummy job with zero times closes the tour, so the returned object is an open
sequence starting right after the dummy — i.e. a task order usable by the
static-order executor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.task import Task
from .nowait import nowait_makespan

__all__ = ["gilmore_gomory_order", "GilmoreGomoryResult"]


_DUMMY_NAME = "__gg_dummy__"


@dataclass(frozen=True)
class GilmoreGomoryResult:
    """Outcome of the Gilmore–Gomory sequencing."""

    order: tuple[Task, ...]
    makespan: float
    assignment_cost: float
    patching_cost: float

    @property
    def lower_bound(self) -> float:
        """Assignment + patching cost plus total computation time.

        The classical analysis guarantees an application order achieving this
        value; the realised ``makespan`` may exceed it only if the heuristic
        reconstruction picked a sub-optimal application order.
        """
        return self.assignment_cost + self.patching_cost


class _DisjointSet:
    """Union-find over sub-tour identifiers (used by the Kruskal patching)."""

    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, x: int) -> int:
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True


def _transition(end_state: float, start_state: float) -> float:
    """Cost of moving the machine from ``end_state`` to ``start_state``."""
    return max(start_state - end_state, 0.0)


def _cycles_of(successor: Sequence[int]) -> list[list[int]]:
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


def _tour_from_successors(successor: Sequence[int], start: int) -> list[int]:
    tour = []
    node = successor[start]
    while node != start:
        tour.append(node)
        node = successor[node]
    return tour


def _patched_key(
    successor: Sequence[int], positions: Sequence[int], touched: Sequence[int], order: Sequence[int]
) -> tuple[int, ...]:
    """Successors at ``touched`` after swapping those of ``p`` and ``p+1``
    for each selected position ``p`` in ``order``.

    Every other entry of the patched vector equals ``successor``, so the
    returned values identify the patched vector; only a swap map over the
    touched positions is built, never a copy of the whole vector.
    """
    patched: dict[int, int] = {}
    for p in order:
        a, b = positions[p], positions[p + 1]
        patched[a], patched[b] = patched.get(b, successor[b]), patched.get(a, successor[a])
    return tuple(patched[t] for t in touched)


def gilmore_gomory_order(tasks: Iterable[Task]) -> GilmoreGomoryResult:
    """Sequence ``tasks`` with the Gilmore–Gomory procedure.

    Returns the order together with its no-wait makespan and the cost split
    between the assignment and the patching phases.
    """
    tasks = list(tasks)
    if not tasks:
        return GilmoreGomoryResult(order=(), makespan=0.0, assignment_cost=0.0, patching_cost=0.0)
    if len(tasks) == 1:
        only = tasks[0]
        return GilmoreGomoryResult(
            order=(only,),
            makespan=nowait_makespan([only]),
            assignment_cost=only.comm,
            patching_cost=0.0,
        )

    dummy = Task(name=_DUMMY_NAME, comm=0.0, comp=0.0)
    jobs = [dummy] + tasks
    n = len(jobs)

    # ------------------------------------------------------------------ #
    # Phase 1: rank-matching assignment.
    # ``positions`` lists job indices by non-decreasing end state (comp); the
    # k-th such job receives as successor the job with the k-th smallest start
    # state (comm).
    # ------------------------------------------------------------------ #
    positions = sorted(range(n), key=lambda i: (jobs[i].comp, jobs[i].name))
    by_start = sorted(range(n), key=lambda i: (jobs[i].comm, jobs[i].name))
    successor = [0] * n
    for rank in range(n):
        successor[positions[rank]] = by_start[rank]
    assignment_cost = sum(
        _transition(jobs[i].comp, jobs[successor[i]].comm) for i in range(n)
    )

    # ------------------------------------------------------------------ #
    # Phase 2: Kruskal patching over the assignment's sub-tours.
    # Candidate interchanges swap the successors of positions k and k+1 (in
    # end-state order); the marginal cost is evaluated against the original
    # assignment, as in the classical analysis.
    # ------------------------------------------------------------------ #
    cycles = _cycles_of(successor)
    cycle_of = [0] * n
    for cycle_id, cycle in enumerate(cycles):
        for node in cycle:
            cycle_of[node] = cycle_id

    patching_cost = 0.0
    selected: list[int] = []
    if len(cycles) > 1:
        def marginal(k: int) -> float:
            i, j = positions[k], positions[k + 1]
            before = _transition(jobs[i].comp, jobs[successor[i]].comm) + _transition(
                jobs[j].comp, jobs[successor[j]].comm
            )
            after = _transition(jobs[i].comp, jobs[successor[j]].comm) + _transition(
                jobs[j].comp, jobs[successor[i]].comm
            )
            return after - before

        candidates = sorted(range(n - 1), key=lambda k: (marginal(k), k))
        dsu = _DisjointSet(len(cycles))
        for k in candidates:
            i, j = positions[k], positions[k + 1]
            if dsu.union(cycle_of[i], cycle_of[j]):
                selected.append(k)
                patching_cost += marginal(k)
            if len(selected) == len(cycles) - 1:
                break

    # ------------------------------------------------------------------ #
    # Phase 3: reconstruction.  The classical rule applies one group of
    # interchanges by decreasing index and the other by increasing index; we
    # try the natural candidate orders and keep the best realised tour (each
    # candidate is guaranteed to be a single Hamiltonian tour because every
    # selected interchange merges two distinct sub-tours).  Candidates are
    # keyed on their patched successors at the touched positions; a vector
    # already seen gives the same tour and makespan, so it is skipped.
    # ------------------------------------------------------------------ #
    selected.sort()
    orders_to_try: list[list[int]] = []
    if selected:
        increasing = list(range(len(selected)))
        decreasing = increasing[::-1]
        group_up = [idx for idx, k in enumerate(selected) if jobs[successor[positions[k]]].comm >= jobs[positions[k]].comp]
        group_down = [idx for idx in increasing if idx not in group_up]
        classical = sorted(group_up, key=lambda idx: -selected[idx]) + sorted(
            group_down, key=lambda idx: selected[idx]
        )
        reversed_classical = classical[::-1]
        orders_to_try = [classical, reversed_classical, increasing, decreasing]
        if len(selected) <= 7:
            orders_to_try.extend(list(p) for p in itertools.permutations(increasing))
    else:
        orders_to_try = [[]]

    touched = sorted({positions[k + d] for k in selected for d in (0, 1)})
    best_order: tuple[Task, ...] | None = None
    best_makespan = float("inf")
    dummy_index = 0
    seen: set[tuple[int, ...]] = set()
    for application in orders_to_try:
        key = _patched_key(successor, positions, touched, [selected[idx] for idx in application])
        if key in seen:
            continue
        seen.add(key)
        patched = list(successor)
        for position, value in zip(touched, key):
            patched[position] = value
        if len(_cycles_of(patched)) != 1:
            continue
        tour_indices = _tour_from_successors(patched, dummy_index)
        order = tuple(jobs[i] for i in tour_indices)
        makespan = nowait_makespan(order)
        if makespan < best_makespan - 1e-12:
            best_makespan = makespan
            best_order = order

    assert best_order is not None, "patched assignment should always contain a single tour"
    return GilmoreGomoryResult(
        order=best_order,
        makespan=best_makespan,
        assignment_cost=assignment_cost,
        patching_cost=patching_cost,
    )
