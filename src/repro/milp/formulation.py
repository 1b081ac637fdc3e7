"""Mixed-integer linear programming formulation of Problem DT (Section 4.5).

The formulation is the paper's, with one variable block per task pair:

* continuous ``s_i`` / ``s'_i`` — start of the communication / computation of
  task ``i`` (ends are ``s_i + CM_i`` and ``s'_i + CP_i``);
* continuous ``l`` — the makespan being minimised;
* binary ``a_ij`` — 1 when the communication of ``j`` completes before the
  communication of ``i`` starts (order on the link);
* binary ``b_ij`` — 1 when the computation of ``j`` completes before the
  computation of ``i`` starts (order on the processing unit);
* binary ``c_ij`` — 1 when the computation of ``j`` completes before the
  communication of ``i`` starts (memory of ``j`` already released).

The memory constraint counts, at the start of each communication, every task
transferred before it (``a``) whose computation has not yet completed (``c``).
The paper adds the strengthening constraints ``a_ij + a_ji = 1``,
``b_ij + b_ji = 1``, ``c_ij <= a_ij``, ``c_ij <= b_ij`` and
``c_ij + c_ji <= 1``; they are included here as well.

The solver is :func:`scipy.optimize.milp` (HiGHS).  The paper used GLPK
v4.65; the model is identical, only the solver differs (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduledTask
from ..core.task import Task

__all__ = ["MilpResult", "DataTransferMilp", "solve_exact"]

#: Tolerance used when post-processing fractional solver output.
_EPS = 1e-6


@dataclass(frozen=True)
class MilpResult:
    """Outcome of one MILP solve."""

    schedule: Schedule
    makespan: float
    status: int
    message: str
    optimal: bool

    @property
    def feasible(self) -> bool:
        return len(self.schedule) > 0 or self.makespan == 0.0


@dataclass
class _FixedPlacement:
    """A task whose events are imposed (used by the windowed lp.k solver)."""

    task: Task
    comm_start: float
    comp_start: float


class DataTransferMilp:
    """Builder/solver for the Problem DT MILP.

    Parameters
    ----------
    instance:
        Capacity and task set; only the tasks passed to :meth:`solve` are
        scheduled (the instance provides the memory capacity).
    time_limit:
        Wall-clock limit (seconds) handed to HiGHS for each solve.
    """

    def __init__(self, instance: Instance, *, time_limit: float | None = 60.0):
        self.instance = instance
        self.time_limit = time_limit

    # ------------------------------------------------------------------ #
    def solve(
        self,
        tasks: Sequence[Task] | None = None,
        *,
        fixed: Sequence[_FixedPlacement] | Mapping[str, tuple[float, float]] | None = None,
        comm_release: float = 0.0,
        comp_release: float = 0.0,
    ) -> MilpResult:
        """Solve the MILP for ``tasks`` (defaults to the whole instance).

        ``fixed`` imposes the events of already-committed tasks (their start
        variables get equality bounds); ``comm_release`` / ``comp_release``
        lower-bound the start of the free tasks on each resource, modelling
        resources still busy with earlier work.
        """
        free_tasks = list(self.instance.tasks if tasks is None else tasks)
        fixed_list = self._normalise_fixed(fixed)
        all_tasks = free_tasks + [f.task for f in fixed_list]
        n = len(all_tasks)
        if n == 0:
            return MilpResult(Schedule.empty(), 0.0, status=0, message="empty", optimal=True)

        capacity = self.instance.capacity
        raw_horizon = (
            sum(t.comm + t.comp for t in all_tasks)
            + max(comm_release, comp_release)
            + max((f.comp_start + f.task.comp for f in fixed_list), default=0.0)
        )
        # The solver's absolute feasibility tolerances (~1e-6) would otherwise
        # allow tolerance-sized overlaps of memory intervals when task times
        # are tiny (trace times are in seconds, often sub-millisecond), so all
        # times are rescaled to a horizon of ~1e3 inside the model and scaled
        # back when the solution is read out.
        scale = 1000.0 / raw_horizon if raw_horizon > 0 else 1.0
        comm_release *= scale
        comp_release *= scale
        horizon = raw_horizon * scale
        big_m = horizon if horizon > 0 else 1.0

        index = {task.name: i for i, task in enumerate(all_tasks)}
        n_free = len(free_tasks)

        # Variable layout: [s_0..s_{n-1} | sp_0..sp_{n-1} | l | a_(i,j) | b_(i,j) | c_(i,j)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        pair_index = {pair: k for k, pair in enumerate(pairs)}
        n_pairs = len(pairs)
        n_vars = 2 * n + 1 + 3 * n_pairs
        s_of = lambda i: i
        sp_of = lambda i: n + i
        l_var = 2 * n
        a_of = lambda i, j: 2 * n + 1 + pair_index[(i, j)]
        b_of = lambda i, j: 2 * n + 1 + n_pairs + pair_index[(i, j)]
        c_of = lambda i, j: 2 * n + 1 + 2 * n_pairs + pair_index[(i, j)]

        lower = np.zeros(n_vars)
        upper = np.full(n_vars, math.inf)
        integrality = np.zeros(n_vars)
        upper[2 * n + 1 :] = 1.0
        integrality[2 * n + 1 :] = 1.0

        # Resource-release lower bounds for free tasks; equality bounds for fixed ones.
        for i, task in enumerate(all_tasks):
            if i < n_free:
                lower[s_of(i)] = comm_release
                lower[sp_of(i)] = max(comm_release + task.comm * scale, comp_release)
            else:
                placement = fixed_list[i - n_free]
                lower[s_of(i)] = upper[s_of(i)] = placement.comm_start * scale
                lower[sp_of(i)] = upper[sp_of(i)] = placement.comp_start * scale
        upper[[s_of(i) for i in range(n)]] = np.minimum(upper[[s_of(i) for i in range(n)]], big_m)
        upper[[sp_of(i) for i in range(n)]] = np.minimum(upper[[sp_of(i) for i in range(n)]], big_m)
        upper[l_var] = big_m

        rows: list[np.ndarray] = []
        lbs: list[float] = []
        ubs: list[float] = []

        def add(coeffs: dict[int, float], lb: float, ub: float) -> None:
            row = np.zeros(n_vars)
            for var, coeff in coeffs.items():
                row[var] += coeff
            rows.append(row)
            lbs.append(lb)
            ubs.append(ub)

        comm = [t.comm * scale for t in all_tasks]
        comp = [t.comp * scale for t in all_tasks]
        mem = [t.memory for t in all_tasks]

        for i in range(n):
            # Task completes before the makespan:  sp_i + CP_i <= l
            add({sp_of(i): 1.0, l_var: -1.0}, -math.inf, -comp[i])
            # Valid ordering: s_i + CM_i <= sp_i
            add({s_of(i): 1.0, sp_of(i): -1.0}, -math.inf, -comm[i])

        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # Exclusive use of the communication link.
                add({s_of(j): 1.0, s_of(i): -1.0, a_of(i, j): big_m}, -math.inf, big_m - comm[j])
                # Exclusive use of the computation resource.
                add({sp_of(j): 1.0, sp_of(i): -1.0, b_of(i, j): big_m}, -math.inf, big_m - comp[j])
                # c_ij consistency: sp_j + CP_j <= s_i + (1 - c_ij) * M
                add({sp_of(j): 1.0, s_of(i): -1.0, c_of(i, j): big_m}, -math.inf, big_m - comp[j])
                #                   s_i <= sp_j + CP_j + c_ij * M   (strict form relaxed)
                add({s_of(i): 1.0, sp_of(j): -1.0, c_of(i, j): -big_m}, -math.inf, comp[j])
                # Strengthening: c_ij <= a_ij, c_ij <= b_ij, c_ij + c_ji <= 1.
                add({c_of(i, j): 1.0, a_of(i, j): -1.0}, -math.inf, 0.0)
                add({c_of(i, j): 1.0, b_of(i, j): -1.0}, -math.inf, 0.0)
                if i < j:
                    add({c_of(i, j): 1.0, c_of(j, i): 1.0}, -math.inf, 1.0)
                    add({a_of(i, j): 1.0, a_of(j, i): 1.0}, 1.0, 1.0)
                    add({b_of(i, j): 1.0, b_of(j, i): 1.0}, 1.0, 1.0)

        if math.isfinite(capacity):
            for i in range(n):
                coeffs: dict[int, float] = {}
                for r in range(n):
                    if r == i:
                        continue
                    coeffs[a_of(i, r)] = mem[r]
                    coeffs[c_of(i, r)] = -mem[r]
                add(coeffs, -math.inf, capacity - mem[i])

        objective = np.zeros(n_vars)
        objective[l_var] = 1.0

        # Imported here: scipy.optimize takes about 0.45 s to import, and
        # every process that warms the solver registry would pay it.
        from scipy.optimize import Bounds, LinearConstraint, milp

        options: dict[str, float] = {}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        result = milp(
            c=objective,
            constraints=LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs)),
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options=options or None,
        )

        if result.x is None:
            return MilpResult(
                Schedule.empty(),
                makespan=math.inf,
                status=result.status,
                message=result.message,
                optimal=False,
            )

        entries = []
        for i, task in enumerate(all_tasks):
            # Clamp solver tolerance noise (tiny negatives, computation starting
            # a hair before the transfer completes).
            comm_start = max(0.0, float(result.x[s_of(i)]) / scale)
            comp_start = max(0.0, float(result.x[sp_of(i)]) / scale)
            comp_start = max(comp_start, comm_start + task.comm)
            entries.append(ScheduledTask(task=task, comm_start=comm_start, comp_start=comp_start))
        schedule = Schedule(entries)
        return MilpResult(
            schedule=schedule,
            makespan=schedule.makespan,
            status=result.status,
            message=result.message,
            optimal=result.status == 0,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalise_fixed(
        fixed: Sequence[_FixedPlacement] | Mapping[str, tuple[float, float]] | None,
    ) -> list[_FixedPlacement]:
        if fixed is None:
            return []
        if isinstance(fixed, Mapping):
            raise TypeError("mapping form requires task objects; pass _FixedPlacement entries")
        return list(fixed)


def retime_by_orders(instance: Instance, schedule: Schedule) -> Schedule:
    """Re-time ``schedule`` as-early-as-possible while keeping its two orders.

    MILP solutions carry the solver's integer/primal feasibility tolerances,
    which can translate into infinitesimal overlaps of memory intervals.  The
    repaired schedule keeps the communication and computation orders chosen by
    the solver but recomputes exact event times with the memory-aware
    kernel; if the kernel cannot realise the orders (it deadlocks only when
    the original solution was materially infeasible), the input schedule is
    returned unchanged.
    """
    from ..simulator.engine import DeadlockError, resolve_order, simulate
    from ..simulator.policies import FixedOrderPolicy

    if len(schedule) == 0:
        return schedule
    comm_order = resolve_order(instance, schedule.communication_order())
    policy = FixedOrderPolicy(tuple(comm_order))
    try:
        return simulate(instance, policy, comp_order=schedule.computation_order()).schedule
    except DeadlockError:
        return schedule


def solve_exact(instance: Instance, *, time_limit: float | None = 60.0) -> MilpResult:
    """Solve the full MILP for ``instance`` (practical only for small task sets).

    The returned schedule is re-timed with :func:`retime_by_orders` so that it
    is exactly feasible (the raw solver output may carry tolerance noise).
    """
    result = DataTransferMilp(instance, time_limit=time_limit).solve()
    if len(result.schedule) == 0:
        return result
    repaired = retime_by_orders(instance, result.schedule)
    return MilpResult(
        schedule=repaired,
        makespan=repaired.makespan,
        status=result.status,
        message=result.message,
        optimal=result.optimal,
    )
