"""Parallel solver racing with lower-bound pruning.

No single heuristic dominates (Table 6), and when an instance's regime is
unclear the cheapest hedge is to *race* a small portfolio of members and keep
the virtual-best schedule.  :class:`PortfolioSolver` does exactly that:

* members run concurrently on a thread pool;
* a shared :class:`Incumbent` tracks the best makespan seen so far, floored
  by the instance's OMIM/area lower bounds (:mod:`repro.core.bounds`);
* kernel-backed members run under a :class:`PruningPolicy` wrapper that
  aborts the member as soon as its simulation clock passes the incumbent —
  a partial schedule's clock only grows, so such a member can no longer win;
* once the incumbent reaches the lower bound, members still queued are
  skipped outright (nothing can strictly beat a lower bound).

The outcome is deterministic despite the thread scheduling: a member with
the minimal makespan is never pruned (its decision clock never exceeds its
own makespan, which is never above the incumbent), so every minimal member
completes and the winner is the first of them in member order.  The racer
therefore never returns a makespan worse than the best of its members —
property-tested in ``tests/portfolio/test_race.py``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Lock
from typing import Sequence

from ..core.bounds import area_lower_bound, omim
from ..core.instance import Instance
from ..core.schedule import Schedule
from ..heuristics.base import Category, Heuristic
from ..simulator.columnar import _normalise_engine
from ..simulator.engine import SimulationResult, simulate
from ..simulator.policies import SelectionPolicy
from ..simulator.resources import MachineModel
from .outcome import OutcomeMixin, PortfolioOutcome

__all__ = [
    "DEFAULT_RACE_MEMBERS",
    "Incumbent",
    "MemberOutcome",
    "PortfolioSolver",
    "PruningPolicy",
    "RacePruned",
    "RaceReport",
]

#: Default race line-up: one strong member per behaviour family — Johnson's
#: order, both ends of the static comm+comp sorts, the three dynamic rules'
#: extremes and the paper's most robust corrected variant.
DEFAULT_RACE_MEMBERS: tuple[str, ...] = (
    "OOSIM",
    "DOCCS",
    "LCMR",
    "SCMR",
    "MAMR",
    "OOMAMR",
)

#: Makespans within this relative tolerance are considered tied.
_TOLERANCE = 1e-9


class RacePruned(Exception):
    """Raised inside a member run once it can no longer beat the incumbent."""


class Incumbent:
    """Thread-shared best-makespan tracker, floored by a lower bound."""

    def __init__(self, lower_bound: float = 0.0) -> None:
        self.lower_bound = lower_bound
        self._lock = Lock()
        self._best = math.inf

    @property
    def best(self) -> float:
        return self._best

    def offer(self, makespan: float) -> bool:
        """Record ``makespan``; True when it improved the incumbent."""
        with self._lock:
            if makespan < self._best:
                self._best = makespan
                return True
            return False

    def beaten(self, clock: float) -> bool:
        """True when a partial schedule at ``clock`` can no longer win."""
        return clock > self._best * (1.0 + _TOLERANCE)

    def settled(self) -> bool:
        """True once the incumbent has reached the lower bound."""
        return self._best <= self.lower_bound * (1.0 + _TOLERANCE)


class PruningPolicy:
    """Wrap a member's kernel policy with incumbent-based early abort.

    The kernel clock is monotone and every decision happens at or before the
    member's final makespan, so raising :class:`RacePruned` the moment the
    clock passes the incumbent cancels only members that are already beaten.
    """

    def __init__(self, inner: SelectionPolicy, incumbent: Incumbent) -> None:
        self._inner = inner
        self._incumbent = incumbent
        self.name = getattr(inner, "name", "pruned")
        self.waits_for_memory = getattr(inner, "waits_for_memory", False)

    def select(self, candidates, state):
        if self._incumbent.beaten(state.time):
            raise RacePruned(self.name)
        return self._inner.select(candidates, state)


@dataclass(frozen=True)
class MemberOutcome:
    """Attribution of one member's run inside a race."""

    solver: str
    category: str
    status: str  # "won" | "completed" | "pruned" | "skipped" | "failed"
    makespan: float = math.nan
    detail: str = ""

    @property
    def finished(self) -> bool:
        return self.status in ("won", "completed")


@dataclass(frozen=True)
class RaceReport:
    """Full per-member attribution of one race."""

    winner: str
    makespan: float
    lower_bound: float
    members: tuple[MemberOutcome, ...]

    @property
    def pruned(self) -> tuple[str, ...]:
        return tuple(m.solver for m in self.members if m.status in ("pruned", "skipped"))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{m.solver}:{m.status}"
            + (f"({m.makespan:g})" if math.isfinite(m.makespan) else "")
            for m in self.members
        )
        return f"race won by {self.winner} (makespan {self.makespan:g}; {parts})"


class PortfolioSolver(OutcomeMixin):
    """Registered solver (``"portfolio.race"``) racing K members per instance.

    Parameters
    ----------
    members:
        Solver specs resolved through the registry (names, aliases,
        instances, classes); defaults to :data:`DEFAULT_RACE_MEMBERS`.
    n_jobs:
        Thread-pool width; defaults to one thread per member (capped by the
        CPU count).
    prune:
        Disable to run every member to completion (pure virtual-best, used
        by the differential tests).
    """

    category = Category.PORTFOLIO

    def __init__(
        self,
        members: Sequence = (),
        *,
        n_jobs: int | None = None,
        prune: bool = True,
    ) -> None:
        super().__init__()
        self.name = "portfolio.race"
        self._member_specs = tuple(members) if members else DEFAULT_RACE_MEMBERS
        self._n_jobs = n_jobs
        self._prune = bool(prune)

    @property
    def runs_on_kernel(self) -> bool:
        return True

    def _resolve_members(self):
        from ..api.registry import resolve_solvers  # lazy: registry imports us

        members = resolve_solvers(*self._member_specs)
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate race members: {dupes}")
        return members

    def _run_member(
        self,
        member,
        instance: Instance,
        machine: MachineModel | None,
        incumbent: Incumbent,
    ) -> tuple[MemberOutcome, Schedule | None]:
        if self._prune and incumbent.settled():
            return MemberOutcome(member.name, str(member.category), "skipped"), None
        policy = None
        if self._prune and isinstance(member, Heuristic) and member.runs_on_kernel:
            policy = (
                member.online_policy(instance)
                if instance.has_releases
                else member.kernel_policy(instance)
            )
        try:
            if policy is not None:
                result = simulate(
                    instance, PruningPolicy(policy, incumbent), machine=machine
                )
                schedule = result.schedule
            elif hasattr(member, "simulate"):
                schedule = member.simulate(instance, machine=machine).schedule
            else:
                if machine is not None:
                    raise ValueError(
                        f"race member {member.name!r} does not run on the simulation "
                        "kernel and cannot target a custom machine model"
                    )
                schedule = member.schedule(instance)
        except RacePruned:
            return MemberOutcome(member.name, str(member.category), "pruned"), None
        except Exception as error:  # a broken member must not kill the hedge
            return (
                MemberOutcome(member.name, str(member.category), "failed", detail=repr(error)),
                None,
            )
        makespan = schedule.makespan
        incumbent.offer(makespan)
        return (
            MemberOutcome(member.name, str(member.category), "completed", makespan=makespan),
            schedule,
        )

    def race(
        self, instance: Instance, *, machine: MachineModel | None = None
    ) -> tuple[Schedule, RaceReport]:
        """Race the members on ``instance``; returns the winning schedule
        and the per-member attribution."""
        members = self._resolve_members()
        # OMIM/area are valid floors whenever link and processor are unique
        # (a capacity override cannot go below the infinite-memory optimum);
        # parallel links/processors could beat OMIM, so only 0 remains there.
        single_server = machine is None or (machine.link_count == 1 and machine.cpu_count == 1)
        lower_bound = (
            max(area_lower_bound(instance), omim(instance)) if single_server else 0.0
        )
        incumbent = Incumbent(lower_bound)

        if self._n_jobs is not None:
            workers = max(1, self._n_jobs)
        else:
            from ..api.engine import default_jobs  # lazy: api imports us

            workers = min(len(members), default_jobs())
        if workers > 1 and len(members) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                runs = list(
                    pool.map(
                        lambda member: self._run_member(member, instance, machine, incumbent),
                        members,
                    )
                )
        else:
            runs = [self._run_member(member, instance, machine, incumbent) for member in members]

        finished = [
            (outcome, schedule) for outcome, schedule in runs if schedule is not None
        ]
        if not finished:
            failures = "; ".join(
                f"{outcome.solver}: {outcome.detail or outcome.status}" for outcome, _ in runs
            )
            raise RuntimeError(f"every race member failed — {failures}")
        win_outcome, win_schedule = min(finished, key=lambda pair: pair[0].makespan)
        outcomes = tuple(
            MemberOutcome(o.solver, o.category, "won", makespan=o.makespan)
            if o is win_outcome
            else o
            for o, _ in runs
        )
        report = RaceReport(
            winner=win_outcome.solver,
            makespan=win_outcome.makespan,
            lower_bound=lower_bound,
            members=outcomes,
        )
        return win_schedule, report

    def simulate(
        self,
        instance: Instance,
        *,
        machine: MachineModel | None = None,
        record: bool = False,
        engine: str | None = None,
    ) -> SimulationResult:
        # engine= is checked but not forwarded: the race runs its members
        # through their own simulate() dispatch (auto engine).
        _normalise_engine(engine)
        schedule, report = self.race(instance, machine=machine)
        self._record_outcome(PortfolioOutcome(selected=report.winner, report=report))
        if record:
            # Members are deterministic: re-running the winner with event
            # recording on reproduces the winning schedule plus its trace.
            # Winners that cannot record (MILP members, schedule-only
            # solvers) degrade to the traceless result instead of failing
            # the race after the fact.
            winner = next(
                member for member in self._resolve_members() if member.name == report.winner
            )
            if getattr(winner, "runs_on_kernel", False):
                return winner.simulate(instance, machine=machine, record=True)
        return SimulationResult(schedule=schedule, trace=None)

    def schedule(self, instance: Instance) -> Schedule:
        return self.simulate(instance).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortfolioSolver(members={list(self._member_specs)!r}, prune={self._prune})"
