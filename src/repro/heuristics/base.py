"""Common heuristic interface and category metadata.

Every heuristic of the paper maps a Problem DT instance to a feasible
schedule.  They are grouped into the four categories compared in Figures 10,
12 and 13:

* ``submission`` — the trivial *order of submission* baseline (OS);
* ``static`` — order computed up front (Section 4.1 + the Gilmore-Gomory and
  bin-packing baselines of Section 4.4);
* ``dynamic`` — task picked on the fly when the link is idle (Section 4.2);
* ``corrected`` — static order with dynamic corrections (Section 4.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..simulator.columnar import _normalise_engine
from ..simulator.engine import SimulationResult, simulate as _simulate
from ..simulator.policies import SelectionPolicy
from ..simulator.resources import MachineModel

__all__ = ["Category", "Heuristic", "HeuristicInfo", "PAPER_FIGURE_ORDER", "TABLE6_HEURISTICS"]

#: The proposed heuristics listed in Table 6 (with their favorable
#: situations), in the paper's row order.
TABLE6_HEURISTICS: tuple[str, ...] = (
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
)

#: Task tuples whose capacity-free order a heuristic keeps (see
#: ``Heuristic._order_of``): one per batch covers barrier sweeps of traces up
#: to 6400 tasks at the paper's batch size of 100.
ORDER_MEMO_SLOTS = 64

#: Order of heuristics on the x-axis of Figures 9 and 11 of the paper.
#: Lives here (not in the registry) so both the solver registry and the
#: legacy shims can import it without a cycle.
PAPER_FIGURE_ORDER: tuple[str, ...] = (
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
)


class Category(str, Enum):
    """Heuristic families used for the per-category comparisons of the paper."""

    SUBMISSION = "submission"
    STATIC = "static"
    DYNAMIC = "dynamic"
    CORRECTED = "corrected"
    MILP = "milp"
    PORTFOLIO = "portfolio"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class HeuristicInfo:
    """Descriptive metadata attached to each heuristic (Table 6)."""

    name: str
    category: Category
    description: str
    favorable_situation: str = ""


class Heuristic(abc.ABC):
    """A strategy that orders the data transfers of an instance.

    Subclasses implement :meth:`schedule`; the instance's memory capacity is
    always respected by construction (the kernel enforces it), so the result
    is feasible whenever every task individually fits in memory.
    """

    #: Short identifier used in reports and figures (e.g. ``"IOCMS"``).
    name: str = "heuristic"
    #: Category for the best-variant-per-category comparisons.
    category: Category = Category.STATIC
    #: One-line description.
    description: str = ""
    #: Favorable scenario quoted from Table 6 of the paper.
    favorable_situation: str = ""

    @abc.abstractmethod
    def schedule(self, instance: Instance) -> Schedule:
        """Return a feasible schedule of ``instance``."""

    @classmethod
    def favors(cls, features) -> bool:
        """Machine-readable form of :attr:`favorable_situation` (Table 6).

        ``features`` is an :class:`~repro.portfolio.features.InstanceFeatures`
        vector; each Table 6 heuristic overrides this with the explicit
        predicate its prose row describes, so algorithm selectors
        (:class:`~repro.portfolio.selector.Table6Selector`) can act on the
        situation instead of parsing it.  The default claims nothing.
        """
        return False

    def _order_of(self, tasks: tuple, compute: Callable[[], tuple]) -> tuple:
        """``compute()``, kept per task tuple (by identity) for a
        capacity-free order.

        A capacity sweep builds every factor's instance over one task tuple,
        and a barrier sweep every factor's batches over the same chunk
        tuples (:meth:`~repro.core.instance.Instance.batches`), so the order
        is computed once per tuple.  The last :data:`ORDER_MEMO_SLOTS`
        tuples are kept: a barrier sweep cycles through all of its batches
        on every factor.
        """
        memo = self.__dict__.setdefault("_order_memo", {})
        kept = memo.get(id(tasks))
        if kept is not None and kept[0] is tasks:
            return kept[1]
        order = compute()
        if len(memo) >= ORDER_MEMO_SLOTS:
            del memo[next(iter(memo))]
        memo[id(tasks)] = (tasks, order)  # holding the tuple keeps its id unique
        return order

    def kernel_policy(self, instance: Instance) -> SelectionPolicy | None:
        """Policy expressing this heuristic on the unified simulation kernel.

        Returns ``None`` when the heuristic does not run on the kernel (the
        MILP wrappers); such heuristics fall back to :meth:`schedule` in
        :meth:`simulate` and support neither machine models nor event traces.
        """
        return None

    def online_policy(self, instance: Instance) -> SelectionPolicy | None:
        """Policy expressing this heuristic on the streaming runtime.

        Online policies only ever see the *arrived* tasks and re-rank the
        ready set on every arrival (:mod:`repro.simulator.online`).  Returns
        ``None`` when the heuristic has no online form (the MILP wrappers);
        such heuristics reject release-dated instances in :meth:`simulate`.
        """
        return None

    def window_policy(
        self, instance: Instance, windows: "tuple[tuple, ...]"
    ) -> SelectionPolicy | None:
        """Policy for *pipelined* batched execution over the given windows.

        ``windows`` partitions the submission order into batches; the policy
        schedules one window at a time but never drains the pipeline — the
        next window's transfers start as soon as link and memory allow
        (:mod:`repro.simulator.online`).  Returns ``None`` when the
        heuristic has no windowed form (the MILP wrappers)."""
        return None

    @property
    def runs_on_kernel(self) -> bool:
        """Whether this heuristic executes on the unified kernel."""
        return type(self).kernel_policy is not Heuristic.kernel_policy

    def simulate(
        self,
        instance: Instance,
        *,
        machine: MachineModel | None = None,
        record: bool = False,
        engine: str | None = None,
    ) -> SimulationResult:
        """Run this heuristic on the kernel, optionally on a custom machine.

        ``record=True`` additionally returns the structured
        :class:`~repro.simulator.events.EventTrace` of the run.  Instances
        whose tasks carry release (arrival) dates are routed through the
        heuristic's :meth:`online_policy` — arrival-awareness is a property
        of the data, not a separate execution mode.  ``engine`` selects the
        execution engine (``"auto"`` | ``"object"`` | ``"columnar"`` |
        ``"batched"``, see :func:`repro.simulator.columnar.plan_engine`); a
        fast path is used when it supports the configuration, falling back
        to the object kernel otherwise.  Unknown names raise, also for
        heuristics that do not run on the kernel.
        """
        if instance.has_releases:
            policy = self.online_policy(instance)
            if policy is None:
                raise ValueError(
                    f"heuristic {self.name!r} has no online policy and cannot "
                    "schedule release-dated instances; drop the release dates "
                    "(Instance.without_releases()) for an offline plan"
                )
            return _simulate(instance, policy, machine=machine, record=record, engine=engine)
        policy = self.kernel_policy(instance)
        if policy is None:
            _normalise_engine(engine)  # no kernel runs, but unknown names still fail
            if machine is not None:
                raise ValueError(
                    f"heuristic {self.name!r} does not run on the simulation kernel "
                    "and cannot target a custom machine model"
                )
            if record:
                raise ValueError(
                    f"heuristic {self.name!r} does not run on the simulation kernel "
                    "and cannot record an event trace"
                )
            return SimulationResult(schedule=self.schedule(instance), trace=None)
        return _simulate(instance, policy, machine=machine, record=record, engine=engine)

    def __call__(self, instance: Instance) -> Schedule:
        return self.schedule(instance)

    @property
    def info(self) -> HeuristicInfo:
        return HeuristicInfo(
            name=self.name,
            category=self.category,
            description=self.description,
            favorable_situation=self.favorable_situation,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, category={self.category.value!r})"
