"""Algorithm selection: pick the right solver for an instance's regime.

Two selectors are provided:

* :class:`Table6Selector` — the paper's Table 6 as code: every proposed
  heuristic carries a machine-readable ``favors(features)`` predicate
  (:meth:`repro.heuristics.base.Heuristic.favors`), and the selector
  dispatches on the memory-pressure band and intensity mix exactly as the
  table's prose does.  No training data needed.
* :class:`EmpiricalSelector` — data-driven nearest-regime lookup: feed it
  the :class:`~repro.api.results.ResultSet` of any past
  :class:`~repro.api.Study` sweep (plus the instances that produced it) and
  it memorises which solver won in which feature regime; new instances are
  routed to the winner of the nearest recorded regime.

:class:`SelectingSolver` wraps either selector as a registered solver
(``"portfolio.select"``), so selection composes with everything
:func:`repro.solve` supports — machine models, arrivals, event traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..heuristics.base import TABLE6_HEURISTICS, Category
from ..simulator.engine import SimulationResult
from ..simulator.resources import MachineModel
from .features import InstanceFeatures, featurize
from .outcome import OutcomeMixin, PortfolioOutcome

__all__ = [
    "Table6Selector",
    "EmpiricalSelector",
    "SelectingSolver",
    "DEFAULT_EMPIRICAL_DIMS",
]


def _solver_favors(name: str, features: InstanceFeatures) -> bool:
    from ..api.registry import get_solver  # lazy: avoid a registry import cycle

    solver = get_solver(name)
    favors = getattr(solver, "favors", None)
    return bool(favors(features)) if callable(favors) else False


class Table6Selector:
    """Rule-based selector codifying the paper's Table 6.

    ``candidates`` restricts the choices (defaults to the eleven proposed
    heuristics of the table); ``default`` is returned when no candidate's
    predicate matches — OOMAMR, the paper's most robust all-rounder.
    """

    def __init__(
        self,
        candidates: Sequence[str] = TABLE6_HEURISTICS,
        default: str = "OOMAMR",
    ) -> None:
        if not candidates:
            raise ValueError("Table6Selector needs at least one candidate solver")
        self.candidates = tuple(candidates)
        self.default = default

    def _preferences(self, features: InstanceFeatures) -> list[str]:
        """Candidate order for the instance's band, most specific first."""
        if features.memory_relaxed:
            # Capacity is no restriction: the matching sort order is optimal.
            return ["IOCMS", "DOCPS", "OOSIM"]
        if features.memory_tight:
            # Limited memory: the dynamic rules.  LCMR/SCMR name a specific
            # comm-size class, so they outrank the generic MAMR row.
            by_share = (
                ["LCMR", "SCMR"]
                if features.large_comm_compute_fraction >= features.small_comm_compute_fraction
                else ["SCMR", "LCMR"]
            )
            return [*by_share, "MAMR"]
        # Moderate memory: the "highly intensive" static sorts when their
        # strict rows match, otherwise the corrected variants.
        if features.mostly_compute_intensive:
            return ["IOCCS", "OOSCMR", "OOMAMR", "OOLCMR"]
        if features.mostly_communication_intensive:
            return ["DOCCS", "OOLCMR", "OOMAMR", "OOSCMR"]
        ordered = (
            ["OOSCMR", "OOLCMR"] if features.compute_fraction >= 0.5 else ["OOLCMR", "OOSCMR"]
        )
        return ["OOMAMR", *ordered]

    def rank(self, features: InstanceFeatures) -> list[str]:
        """Candidates ranked for ``features``: matching predicates first
        (in band-preference order), then the remaining candidates."""
        preferences = [name for name in self._preferences(features) if name in self.candidates]
        favored = [name for name in preferences if _solver_favors(name, features)]
        rest = [name for name in preferences if name not in favored]
        tail = [name for name in self.candidates if name not in preferences]
        return favored + rest + tail

    def select(self, features: InstanceFeatures) -> str:
        """The candidate whose Table 6 situation matches ``features``.

        Falls back to ``default`` when no predicate matches; a default
        outside a restricted candidate set is never returned — the best
        in-band candidate (then the first candidate) is used instead.
        """
        for name in self._preferences(features):
            if name in self.candidates and _solver_favors(name, features):
                return name
        if self.default in self.candidates:
            return self.default
        for name in self._preferences(features):
            if name in self.candidates:
                return name
        return self.candidates[0]


#: Feature dimensions the empirical selector measures regimes in.
DEFAULT_EMPIRICAL_DIMS: tuple[str, ...] = (
    "memory_pressure",
    "peak_pressure",
    "compute_fraction",
    "intensity_cv",
    "comm_cv",
    "large_comm_compute_fraction",
    "small_comm_compute_fraction",
    "footprint_diversity",
)


@dataclass(frozen=True)
class RegimePoint:
    """One recorded regime: a feature vector and the solver that won there."""

    vector: tuple[float, ...]
    best: str
    score: float


class EmpiricalSelector:
    """Nearest-regime lookup fit from recorded sweep results.

    Every training point pairs the feature vector of one solved instance
    with the solver that achieved the lowest ratio-to-OMIM on it.  Selection
    returns the winner of the nearest recorded regime — Euclidean distance
    over ``dims``, with each dimension divided by ``max(1, max |value|)``
    over the training points: the default dims are already fractions or
    O(1) spreads, so this keeps them comparable without letting a
    dimension the training data barely varies in amplify sampling noise
    (which min/max range scaling would).
    """

    def __init__(self, dims: Sequence[str] = DEFAULT_EMPIRICAL_DIMS) -> None:
        self.dims = tuple(dims)
        self._points: list[RegimePoint] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[RegimePoint, ...]:
        return tuple(self._points)

    def observe(self, features: InstanceFeatures, results: Iterable) -> None:
        """Record the winner of one instance's measurements.

        ``results`` holds the rows of a single (instance, capacity) run —
        a :class:`~repro.api.results.ResultSet` slice or any iterable of
        :class:`~repro.api.results.RunRecord`; the row with the lowest
        ``ratio_to_optimal`` (ties broken by solver name) becomes the
        regime's winner.
        """
        rows = list(results)
        if not rows:
            raise ValueError("observe() needs at least one measurement row")
        best = min(rows, key=lambda row: (row.ratio_to_optimal, row.heuristic))
        self._points.append(
            RegimePoint(
                vector=features.as_vector(self.dims),
                best=best.heuristic,
                score=float(best.ratio_to_optimal),
            )
        )

    @classmethod
    def fit(
        cls,
        results,
        instances: Iterable[Instance],
        *,
        dims: Sequence[str] = DEFAULT_EMPIRICAL_DIMS,
        machine: MachineModel | None = None,
    ) -> "EmpiricalSelector":
        """Build a selector from a past sweep.

        ``results`` is the sweep's :class:`~repro.api.results.ResultSet`;
        ``instances`` supplies the task data the rows were measured on,
        matched by name against the ``trace`` column (each is re-sized to
        every recorded capacity before featurization, so one trace swept
        over nine capacities contributes nine regimes).  Rows whose trace
        has no matching instance are skipped.
        """
        by_name = {instance.name: instance for instance in instances}
        selector = cls(dims=dims)
        for (trace, capacity), group in results.group_by("trace", "capacity").items():
            base = by_name.get(trace)
            if base is None:
                continue
            sized = base if base.capacity == capacity else base.with_capacity(capacity)
            selector.observe(featurize(sized, machine), group)
        if not selector._points:
            raise ValueError(
                "no ResultSet row matched any provided instance by name; "
                f"known instances: {sorted(by_name)}"
            )
        return selector

    def _scales(self) -> list[float]:
        return [
            max(1.0, max(abs(point.vector[axis]) for point in self._points))
            for axis in range(len(self.dims))
        ]

    def select(self, features: InstanceFeatures) -> str:
        """Winner of the nearest recorded regime (ties: earliest point)."""
        if not self._points:
            raise ValueError("EmpiricalSelector has no training points; call fit()/observe()")
        target = features.as_vector(self.dims)
        scales = self._scales()
        best_point = None
        best_distance = math.inf
        for point in self._points:
            distance = 0.0
            for axis, scale in enumerate(scales):
                delta = (target[axis] - point.vector[axis]) / scale
                distance += delta * delta
            if distance < best_distance:
                best_distance = distance
                best_point = point
        return best_point.best

    # ------------------------------------------------------------------ #
    # Persistence (past sweeps as training data, shareable between runs)
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "repro.EmpiricalSelector",
                "version": 1,
                "dims": list(self.dims),
                "points": [
                    {
                        "vector": [value.hex() for value in point.vector],
                        "best": point.best,
                        "score": point.score.hex(),
                    }
                    for point in self._points
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EmpiricalSelector":
        payload = json.loads(text)
        if payload.get("format") != "repro.EmpiricalSelector":
            raise ValueError("not an EmpiricalSelector JSON dump")
        selector = cls(dims=tuple(payload["dims"]))
        for point in payload["points"]:
            selector._points.append(
                RegimePoint(
                    vector=tuple(float.fromhex(value) for value in point["vector"]),
                    best=str(point["best"]),
                    score=float.fromhex(point["score"]),
                )
            )
        return selector


class SelectingSolver(OutcomeMixin):
    """Registered solver (``"portfolio.select"``) delegating per instance.

    Featurizes the instance (machine-aware), asks the selector for a member
    name, and runs that member — so callers get regime-appropriate
    scheduling through the plain :func:`repro.solve` interface.  The choice
    is exposed as ``last_outcome.selected`` and flows into the
    ``selected_solver`` column of sweep results.
    """

    category = Category.PORTFOLIO

    def __init__(self, selector: Table6Selector | EmpiricalSelector | None = None) -> None:
        super().__init__()
        self.name = "portfolio.select"
        self.selector = Table6Selector() if selector is None else selector

    @property
    def runs_on_kernel(self) -> bool:
        return True

    def choose(self, instance: Instance, machine: MachineModel | None = None) -> str:
        """The member the selector picks for ``instance`` (no run)."""
        return self.selector.select(featurize(instance, machine))

    def simulate(
        self,
        instance: Instance,
        *,
        machine: MachineModel | None = None,
        record: bool = False,
        engine: str | None = None,
    ) -> SimulationResult:
        from ..api.registry import get_solver  # lazy: avoid a registry import cycle

        choice = self.choose(instance, machine)
        solver = get_solver(choice)
        result = solver.simulate(instance, machine=machine, record=record, engine=engine)
        self._record_outcome(PortfolioOutcome(selected=solver.name))
        return result

    def schedule(self, instance: Instance) -> Schedule:
        return self.simulate(instance).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SelectingSolver(selector={type(self.selector).__name__})"
