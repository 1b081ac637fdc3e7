"""Shared attribution record for the portfolio solvers.

Every portfolio solver (racer, selector, cache) reports *what it actually
did* for its most recent run through a :class:`PortfolioOutcome` exposed as
``solver.last_outcome``.  The :mod:`repro.api` layer reads it after each run
to fill the ``selected_solver`` / ``cache_hit`` columns of a
:class:`~repro.api.results.ResultSet` and the matching
:class:`~repro.api.solve.SolveResult` fields.

Outcomes are stored in a ``threading.local`` slot so one solver instance can
be shared across threads (the serving daemon's workers) without the
attributions bleeding into each other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["PortfolioOutcome", "OutcomeMixin"]


@dataclass(frozen=True)
class PortfolioOutcome:
    """What one portfolio run actually executed.

    ``selected`` is the member solver whose schedule was returned (race
    winner, selector choice, or cached solver's inner method); ``cache_hit``
    is ``None`` for solvers without a cache, else whether the schedule was
    served from the store.  ``report`` optionally carries the full
    :class:`~repro.portfolio.race.RaceReport` attribution.
    """

    selected: str = ""
    cache_hit: bool | None = None
    report: object | None = None


class OutcomeMixin:
    """Per-thread ``last_outcome`` storage for portfolio solvers."""

    def __init__(self) -> None:
        self._outcomes = threading.local()

    @property
    def last_outcome(self) -> PortfolioOutcome | None:
        """Attribution of the most recent run on this thread (or ``None``)."""
        return getattr(self._outcomes, "value", None)

    def _record_outcome(self, outcome: PortfolioOutcome) -> None:
        self._outcomes.value = outcome
