"""Experiment configuration and scaling.

The paper's full evaluation uses 150 traces per application, 300-800 tasks per
trace, 9 memory capacities and 14 heuristics — hours of simulation in pure
Python.  The harness therefore supports three scales, selected explicitly or
through the ``REPRO_SCALE`` environment variable:

* ``ci`` — a handful of traces and capacities, seconds per figure (default for
  the benchmark suite so that ``pytest benchmarks/`` finishes quickly);
* ``default`` — a medium slice that already shows every qualitative trend;
* ``paper`` — the full 150-process, 9-capacity sweep.

Every figure driver takes an :class:`ExperimentConfig`, so any intermediate
scale can be requested programmatically as well.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence

__all__ = ["ExperimentConfig", "scaled_config", "PAPER_CAPACITY_FACTORS"]

#: Capacity factors used by the paper: mc to 2 mc in steps of 0.125 mc.
PAPER_CAPACITY_FACTORS: tuple[float, ...] = tuple(1.0 + 0.125 * i for i in range(9))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment driver."""

    #: Number of per-process traces evaluated per application.
    traces: int = 6
    #: Number of simulated processes in the generating run (fixes task counts).
    processes: int = 150
    #: Memory capacities, as multiples of each trace's minimum capacity ``mc``.
    capacity_factors: tuple[float, ...] = PAPER_CAPACITY_FACTORS
    #: Heuristics evaluated (paper acronyms); ``None`` means the full Figure 9/11 line-up.
    heuristics: tuple[str, ...] | None = None
    #: Window sizes for the lp.k MILP heuristic (Figure 7).
    milp_windows: tuple[int, ...] = (3, 4, 5, 6)
    #: Cap on the number of tasks of the trace used for the MILP figure
    #: (the MILP is slow; the paper itself uses a single trace file).
    milp_task_limit: int = 60
    #: Batch size for the Section 6.3 experiment.
    batch_size: int = 100
    #: Seed for workload generation.
    seed: int = 2019
    #: Worker count for parallel ensemble sweeps (``None`` = sequential,
    #: ``0``/``-1`` = one worker per CPU; see :meth:`repro.api.Study.parallel`).
    n_jobs: int | None = None

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


_SCALES: dict[str, ExperimentConfig] = {
    "ci": ExperimentConfig(
        traces=2,
        capacity_factors=(1.0, 1.25, 1.5, 1.75, 2.0),
        milp_windows=(3, 4),
        milp_task_limit=24,
    ),
    "default": ExperimentConfig(traces=6),
    "paper": ExperimentConfig(traces=150),
}


def scaled_config(scale: str | None = None) -> ExperimentConfig:
    """Configuration for a named scale (or the ``REPRO_SCALE`` environment variable)."""
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "ci")
    try:
        return _SCALES[scale.lower()]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}") from None
