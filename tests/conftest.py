"""Shared fixtures for the test-suite.

Workload generation is the only expensive part of the library, so the
simulated HF/CCSD ensembles are session-scoped and the heuristic-facing tests
use small, seeded synthetic instances instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chemistry import CCSDSimulator, HartreeFockSimulator
from repro.core import Instance, Task
from repro.core.paper_instances import (
    corrected_example_instance,
    dynamic_example_instance,
    proposition1_instance,
    static_example_instance,
)
from repro.flowshop import best_schedule_allowing_reordering


@pytest.fixture(scope="session")
def hf_small_ensemble():
    """A real HF simulation (full 150-process run, first 2 traces kept)."""
    return HartreeFockSimulator(processes=150, seed=7).generate().subset(2)


@pytest.fixture(scope="session")
def ccsd_small_ensemble():
    """A real CCSD simulation (full 150-process run, first 2 traces kept)."""
    return CCSDSimulator(processes=150, seed=7).generate().subset(2)


@pytest.fixture
def table3_instance() -> Instance:
    return static_example_instance()


@pytest.fixture
def table4_instance() -> Instance:
    return dynamic_example_instance()


@pytest.fixture
def table5_instance() -> Instance:
    return corrected_example_instance()


@pytest.fixture
def table2_instance() -> Instance:
    return proposition1_instance()


@pytest.fixture(scope="session")
def proposition1_free_optimum():
    """``best_schedule_allowing_reordering(proposition1_instance())``, once.

    Its ``(schedule, makespan)`` result is read by the Proposition 1 tests of
    several modules.
    """
    return best_schedule_allowing_reordering(proposition1_instance())


def random_instance(
    rng: np.random.Generator,
    *,
    tasks: int = 12,
    capacity_factor: float | None = 1.5,
) -> Instance:
    """A small random instance with memory proportional to communication."""
    comm = rng.uniform(0.0, 10.0, size=tasks)
    comp = rng.uniform(0.0, 10.0, size=tasks)
    items = [Task.from_times(f"T{i}", float(comm[i]), float(comp[i])) for i in range(tasks)]
    instance = Instance(items, name="random")
    if capacity_factor is None:
        return instance
    capacity = max(instance.min_capacity * capacity_factor, 1e-9)
    return instance.with_capacity(capacity)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
