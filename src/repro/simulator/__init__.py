"""Unified event-driven simulation kernel and its fast engines.

Layout (kernel → policies → facade); every run goes through
:func:`simulate`, and :func:`plan_engine` decides which engine runs it:

* :mod:`~repro.simulator.engine` — the object event loop (:func:`simulate`);
* :mod:`~repro.simulator.columnar` — the array-native single-run engine and
  :func:`plan_engine`, the one engine decision;
* :mod:`~repro.simulator.batched` — the cross-instance batched plane
  (many fixed-order lanes per numpy step);
* :mod:`~repro.simulator.ledger` — incremental :class:`MemoryLedger`;
* :mod:`~repro.simulator.resources` — pluggable :class:`ResourceModel` /
  :class:`MachineModel` (parallel links, capacity overrides);
* :mod:`~repro.simulator.events` — structured :class:`EventTrace`;
* :mod:`~repro.simulator.policies` — fixed-order / dynamic / corrected
  policies;
* :mod:`~repro.simulator.arrivals` — arrival processes (Poisson, bursty,
  trace replay) stamping release dates onto task streams;
* :mod:`~repro.simulator.online` — the streaming runtime: online policy
  adapters, windowed (pipelined) policies and :func:`run_online`;
* :mod:`~repro.simulator.batch` — Section 6.3 batched execution (barrier
  and pipelined modes, both on the kernel).
"""

from .arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    TraceReplayArrivals,
    resolve_arrivals,
)
from .batch import DEFAULT_BATCH_SIZE, simulate_in_batches
from .batched import BatchedPlane, simulate_batched, simulate_batched_outcomes
from .columnar import (
    ColumnarInstance,
    ColumnarSchedule,
    columnar_johnson_order,
    columnar_key_order,
    columnar_view,
    plan_engine,
    simulate_columnar,
)
from .engine import (
    DeadlockError,
    InfeasibleOrderError,
    SimulationResult,
    resolve_order,
    simulate,
)
from .events import EventKind, EventTrace, SimEvent
from .ledger import MemoryLedger
from .online import (
    OnlineCorrectedPolicy,
    OnlinePlanPolicy,
    WindowedCorrectedPolicy,
    WindowedCriterionPolicy,
    WindowedPlanPolicy,
    run_online,
)
from .policies import (
    CorrectedOrderPolicy,
    CriterionPolicy,
    ExecutionState,
    FixedOrderPolicy,
    SelectionPolicy,
    largest_communication,
    maximum_acceleration,
    minimum_idle_filter,
    smallest_communication,
)
from .resources import (
    DEFAULT_MACHINE,
    MachineModel,
    ParallelResource,
    ResourceModel,
    UnitResource,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MACHINE",
    "ArrivalProcess",
    "BatchedPlane",
    "BurstyArrivals",
    "ColumnarInstance",
    "ColumnarSchedule",
    "CorrectedOrderPolicy",
    "CriterionPolicy",
    "DeadlockError",
    "EventKind",
    "EventTrace",
    "ExecutionState",
    "FixedOrderPolicy",
    "InfeasibleOrderError",
    "MachineModel",
    "MemoryLedger",
    "OnlineCorrectedPolicy",
    "OnlinePlanPolicy",
    "ParallelResource",
    "PoissonArrivals",
    "ResourceModel",
    "SelectionPolicy",
    "SimEvent",
    "SimulationResult",
    "TraceReplayArrivals",
    "UnitResource",
    "WindowedCorrectedPolicy",
    "WindowedCriterionPolicy",
    "WindowedPlanPolicy",
    "columnar_johnson_order",
    "columnar_key_order",
    "columnar_view",
    "largest_communication",
    "maximum_acceleration",
    "minimum_idle_filter",
    "plan_engine",
    "resolve_arrivals",
    "resolve_order",
    "run_online",
    "simulate",
    "simulate_batched",
    "simulate_batched_outcomes",
    "simulate_columnar",
    "simulate_in_batches",
    "smallest_communication",
]
