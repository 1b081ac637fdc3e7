"""Unified solver facade: registry, ``solve()``/``Study`` entry points,
columnar :class:`ResultSet` and parallel sweeps.

This package is the single public API surface over the three scheduling
layers of the reproduction — the paper heuristics, the exact flowshop
methods and the MILP — which previously had to be wired together by hand.

* :func:`solve` — one instance, one solver, schedule + metrics;
* :class:`Study` — fluent builder for multi-trace, multi-capacity,
  multi-solver sweeps, optionally parallel;
* :class:`ResultSet` — columnar measurements with
  ``filter/group_by/aggregate`` and JSON/CSV round-trips;
* :func:`register_solver` — decorator adding third-party strategies to the
  same namespace as the built-ins.
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    StopSweep,
    SweepJobError,
    guard_progress,
    plan_backend,
)
from .checkpoint import SweepCheckpoint, chunk_key, job_key
from .engine import (
    DEFAULT_SPILL_THRESHOLD,
    SPILL_THRESHOLD_ENV_VAR,
    SweepJob,
    run_solvers_on_instance,
    sweep_instances,
    sweep_traces,
)
from .registry import (
    PAPER_FIGURE_ORDER,
    NamedSpec,
    Solver,
    SolverInfo,
    SolverRegistrationError,
    UnknownSolverError,
    available_solvers,
    get_solver,
    named_spec,
    paper_lineup,
    register_solver,
    resolve_solvers,
    solver_names,
    spec_to_wire,
    unregister_solver,
    warm_registry,
    wire_to_spec,
)
from .results import ResultSet, RunRecord, SpilledResultSet
from .shm import ShmHandle, ShmPlane
from .sharding import (
    ShardWriter,
    merge_shards,
    merge_shards_to_result,
    parse_shard,
    write_shard,
)
from .solve import SolveResult, solve
from .study import DEFAULT_CAPACITY_FACTORS, Study

__all__ = [
    "DEFAULT_CAPACITY_FACTORS",
    "DEFAULT_SPILL_THRESHOLD",
    "PAPER_FIGURE_ORDER",
    "SPILL_THRESHOLD_ENV_VAR",
    "ExecutionBackend",
    "ShmHandle",
    "ShmPlane",
    "NamedSpec",
    "ProcessBackend",
    "ResultSet",
    "RunRecord",
    "SerialBackend",
    "Solver",
    "SolverInfo",
    "SolverRegistrationError",
    "ShardWriter",
    "SolveResult",
    "SpilledResultSet",
    "StopSweep",
    "Study",
    "SweepCheckpoint",
    "SweepJob",
    "SweepJobError",
    "UnknownSolverError",
    "available_solvers",
    "chunk_key",
    "get_solver",
    "guard_progress",
    "job_key",
    "merge_shards",
    "merge_shards_to_result",
    "named_spec",
    "paper_lineup",
    "parse_shard",
    "register_solver",
    "plan_backend",
    "resolve_solvers",
    "run_solvers_on_instance",
    "solve",
    "solver_names",
    "spec_to_wire",
    "sweep_instances",
    "sweep_traces",
    "unregister_solver",
    "warm_registry",
    "wire_to_spec",
    "write_shard",
]
