"""repro — data-transfer ordering for communication/computation overlap.

Reproduction of *"Performance Models for Data Transfers: A Case Study with
Molecular Chemistry Kernels"* (Kumar, Eyraud-Dubois, Krishnamoorthy, ICPP
2019).  The package provides:

* :mod:`repro.api` — the unified solver facade: :func:`solve`,
  :class:`Study`, the pluggable solver registry and the columnar
  :class:`ResultSet`;
* :mod:`repro.core` — tasks, instances, schedules, bounds and metrics for the
  data-transfer ordering problem (Problem DT);
* :mod:`repro.flowshop` — Johnson's rule, the exchange lemma, Gilmore–Gomory
  no-wait sequencing and the 3-Partition NP-completeness reduction;
* :mod:`repro.heuristics` — the paper's static, dynamic and corrected
  ordering strategies plus the GG/BP baselines;
* :mod:`repro.simulator` — the memory-aware simulation kernel and its fast
  engines, turning orders and policies into feasible schedules;
* :mod:`repro.milp` — the mixed-integer formulation and the windowed lp.k solver;
* :mod:`repro.portfolio` — instance featurization, Table 6 algorithm
  selection, parallel solver racing and the persistent result cache;
* :mod:`repro.chemistry` — simulated NWChem Hartree–Fock and CCSD workloads;
* :mod:`repro.traces` — trace model, IO, generators and workload statistics;
* :mod:`repro.experiments` — the capacity sweeps regenerating every figure;
* :mod:`repro.viz` — ASCII Gantt charts and text boxplots.

Quickstart
----------
>>> from repro import Instance, Task, solve, solver_names
>>> tasks = [Task.from_times("A", comm=3, comp=2), Task.from_times("B", comm=1, comp=3),
...          Task.from_times("C", comm=4, comp=4), Task.from_times("D", comm=2, comp=1)]
>>> instance = Instance(tasks, capacity=6)
>>> result = solve(instance, method="LCMR")   # any name from solver_names()
>>> result.ratio_to_optimal >= 1.0
True
>>> best = min((solve(instance, name) for name in solver_names()
...             if not name.startswith("lp.")), key=lambda r: r.makespan)
>>> best.makespan <= result.makespan
True

Sweeps use the fluent :class:`Study` builder (see :mod:`repro.api`)::

    from repro import Study
    from repro.chemistry import hf_ensemble

    results = (
        Study()
        .traces(hf_ensemble(processes=150, traces=6))
        .capacities(1.0, 2.0, steps=9)
        .solvers("category:dynamic", "OOMAMR")
        .parallel()
        .run()
    )
    results.aggregate("ratio_to_optimal", by=("capacity_factor", "heuristic"))
"""

from .api import (
    ResultSet,
    SolveResult,
    Solver,
    SolverInfo,
    SolverRegistrationError,
    Study,
    UnknownSolverError,
    available_solvers,
    get_solver,
    paper_lineup,
    register_solver,
    solve,
    solver_names,
)
from .core import (
    Instance,
    OnlineMetrics,
    Schedule,
    ScheduledTask,
    ScheduleMetrics,
    Task,
    bounds,
    check_schedule,
    evaluate,
    evaluate_online,
    omim,
    ratio_to_optimal,
    validate_schedule,
)
from .heuristics import Category, Heuristic
from .portfolio import (
    CachedSolver,
    EmpiricalSelector,
    InstanceFeatures,
    PortfolioSolver,
    ResultCache,
    SelectingSolver,
    Table6Selector,
    featurize,
)
from .simulator import (
    BurstyArrivals,
    EventTrace,
    MachineModel,
    PoissonArrivals,
    SimulationResult,
    TraceReplayArrivals,
    run_online,
    simulate,
    simulate_in_batches,
)

__version__ = "4.1.0"

__all__ = [
    "Task",
    "Instance",
    "Schedule",
    "ScheduledTask",
    "ScheduleMetrics",
    "Category",
    "Heuristic",
    # unified solver facade
    "ResultSet",
    "SolveResult",
    "Solver",
    "SolverInfo",
    "SolverRegistrationError",
    "Study",
    "UnknownSolverError",
    "available_solvers",
    "get_solver",
    "paper_lineup",
    "register_solver",
    "solve",
    "solver_names",
    # core + simulation kernel
    "EventTrace",
    "MachineModel",
    "SimulationResult",
    "bounds",
    "check_schedule",
    "evaluate",
    "simulate",
    "omim",
    "ratio_to_optimal",
    "validate_schedule",
    # streaming runtime
    "BurstyArrivals",
    "OnlineMetrics",
    "PoissonArrivals",
    "TraceReplayArrivals",
    "evaluate_online",
    "run_online",
    "simulate_in_batches",
    # portfolio layer
    "CachedSolver",
    "EmpiricalSelector",
    "InstanceFeatures",
    "PortfolioSolver",
    "ResultCache",
    "SelectingSolver",
    "Table6Selector",
    "featurize",
    "__version__",
]
