"""The benchmark's sweep workloads.

Every workload is one closed-loop client: it runs one ``repro.Study().run()``
sweep at a time, on the serial backend, in one thread.  Its one input, the
traces a sweep covers, is built from the run seed before any timing starts,
and every timed sweep of the run sweeps that same input.  Nothing on the
serial sweep path caches results across sweeps, so repeating the input
repeats the work, and which work is timed does not depend on how fast the
host runs.

Each workload takes its traces from a fixed population, and the run seed
draws the order in which each trace's tasks were submitted (the paper's
"arbitrary order of submission") and, for the stream, the order of the
traces.  The cost of a sweep depends strongly on trace content: across HF
ensemble seeds one 529-task trace sweeps in 12.6 s or 17 s, about one in
eight 25-task mixed-intensity traces takes seven times the median in
Gilmore-Gomory order resolution, and one 1000-task heterogeneous trace in
ten takes 2.3 s instead of 5 ms there.  A population drawn per run seed
would measure the draw rather than the program.

Why these three (each stresses different layers of ``repro.api.engine``):

* ``hf-paper-sweep`` is the paper's Figure 9/10 experiment and the headline
  user job.  Its 72 batched-plane rows per trace pay the O(n^2) schedule
  metrics, so ``core.metrics`` dominates; the object kernel runs the six
  dynamic and corrected heuristics.
* ``large-auto-sweep`` is the fast-engine path at about 10^3 tasks
  (CCSD-like).  It makes the batched/columnar dispatch split visible as
  counts, and it is where the lane-count cliff lives.
* ``small-trace-stream`` is many tiny jobs, streamed and spilled to JSONL.
  Per-row overhead dominates: order resolution first, then the kernel,
  validation, record assembly and the spill.  The metrics layer is minor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import Study
from repro.api.study import DEFAULT_CAPACITY_FACTORS
from repro.chemistry.workload import hf_ensemble
from repro.heuristics.base import PAPER_FIGURE_ORDER
from repro.traces.generator import synthetic_trace
from repro.traces.model import Trace, TraceStream

#: Factors of the large-trace sweep: the contended end of the paper's range.
LARGE_FACTORS = (1.0, 1.125, 1.25)
#: Task count of each large trace (the CCSD-like regime of Figure 11).
LARGE_TASKS = 1000
#: Traces per small-stream sweep, and tasks per trace.
STREAM_TRACES = 40
STREAM_TASKS = 25
#: Seeds of the trace populations: each generator's own default.
HF_POPULATION_SEED = 2019
SYNTHETIC_POPULATION_SEED = 0
#: Tasks of the warm-up sweep's truncated input.  256 is the auto-engine
#: threshold, so the warm-up engages the same columnar and batched paths.
WARMUP_TASKS = 256


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its inputs and its sweeps."""

    name: str
    #: ``seed -> traces``: the input every sweep of the run covers.
    make_input: Callable[[int], list[Trace]]
    #: ``(traces, spill_path) -> Study`` for one timed sweep.
    study: Callable[[list[Trace], str], Study]
    #: ``(traces, spill_path) -> Study`` for the discarded warm-up sweep.
    warmup: Callable[[list[Trace], str], Study]
    #: Capacity factors every sweep covers (for the expected row count).
    factors: tuple[float, ...]
    #: Whether sweeps spill their rows to a JSONL file.
    spills: bool = False

    def expected_rows(self, traces: list[Trace]) -> int:
        return len(traces) * len(self.factors) * len(PAPER_FIGURE_ORDER)


def _serial(study: Study) -> Study:
    return study.parallel(1, backend="serial")


def _submitted(trace: Trace, rng: random.Random) -> Trace:
    """``trace`` with its tasks in a submission order drawn from ``rng``."""
    tasks = list(trace.tasks)
    rng.shuffle(tasks)
    return Trace(trace.application, trace.process, tasks, dict(trace.metadata))


def _hf_input(seed: int) -> list[Trace]:
    ensemble = hf_ensemble(processes=150, seed=HF_POPULATION_SEED)
    return [_submitted(ensemble.traces[0], random.Random(seed))]


def _large_input(seed: int) -> list[Trace]:
    trace = synthetic_trace(
        "heterogeneous", tasks=LARGE_TASKS, process=0, seed=SYNTHETIC_POPULATION_SEED
    )
    return [_submitted(trace, random.Random(seed))]


def _stream_input(seed: int) -> list[Trace]:
    rng = random.Random(seed)
    traces = [
        _submitted(
            synthetic_trace(
                "mixed-intensity", tasks=STREAM_TASKS, process=rank, seed=SYNTHETIC_POPULATION_SEED
            ),
            rng,
        )
        for rank in range(STREAM_TRACES)
    ]
    rng.shuffle(traces)
    return traces


def _stream_of(traces: list[Trace]) -> TraceStream:
    # The traces are built during set-up; the sweep still pulls them through
    # a lazy stream plane, one chunk at a time.
    return TraceStream(
        application=traces[0].application, count=len(traces), factory=traces.__getitem__
    )


HF = Workload(
    name="hf-paper-sweep",
    make_input=_hf_input,
    study=lambda traces, _spill: _serial(Study().traces(*traces)),
    warmup=lambda traces, _spill: _serial(
        Study()
        .traces(*traces)
        .task_limit(WARMUP_TASKS)
        .capacities(*DEFAULT_CAPACITY_FACTORS[:2])
    ),
    factors=DEFAULT_CAPACITY_FACTORS,
)

LARGE = Workload(
    name="large-auto-sweep",
    make_input=_large_input,
    study=lambda traces, _spill: _serial(
        Study().traces(*traces).engine("auto").capacities(*LARGE_FACTORS)
    ),
    warmup=lambda traces, _spill: _serial(
        Study()
        .traces(*traces)
        .engine("auto")
        .task_limit(WARMUP_TASKS)
        .capacities(*LARGE_FACTORS[:2])
    ),
    factors=LARGE_FACTORS,
)

STREAM = Workload(
    name="small-trace-stream",
    make_input=_stream_input,
    study=lambda traces, spill: _serial(Study().traces(_stream_of(traces)).spill(spill)),
    warmup=lambda traces, spill: _serial(
        Study().traces(_stream_of(traces[:2])).spill(spill)
    ),
    factors=DEFAULT_CAPACITY_FACTORS,
    spills=True,
)

WORKLOADS = {w.name: w for w in (HF, LARGE, STREAM)}
