"""Sweep scaling — serial vs process backend, wall-clock.

Times one multi-trace heuristic sweep (a ``Study`` over a synthetic
ensemble) serially and on the process backend at 1/2/4/8 workers,
asserting first that every run produces a byte-identical ``ResultSet``.
The process backend is the one expected to scale with cores.

``REPRO_SCALE=ci`` (the default, used by the CI smoke step) shrinks the
sweep and only checks equivalence: wall clock on shared CI runners is too
noisy to gate on.  Any other scale runs the full sweep, writes the table to
``benchmarks/results/sweep_scaling.txt``, and — when the host actually has
4+ usable cores — asserts the process backend beats serial by at least 3x
at 4 workers.
"""

from __future__ import annotations

import os
import time

from conftest import RESULTS_DIR
from repro.api import Study
from repro.experiments.config import scaled_config
from repro.traces.generator import synthetic_ensemble

#: (traces, tasks per trace, capacity factors, worker counts) per scale.
#: The full sweep runs for several seconds serially (about 6 s on a 2-core
#: host), so the table measures scaling rather than process start-up; its
#: 32 traces split evenly over every worker count.
CI_SHAPE = (3, 40, (1.0, 1.5), (2,))
FULL_SHAPE = (32, 2000, (1.0, 1.25, 1.5, 1.75, 2.0), (1, 2, 4, 8))

SOLVERS = ("LCMR", "MAMR", "OOMAMR")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_study(ensemble, factors) -> Study:
    return Study().traces(ensemble).capacities(*factors).solvers(*SOLVERS)


def timed_run(study: Study) -> tuple[float, str]:
    start = time.perf_counter()
    results = study.run()
    return time.perf_counter() - start, results.to_json()


def test_sweep_scaling():
    scale_is_ci = scaled_config() is scaled_config("ci")
    traces, tasks, factors, worker_counts = CI_SHAPE if scale_is_ci else FULL_SHAPE
    ensemble = synthetic_ensemble(
        "mixed-intensity", processes=traces, tasks_per_process=tasks, seed=2019
    )

    serial_seconds, reference = timed_run(build_study(ensemble, factors))
    cores = usable_cores()
    lines = [
        "Sweep scaling: one Study, serial vs process backend (wall-clock seconds)",
        f"workload: {traces} traces x {tasks} tasks x {len(factors)} capacities "
        f"x {len(SOLVERS)} heuristics; host: {cores} usable core(s)",
        "",
        f"{'backend':<10} {'workers':>7} {'seconds':>9} {'vs serial':>10}",
        f"{'serial':<10} {1:>7} {serial_seconds:>9.2f} {1.0:>9.2f}x",
    ]
    speedups: dict[tuple[str, int], float] = {}
    backend = "processes"
    for workers in worker_counts:
        seconds, payload = timed_run(
            build_study(ensemble, factors).parallel(workers, backend=backend)
        )
        assert payload == reference, f"{backend}@{workers} diverged from serial"
        speedup = serial_seconds / seconds
        speedups[(backend, workers)] = speedup
        lines.append(f"{backend:<10} {workers:>7} {seconds:>9.2f} {speedup:>9.2f}x")
    if cores < 4:
        lines += [
            "",
            f"note: this run saw only {cores} usable core(s), fewer than the 4 the",
            "scaling bar needs; regenerate on a 4+ core host to observe the",
            "scaling (the >=3x bar below is asserted automatically there).",
        ]
    report = "\n".join(lines)
    print()
    print(report)

    # Smoke mode (ci) only checks the byte-identical assertions above; the
    # recorded full-scale table must not be clobbered by a truncated one.
    if not scale_is_ci:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "sweep_scaling.txt").write_text(report + "\n")
        # The scaling bar only binds where the hardware can deliver it: a
        # single-core container cannot speed anything up with processes.
        if cores >= 4:
            best = max(speedups[("processes", w)] for w in worker_counts if w >= 4)
            assert best >= 3.0, f"process backend speedup {best:.2f}x < 3x: {speedups}"


if __name__ == "__main__":  # pragma: no cover - manual run
    test_sweep_scaling()
