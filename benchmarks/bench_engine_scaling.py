"""Engine scaling — seed executors vs kernel vs columnar, schedules/sec.

Two comparisons on random instances, schedules asserted byte-identical
before timing so every speedup is measured on equal work:

* **seed vs kernel** — the three execution modes (fixed order, dynamic
  selection, corrected order) on n ∈ {50, 200, 1000}: the frozen seed
  executors in ``repro.simulator._reference`` (O(n²) holder re-sum)
  against the object kernel (incremental ``MemoryLedger``).
* **kernel vs columnar** — the array-native engine of
  :mod:`repro.simulator.columnar` against the object kernel at n = 10⁴
  (all three modes) and, in full mode, fixed order at n = 10⁵ plus a
  columnar-only n = 10⁶ probe.  The seed executors are O(n²) and sit out
  these sizes.

``REPRO_SCALE=ci`` (the default, used by the CI smoke step) stops at n=200
for the seed comparison and asserts the columnar engine is at least 5x the
object kernel on fixed order at n=10⁴; any other scale includes n=1000
(kernel ≥ 2x seed there), the large columnar sizes, and writes the table
to ``benchmarks/results/engine_scaling.txt``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import RESULTS_DIR
from repro.core import Instance, Task
from repro.experiments.config import scaled_config
from repro.simulator import (
    CorrectedOrderPolicy,
    CriterionPolicy,
    FixedOrderPolicy,
    largest_communication,
    maximum_acceleration,
    simulate,
)
from repro.simulator._reference import (
    ReferenceCorrectedOrderPolicy,
    reference_execute_fixed_order,
    reference_execute_with_policy,
)

#: Task counts per scale; the 2x acceptance bar applies at n=1000.
CI_SIZES = (50, 200)
FULL_SIZES = (50, 200, 1000)

#: Kernel-vs-columnar sizes; the 5x acceptance bar applies at n=10_000.
COLUMNAR_CI_SIZES = (10_000,)
COLUMNAR_FULL_SIZES = (10_000, 100_000)
COLUMNAR_ONLY_SIZE = 1_000_000

#: Tight-but-feasible capacity, as a multiple of the largest footprint.
CAPACITY_FACTOR = 1.25


def make_instance(n: int, seed: int = 7) -> Instance:
    rng = np.random.default_rng(seed)
    tasks = [
        Task(
            f"t{i:04d}",
            float(rng.uniform(0.1, 10.0)),
            float(rng.uniform(0.1, 10.0)),
            memory=float(rng.uniform(0.1, 10.0)),
        )
        for i in range(n)
    ]
    capacity = max(task.memory for task in tasks) * CAPACITY_FACTOR
    return Instance(tasks, capacity=capacity, name=f"bench/n{n}")


def modes(instance: Instance):
    """(mode name, seed runner, kernel runner) for the three execution modes."""
    order = sorted(instance.tasks, key=lambda t: (-(t.comm + t.comp), t.name))
    johnson = [task.name for task in sorted(instance.tasks, key=lambda t: t.name)]
    return (
        (
            "fixed-order",
            lambda: reference_execute_fixed_order(instance, order),
            lambda: simulate(instance, FixedOrderPolicy(tuple(order))).schedule,
        ),
        (
            "dynamic",
            lambda: reference_execute_with_policy(
                instance, CriterionPolicy(largest_communication)
            ),
            lambda: simulate(instance, CriterionPolicy(largest_communication)).schedule,
        ),
        (
            "corrected",
            lambda: reference_execute_with_policy(
                instance,
                ReferenceCorrectedOrderPolicy(order=johnson, criterion=maximum_acceleration),
            ),
            lambda: simulate(
                instance,
                CorrectedOrderPolicy(order=tuple(johnson), criterion=maximum_acceleration),
            ).schedule,
        ),
    )


def throughput(runner, *, min_seconds: float = 0.2, min_rounds: int = 3) -> float:
    """Schedules per second, best of three timed rounds."""
    best = 0.0
    for _ in range(min_rounds):
        runs = 0
        start = time.perf_counter()
        while True:
            runner()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        best = max(best, runs / elapsed)
    return best


def columnar_modes(instance: Instance):
    """(mode name, policy) pairs for the kernel-vs-columnar comparison.

    Policies are shared between the two engines and across timing rounds —
    exactly how a sweep reuses them — so the columnar order cache works for
    the fast path the way it does in production.
    """
    order = sorted(instance.tasks, key=lambda t: (-(t.comm + t.comp), t.name))
    johnson = tuple(task.name for task in sorted(instance.tasks, key=lambda t: t.name))
    return (
        ("fixed-order", FixedOrderPolicy(tuple(order))),
        ("dynamic", CriterionPolicy(largest_communication)),
        ("corrected", CorrectedOrderPolicy(order=johnson, criterion=maximum_acceleration)),
    )


def engine_runner(instance: Instance, policy, engine: str):
    """A timed runner for one (instance, policy) pair on one engine."""

    def run():
        return simulate(instance, policy, engine=engine).schedule

    return run


def test_engine_scaling():
    scale_is_ci = scaled_config() is scaled_config("ci")
    sizes = CI_SIZES if scale_is_ci else FULL_SIZES
    lines = [
        "Engine scaling: seed executors vs unified kernel (schedules/sec)",
        "",
        f"{'n':>7} {'mode':<12} {'seed/s':>10} {'kernel/s':>10} {'speedup':>8}",
    ]
    speedups: dict[tuple[int, str], float] = {}
    for n in sizes:
        instance = make_instance(n)
        for mode, seed_runner, kernel_runner in modes(instance):
            assert kernel_runner() == seed_runner(), f"{mode} schedules diverged at n={n}"
            seed_rate = throughput(seed_runner)
            kernel_rate = throughput(kernel_runner)
            speedup = kernel_rate / seed_rate
            speedups[(n, mode)] = speedup
            lines.append(
                f"{n:>7} {mode:<12} {seed_rate:>10.1f} {kernel_rate:>10.1f} {speedup:>7.1f}x"
            )

    # ------------------------------------------------------------------ #
    # Columnar engine vs object kernel (the seed executors are O(n²) and
    # cannot reach these sizes).
    # ------------------------------------------------------------------ #
    lines += [
        "",
        "Columnar engine vs object kernel (schedules/sec)",
        "",
        f"{'n':>7} {'mode':<12} {'object/s':>10} {'columnar/s':>12} {'speedup':>8}",
    ]
    columnar_speedups: dict[tuple[int, str], float] = {}
    columnar_sizes = COLUMNAR_CI_SIZES if scale_is_ci else COLUMNAR_FULL_SIZES
    for n in columnar_sizes:
        instance = make_instance(n)
        for mode, policy in columnar_modes(instance):
            if scale_is_ci and mode != "fixed-order":
                continue  # smoke gates on fixed order only; keep CI fast
            if n > COLUMNAR_CI_SIZES[0] and mode != "fixed-order":
                continue  # the object kernel's selection modes crawl at 10^5
            object_runner = engine_runner(instance, policy, "object")
            columnar_runner = engine_runner(instance, policy, "columnar")
            assert columnar_runner() == object_runner(), f"{mode} diverged at n={n}"
            object_rate = throughput(object_runner)
            columnar_rate = throughput(columnar_runner)
            speedup = columnar_rate / object_rate
            columnar_speedups[(n, mode)] = speedup
            lines.append(
                f"{n:>7} {mode:<12} {object_rate:>10.1f} {columnar_rate:>12.1f} {speedup:>7.1f}x"
            )

    if not scale_is_ci:
        # Columnar-only probe: 10^6 tasks end-to-end, makespan from the lazy
        # schedule's column reduction (no row materialisation).
        instance = make_instance(COLUMNAR_ONLY_SIZE)
        policy = FixedOrderPolicy(instance.tasks)
        start = time.perf_counter()
        result = simulate(instance, policy, engine="columnar")
        makespan = result.schedule.makespan
        elapsed = time.perf_counter() - start
        lines += [
            "",
            f"Columnar-only: n={COLUMNAR_ONLY_SIZE:,} fixed order in "
            f"{elapsed:.2f}s (makespan {makespan:.1f})",
        ]
        assert elapsed < 60.0, f"10^6-task columnar run took {elapsed:.1f}s"

    report = "\n".join(lines)
    print()
    print(report)

    # The columnar fast path must beat the object kernel at least 5x on
    # fixed order at n=10^4 — gated in smoke mode too: the margin is wide
    # enough (~7-8x measured) to survive noisy shared CI runners.
    assert columnar_speedups[(10_000, "fixed-order")] >= 5.0, columnar_speedups

    # Smoke mode (ci) stops here: full-scale wall clock is too noisy to
    # gate further on shared runners, and the recorded full-scale table
    # must not be clobbered by a truncated one.
    if 1000 in sizes:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "engine_scaling.txt").write_text(report + "\n")
        # The kernel must never be slower than ~the seed path at any size...
        assert all(speedup > 0.8 for speedup in speedups.values()), speedups
        # ...and at n=1000 the O(n log n) ledger must pay off at least 2x.
        for mode in ("fixed-order", "dynamic", "corrected"):
            assert speedups[(1000, mode)] >= 2.0, (mode, speedups)
        # The columnar engine must also hold its bar on every measured mode.
        assert all(speedup >= 2.0 for speedup in columnar_speedups.values()), (
            columnar_speedups
        )


if __name__ == "__main__":  # pragma: no cover - manual run
    test_engine_scaling()
