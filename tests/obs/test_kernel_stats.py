"""KernelStats: per-run profiling counters from both execution engines."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.obs as obs
from repro.api import ResultSet, Study, solve
from repro.core import Instance, Task
from repro.obs.stats import KernelStats
from repro.traces.generator import synthetic_ensemble


def random_instance(rng: np.random.Generator, *, tasks: int, capacity_factor: float) -> Instance:
    comm = rng.uniform(0.1, 10.0, size=tasks)
    comp = rng.uniform(0.1, 10.0, size=tasks)
    items = [Task.from_times(f"T{i}", float(comm[i]), float(comp[i])) for i in range(tasks)]
    instance = Instance(items, name="obs-random")
    return instance.with_capacity(instance.min_capacity * capacity_factor)


@pytest.fixture
def instance():
    return random_instance(np.random.default_rng(7), tasks=24, capacity_factor=1.3)


class TestStatsOnSolve:
    def test_object_engine_stats(self, instance):
        result = solve(instance, "LCMR", engine="object")
        stats = result.stats
        assert stats is not None
        assert stats.engine == "object"
        assert stats.tasks == len(instance.tasks)
        # The event count is deterministic: six kernel events per placed
        # task (acquire, transfer start/end, compute start/end, release).
        assert stats.events >= 6 * stats.tasks
        assert stats.ledger_ops == 2 * stats.tasks
        assert stats.memory_wait_s >= 0.0

    def test_columnar_engine_stats(self, instance):
        result = solve(instance, "LCMR", engine="columnar")
        assert result.engine == "columnar"
        stats = result.stats
        assert stats.engine == "columnar"
        assert stats.tasks == len(instance.tasks)

    def test_engines_agree_on_deterministic_counters(self, instance):
        obj = solve(instance, "LCMR", engine="object").stats
        col = solve(instance, "LCMR", engine="columnar").stats
        assert obj.tasks == col.tasks
        assert obj.events == col.events
        assert obj.ledger_ops == col.ledger_ops
        # Bit-identical accounting: both engines add the same float waits
        # in the same order, so the totals match byte for byte.
        assert obj.memory_wait_s == col.memory_wait_s

    def test_tight_capacity_accumulates_memory_wait(self):
        instance = random_instance(np.random.default_rng(3), tasks=30, capacity_factor=1.01)
        stats = solve(instance, "LCMR", engine="object").stats
        assert stats.memory_wait_s > 0.0

    def test_wall_clock_fields_zero_when_untraced(self, instance):
        stats = solve(instance, "LCMR", engine="object").stats
        assert stats.policy_select_s == 0.0
        assert stats.elapsed_s == 0.0

    def test_off_kernel_solver_has_no_stats(self, instance):
        result = solve(instance, "johnson")
        assert result.stats is None

    def test_batched_runs_merge_stats(self, instance):
        result = solve(instance, "LCMR", batch_size=10, engine="object")
        stats = result.stats
        assert stats.tasks == len(instance.tasks)
        assert stats.ledger_ops == 2 * stats.tasks


class TestScanModeSpan:
    """The ``columnar.scan`` span names the selection loop that ran."""

    @staticmethod
    def scan_modes(instance, solvers):
        obs.enable()
        marker = obs.mark()
        for name in solvers:
            solve(instance, name, engine="columnar")
        return [
            record["args"]["mode"]
            for record in obs.export_since(marker)
            if record["name"] == "columnar.scan"
        ]

    def test_co_monotone_views_run_the_index(self, instance):
        modes = self.scan_modes(instance, ("LCMR", "OOMAMR", "OS"))
        assert modes == ["policy-indexed", "corrected-indexed", "fixed"]

    def test_other_views_fall_back_to_the_ready_set_scan(self):
        rng = np.random.default_rng(4)
        tasks = [
            Task(f"T{i}", float(c), float(p), memory=float(m))
            for i, (c, p, m) in enumerate(rng.uniform(0.1, 10.0, size=(24, 3)))
        ]
        instance = Instance(tasks, capacity=max(t.memory for t in tasks) * 1.3)
        modes = self.scan_modes(instance, ("LCMR", "OOMAMR"))
        assert modes == ["policy", "corrected"]


class TestKernelStatsMerge:
    def test_merge_sums_counters(self):
        a = KernelStats(engine="object", tasks=3, events=18, memory_wait_s=0.5, ledger_ops=6)
        b = KernelStats(engine="object", tasks=2, events=12, memory_wait_s=0.25, ledger_ops=4)
        merged = a.merge(b)
        assert merged.engine == "object"
        assert merged.tasks == 5 and merged.events == 30
        assert merged.memory_wait_s == 0.75 and merged.ledger_ops == 10

    def test_merge_mixed_engines(self):
        merged = KernelStats(engine="object").merge(KernelStats(engine="columnar"))
        assert merged.engine == "mixed"


class TestSweepColumns:
    @pytest.fixture(scope="class")
    def results(self):
        ensemble = synthetic_ensemble(
            "balanced", processes=2, tasks_per_process=30, seed=11
        )
        return (
            Study()
            .traces(ensemble)
            .capacities(1.25)
            .solvers("LCMR", "MAMR")
            .run()
        )

    def test_kernel_columns_are_populated(self, results):
        events = results.column("kernel_events")
        waits = results.column("memory_wait_s")
        assert all(count > 0 for count in events)
        assert all(wait >= 0.0 and not math.isnan(wait) for wait in waits)

    def test_columns_survive_the_jsonl_round_trip(self, results, tmp_path):
        path = tmp_path / "rows.jsonl"
        results.to_jsonl(path)
        restored = ResultSet.from_jsonl(path)
        assert restored.column("kernel_events") == results.column("kernel_events")
        assert restored.column("memory_wait_s") == results.column("memory_wait_s")

    def test_pre_observability_rows_read_with_defaults(self, tmp_path):
        # A dump written before these columns existed must still load.
        path = tmp_path / "old.jsonl"
        line = (
            '{"application": "app", "trace": "t", "heuristic": "LCMR", '
            '"category": "static", "capacity_factor": 1.0, "capacity": 1.0, '
            '"makespan": 1.0, "omim": 1.0, "ratio_to_optimal": 1.0, '
            '"task_count": 3}\n'
        )
        path.write_text(line)
        restored = ResultSet.from_jsonl(path)
        assert restored.column("kernel_events") == (0,)
        (wait,) = restored.column("memory_wait_s")
        assert math.isnan(wait)
