"""End-to-end tracing: solve(), Study, backends, the CLI, and the wire."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.__main__ import main
from repro.api import Study, solve
from repro.core import Instance, tasks_from_pairs
from repro.obs.export import validate_chrome_trace
from repro.serve import ServePool
from repro.traces.generator import synthetic_stream


@pytest.fixture
def instance():
    instance = Instance(
        tasks_from_pairs([(2.0, 3.0), (1.0, 4.0), (3.0, 1.0), (2.0, 2.0)]),
        name="trace-demo",
    )
    return instance.with_capacity(instance.min_capacity * 1.5)


def small_study(backend, n_jobs=2):
    study = (
        Study()
        .traces(synthetic_stream("balanced", processes=4, tasks_per_process=(20, 40), seed=5))
        .capacities(1.25, 1.5)
        .solvers("LCMR", "MAMR")
    )
    if backend != "serial" or n_jobs != 1:
        study.parallel(n_jobs, backend=backend, chunk_size=2)
    return study


class TestSolveTrace:
    def test_solve_trace_writes_validated_file(self, instance, tmp_path):
        path = tmp_path / "solve.json"
        result = solve(instance, "LCMR", trace=str(path))
        assert result.makespan > 0
        info = validate_chrome_trace(str(path))
        names = {e["name"] for e in json.loads(path.read_text())["traceEvents"]}
        assert "kernel.simulate" in names
        assert info["spans"] >= 2

    def test_solve_trace_restores_disabled_state(self, instance, tmp_path):
        assert not obs.is_enabled()
        solve(instance, "LCMR", trace=str(tmp_path / "t.json"))
        assert not obs.is_enabled()

    def test_traced_solve_measures_wall_clock_stats(self, instance, tmp_path):
        stats = solve(instance, "LCMR", engine="object", trace=str(tmp_path / "t.json")).stats
        assert stats.elapsed_s > 0.0
        untraced = solve(instance, "LCMR", engine="object").stats
        assert untraced.elapsed_s == 0.0


class TestStudyTrace:
    def test_study_trace_writes_validated_file(self, tmp_path):
        path = tmp_path / "study.json"
        results = small_study("serial", n_jobs=1).trace(path).run()
        assert len(results) == 4 * 2 * 2
        info = validate_chrome_trace(str(path))
        names = {e["name"] for e in json.loads(path.read_text())["traceEvents"]}
        assert {"study.run", "sweep.job", "kernel.simulate"} <= names
        assert info["max_depth"] >= 3

    def test_trace_true_enables_without_writing(self):
        marker = obs.mark()
        small_study("serial", n_jobs=1).trace().run()
        assert not obs.is_enabled()
        assert any(r["name"] == "study.run" for r in obs.export_since(marker))

    def test_trace_false_removes_the_request(self, tmp_path):
        marker = obs.mark()
        small_study("serial", n_jobs=1).trace(tmp_path / "no.json").trace(False).run()
        assert obs.export_since(marker) == []
        assert not (tmp_path / "no.json").exists()

    def test_study_is_reusable_after_a_traced_run(self, tmp_path):
        study = small_study("serial", n_jobs=1).trace(tmp_path / "first.json")
        first = study.run()
        # The trace target survives for the next run, untouched by the
        # recursive re-entry trick inside Study.run.
        second = study.run()
        assert first.to_json() == second.to_json()


class TestServePoolBackend:
    def test_spans_from_worker_threads_are_collected(self, tmp_path):
        path = tmp_path / "threads.json"
        pool = ServePool(2)
        try:
            small_study(pool.backend()).trace(path).run()
        finally:
            pool.shutdown()
        payload = json.loads(path.read_text())
        info = validate_chrome_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"sweep.chunk", "sweep.job", "kernel.simulate"} <= names
        assert info["pids"] == 1
        assert info["tracks"] >= 2  # main thread plus at least one worker


class TestProcessBackendWire:
    def test_worker_spans_and_metrics_cross_the_wire(self, tmp_path):
        path = tmp_path / "processes.json"
        before = obs.REGISTRY.counter_total("sweep_jobs_merged_total")
        results = small_study("processes").trace(path).run()
        assert len(results) == 4 * 2 * 2

        payload = json.loads(path.read_text())
        info = validate_chrome_trace(payload)
        # Spans arrived from at least one worker pid besides the parent.
        assert info["pids"] >= 2
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"study.run", "sweep.chunk", "sweep.chunk.run", "sweep.job", "kernel.simulate"} <= names

        # Worker-side kernel spans carry their own pids.
        parent_pid = next(
            e["pid"] for e in payload["traceEvents"] if e["name"] == "study.run"
        )
        kernel_pids = {
            e["pid"] for e in payload["traceEvents"] if e["name"] == "kernel.simulate"
        }
        assert kernel_pids and parent_pid not in kernel_pids

        # Metrics shipped back and merged into the parent registry.
        assert obs.REGISTRY.counter_total("sweep_jobs_merged_total") - before == 4

    def test_process_results_identical_to_serial(self):
        serial = small_study("serial", n_jobs=1).run()
        traced = small_study("processes").trace().run()
        assert serial.to_json() == traced.to_json()


class TestCli:
    def test_sweep_trace_flag_writes_merged_trace(self, tmp_path, capsys):
        out = tmp_path / "cli.json"
        rows = tmp_path / "rows.jsonl"
        code = main(
            [
                "sweep",
                "--workload", "balanced",
                "--traces", "3",
                "--tasks", "30",
                "--solvers", "LCMR",
                "--capacities", "1.25",
                "--jobs", "2",
                "--backend", "processes",
                "--chunk-size", "1",
                "--trace", str(out),
                "--output", str(rows),
                "--quiet",
            ]
        )
        assert code == 0
        info = validate_chrome_trace(str(out))
        assert info["pids"] >= 2
        captured = capsys.readouterr()
        assert f"wrote Chrome trace to {out}" in captured.err
        assert rows.exists()
