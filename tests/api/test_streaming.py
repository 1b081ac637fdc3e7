"""Bounded-memory streaming sweeps: JSONL spill, lazy planes, sharding.

The central guarantee under test: the streaming pipeline — lazy trace
production, chunked execution with a bounded in-flight window, disk spill,
sharding + merge — produces results **byte-identical** to the plain
in-memory sweep, on every backend.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.api import (
    ResultSet,
    RunRecord,
    SpilledResultSet,
    Study,
    merge_shards,
    merge_shards_to_result,
    parse_shard,
    sweep_traces,
    write_shard,
)
from repro.api.results import decode_record_line, encode_record_line
from repro.api.sharding import ShardWriter
from repro.serve import ServePool
from repro.traces import TraceStream, synthetic_ensemble, synthetic_stream

SWEEP = dict(capacity_factors=(1.25, 1.75), solver_specs=("OS", "LCMR"), validate=False)


@pytest.fixture(scope="module")
def ensemble():
    return synthetic_ensemble("mixed-intensity", processes=6, tasks_per_process=(20, 40), seed=9)


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream("mixed-intensity", processes=6, tasks_per_process=(20, 40), seed=9)


@pytest.fixture(scope="module")
def reference(ensemble):
    return sweep_traces([ensemble], **SWEEP)


# --------------------------------------------------------------------- #
# JSONL spill codec
# --------------------------------------------------------------------- #
class TestJsonlRoundTrip:
    def test_round_trip_is_byte_identical(self, reference, tmp_path):
        path = tmp_path / "rows.jsonl"
        reference.to_jsonl(path)
        loaded = ResultSet.from_jsonl(path)
        assert loaded.to_jsonl() == reference.to_jsonl()
        assert loaded.to_csv() == reference.to_csv()
        assert loaded.to_json() == reference.to_json()
        assert loaded == reference

    def test_non_finite_floats_survive(self):
        record = RunRecord(
            application="a",
            trace="a/p000",
            heuristic="OS",
            category="static",
            capacity_factor=math.nan,
            capacity=math.inf,
            makespan=1.0,
            omim=1.0,
            ratio_to_optimal=1.0,
            task_count=1,
        )
        line = encode_record_line(record)
        back = decode_record_line(line)
        assert math.isnan(back.capacity_factor)
        assert back.capacity == math.inf
        assert encode_record_line(back) == line

    def test_exact_float_round_trip(self, reference):
        for index in range(len(reference)):
            original = reference[index]
            back = decode_record_line(encode_record_line(original))
            assert encode_record_line(back) == encode_record_line(original)

    def test_iter_jsonl_streams_records(self, reference, tmp_path):
        path = tmp_path / "rows.jsonl"
        reference.to_jsonl(path)
        records = list(ResultSet.iter_jsonl(path))
        assert len(records) == len(reference)
        assert encode_record_line(records[0]) == encode_record_line(reference[0])


class TestSpilledResultSet:
    def test_append_spills_and_reads_back(self, reference, tmp_path):
        path = tmp_path / "spill.jsonl"
        spill = ResultSet.open_spill(path, window=4)
        for index in range(len(reference)):
            spill.append(reference[index])
        spill.flush()
        assert len(spill) == len(reference)
        assert spill.to_csv() == reference.to_csv()
        assert spill.to_jsonl() == reference.to_jsonl()
        # Random access reaches rows that left the in-memory window.
        assert encode_record_line(spill[0]) == encode_record_line(reference[0])
        spill.close()
        assert ResultSet.from_jsonl(path) == reference

    def test_window_bounds_memory(self, reference, tmp_path):
        spill = ResultSet.open_spill(tmp_path / "w.jsonl", window=2)
        for index in range(len(reference)):
            spill.append(reference[index])
        # The in-memory column store never holds more than 2 * window rows.
        assert len(spill._columns["heuristic"]) <= 4
        assert list(spill.column("heuristic")) == list(reference.column("heuristic"))
        spill.close()

    def test_relational_ops_delegate(self, reference, tmp_path):
        spill = ResultSet.open_spill(tmp_path / "r.jsonl", window=2)
        for index in range(len(reference)):
            spill.append(reference[index])
        assert spill.filter(heuristic="OS").to_csv() == reference.filter(heuristic="OS").to_csv()
        assert spill.aggregate("ratio_to_optimal", by=("heuristic",)) == reference.aggregate(
            "ratio_to_optimal", by=("heuristic",)
        )
        assert set(spill.group_by("heuristic")) == set(reference.group_by("heuristic"))
        spill.close()

    def test_resume_appends_after_existing_rows(self, reference, tmp_path):
        path = tmp_path / "resume.jsonl"
        first = ResultSet.open_spill(path)
        half = len(reference) // 2
        for index in range(half):
            first.append(reference[index])
        first.close()
        second = ResultSet.open_spill(path, resume=True)
        assert len(second) == half
        for index in range(half, len(reference)):
            second.append(reference[index])
        second.close()
        assert ResultSet.from_jsonl(path) == reference


# --------------------------------------------------------------------- #
# Lazy trace planes
# --------------------------------------------------------------------- #
class TestLazySources:
    def test_stream_equals_ensemble(self, ensemble, stream, reference):
        lazy = sweep_traces([stream], **SWEEP)
        assert lazy.to_csv() == reference.to_csv()

    def test_generator_source_equals_list(self, ensemble, reference):
        lazy = sweep_traces((trace for trace in ensemble), **SWEEP)
        assert lazy.to_csv() == reference.to_csv()

    def test_traces_are_produced_lazily(self, stream, reference):
        produced = []
        counting = TraceStream(
            application=stream.application,
            count=len(stream),
            factory=lambda index: (produced.append(index), stream.factory(index))[1],
        )
        seen_at_first_job = []

        def observe(job_index, records):
            if not seen_at_first_job:
                seen_at_first_job.append(len(produced))

        result = sweep_traces(
            [counting], backend="serial", chunk_size=1, on_records=observe, **SWEEP
        )
        assert result.to_csv() == reference.to_csv()
        assert sorted(produced) == list(range(len(stream)))
        # When the first job's records merged, only the first chunk's
        # traces had been produced — not the whole plane.
        assert seen_at_first_job[0] <= 2

    def test_bad_source_type_raises(self):
        with pytest.raises(TypeError, match="TraceStream"):
            sweep_traces([object()], **SWEEP)

    def test_stream_factory_type_checked(self):
        broken = TraceStream(application="x", count=1, factory=lambda index: index)
        with pytest.raises(TypeError, match="factory returned"):
            broken[0]


# --------------------------------------------------------------------- #
# Spill engagement and backend equivalence
# --------------------------------------------------------------------- #
class TestSweepSpill:
    def test_spill_false_returns_plain_resultset(self, stream, reference):
        result = sweep_traces([stream], spill=False, **SWEEP)
        assert type(result) is ResultSet
        assert result.to_csv() == reference.to_csv()

    def test_spill_true_uses_temporary_file(self, stream, reference):
        result = sweep_traces([stream], spill=True, **SWEEP)
        assert isinstance(result, SpilledResultSet)
        path = result._path
        assert os.path.exists(path)
        assert result.to_csv() == reference.to_csv()
        del result
        assert not os.path.exists(path)  # temporary spill cleaned up

    def test_spill_path_is_reloadable(self, stream, reference, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = sweep_traces([stream], spill=path, **SWEEP)
        result.close()
        assert ResultSet.from_jsonl(path).to_csv() == reference.to_csv()

    def test_auto_spill_threshold_env(self, stream, reference, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1")
        result = sweep_traces([stream], **SWEEP)
        assert isinstance(result, SpilledResultSet)
        assert result.to_csv() == reference.to_csv()
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1000000")
        assert type(sweep_traces([stream], **SWEEP)) is ResultSet

    @pytest.mark.parametrize("backend", ["serial", "serve-pool", "processes"])
    def test_streaming_is_byte_identical_across_backends(self, stream, reference, backend):
        if backend == "serve-pool":
            pool = ServePool(2)
            try:
                result = sweep_traces([stream], spill=True, backend=pool.backend(), **SWEEP)
            finally:
                pool.shutdown()
        else:
            result = sweep_traces([stream], spill=True, backend=backend, n_jobs=2, **SWEEP)
        assert result.to_csv() == reference.to_csv()
        assert result.to_jsonl() == reference.to_jsonl()

    def test_progress_reported_for_lazy_planes(self, stream):
        calls = []
        sweep_traces(
            [stream], on_progress=lambda done, total: calls.append((done, total)), **SWEEP
        )
        assert calls[-1] == (len(stream), len(stream))


# --------------------------------------------------------------------- #
# Sharding and merge
# --------------------------------------------------------------------- #
class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "0/0", "x/2", "1", "1/2/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def _shard_files(self, stream, tmp_path, count):
        paths = []
        for index in range(count):
            path = tmp_path / f"shard{index}.jsonl"
            with ShardWriter(path, index, count, jobs_total=len(stream)) as writer:
                sweep_traces(
                    [stream],
                    shard=(index, count),
                    on_records=writer.append,
                    spill=False,
                    **SWEEP,
                )
            paths.append(path)
        return paths

    def test_sharded_merge_is_byte_identical(self, stream, reference, tmp_path):
        paths = self._shard_files(stream, tmp_path, 2)
        merged = merge_shards_to_result(paths)
        assert merged.to_csv() == reference.to_csv()
        assert merged.to_json() == reference.to_json()
        # Order of the shard files does not matter.
        assert merge_shards_to_result(list(reversed(paths))).to_csv() == reference.to_csv()

    def test_three_way_shards_cover_the_plane(self, stream, reference, tmp_path):
        paths = self._shard_files(stream, tmp_path, 3)
        assert merge_shards_to_result(paths).to_csv() == reference.to_csv()

    def test_shard_of_one_equals_unsharded(self, stream, reference, tmp_path):
        paths = self._shard_files(stream, tmp_path, 1)
        assert merge_shards_to_result(paths).to_csv() == reference.to_csv()

    def test_missing_shard_is_rejected(self, stream, tmp_path):
        paths = self._shard_files(stream, tmp_path, 2)
        with pytest.raises(ValueError, match="missing"):
            list(merge_shards([paths[0]]))

    def test_duplicate_shards_are_rejected(self, stream, tmp_path):
        paths = self._shard_files(stream, tmp_path, 2)
        with pytest.raises(ValueError, match="duplicate"):
            list(merge_shards([paths[0], paths[0]]))

    def test_mismatched_shard_counts_are_rejected(self, stream, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (path_a,) = self._shard_files(stream, tmp_path / "a", 1)
        paths_b = self._shard_files(stream, tmp_path / "b", 2)
        with pytest.raises(ValueError, match="disagree"):
            list(merge_shards([path_a, paths_b[1]]))

    def test_non_shard_file_is_rejected(self, tmp_path):
        path = tmp_path / "noise.jsonl"
        path.write_text('{"not": "a shard"}\n')
        with pytest.raises(ValueError, match="not a sweep shard"):
            list(merge_shards([path]))

    def test_truncated_shard_is_detected(self, stream, tmp_path):
        paths = self._shard_files(stream, tmp_path, 2)
        lines = paths[1].read_text().splitlines(keepends=True)
        paths[1].write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="ended early|truncated"):
            list(merge_shards(paths))

    def test_writer_rejects_foreign_jobs(self, tmp_path):
        writer = ShardWriter(tmp_path / "s.jsonl", 0, 2)
        with pytest.raises(ValueError, match="does not belong"):
            writer.append(1, [])
        writer.close()

    def test_write_shard_function(self, stream, reference, tmp_path):
        pairs = []
        sweep_traces([stream], shard="0/1", on_records=lambda g, r: pairs.append((g, r)), **SWEEP)
        path = tmp_path / "all.jsonl"
        assert write_shard(path, 0, 1, pairs, jobs_total=len(stream)) == len(stream)
        assert merge_shards_to_result([path]).to_csv() == reference.to_csv()


# --------------------------------------------------------------------- #
# Study integration
# --------------------------------------------------------------------- #
class TestStudyStreaming:
    def test_study_accepts_trace_streams(self, stream, reference):
        result = (
            Study().traces(stream).capacities(1.25, 1.75).solvers("OS", "LCMR").validate(False).run()
        )
        assert result.to_csv() == reference.to_csv()

    def test_study_spill(self, stream, reference, tmp_path):
        result = (
            Study()
            .traces(stream)
            .capacities(1.25, 1.75)
            .solvers("OS", "LCMR")
            .validate(False)
            .spill(tmp_path / "study.jsonl")
            .run()
        )
        assert isinstance(result, SpilledResultSet)
        assert result.to_csv() == reference.to_csv()

    def test_study_shard_and_on_records(self, stream, reference):
        seen = {}
        for spec in ("0/2", "1/2"):
            (
                Study()
                .traces(stream)
                .capacities(1.25, 1.75)
                .solvers("OS", "LCMR")
                .validate(False)
                .shard(spec)
                .on_records(lambda g, r: seen.setdefault(g, r))
                .run()
            )
        combined = ResultSet()
        for index in sorted(seen):
            for record in seen[index]:
                combined.append(record)
        assert combined.to_csv() == reference.to_csv()

    def test_mixed_planes_reject_shard(self, stream, ensemble):
        study = Study().traces(stream).instances(ensemble[0].to_instance(1e12)).shard("0/2")
        with pytest.raises(ValueError, match="single job plane"):
            study.run()
