"""Observability must be free when off: identical results, no allocations."""

from __future__ import annotations

import tracemalloc

import pytest

import repro.obs as obs
from repro.api import Study
from repro.serve import ServePool
from repro.traces.generator import synthetic_stream


def sweep(*, engine, backend, n_jobs, trace):
    study = (
        Study()
        .traces(synthetic_stream("balanced", processes=3, tasks_per_process=(20, 40), seed=9))
        .capacities(1.25, 1.6)
        .solvers("LCMR", "MAMR", "OOMAMR")
        .engine(engine)
    )
    if trace:
        study.trace()
    if backend == "serve-pool":
        pool = ServePool(n_jobs)
        try:
            return study.parallel(n_jobs, backend=pool.backend(), chunk_size=2).run().to_json()
        finally:
            pool.shutdown()
    if backend != "serial":
        study.parallel(n_jobs, backend=backend, chunk_size=2)
    return study.run().to_json()


class TestByteIdentity:
    @pytest.mark.parametrize("engine", ["object", "columnar"])
    @pytest.mark.parametrize("backend,n_jobs", [("serial", 1), ("serve-pool", 2)])
    def test_tracing_never_changes_results(self, engine, backend, n_jobs):
        off = sweep(engine=engine, backend=backend, n_jobs=n_jobs, trace=False)
        on = sweep(engine=engine, backend=backend, n_jobs=n_jobs, trace=True)
        assert off == on

    def test_process_backend_byte_identity(self):
        off = sweep(engine="object", backend="processes", n_jobs=2, trace=False)
        on = sweep(engine="object", backend="processes", n_jobs=2, trace=True)
        assert off == on


class TestNoopAllocations:
    def test_disabled_span_path_does_not_allocate(self):
        assert not obs.is_enabled()

        def loop(n):
            start = obs.now()
            for _ in range(n):
                with obs.span("hot", items=1):
                    pass
                obs.record_span("manual", start, start)

        loop(1000)  # warm caches, bytecode, the NOOP singleton
        tracemalloc.start()
        loop(10_000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The no-op path reuses one shared span object; the only
        # allocations tracemalloc may see are interpreter incidentals
        # (frame churn), far below one object per iteration.
        assert peak < 4096, f"no-op tracing allocated {peak} bytes at peak"
