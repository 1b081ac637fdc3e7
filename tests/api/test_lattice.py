"""Backend × mode lattice: one ``to_json()`` byte string for every sweep.

Every sweep runs through the one streaming orchestrator, whatever the
backend (serial, processes with pickled payloads, processes with the
shared-memory job plane forced on through ``SHM_MIN_TASKS``, the serving
daemon's shared pool) and whatever the mode (in memory,
spilled to JSONL, checkpointed then resumed from disk, sharded then
merged).  All of them must reproduce the plain serial sweep byte for byte,
and that sweep must reproduce the pinned digest of the 1.x output.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.api import (
    ProcessBackend,
    SerialBackend,
    Study,
    SweepCheckpoint,
    merge_shards_to_result,
)
from repro.api import backends as backends_module
from repro.api.sharding import ShardWriter
from repro.serve import ServePool
from repro.traces.generator import synthetic_trace

TRACES = 5
#: sha256 of the plain serial sweep's columns (``engine`` dropped, keys
#: sorted, as JSON) as written by repro 1.9.
PINNED_SHA256 = "5abc072b9491a95a8b2bc0f7952ab31c7a08538f4446e81f5303430c05cb004b"

BACKENDS = {
    "serial": lambda pool: SerialBackend(),
    "processes": lambda pool: ProcessBackend(2),
    "processes-shm": lambda pool: ProcessBackend(2),
    "serve-pool": lambda pool: pool.backend(),
}
#: ``SHM_MIN_TASKS`` per backend: the process rows pin each wire form.
SHM_MIN_TASKS = {"processes": 10**9, "processes-shm": 1}


@pytest.fixture(scope="module")
def traces():
    return [synthetic_trace("mixed-intensity", tasks=25, seed=seed) for seed in range(TRACES)]


def build(traces) -> Study:
    return Study().traces(*traces).capacities(1.0, 1.5).solvers("OS", "LCMR", "OOSIM", "GG")


@pytest.fixture(scope="module")
def reference(traces) -> str:
    return build(traces).run().to_json()


@pytest.fixture(scope="module")
def pool():
    pool = ServePool(2)
    yield pool
    pool.shutdown()


def test_serial_sweep_matches_the_pinned_output(traces):
    columns = build(traces).run().to_columns()
    # ``engine`` names the engine that ran, which REPRO_ENGINE may force;
    # every other column is identical across engines.
    del columns["engine"]
    digest = hashlib.sha256(json.dumps(columns, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SHA256


@pytest.mark.parametrize("mode", ["plain", "spill", "checkpoint", "shard"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_backend_and_mode_gives_the_same_bytes(
    traces, reference, pool, tmp_path, monkeypatch, backend, mode
):
    if backend in SHM_MIN_TASKS:
        monkeypatch.setattr(backends_module, "SHM_MIN_TASKS", SHM_MIN_TASKS[backend])
    segments = obs.REGISTRY.counter_total("sweep_shm_segments_total")

    def study() -> Study:
        return build(traces).parallel(2, backend=BACKENDS[backend](pool))

    if mode == "plain":
        outputs = [study().run().to_json()]
    elif mode == "spill":
        results = study().spill(tmp_path / "rows.jsonl").run()
        outputs = [results.to_json()]
        results.close()
    elif mode == "checkpoint":
        directory = tmp_path / "checkpoint"
        first = study().checkpoint(directory).run().to_json()
        with SweepCheckpoint(directory) as checkpoint:
            recorded = checkpoint.completed_chunks
        assert recorded and recorded == frozenset(range(len(recorded)))
        resumed = study().checkpoint(directory).run().to_json()
        outputs = [first, resumed]
    else:
        paths = []
        for index in range(2):
            path = tmp_path / f"shard{index}.jsonl"
            with ShardWriter(path, index, 2, jobs_total=TRACES) as writer:
                study().shard((index, 2)).on_records(writer.append).run()
            paths.append(path)
        outputs = [merge_shards_to_result(paths).to_json()]
    for output in outputs:
        assert output == reference
    published = obs.REGISTRY.counter_total("sweep_shm_segments_total") > segments
    assert published == (backend == "processes-shm")
