"""Pinned sha256 digests of the generated HF and CCSD ensembles.

Every figure, every paper-scale run and perfbench's hf set-up start from
these generators, so a change to them must keep each trace byte-identical:
the same RNG draws in the same order, the same task names, volumes, times
and kinds.  The digests below were taken from the generators before their
block geometry was memoised; any drift in a generator fails here first.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chemistry import CCSDSimulator, HartreeFockSimulator, ccsd_ensemble, hf_ensemble
from repro.traces.model import TraceEnsemble


def ensemble_digest(ensemble: TraceEnsemble) -> str:
    """sha256 over every task's process, name, volume, times and kind.

    Floats enter as ``float.hex`` so that a one-ulp change shows.
    """
    digest = hashlib.sha256()
    for trace in ensemble:
        for task in trace.tasks:
            digest.update(
                f"{trace.process}|{task.name}|{task.volume_bytes.hex()}|"
                f"{task.comm_seconds.hex()}|{task.comp_seconds.hex()}|"
                f"{task.release_seconds.hex()}|{task.kind}\n".encode()
            )
    return digest.hexdigest()


@pytest.mark.parametrize(
    ("generate", "tasks", "expected"),
    [
        pytest.param(
            lambda: hf_ensemble(processes=150, seed=2019),
            79212,
            "9cefe8384a9a0bb7f4906b3261429b24d16d6cb4fbc94a0c36d720e31e25f37b",
            id="hf-150-seed2019",
        ),
        pytest.param(
            lambda: ccsd_ensemble(processes=150, seed=2019),
            88649,
            "62c3a3bbf12c7b448a5cfc4c808dbfc743f56cbb0d3ddafa64f29081834cc1af",
            id="ccsd-150-seed2019",
        ),
        pytest.param(
            lambda: HartreeFockSimulator(
                processes=12, seed=31, scf_iterations=2, tile_size=400
            ).generate(),
            882,
            "7aa43b00011e75d018811de7813e20a9cd6fddc7779f29db284e0cdd779762b5",
            id="hf-small-2-iterations",
        ),
        pytest.param(
            lambda: CCSDSimulator(
                processes=12,
                seed=31,
                cc_iterations=2,
                occupied_tiles=2,
                virtual_tiles=4,
                basis_scale=2.0,
            ).generate(),
            4532,
            "a68c538780bc02fbfdaeb97a35fae920cf6ffcf589322f5f8c6bb6d76d087e9a",
            id="ccsd-small-2-iterations",
        ),
    ],
)
def test_generated_ensemble_is_pinned(generate, tasks, expected):
    ensemble = generate()
    assert sum(len(trace) for trace in ensemble) == tasks
    assert ensemble_digest(ensemble) == expected
