"""Simulated Hartree–Fock (SCF) workload.

The paper runs the double-precision Hartree–Fock module of NWChem on a SiOSi
(silica fragment) input with an explicit tile size of 100, on 150 processes.
The recorded per-process traces have three salient properties (Section 5.1 /
Figure 8):

* tasks are nearly homogeneous (fixed 100-wide tiles over the atomic-orbital
  dimension);
* the workload is communication dominated — at most roughly 20% of the
  sequential time can be hidden by overlap;
* the compute-intensive tasks that do exist have *small* communication times
  (which is why the SCMR heuristic shines at tight capacities);
* the minimum workable memory capacity ``mc`` is about 176 KB, i.e. the
  largest single task fetches two 100x100 double tiles plus bookkeeping data.

The simulator reproduces exactly that structure.  A Fock build iterates over
pairs of (bra, ket) tile blocks of the density/Fock matrices; each such
*quartet task* fetches the two density blocks it needs (Global Arrays get),
evaluates the surviving (heavily screened) two-electron integrals, and
accumulates into a local Fock buffer.  Interleaved with the quartet tasks,
each iteration issues a smaller number of *diagonalisation-preparation* tasks
(matrix-block transforms) that fetch a thin slice but compute more — the
compute-intensive, small-communication population of the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .global_arrays import DistributedTensor
from .kernels import KernelSimulator, TaskBlueprint
from .machine import CASCADE, DOUBLE_BYTES, MachineModel
from .molecules import SIOSI, Molecule
from .tiling import Tiling, fixed_tiling

__all__ = ["HartreeFockSimulator", "HF_TILE_SIZE"]

#: Tile size used by the paper's HF runs.
HF_TILE_SIZE = 100


@dataclass(frozen=True)
class _ScreeningModel:
    """Schwarz-screening survival model for quartet blocks.

    ``survival`` is the average fraction of integrals in a block that survive
    screening; blocks between far-apart tile pairs survive less.  The spread
    is mild, keeping the HF workload close to homogeneous.
    """

    base_survival: float = 0.0015
    spread: float = 0.35

    def sample(self, rng: np.random.Generator) -> float:
        factor = float(np.exp(rng.normal(0.0, self.spread)))
        return min(1.0, self.base_survival * factor)


class HartreeFockSimulator(KernelSimulator):
    """Generates HF (SCF Fock-build) traces with the paper's workload shape."""

    application = "HF"

    def __init__(
        self,
        molecule: Molecule = SIOSI,
        *,
        tile_size: int = HF_TILE_SIZE,
        scf_iterations: int = 1,
        processes: int = 150,
        machine: MachineModel = CASCADE,
        seed: int = 2019,
        screening: _ScreeningModel | None = None,
        flops_per_integral: float = 1.5,
        overhead_bytes: float = 16 * 1024,
        transform_interval: int = 24,
    ) -> None:
        super().__init__(processes=processes, machine=machine, seed=seed)
        if scf_iterations <= 0:
            raise ValueError("need at least one SCF iteration")
        if transform_interval <= 0:
            raise ValueError("transform interval must be positive")
        self.molecule = molecule
        self.tile_size = tile_size
        self.scf_iterations = scf_iterations
        self.screening = screening or _ScreeningModel()
        self.flops_per_integral = flops_per_integral
        self.overhead_bytes = overhead_bytes
        self.transform_interval = transform_interval

        self.ao_tiling: Tiling = fixed_tiling(molecule.basis_functions, tile_size)
        self.density = DistributedTensor(
            name="density",
            tilings=(self.ao_tiling, self.ao_tiling),
            processes=processes,
            element_bytes=DOUBLE_BYTES,
        )
        self.fock = DistributedTensor(
            name="fock",
            tilings=(self.ao_tiling, self.ao_tiling),
            processes=processes,
            element_bytes=DOUBLE_BYTES,
        )
        # Block geometry is fixed by the tiling: the (i <= j) pair list and
        # each pair's element count are computed once, not once per quartet.
        count = self.ao_tiling.tile_count
        self._pairs = tuple((i, j) for i in range(count) for j in range(i, count))
        tiles = self.ao_tiling.sizes
        self._pair_elements = tuple(tiles[i] * tiles[j] for i, j in self._pairs)

    # ------------------------------------------------------------------ #
    def bra_ket_blocks(self) -> list[tuple[int, int]]:
        """Unique (i <= j) tile-pair blocks of the symmetric density matrix."""
        return list(self._pairs)

    def quartet_count_per_iteration(self) -> int:
        return len(self._pairs) ** 2

    # ------------------------------------------------------------------ #
    def blueprints(self, rng: np.random.Generator) -> Iterator[TaskBlueprint]:
        pairs = self._pairs
        for iteration in range(self.scf_iterations):
            for bra_index, bra in enumerate(pairs):
                for ket_index, ket in enumerate(pairs):
                    yield self._quartet_task(iteration, bra_index, bra, ket_index, ket, rng)
                    # Periodically the worker refreshes a Fock slice for the
                    # upcoming diagonalisation: a thin fetch with a dense
                    # matrix-matrix transform (compute intensive, small comm).
                    if (ket_index + 1) % self.transform_interval == 0:
                        yield self._transform_task(
                            iteration, bra_index * len(pairs) + ket_index, bra, rng
                        )

    # ------------------------------------------------------------------ #
    def _quartet_task(
        self,
        iteration: int,
        bra_index: int,
        bra: tuple[int, int],
        ket_index: int,
        ket: tuple[int, int],
        rng: np.random.Generator,
    ) -> TaskBlueprint:
        """One screened two-electron quartet block (communication-leaning).

        Most quartets only fetch the Coulomb density block ``D(kl)`` — the
        exchange block is already resident from the previous ket sweep.  The
        quartets that touch a new exchange column (roughly one in ten) fetch
        both blocks plus the Schwarz screening buffer; those are the largest
        tasks of the trace and define ``mc`` (about 176 KB with 100x100 tiles).
        """
        rank = (bra_index * len(self._pairs) + ket_index) % self.processes
        coulomb = self.density.request(ket, from_rank=rank)
        needs_exchange_block = ket[1] == ket[0] or rng.random() < 0.08
        if needs_exchange_block:
            exchange = self.density.request((bra[0], ket[1]), from_rank=rank)
            requests = (coulomb, exchange)
            overhead = self.overhead_bytes
        else:
            requests = (coulomb,)
            overhead = self.overhead_bytes / 4
        survival = self.screening.sample(rng)
        integrals = self._pair_elements[bra_index] * self._pair_elements[ket_index] * survival
        return TaskBlueprint(
            name=f"hf_it{iteration}_fock_{bra_index}_{ket_index}",
            kind="fock_quartet",
            requests=requests,
            flops=integrals * self.flops_per_integral,
            overhead_bytes=overhead,
            efficiency_factor=0.8,
        )

    def _transform_task(
        self,
        iteration: int,
        transform_index: int,
        bra: tuple[int, int],
        rng: np.random.Generator,
    ) -> TaskBlueprint:
        """A Fock-slice transform: thin fetch, dense DGEMM (compute-leaning)."""
        bra_index = transform_index
        rank = bra_index % self.processes
        slice_rows = max(8, self.ao_tiling[bra[0]] // 4)
        slice_bytes = slice_rows * self.ao_tiling[bra[1]] * DOUBLE_BYTES
        request = self.fock.request(bra, from_rank=rank)
        thin_request = type(request)(
            tensor=request.tensor,
            block=request.block,
            bytes=float(slice_bytes),
            local=request.local,
        )
        # Transform cost: a slice-times-tile DGEMM (2 * rows * n * n flops),
        # jittered mildly to reflect varying convergence-acceleration work.
        n = self.ao_tiling[bra[1]]
        jitter = float(np.exp(rng.normal(0.0, 0.25)))
        flops = 2.0 * slice_rows * n * n * jitter
        return TaskBlueprint(
            name=f"hf_it{iteration}_trans_{bra_index}",
            kind="fock_transform",
            requests=(thin_request,),
            flops=flops,
            overhead_bytes=2 * 1024,
            efficiency_factor=1.0,
        )
