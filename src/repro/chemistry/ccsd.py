"""Simulated Coupled-Cluster Singles and Doubles (CCSD) workload.

The paper runs NWChem's CCSD (Tensor Contraction Engine) on Uracil over 150
processes.  The traces differ from HF in three ways (Section 5.1 / Figure 8):

* tile sizes are determined automatically from the orbital structure, so
  tasks are highly heterogeneous;
* communication and computation are roughly balanced overall, so close to
  half of the sequential time could be hidden by a perfect overlap;
* the largest tasks pin on the order of gigabytes of input data — the
  minimum workable capacity ``mc`` reported for the CCSD traces is 1.8 GB.

The simulator models one CCSD iteration as a set of tensor-contraction
*diagrams* operating on tiled occupied/virtual dimensions.  Each task updates
one output block of the doubles residual: it fetches the input blocks of the
two tensors being contracted (Global Arrays gets) and performs the block
contraction (a DGEMM whose cost is the product of the six involved extents).
Tensor-transpose (index-reordering) tasks, which are memory-bound, are issued
alongside — they are the communication-intensive population.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .global_arrays import DistributedTensor
from .kernels import KernelSimulator, TaskBlueprint
from .machine import CASCADE, DOUBLE_BYTES, MachineModel
from .molecules import URACIL, Molecule
from .tiling import Tiling, adaptive_tiling

__all__ = ["CCSDSimulator", "ContractionDiagram"]


@dataclass(frozen=True)
class ContractionDiagram:
    """One CCSD diagram: which spaces are contracted and how often it occurs.

    ``left`` and ``right`` name the index spaces (``"o"`` or ``"v"``) of the two
    input tensors; ``contracted`` those summed over.  ``weight`` scales how many
    block tasks the diagram contributes relative to the dominant ladder term.
    """

    name: str
    left: str
    right: str
    contracted: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        for spaces in (self.left, self.right, self.contracted):
            if set(spaces) - {"o", "v"}:
                raise ValueError(
                    f"diagram {self.name!r}: index spaces are 'o' or 'v', got {spaces!r}"
                )


#: The diagram mix of a CCSD doubles update, coarse-grained to the terms that
#: dominate data movement: particle-particle ladder, hole-hole ladder, ring
#: terms and the singles-dressed intermediates.
DEFAULT_DIAGRAMS: tuple[ContractionDiagram, ...] = (
    ContractionDiagram("pp_ladder", left="vvvv", right="vvoo", contracted="vv", weight=1.0),
    ContractionDiagram("hh_ladder", left="oooo", right="vvoo", contracted="oo", weight=0.6),
    ContractionDiagram("ring", left="vovo", right="vvoo", contracted="vo", weight=0.8),
    ContractionDiagram("singles_dress", left="vvov", right="vo", contracted="v", weight=0.4),
)


class CCSDSimulator(KernelSimulator):
    """Generates CCSD traces with heterogeneous, balanced comm/comp tasks."""

    application = "CCSD"

    def __init__(
        self,
        molecule: Molecule = URACIL,
        *,
        processes: int = 150,
        machine: MachineModel = CASCADE,
        seed: int = 2019,
        cc_iterations: int = 1,
        occupied_tiles: int = 4,
        virtual_tiles: int = 7,
        basis_scale: float = 6.4,
        diagrams: Sequence[ContractionDiagram] = DEFAULT_DIAGRAMS,
        transpose_fraction: float = 0.35,
        contracted_blocks_per_task: int = 2,
        max_block_bytes: float = 1.77e9,
        apex_interval: int = 50,
    ) -> None:
        super().__init__(processes=processes, machine=machine, seed=seed)
        if cc_iterations <= 0:
            raise ValueError("need at least one CC iteration")
        if not 0 <= transpose_fraction < 1:
            raise ValueError("transpose fraction must lie in [0, 1)")
        if contracted_blocks_per_task <= 0:
            raise ValueError("contracted_blocks_per_task must be positive")
        if apex_interval <= 0:
            raise ValueError("apex_interval must be positive")
        self.molecule = molecule
        self.cc_iterations = cc_iterations
        self.diagrams = tuple(diagrams)
        self.transpose_fraction = transpose_fraction
        self.contracted_blocks_per_task = contracted_blocks_per_task
        self.max_block_bytes = max_block_bytes
        self.apex_interval = apex_interval

        # Orbital spaces.  ``basis_scale`` inflates the virtual space to model
        # the large correlation-consistent basis used in the paper's runs (the
        # published mc of 1.8 GB requires virtual blocks of several hundred
        # orbitals).
        self.n_occupied = molecule.frozen_core_occupied()
        self.n_virtual = int(molecule.virtual_orbitals * basis_scale)

        tiling_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCC5D]))
        self.occ_tiling: Tiling = adaptive_tiling(
            self.n_occupied, target_tiles=occupied_tiles, rng=tiling_rng, spread=0.5
        )
        # The virtual space always contains one dominant symmetry block whose
        # four-index integral block pins ``max_block_bytes`` of memory — this is
        # the block behind the paper's mc of ~1.8 GB.  The remaining virtual
        # orbitals are split into heterogeneous smaller blocks (clamped so no
        # accidental block outgrows the dominant one).
        dominant = max(2, int(round((max_block_bytes / DOUBLE_BYTES) ** 0.25)))
        dominant = min(dominant, max(2, self.n_virtual - (virtual_tiles - 1)))
        rest = adaptive_tiling(
            self.n_virtual - dominant,
            target_tiles=max(1, virtual_tiles - 1),
            rng=tiling_rng,
            spread=0.5,
        )
        rest_sizes = list(rest.sizes)
        if sum(rest_sizes) > dominant * len(rest_sizes):
            # The clamp below only ends when the other blocks can all stay at
            # or under the dominant one.
            raise ValueError(
                f"{virtual_tiles} virtual tiles cannot split {self.n_virtual} orbitals "
                f"without a tile larger than the dominant {dominant}"
            )
        while max(rest_sizes) > dominant:
            largest = rest_sizes.index(max(rest_sizes))
            smallest = rest_sizes.index(min(rest_sizes))
            excess = rest_sizes[largest] - dominant
            rest_sizes[largest] -= excess
            rest_sizes[smallest] += excess
        self.virt_tiling: Tiling = Tiling((dominant, *rest_sizes))
        # Tile sizes and counts per index space, read once per drawn block.
        self._tile_sizes = {"o": self.occ_tiling.sizes, "v": self.virt_tiling.sizes}
        self._tile_counts = {space: len(sizes) for space, sizes in self._tile_sizes.items()}

        def tensor(name: str, spaces: str) -> DistributedTensor:
            tilings = tuple(self.occ_tiling if s == "o" else self.virt_tiling for s in spaces)
            return DistributedTensor(
                name=name, tilings=tilings, processes=processes, element_bytes=DOUBLE_BYTES
            )

        self.tensors = {
            "vvvv": tensor("w_vvvv", "vvvv"),
            "oooo": tensor("w_oooo", "oooo"),
            "vovo": tensor("w_vovo", "vovo"),
            "vvov": tensor("w_vvov", "vvov"),
            "vvoo": tensor("t2", "vvoo"),
            "vo": tensor("t1", "vo"),
        }

    # ------------------------------------------------------------------ #
    def _random_block(self, spaces: str, rng: np.random.Generator) -> tuple[int, ...]:
        # One scalar draw per index, in index order: the trace's RNG stream.
        counts = self._tile_counts
        return tuple([int(rng.integers(counts[space])) for space in spaces])

    def _block_extent(self, spaces: str, block: Sequence[int]) -> int:
        sizes = self._tile_sizes
        extent = 1
        for space, index in zip(spaces, block):
            extent *= sizes[space][index]
        return extent

    def diagram_task_count(self, diagram: ContractionDiagram) -> int:
        """Number of block tasks one iteration of ``diagram`` contributes."""
        output_spaces = "vvoo"
        output_blocks = 1
        for space in output_spaces:
            output_blocks *= self._tile_counts[space]
        contracted_blocks = 1
        for space in diagram.contracted:
            contracted_blocks *= self._tile_counts[space]
        return max(1, int(output_blocks * contracted_blocks * diagram.weight))

    def task_count_per_iteration(self) -> int:
        total = sum(self.diagram_task_count(d) for d in self.diagrams)
        return int(total / (1.0 - self.transpose_fraction))

    # ------------------------------------------------------------------ #
    def blueprints(self, rng: np.random.Generator) -> Iterator[TaskBlueprint]:
        for iteration in range(self.cc_iterations):
            counter = 0
            for diagram in self.diagrams:
                count = self.diagram_task_count(diagram)
                for local_index in range(count):
                    # The ladder diagram periodically hits the dominant virtual
                    # symmetry block in all four indices: the ~1.8 GB transfers
                    # that define the minimum workable capacity of a trace.
                    force_apex = diagram.left == "vvvv" and local_index % self.apex_interval == 0
                    yield self._contraction_task(
                        iteration, diagram, counter, rng, force_apex=force_apex
                    )
                    counter += 1
                    # Interleave memory-bound index-permutation (transpose)
                    # tasks at the configured rate.
                    if rng.random() < self.transpose_fraction:
                        yield self._transpose_task(iteration, diagram, counter, rng)
                        counter += 1

    # ------------------------------------------------------------------ #
    def _contraction_task(
        self,
        iteration: int,
        diagram: ContractionDiagram,
        counter: int,
        rng: np.random.Generator,
        *,
        force_apex: bool = False,
    ) -> TaskBlueprint:
        rank = counter % self.processes
        left_tensor = self.tensors[diagram.left]
        right_tensor = self.tensors[diagram.right]
        if force_apex:
            left_block = tuple(0 for _ in diagram.left)
        else:
            left_block = self._random_block(diagram.left, rng)
        left_request = left_tensor.request(left_block, from_rank=rank)
        if force_apex and left_request.local:
            # The dominant integral block is far larger than any single
            # process's Global Arrays share, so it always travels the network.
            left_request = type(left_request)(
                tensor=left_request.tensor,
                block=left_request.block,
                bytes=left_request.bytes,
                local=False,
            )

        # The task accumulates one output block over several contracted blocks:
        # it fetches one block of the *right* tensor per contracted block and
        # reuses the (much larger) left block for every partial DGEMM.
        right_requests = []
        flops = 0.0
        contracted_extent = self._block_extent(
            diagram.contracted, left_block[: len(diagram.contracted)]
        )
        left_free = max(1, self._block_extent(diagram.left, left_block) // max(1, contracted_extent))
        for _ in range(self.contracted_blocks_per_task):
            right_block = self._random_block(diagram.right, rng)
            right_requests.append(right_tensor.request(right_block, from_rank=rank))
            right_free = max(
                1, self._block_extent(diagram.right, right_block) // max(1, contracted_extent)
            )
            flops += 2.0 * left_free * right_free * contracted_extent

        return TaskBlueprint(
            name=f"ccsd_it{iteration}_{diagram.name}_{counter}",
            kind=f"contraction/{diagram.name}",
            requests=(left_request, *right_requests),
            flops=flops,
            overhead_bytes=4 * 1024,
            efficiency_factor=1.0,
        )

    def _transpose_task(
        self,
        iteration: int,
        diagram: ContractionDiagram,
        counter: int,
        rng: np.random.Generator,
    ) -> TaskBlueprint:
        rank = counter % self.processes
        tensor = self.tensors[diagram.right if len(diagram.right) == 4 else diagram.left]
        block = self._random_block("vvoo" if tensor.rank == 4 else "vo", rng)
        request = tensor.request(block, from_rank=rank)
        elements = request.bytes / DOUBLE_BYTES
        # An index permutation touches every element a couple of times and is
        # memory-bandwidth bound: model it as ~4 "effective flops" per element
        # at a low efficiency factor.
        return TaskBlueprint(
            name=f"ccsd_it{iteration}_sort_{diagram.name}_{counter}",
            kind="transpose",
            requests=(request,),
            flops=4.0 * elements,
            overhead_bytes=2 * 1024,
            efficiency_factor=0.12,
        )
