"""Global-Arrays-like distributed tensor model.

NWChem stores its large tensors in Global Arrays (GA): a partitioned global
address space in which each process owns a slice and any process can *get* or
*put* arbitrary blocks.  For the data-transfer ordering problem the relevant
abstraction is small: a distributed tensor knows its tilings, can tell how
many bytes a given tile block occupies, and can tell whether a block is local
to a process (no transfer needed) or remote (a GA get over the network).

The placement model is a block-cyclic distribution of tiles over processes,
which is what GA's default data layout approximates for the tile-sparse
tensors used by the HF and CCSD modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .machine import DOUBLE_BYTES
from .tiling import Tiling

__all__ = ["DistributedTensor", "BlockRequest"]


@dataclass(frozen=True)
class BlockRequest:
    """One tile block fetched by a task: which tensor, which block, how many bytes."""

    tensor: str
    block: tuple[int, ...]
    bytes: float
    local: bool

    @property
    def transferred_bytes(self) -> float:
        """Bytes that actually travel over the network (0 for local blocks)."""
        return 0.0 if self.local else self.bytes


@dataclass(frozen=True)
class DistributedTensor:
    """A tiled tensor distributed block-cyclically over ``processes`` ranks."""

    name: str
    tilings: tuple[Tiling, ...]
    processes: int
    element_bytes: int = DOUBLE_BYTES
    #: ``(bytes, owner)`` of each block already requested, filled lazily by
    #: :meth:`request`; bounded by the block grid.  Only validated blocks
    #: enter it, so bad blocks raise on every call.
    _geometry: dict[tuple[int, ...], tuple[float, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.tilings:
            raise ValueError("a tensor needs at least one dimension")
        if self.processes <= 0:
            raise ValueError("process count must be positive")
        if self.element_bytes <= 0:
            raise ValueError("element size must be positive")

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        """Number of tensor dimensions."""
        return len(self.tilings)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(t.dimension for t in self.tilings)

    @property
    def block_grid(self) -> tuple[int, ...]:
        return tuple(t.tile_count for t in self.tilings)

    @property
    def total_bytes(self) -> float:
        total = self.element_bytes
        for dim in self.shape:
            total *= dim
        return float(total)

    def blocks(self) -> Iterator[tuple[int, ...]]:
        """Iterate over every block index of the tensor."""
        return itertools.product(*(range(t.tile_count) for t in self.tilings))

    # ------------------------------------------------------------------ #
    def block_shape(self, block: Sequence[int]) -> tuple[int, ...]:
        self._check_block(block)
        return tuple(tiling[i] for tiling, i in zip(self.tilings, block))

    def block_bytes(self, block: Sequence[int]) -> float:
        """Size of one tile block, in bytes."""
        size = self.element_bytes
        for extent in self.block_shape(block):
            size *= extent
        return float(size)

    def owner(self, block: Sequence[int]) -> int:
        """Rank owning ``block`` (block-cyclic over the flattened block grid)."""
        self._check_block(block)
        flat = 0
        for index, count in zip(block, self.block_grid):
            flat = flat * count + index
        return flat % self.processes

    def request(self, block: Sequence[int], *, from_rank: int) -> BlockRequest:
        """Describe the GA get of ``block`` issued by ``from_rank``."""
        key = tuple(block)
        geometry = self._geometry.get(key)
        if geometry is None:
            geometry = self._geometry[key] = (self.block_bytes(key), self.owner(key))
        size, owner = geometry
        return BlockRequest(tensor=self.name, block=key, bytes=size, local=owner == from_rank)

    def __getstate__(self) -> dict:
        # The geometry memo is a cache: pickles carry the tensor's fields only.
        state = dict(self.__dict__)
        del state["_geometry"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _geometry={})

    # ------------------------------------------------------------------ #
    def _check_block(self, block: Sequence[int]) -> None:
        if len(block) != self.rank:
            raise ValueError(f"block index must have {self.rank} components, got {len(block)}")
        for index, tiling in zip(block, self.tilings):
            if not 0 <= index < tiling.tile_count:
                raise IndexError(f"block index {tuple(block)} out of range for {self.name}")
