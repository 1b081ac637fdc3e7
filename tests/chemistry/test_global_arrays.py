"""Tests for the Global-Arrays-like distributed tensor model."""

import pickle

import pytest

from repro.chemistry import DistributedTensor, Tiling


@pytest.fixture
def tensor():
    return DistributedTensor(
        name="t2",
        tilings=(Tiling((2, 3)), Tiling((4,))),
        processes=3,
        element_bytes=8,
    )


class TestDistributedTensor:
    def test_shape_and_grid(self, tensor):
        assert tensor.rank == 2
        assert tensor.shape == (5, 4)
        assert tensor.block_grid == (2, 1)
        assert tensor.total_bytes == 5 * 4 * 8

    def test_block_sizes(self, tensor):
        assert tensor.block_shape((0, 0)) == (2, 4)
        assert tensor.block_bytes((1, 0)) == 3 * 4 * 8

    def test_blocks_enumeration(self, tensor):
        assert list(tensor.blocks()) == [(0, 0), (1, 0)]

    def test_owner_is_block_cyclic_and_stable(self, tensor):
        owners = [tensor.owner(block) for block in tensor.blocks()]
        assert owners == [0, 1]
        assert all(0 <= owner < tensor.processes for owner in owners)

    def test_request_marks_local_blocks(self, tensor):
        local = tensor.request((0, 0), from_rank=0)
        remote = tensor.request((0, 0), from_rank=2)
        assert local.local and local.transferred_bytes == 0
        assert not remote.local and remote.transferred_bytes == local.bytes

    def test_invalid_blocks(self, tensor):
        with pytest.raises(ValueError):
            tensor.block_bytes((0,))
        with pytest.raises(IndexError):
            tensor.block_bytes((5, 0))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DistributedTensor(name="x", tilings=(), processes=2)
        with pytest.raises(ValueError):
            DistributedTensor(name="x", tilings=(Tiling((1,)),), processes=0)


class TestBadBlocks:
    """Bad blocks raise the same errors before and after valid blocks are seen."""

    BAD = [
        ((0,), ValueError, "block index must have 2 components, got 1"),
        ((0, 0, 0), ValueError, "block index must have 2 components, got 3"),
        ((2, 0), IndexError, r"block index \(2, 0\) out of range for t2"),
        ((0, 1), IndexError, r"block index \(0, 1\) out of range for t2"),
        ((-1, 0), IndexError, r"block index \(-1, 0\) out of range for t2"),
    ]

    @staticmethod
    def warm(tensor):
        for block in tensor.blocks():
            for rank in range(tensor.processes):
                tensor.request(block, from_rank=rank)

    @pytest.mark.parametrize("warm_first", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(("block", "error", "message"), BAD)
    def test_every_accessor_rejects_a_bad_block(self, tensor, warm_first, block, error, message):
        if warm_first:
            self.warm(tensor)
        for accessor in (
            lambda b: tensor.request(b, from_rank=0),
            tensor.block_bytes,
            tensor.block_shape,
            tensor.owner,
        ):
            with pytest.raises(error, match=message):
                accessor(block)
            with pytest.raises(error, match=message):
                accessor(list(block))

    def test_requests_are_fresh_and_agree_with_the_accessors(self, tensor):
        self.warm(tensor)
        for block in tensor.blocks():
            for rank in range(tensor.processes):
                first = tensor.request(list(block), from_rank=rank)
                second = tensor.request(block, from_rank=rank)
                assert first == second and first is not second
                assert first.block == block
                assert first.bytes == tensor.block_bytes(block)
                assert first.local == (tensor.owner(block) == rank)

    def test_use_does_not_change_equality_hash_repr_or_pickle(self, tensor):
        cold = DistributedTensor(
            name="t2", tilings=(Tiling((2, 3)), Tiling((4,))), processes=3, element_bytes=8
        )
        cold_pickle = pickle.dumps(cold)
        self.warm(tensor)
        assert tensor == cold and hash(tensor) == hash(cold)
        assert repr(tensor) == repr(cold)
        assert pickle.dumps(tensor) == cold_pickle
        clone = pickle.loads(cold_pickle)
        assert clone == tensor
        assert clone.request((1, 0), from_rank=1) == tensor.request((1, 0), from_rank=1)
