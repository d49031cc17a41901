"""Unit tests: distributions."""

import numpy as np
import pytest

from repro.core import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    IrregularDistribution,
)


ALL_IDX = lambda n: np.arange(n, dtype=np.int64)  # noqa: E731


def check_invariants(dist):
    """Every element owned exactly once; offsets form 0..size-1 per rank."""
    n = dist.n_global
    owners = dist.owner(ALL_IDX(n))
    offsets = dist.local_index(ALL_IDX(n))
    total = 0
    for p in range(dist.n_ranks):
        mine = np.flatnonzero(owners == p)
        assert mine.size == dist.local_size(p)
        assert np.array_equal(np.sort(offsets[mine]),
                              np.arange(mine.size))
        assert np.array_equal(dist.global_indices(p), np.sort(mine)) or \
            set(dist.global_indices(p).tolist()) == set(mine.tolist())
        total += mine.size
    assert total == n


class TestBlock:
    def test_even_split(self):
        d = BlockDistribution(8, 4)
        assert [d.local_size(p) for p in range(4)] == [2, 2, 2, 2]
        assert np.array_equal(d.owner(np.array([0, 1, 2, 7])),
                              np.array([0, 0, 1, 3]))

    def test_uneven_split_front_loaded(self):
        d = BlockDistribution(10, 4)
        assert [d.local_size(p) for p in range(4)] == [3, 3, 2, 2]

    def test_local_index(self):
        d = BlockDistribution(10, 4)
        assert d.local_index(np.array([3]))[0] == 0  # rank1 starts at 3
        assert d.local_index(np.array([9]))[0] == 1

    def test_invariants(self):
        for n, p in [(0, 3), (1, 4), (17, 5), (100, 7)]:
            check_invariants(BlockDistribution(n, p))

    def test_out_of_range_rejected(self):
        d = BlockDistribution(10, 2)
        with pytest.raises(IndexError):
            d.owner(np.array([10]))
        with pytest.raises(IndexError):
            d.owner(np.array([-1]))

    def test_block_start(self):
        d = BlockDistribution(10, 4)
        assert d.block_start(0) == 0
        assert d.block_start(2) == 6

    def test_more_ranks_than_elements(self):
        d = BlockDistribution(2, 5)
        assert sum(d.local_size(p) for p in range(5)) == 2
        check_invariants(d)


class TestIndexDtype:
    """Float and bool index arrays are a ``TypeError`` on every
    distribution, never truncated; empty arrays of any dtype are none."""

    DISTS = [BlockDistribution(10, 2), CyclicDistribution(10, 2),
             BlockCyclicDistribution(10, 2, 3),
             IrregularDistribution([0, 1] * 5, 2)]

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("bad", [np.array([1.5]), np.array([2.0, 3.0]),
                                     np.array([True]), [0.5], 2.0],
                             ids=["float", "whole-float", "bool", "list",
                                  "scalar"])
    def test_non_integer_rejected(self, dist, bad):
        for query in (dist.owner, dist.local_index, dist.check_indices):
            with pytest.raises(TypeError, match="must be integers"):
                query(bad)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    def test_empty_and_integer_kinds_accepted(self, dist):
        for empty in (np.zeros(0), np.zeros(0, dtype=bool), []):
            assert dist.owner(empty).tolist() == []
        assert dist.owner(np.array([3], dtype=np.uint8)).tolist() == \
            dist.owner(np.array([3])).tolist()
        assert dist.check_indices(np.array([4], dtype=np.int32)).dtype == \
            np.int64


class TestCyclic:
    def test_round_robin(self):
        d = CyclicDistribution(10, 3)
        assert np.array_equal(d.owner(np.array([0, 1, 2, 3, 4])),
                              np.array([0, 1, 2, 0, 1]))

    def test_local_index(self):
        d = CyclicDistribution(10, 3)
        assert d.local_index(np.array([6]))[0] == 2

    def test_invariants(self):
        for n, p in [(0, 2), (11, 3), (64, 8)]:
            check_invariants(CyclicDistribution(n, p))

    def test_sizes(self):
        d = CyclicDistribution(10, 3)
        assert [d.local_size(p) for p in range(3)] == [4, 3, 3]
        with pytest.raises(IndexError):
            d.local_size(3)


class TestBlockCyclic:
    def test_blocks_dealt(self):
        d = BlockCyclicDistribution(12, 2, block_size=3)
        assert np.array_equal(
            d.owner(ALL_IDX(12)),
            np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]),
        )

    def test_local_index(self):
        d = BlockCyclicDistribution(12, 2, block_size=3)
        # element 7 is the second element of rank0's second block
        assert d.local_index(np.array([7]))[0] == 4

    def test_invariants(self):
        check_invariants(BlockCyclicDistribution(23, 4, block_size=3))

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockCyclicDistribution(10, 2, block_size=0)

    def test_block_size_one_is_cyclic(self):
        d1 = BlockCyclicDistribution(10, 3, 1)
        d2 = CyclicDistribution(10, 3)
        assert np.array_equal(d1.owner(ALL_IDX(10)), d2.owner(ALL_IDX(10)))


class TestIrregular:
    def test_from_map(self):
        d = IrregularDistribution([1, 0, 1, 0, 2], 3)
        assert np.array_equal(d.owner(ALL_IDX(5)), [1, 0, 1, 0, 2])
        assert d.local_size(0) == 2
        assert d.local_size(2) == 1

    def test_offsets_ascending_by_global(self):
        d = IrregularDistribution([1, 0, 1, 0, 1], 2)
        # rank1 owns globals 0, 2, 4 at offsets 0, 1, 2
        assert np.array_equal(d.local_index(np.array([0, 2, 4])), [0, 1, 2])

    def test_invariants(self, rng):
        labels = rng.integers(0, 6, 100)
        check_invariants(IrregularDistribution(labels, 6))

    def test_map_out_of_range(self):
        with pytest.raises(ValueError):
            IrregularDistribution([0, 3], 2)
        with pytest.raises(ValueError):
            IrregularDistribution([-1, 0], 2)

    def test_to_map_array_roundtrip(self, rng):
        labels = rng.integers(0, 4, 50)
        d = IrregularDistribution(labels, 4)
        assert np.array_equal(d.to_map_array(), labels)

    def test_2d_map_rejected(self):
        with pytest.raises(ValueError):
            IrregularDistribution(np.zeros((2, 2), dtype=int), 2)

    def test_from_partition_lists(self):
        parts = [np.array([0, 3]), np.array([1, 2])]
        d = IrregularDistribution.from_partition_lists(parts, 4)
        assert np.array_equal(d.to_map_array(), [0, 1, 1, 0])

    def test_from_partition_lists_duplicate_rejected(self):
        with pytest.raises(ValueError):
            IrregularDistribution.from_partition_lists(
                [np.array([0, 1]), np.array([1])], 2
            )

    def test_from_partition_lists_missing_rejected(self):
        with pytest.raises(ValueError):
            IrregularDistribution.from_partition_lists(
                [np.array([0]), np.array([2])], 3
            )

    def test_equality(self):
        a = IrregularDistribution([0, 1, 0], 2)
        b = IrregularDistribution([0, 1, 0], 2)
        c = IrregularDistribution([1, 1, 0], 2)
        assert a == b
        assert a != c
        assert a != BlockDistribution(3, 2) or np.array_equal(
            a.to_map_array(), BlockDistribution(3, 2).to_map_array()
        )

    def test_block_equals_equivalent_irregular(self):
        blk = BlockDistribution(6, 2)
        irr = IrregularDistribution([0, 0, 0, 1, 1, 1], 2)
        assert blk == irr
