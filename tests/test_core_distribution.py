"""Unit tests: distributions."""

import numpy as np
import pytest

from repro.core import (
    BlockDistribution,
    CyclicDistribution,
    Distribution,
    IrregularDistribution,
)

from conftest import assert_layout_follows_rule, count_calls


ALL_IDX = lambda n: np.arange(n, dtype=np.int64)  # noqa: E731


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
            assert_layout_follows_rule(BlockDistribution(n, p))

    def test_out_of_range_rejected(self):
        d = BlockDistribution(10, 2)
        with pytest.raises(IndexError):
            d.owner(np.array([10]))
        with pytest.raises(IndexError):
            d.owner(np.array([-1]))

    def test_more_ranks_than_elements(self):
        d = BlockDistribution(2, 5)
        assert sum(d.local_size(p) for p in range(5)) == 2
        assert_layout_follows_rule(d)


class TestIndexDtype:
    """Float and bool index arrays are a ``TypeError`` on every
    distribution, never truncated; empty arrays of any dtype are none."""

    DISTS = [BlockDistribution(10, 2), CyclicDistribution(10, 2),
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

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    def test_negative_rank_wraps(self, dist):
        assert dist.local_size(-1) == dist.local_size(1) == 5
        for bad in (2, -3):
            with pytest.raises(IndexError):
                dist.local_size(bad)


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
            assert_layout_follows_rule(CyclicDistribution(n, p))

    def test_sizes(self):
        d = CyclicDistribution(10, 3)
        assert [d.local_size(p) for p in range(3)] == [4, 3, 3]
        with pytest.raises(IndexError):
            d.local_size(3)


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
        assert_layout_follows_rule(IrregularDistribution(labels, 6))

    def test_map_out_of_range(self):
        with pytest.raises(ValueError):
            IrregularDistribution([0, 3], 2)
        with pytest.raises(ValueError):
            IrregularDistribution([-1, 0], 2)

    def test_to_map_array_roundtrip(self, rng):
        """The layout's owner of every element is the map it was built
        from."""
        labels = rng.integers(0, 4, 50)
        d = IrregularDistribution(labels, 4)
        assert np.array_equal(d.layout.owners, labels)

    @pytest.mark.parametrize("bad", [[0.5, 1.7, 1.2, 0.0],
                                     np.array([0.0, np.nan]),
                                     np.array([True, False])],
                             ids=["float", "nan", "bool"])
    def test_non_integer_map_rejected(self, bad):
        """A float, NaN or bool map is a ``TypeError``, never truncated
        to owners; an empty map of any dtype is no elements."""
        with pytest.raises(TypeError, match="must be integers"):
            IrregularDistribution(bad, 2)
        for empty in ([], np.zeros(0), np.zeros(0, dtype=bool)):
            assert IrregularDistribution(empty, 2).n_global == 0
        assert IrregularDistribution(np.array([1, 0], dtype=np.uint8),
                                     2).layout.owners.tolist() == [1, 0]

    def test_2d_map_rejected(self):
        with pytest.raises(ValueError):
            IrregularDistribution(np.zeros((2, 2), dtype=int), 2)

    def test_equality(self):
        """Distributions compare by identity; two built from one map are
        laid out alike, element for element."""
        a = IrregularDistribution([0, 1, 0], 2)
        b = IrregularDistribution([0, 1, 0], 2)
        c = IrregularDistribution([1, 1, 0], 2)
        assert a == a and a != b
        assert np.array_equal(a.layout.order, b.layout.order)
        assert not np.array_equal(a.layout.order, c.layout.order)

    def test_block_equals_equivalent_irregular(self):
        """BLOCK and the map that spells it out have one layout."""
        blk = BlockDistribution(6, 2)
        irr = IrregularDistribution([0, 0, 0, 1, 1, 1], 2)
        for field in ("order", "sizes", "owners", "offsets"):
            assert np.array_equal(getattr(blk.layout, field),
                                  getattr(irr.layout, field))

    def test_build_calls_independent_of_ranks(self):
        """One stable sort builds the layout: the same C calls at P=16 as at
        P=128, not one pass over the map per rank."""
        rng = np.random.default_rng(4403)
        got = []
        for p in (16, 128):
            labels = rng.integers(0, p, 40_000)
            got.append(count_calls(lambda: IrregularDistribution(labels, p)))
        assert got[0] == got[1]

    def test_layout_is_read_only(self):
        d = IrregularDistribution([1, 0, 1, 0, 2], 3)
        assert d.layout.order[:2].tolist() == [1, 3]
        for arr in (d.layout.order, d.local_sizes(), d.layout.owners,
                    d.layout.offsets, BlockDistribution(5, 2).local_sizes()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7


class _Rule(Distribution):
    """Two ranks whose owners and offsets are given element by element:
    a rule no closed form checks."""

    def __init__(self, owners, offsets):
        super().__init__(len(owners), 2)
        self._owners, self._offsets = np.array(owners), np.array(offsets)

    def owner(self, indices):
        return self._owners[self.check_indices(indices)]

    def local_index(self, indices):
        return self._offsets[self.check_indices(indices)]


class TestLayoutOfARule:
    """A rule's layout is checked where it is built: every element at
    its own offset inside its owner's size."""

    def test_valid_rule_builds(self):
        assert_layout_follows_rule(_Rule([1, 0, 1, 0], [1, 1, 0, 0]))

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError, match="two elements at one"):
            _Rule([0, 0, 1, 1], [0, 0, 0, 1]).layout

    @pytest.mark.parametrize("offsets", [[0, 2, 0, 1], [0, 1, 0, -1]],
                             ids=["past", "negative"])
    def test_offset_overrunning_its_rank_rejected(self, offsets):
        with pytest.raises(ValueError, match="outside its owner's size"):
            _Rule([0, 0, 1, 1], offsets).layout

    @pytest.mark.parametrize("owners", [[0, 0, 1, 2], [0, -1, 1, 1]],
                             ids=["past", "negative"])
    def test_owner_outside_the_ranks_rejected(self, owners):
        with pytest.raises(ValueError, match="outside the rank range"):
            _Rule(owners, [0, 1, 0, 1]).layout
