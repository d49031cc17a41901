"""Unit tests: the 1-D chain partitioner."""

import numpy as np
import pytest

from repro.partitioners import ChainPartitioner, chain_boundaries
from repro.sim import Machine


class TestChainBoundaries:
    def test_uniform_weights_even_split(self):
        bounds = chain_boundaries(np.ones(12), 4)
        assert bounds.tolist() == [0, 3, 6, 9, 12]

    def test_contiguity_and_coverage(self, rng):
        w = rng.random(100)
        bounds = chain_boundaries(w, 7)
        assert bounds[0] == 0 and bounds[-1] == 100
        assert np.all(np.diff(bounds) >= 0)

    def test_bottleneck_optimality_small(self):
        """Compare against brute force on a small instance."""
        w = np.array([5.0, 1.0, 1.0, 1.0, 5.0, 1.0])
        bounds = chain_boundaries(w, 3)
        got = max(w[bounds[k]:bounds[k + 1]].sum() for k in range(3))
        # brute force all 2-split-point placements
        best = np.inf
        n = len(w)
        for i in range(1, n):
            for j in range(i, n):
                parts = [w[:i].sum(), w[i:j].sum(), w[j:].sum()]
                best = min(best, max(parts))
        assert got == pytest.approx(best)

    def test_single_part(self):
        assert chain_boundaries(np.ones(5), 1).tolist() == [0, 5]

    def test_more_parts_than_elements(self):
        bounds = chain_boundaries(np.ones(3), 5)
        assert bounds[-1] == 3
        sizes = np.diff(bounds)
        assert sizes.sum() == 3

    def test_empty_weights(self):
        bounds = chain_boundaries(np.zeros(0), 3)
        assert bounds.tolist() == [0, 0, 0, 0]

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            chain_boundaries(np.array([-1.0]), 2)

    def test_heavy_single_element(self):
        w = np.array([1.0, 100.0, 1.0, 1.0])
        bounds = chain_boundaries(w, 3)
        got = max(w[bounds[k]:bounds[k + 1]].sum() for k in range(3))
        assert got == pytest.approx(100.0)


class TestChainPartitioner:
    def test_contiguous_along_axis(self, rng):
        coords = rng.random((200, 3))
        res = ChainPartitioner(axis=0).partition(coords, 4)
        # sort by x: labels must be non-decreasing
        order = np.argsort(coords[:, 0], kind="stable")
        assert np.all(np.diff(res.labels[order]) >= 0)

    def test_default_axis_is_longest(self, rng):
        coords = rng.random((100, 3))
        coords[:, 1] *= 50  # y is longest
        res = ChainPartitioner().partition(coords, 4)
        order = np.argsort(coords[:, 1], kind="stable")
        assert np.all(np.diff(res.labels[order]) >= 0)

    def test_weighted_balance(self, rng):
        coords = rng.random((500, 2))
        w = rng.random(500) + 0.1
        res = ChainPartitioner(axis=0).partition(coords, 8, w)
        part = np.bincount(res.labels, weights=w, minlength=8)
        assert part.max() / part.mean() < 1.35

    def test_bad_axis_rejected(self, rng):
        with pytest.raises(ValueError):
            ChainPartitioner(axis=3).partition(rng.random((10, 2)), 2)

    def test_cheaper_than_rcb(self):
        """The paper's Table 5 rationale: chain cost is nearly flat in P
        and far below recursive bisection."""
        from repro.partitioners import RCB

        m = Machine(128)
        chain_cost = sum(ChainPartitioner().parallel_cost(100000, 128, m))
        rcb_cost = sum(RCB().parallel_cost(100000, 128, m))
        assert chain_cost < rcb_cost / 5

    def test_single_part(self, rng):
        res = ChainPartitioner().partition(rng.random((10, 2)), 1)
        assert np.all(res.labels == 0)
