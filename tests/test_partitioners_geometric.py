"""Unit tests: RCB and RIB."""

import numpy as np
import pytest

from repro.core import IrregularDistribution
from repro.partitioners import RCB, RIB, run_partitioner
from repro.sim import Machine


def clustered_coords(rng, n=400, clusters=4):
    centers = rng.random((clusters, 3)) * 10
    pts = []
    for c in centers:
        pts.append(c + 0.3 * rng.standard_normal((n // clusters, 3)))
    return np.concatenate(pts)


@pytest.mark.parametrize("cls", [RCB, RIB])
class TestBisection:
    def test_every_element_assigned(self, cls, rng):
        coords = rng.random((100, 3))
        res = cls().partition(coords, 8)
        assert res.labels.shape == (100,)
        assert set(np.unique(res.labels)) <= set(range(8))

    def test_balance_with_uniform_weights(self, cls, rng):
        coords = rng.random((1000, 2))
        res = cls().partition(coords, 8)
        counts = np.bincount(res.labels, minlength=8)
        assert counts.max() - counts.min() <= 8

    def test_weighted_balance(self, cls, rng):
        coords = rng.random((500, 3))
        w = rng.random(500) * 10 + 0.1
        res = cls().partition(coords, 4, w)
        part = np.bincount(res.labels, weights=w, minlength=4)
        assert part.max() / part.mean() < 1.2

    def test_non_power_of_two_parts(self, cls, rng):
        coords = rng.random((300, 3))
        res = cls().partition(coords, 7)
        assert set(np.unique(res.labels)) == set(range(7))
        counts = np.bincount(res.labels, minlength=7)
        assert counts.min() > 0

    def test_single_part(self, cls, rng):
        res = cls().partition(rng.random((10, 3)), 1)
        assert np.all(res.labels == 0)

    def test_spatial_locality(self, cls, rng):
        """Parts are spatially compact: mean intra-part spread is much
        smaller than the global spread."""
        coords = clustered_coords(rng)
        res = cls().partition(coords, 4)
        global_spread = coords.std(axis=0).mean()
        intra = []
        for k in range(4):
            pts = coords[res.labels == k]
            intra.append(pts.std(axis=0).mean())
        assert np.mean(intra) < global_spread

    def test_1d_coords_accepted(self, cls, rng):
        res = cls().partition(rng.random(64), 4)
        assert res.labels.shape == (64,)

    def test_degenerate_identical_points(self, cls):
        coords = np.ones((16, 3))
        res = cls().partition(coords, 4)
        counts = np.bincount(res.labels, minlength=4)
        assert counts.max() <= 8  # still splits somehow

    def test_negative_weights_rejected(self, cls, rng):
        with pytest.raises(ValueError):
            cls().partition(rng.random((10, 3)), 2, -np.ones(10))

    def test_weight_shape_mismatch_rejected(self, cls, rng):
        with pytest.raises(ValueError):
            cls().partition(rng.random((10, 3)), 2, np.ones(9))

    def test_parallel_cost_grows_with_p(self, cls):
        part = cls()
        m16, m128 = Machine(16), Machine(128)
        c16 = sum(part.parallel_cost(10000, 16, m16))
        c128 = sum(part.parallel_cost(10000, 128, m128))
        assert c128 > c16 * 0.5  # communication grows even as compute shrinks
        comm16 = part.parallel_cost(10000, 16, m16)[1]
        comm128 = part.parallel_cost(10000, 128, m128)[1]
        assert comm128 > comm16


class TestRIBSpecific:
    def test_diagonal_geometry_single_cut(self, rng):
        """RIB should split an elongated diagonal cloud across its long
        axis, producing two compact halves."""
        t = rng.random(400)
        coords = np.stack([t * 10, t * 10, 0.1 * rng.standard_normal(400)],
                          axis=1)
        res = RIB().partition(coords, 2)
        m0 = coords[res.labels == 0].mean(axis=0)
        m1 = coords[res.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 3.0


class TestRunPartitioner:
    def test_charges_partition_category(self, rng):
        m = Machine(8)
        run_partitioner(m, RCB(), rng.random((200, 3)))
        assert m.clocks.mean_category("partition") > 0

    def test_result_converts_to_distribution(self, rng):
        m = Machine(4)
        res = run_partitioner(m, RCB(), rng.random((50, 3)))
        dist = res.to_distribution(4)
        assert isinstance(dist, IrregularDistribution)
        assert dist.n_global == 50
