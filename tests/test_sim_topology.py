"""Unit tests: topologies."""

import numpy as np
import pytest

from repro.sim import FullCrossbar, Hypercube
from repro.sim.topology import default_topology


class TestHypercube:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Hypercube(6)

    def test_dimension(self):
        assert Hypercube(1).dimension == 0
        assert Hypercube(8).dimension == 3
        assert Hypercube(128).dimension == 7

    def test_hops_is_hamming_distance(self):
        h = Hypercube(16)
        assert h.hops(0, 0) == 0
        assert h.hops(0, 15) == 4
        assert h.hops(0b1010, 0b0101) == 4
        assert h.hops(3, 1) == 1

    def test_hops_symmetric(self):
        h = Hypercube(8)
        for a in range(8):
            for b in range(8):
                assert h.hops(a, b) == h.hops(b, a)

    def test_rank_range_checked(self):
        h = Hypercube(4)
        with pytest.raises(IndexError):
            h.hops(0, 4)
        with pytest.raises(IndexError):
            h.hops(-1, 0)


class TestFullCrossbar:
    def test_single_hop(self):
        x = FullCrossbar(5)
        assert x.hops(0, 4) == 1
        assert x.hops(2, 2) == 0


class TestDefaults:
    def test_power_of_two_gives_hypercube(self):
        assert isinstance(default_topology(16), Hypercube)

    def test_other_counts_give_crossbar(self):
        assert isinstance(default_topology(6), FullCrossbar)

    def test_hop_matrix(self):
        h = Hypercube(4)
        m = h.hop_matrix()
        assert m.shape == (4, 4)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0)


def _scalar_hop_matrix(topo):
    return np.array([[topo.hops(a, b) for b in range(topo.n_ranks)]
                     for a in range(topo.n_ranks)], dtype=np.int64)


TOPOLOGIES = {
    **{f"hypercube-{p}": (Hypercube, p) for p in (1, 2, 8, 128)},
    **{f"crossbar-{p}": (FullCrossbar, p) for p in (1, 2, 8, 128)},
}


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_hop_matrix_array_form_equals_scalar_hops(name):
    """Each topology's array-form ``hop_matrix`` is exactly the matrix of
    its scalar ``hops``."""
    cls, *dims = TOPOLOGIES[name]
    topo = cls(*dims)
    m = topo.hop_matrix()
    assert m.dtype == np.int64
    assert np.array_equal(m, _scalar_hop_matrix(topo))
