"""Unit tests: cost models."""

import pytest

from repro.sim import CostModel, IPSC860, MODERN_CLUSTER, PARAGON


class TestCostModel:
    def test_message_time_linear_in_bytes(self):
        cm = CostModel(alpha=1e-4, beta=1e-6, gamma=0.0)
        t1 = cm.message_time(1000)
        t2 = cm.message_time(2000)
        assert t2 - t1 == pytest.approx(1000 * 1e-6)

    def test_message_time_includes_alpha(self):
        cm = CostModel(alpha=5e-5, beta=0.0, gamma=0.0)
        assert cm.message_time(0) == pytest.approx(5e-5)
        assert cm.message_time(10**6) == pytest.approx(5e-5)

    def test_hop_penalty(self):
        cm = CostModel(alpha=0.0, beta=0.0, gamma=2e-6)
        assert cm.message_time(8, hops=1) == pytest.approx(0.0)
        assert cm.message_time(8, hops=4) == pytest.approx(6e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            IPSC860.message_time(-1)

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError):
            IPSC860.message_time(8, hops=0)

    def test_compute_time_scales(self):
        assert IPSC860.compute_time(100) == pytest.approx(100 * IPSC860.flop)

    def test_compute_time_negative_rejected(self):
        with pytest.raises(ValueError):
            IPSC860.compute_time(-5)

    def test_memory_time(self):
        assert IPSC860.memory_time(10) == pytest.approx(10 * IPSC860.memop)
        with pytest.raises(ValueError):
            IPSC860.memory_time(-1)

    def test_presets_ordering(self):
        # newer machines have lower latency and higher bandwidth
        assert PARAGON.alpha < IPSC860.alpha
        assert PARAGON.beta < IPSC860.beta
        assert MODERN_CLUSTER.alpha < PARAGON.alpha

    def test_presets_named(self):
        assert IPSC860.name == "iPSC/860"
        assert PARAGON.name == "Paragon"

    def test_message_aggregation_wins(self):
        """k messages of n bytes cost more than one message of k*n bytes —
        the premise of communication vectorization."""
        k, n = 10, 100
        many = k * IPSC860.message_time(n)
        one = IPSC860.message_time(k * n)
        assert one < many
