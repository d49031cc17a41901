"""Unit tests: regular partitioners, quality metrics."""

import numpy as np
import pytest

from repro.partitioners import (
    BlockPartitioner,
    CyclicPartitioner,
    communication_volume,
    degree_weights,
    imbalance,
    part_weights,
)


class TestRegular:
    def test_block_labels(self, rng):
        res = BlockPartitioner().partition(rng.random((10, 2)), 2)
        assert res.labels.tolist() == [0] * 5 + [1] * 5

    def test_cyclic_labels(self, rng):
        res = CyclicPartitioner().partition(rng.random((6, 2)), 3)
        assert res.labels.tolist() == [0, 1, 2, 0, 1, 2]

    def test_empty(self):
        res = BlockPartitioner().partition(np.zeros((0, 3)), 4)
        assert res.labels.size == 0


class TestQualityMetrics:
    def test_part_weights(self):
        labels = np.array([0, 1, 1, 2])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert part_weights(labels, 3, w).tolist() == [1.0, 5.0, 4.0]

    def test_part_weights_shape_check(self):
        with pytest.raises(ValueError):
            part_weights(np.array([0, 1]), 2, np.ones(3))

    def test_imbalance_perfect(self):
        assert imbalance(np.array([0, 1, 0, 1]), 2) == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        assert imbalance(np.array([0, 0, 0, 1]), 2) == pytest.approx(1.5)

    def test_communication_volume_counts_ghosts(self):
        labels = np.array([0, 0, 1])
        edges = np.array([[0, 2], [1, 2]])
        # ghosts: 0->part1, 1->part1, 2->part0 (2 appears twice, counted once)
        assert communication_volume(labels, edges) == 3

    def test_communication_volume_no_cut(self):
        assert communication_volume(np.zeros(4, dtype=int),
                                    np.array([[0, 1]])) == 0

    def test_degree_weights(self):
        edges = np.array([[0, 1], [0, 2]])
        w = degree_weights(4, edges, base=1.0, per_edge=2.0)
        assert w.tolist() == [5.0, 3.0, 3.0, 1.0]
