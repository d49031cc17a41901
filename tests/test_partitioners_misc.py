"""Unit tests: regular partitioners, quality metrics."""

import numpy as np
import pytest

from repro.partitioners import (
    BlockPartitioner,
    CyclicPartitioner,
    PartitionResult,
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
        res = PartitionResult(np.array([0, 1, 1, 2]), 3)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert res.part_weights(w).tolist() == [1.0, 5.0, 4.0]

    def test_part_weights_shape_check(self):
        with pytest.raises(ValueError):
            PartitionResult(np.array([0, 1]), 2).part_weights(np.ones(3))

    def test_imbalance_perfect(self):
        res = PartitionResult(np.array([0, 1, 0, 1]), 2)
        assert res.imbalance() == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        res = PartitionResult(np.array([0, 0, 0, 1]), 2)
        assert res.imbalance() == pytest.approx(1.5)
