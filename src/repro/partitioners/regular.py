"""Regular partitioners: BLOCK and CYCLIC as Partitioner objects.

These wrap the closed-form distributions so benchmarks can swap "naive
BLOCK" against RCB/RIB/chain uniformly (the paper's §4.1 comparison point:
spatial+load partitioners "perform significantly better than naive BLOCK
or CYCLIC distributions").
"""

from __future__ import annotations

import numpy as np

from repro.core.distribution import BlockDistribution, CyclicDistribution
from repro.partitioners.base import Partitioner, PartitionResult
from repro.sim.machine import Machine


class BlockPartitioner(Partitioner):
    """Contiguous index blocks, ignoring geometry and load."""

    name = "block"

    def partition(
        self,
        coords: np.ndarray,
        n_parts: int,
        weights: np.ndarray | None = None,
    ) -> PartitionResult:
        c, _ = self._validate(coords, n_parts, weights)
        labels = BlockDistribution(c.shape[0], n_parts).to_map_array()
        return PartitionResult(labels=labels, n_parts=n_parts)

    def parallel_cost(self, n_elements, n_parts, machine: Machine):
        return 0.0, machine.cost_model.message_time(16)


class CyclicPartitioner(Partitioner):
    """Round-robin by index, ignoring geometry and load."""

    name = "cyclic"

    def partition(
        self,
        coords: np.ndarray,
        n_parts: int,
        weights: np.ndarray | None = None,
    ) -> PartitionResult:
        c, _ = self._validate(coords, n_parts, weights)
        labels = CyclicDistribution(c.shape[0], n_parts).to_map_array()
        return PartitionResult(labels=labels, n_parts=n_parts)

    def parallel_cost(self, n_elements, n_parts, machine: Machine):
        return 0.0, machine.cost_model.message_time(16)
