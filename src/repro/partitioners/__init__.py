"""Data partitioners: RCB, RIB, chain."""

from repro.partitioners.base import Partitioner, PartitionResult, run_partitioner
from repro.partitioners.geometric import (
    RCB,
    RIB,
    RecursiveCoordinateBisection,
    RecursiveInertialBisection,
)
from repro.partitioners.chain import ChainPartitioner, chain_boundaries

__all__ = [
    "Partitioner",
    "PartitionResult",
    "run_partitioner",
    "RCB",
    "RIB",
    "RecursiveCoordinateBisection",
    "RecursiveInertialBisection",
    "ChainPartitioner",
    "chain_boundaries",
]
