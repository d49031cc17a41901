"""Partitioner protocol and the charged parallel-execution wrapper.

CHAOS "supports a number of parallel partitioners that partition data
arrays using heuristics based on spatial positions, computational load,
connectivity, etc." (§3.1).  Each partitioner here computes an assignment
of elements to ranks from positions and weights; the
:func:`run_partitioner` wrapper additionally charges the *parallel cost*
of running it on the simulated machine, using each partitioner's declared
cost model — this is what makes Table 5's "recursive bisection gets
expensive at high P" effect reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.distribution import IrregularDistribution
from repro.sim.machine import Machine


@dataclass
class PartitionResult:
    """One part label per element."""

    labels: np.ndarray  # rank per element
    n_parts: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_parts
        ):
            raise ValueError("labels outside [0, n_parts)")

    def to_distribution(self, n_ranks: int | None = None) -> IrregularDistribution:
        return IrregularDistribution(self.labels, n_ranks or self.n_parts)


class Partitioner(ABC):
    """Computes an element→rank assignment from geometry and load."""

    name: str = "abstract"

    @abstractmethod
    def partition(
        self,
        coords: np.ndarray,
        n_parts: int,
        weights: np.ndarray | None = None,
    ) -> PartitionResult:
        """Partition elements at ``coords`` (n, d) into ``n_parts`` parts.

        ``weights`` are per-element computational loads (uniform if None).
        """

    # -- parallel cost model -------------------------------------------
    @abstractmethod
    def parallel_cost(
        self, n_elements: int, n_parts: int, machine: Machine
    ) -> tuple[float, float]:
        """(per-rank compute seconds, per-rank comm seconds) estimate for
        running this partitioner *in parallel* on ``machine``, from the
        partitioner's own structure."""

    @staticmethod
    def _validate(coords: np.ndarray, n_parts: int,
                  weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(coords, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2:
            raise ValueError(f"coords must be (n, d), got shape {c.shape}")
        if n_parts < 1:
            raise ValueError(f"n_parts must be >= 1, got {n_parts}")
        if weights is None:
            w = np.ones(c.shape[0], dtype=float)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (c.shape[0],):
                raise ValueError(
                    f"weights shape {w.shape} != ({c.shape[0]},)"
                )
            if np.any(w < 0):
                raise ValueError("negative weights")
        return c, w


def run_partitioner(
    machine: Machine,
    partitioner: Partitioner,
    coords: np.ndarray,
    weights: np.ndarray | None = None,
    category: str = "partition",
) -> PartitionResult:
    """Run a partitioner 'in parallel' on the machine, charging its cost.

    The assignment itself is computed host-side (deterministically); the
    machine's clocks advance by the partitioner's parallel cost model and
    a final all-gather distributes the new map array (the translation
    table build charges separately when the caller constructs it).
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    result = partitioner.partition(coords, machine.n_ranks, weights)
    compute, comm = partitioner.parallel_cost(n, machine.n_ranks, machine)
    for p in machine.ranks():
        machine.charge_time(p, compute, category)
        machine.charge_time(p, comm, category)
    machine.barrier()
    return result
